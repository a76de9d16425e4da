//! `locap-obs` — the workspace's observability layer.
//!
//! Every hot path in the workspace (the memoized view/neighbourhood
//! engines, the census sweeps, the core pipelines) reports into one
//! process-global [`Registry`] of named metrics:
//!
//! * **counters** — monotone `u64` totals (`engine/po/evals`), safe to
//!   bump from any thread, including the workers of the census fan-out
//!   (`locap_graph::par`);
//! * **gauges** — last-write-wins `i64` levels (`view_cache/classes`);
//! * **spans** — RAII scoped timers ([`span`]) whose durations aggregate
//!   into [`Histogram`]s: the one histogram type, 16 sub-buckets per
//!   power-of-two octave, which `locapd`'s request-phase latencies use
//!   too. Spans nest per thread: a span opened while another is active
//!   records under `parent/child`, so `obs::span("oi_to_po")` + inner
//!   `obs::span("simulate")` yields `oi_to_po/simulate`. Worker threads
//!   start a fresh path; the census fan-out's workers adopt their
//!   caller's with [`adopt_span_path`] and record a `…/worker` row under
//!   it.
//!
//! Everything is exportable as machine-readable text with a stable
//! schema shared with the checked-in `BENCH_views.json` baseline:
//! [`Snapshot::to_json`] emits a single line of JSON whose `results` rows
//! carry the same `bench`/`name`/`median_ns`/`min_ns`/`samples` fields the
//! bench gate compares, and [`Snapshot::to_tsv`] emits one tab-separated
//! row per metric. [`validate_bench_schema`] checks either document shape.
//!
//! The layer is dependency-free (std only) and always on; per-event cost
//! is an atomic add once handles are held, and a mutex-guarded name lookup
//! when they are not. Hot loops should hoist handles ([`counter`] returns
//! a cheap clone) — the workspace's instrumentation points all sit at run
//! boundaries, not inner loops.
//!
//! On top of the aggregates, the [`trace`] module records *individual*
//! events — every span, instant marker and counter sample, timestamped
//! and thread-tagged — into bounded per-thread ring buffers, exported as
//! Chrome trace-event JSON and collapsed flamegraph stacks. It is off
//! unless `OBS_TRACE` is set and costs one relaxed atomic load per probe
//! when off.

#![warn(missing_docs)]

pub mod json;
pub mod telemetry;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use json::Json;
use telemetry::HistogramState;

/// The schema version emitted by exporters and expected in baselines.
pub const SCHEMA_VERSION: u64 = 2;

/// A monotone counter handle; cloning shares the same underlying value.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level handle; cloning shares the underlying value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Sets the gauge to the maximum of its current value and `v`.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution of a [`Histogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` equal-width sub-buckets.
const SUB_BITS: usize = 4;

/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count of a [`Histogram`]: values `0..16` get an exact
/// bucket each, then 16 sub-buckets per octave up to `u64::MAX`.
pub const BUCKETS: usize = (64 - SUB_BITS + 1) * SUBS;

/// The [`Histogram`] bucket a value lands in.
///
/// Values below 16 map to their own bucket (exact). Larger values keep
/// their top 5 significant bits: with `e = ⌊log₂ v⌋` the bucket is
/// `(e − 3)·16 + ((v >> (e − 4)) − 16)`.
pub fn bucket_index(value_ns: u64) -> usize {
    if value_ns < SUBS as u64 {
        return value_ns as usize;
    }
    let e = 63 - value_ns.leading_zeros() as usize;
    let sub = ((value_ns >> (e - SUB_BITS)) as usize) - SUBS;
    (e - SUB_BITS + 1) * SUBS + sub
}

/// The inclusive upper bound of a [`Histogram`] bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = index / SUBS;
    let sub = index % SUBS;
    let e = octave + SUB_BITS - 1;
    let hi = (SUBS + sub + 1) as u128;
    let bound = (hi << (e - SUB_BITS)) - 1;
    bound.min(u64::MAX as u128) as u64
}

/// A duration histogram with exact count/sum/min/max and 16 sub-buckets
/// per power-of-two octave, so a bucket's upper bound overshoots any value
/// in it by at most `1/16` (6.25%) of that value; values below 16 ns are
/// exact. Spans and the `serve/request/*` phase latencies both record
/// into it, and [`Histogram::state`] is its one read.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_ns, Ordering::Relaxed);
        self.min.fetch_min(value_ns, Ordering::Relaxed);
        self.max.fetch_max(value_ns, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_index(value_ns)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy: exact aggregates plus the sparse non-zero
    /// bucket counts. The fields are read one by one while other threads
    /// may record, so a capture can see `count` bumped before `min`/`max`;
    /// it then reports `min = max` rather than `min > max`. An empty
    /// histogram reports 0/0 min/max.
    pub fn state(&self) -> HistogramState {
        let count = self.count.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            let max = self.max.load(Ordering::Relaxed);
            (self.min.load(Ordering::Relaxed).min(max), max)
        };
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect();
        HistogramState { count, sum: self.sum.load(Ordering::Relaxed), min, max, buckets }
    }

    /// The summary row of [`Histogram::state`]: exact aggregates and
    /// the p50.
    pub fn snapshot(&self) -> HistStats {
        let s = self.state();
        HistStats {
            count: s.count,
            total_ns: s.sum,
            min_ns: s.min,
            max_ns: s.max,
            p50_ns: s.quantile(0.5),
        }
    }

    /// The nearest-rank `q`-quantile of [`Histogram::state`]; see
    /// [`HistogramState::quantile`].
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.state().quantile(q)
    }
}

/// The 1-based nearest rank of quantile `q` among `count` observations:
/// `⌈q·count⌉` clamped to `1..=count` (0 when `count` is 0).
pub fn quantile_rank(count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let r = (q * count as f64).ceil() as u64;
    r.clamp(1, count)
}

/// Aggregate statistics of one histogram / span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub total_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation (0 when empty).
    pub max_ns: u64,
    /// Median estimate: its bucket's upper bound (within 1/16 of the
    /// true median), clamped into `[min_ns, max_ns]`.
    pub p50_ns: u64,
}

/// The process-wide metric store. Most callers use the free functions on
/// the [`global`] registry; a private registry is handy in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>, // lint: lock-rank=10
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,   // lint: lock-rank=11
    spans: Mutex<BTreeMap<String, Arc<Histogram>>>,    // lint: lock-rank=12
    latencies: Mutex<BTreeMap<String, Arc<Histogram>>>, // lint: lock-rank=13
}

/// The crate's one poison-recovery site. A
/// poisoned registry map only means some thread panicked mid-insert;
/// the map itself is still structurally sound, and observability must
/// keep working — especially *during* a panic unwind, which is exactly
/// when the buffered data matters most. Recovery clears the poison
/// flag so later acquisitions take the `Ok` path again. No poison
/// counter is bumped here on purpose: the poisoned lock may be the
/// counter registry's own, and counting through it would re-enter the
/// lock being recovered.
#[expect(
    clippy::disallowed_methods,
    reason = "the crate's one poison-recovery site: a poisoned registry map is still \
              structurally sound, and recovery clears the poison flag"
)]
pub(crate) fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_unpoisoned(&self.counters);
        match map.get(name) {
            Some(c) => Counter(Arc::clone(c)),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), Arc::clone(&c));
                Counter(c)
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_unpoisoned(&self.gauges);
        match map.get(name) {
            Some(g) => Gauge(Arc::clone(g)),
            None => {
                let g = Arc::new(AtomicI64::new(0));
                map.insert(name.to_string(), Arc::clone(&g));
                Gauge(g)
            }
        }
    }

    /// The span histogram named `name`, created on first use.
    pub fn span_histogram(&self, name: &str) -> Arc<Histogram> {
        histogram_in(&self.spans, name)
    }

    /// The latency histogram named `name`, created on first use.
    /// Latencies live in their own section (exported by the [`telemetry`]
    /// module), separate from the span histograms.
    pub fn latency(&self, name: &str) -> Arc<Histogram> {
        histogram_in(&self.latencies, name)
    }

    /// Records a duration under a span name without an RAII guard.
    pub fn record_span_ns(&self, name: &str, ns: u64) {
        self.span_histogram(name).record(ns);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_unpoisoned(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock_unpoisoned(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let spans = lock_unpoisoned(&self.spans)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot { counters, gauges, spans }
    }

    /// Removes every metric. Handles held across a reset keep updating
    /// their detached values; re-looking up the name yields a fresh metric.
    pub fn reset(&self) {
        lock_unpoisoned(&self.counters).clear();
        lock_unpoisoned(&self.gauges).clear();
        lock_unpoisoned(&self.spans).clear();
        lock_unpoisoned(&self.latencies).clear();
    }
}

/// The histogram named `name` in one registry section, created on first
/// use.
fn histogram_in(section: &Mutex<BTreeMap<String, Arc<Histogram>>>, name: &str) -> Arc<Histogram> {
    let mut map = lock_unpoisoned(section);
    match map.get(name) {
        Some(h) => Arc::clone(h),
        None => {
            let h = Arc::new(Histogram::default());
            map.insert(name.to_string(), Arc::clone(&h));
            h
        }
    }
}

fn global_registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    global_registry()
}

/// The global counter named `name`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The global gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The global latency histogram named `name`.
pub fn latency(name: &str) -> Arc<Histogram> {
    global().latency(name)
}

/// Records `ns` under the global span `name` without a guard.
pub fn record_span_ns(name: &str, ns: u64) {
    global().record_span_ns(name, ns);
}

/// A point-in-time copy of all global metrics.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears all global metrics (see [`Registry::reset`] for caveats).
pub fn reset() {
    global().reset();
}

/// One open guard on a thread's span stack.
#[derive(Debug, Clone, Copy)]
struct SpanEntry {
    /// Unique (per thread) identity of the guard that pushed this entry.
    token: u64,
    /// Length of the thread path including this entry's segment.
    end: usize,
}

/// A thread's nested span state: the composed path string plus one entry
/// per open guard. Guards carry a token instead of a raw truncation
/// length, so dropping them out of LIFO order (e.g. via `mem::drop`
/// reordering) still records each span under the path it was *opened*
/// with and still unwinds the path fully once all guards are gone.
#[derive(Debug)]
struct SpanStack {
    path: String,
    entries: Vec<SpanEntry>,
    next_token: u64,
}

impl SpanStack {
    const fn new() -> SpanStack {
        SpanStack { path: String::new(), entries: Vec::new(), next_token: 0 }
    }

    /// Pushes `name` (or a full adopted path) and returns its token.
    fn push(&mut self, name: &str) -> u64 {
        if !self.path.is_empty() {
            self.path.push('/');
        }
        self.path.push_str(name);
        let token = self.next_token;
        self.next_token += 1;
        self.entries.push(SpanEntry { token, end: self.path.len() });
        token
    }

    /// Removes the entry for `token`, returning the length of the path as
    /// it was when that entry was opened (i.e. including its segment).
    /// Trailing segments whose guards are all gone are shed from `path`.
    fn pop(&mut self, token: u64) -> Option<usize> {
        let idx = self.entries.iter().rposition(|e| e.token == token)?;
        let end = self.entries[idx].end;
        self.entries.remove(idx);
        if idx == self.entries.len() {
            // Removed the top guard: the path can shrink to the deepest
            // still-open entry, which also sheds any dangling segments of
            // guards below that were dropped out of order earlier.
            let keep = self.entries.last().map_or(0, |e| e.end);
            self.path.truncate(keep);
        }
        Some(end)
    }
}

thread_local! {
    /// The current span stack of this thread (empty at top level).
    static SPAN_STACK: RefCell<SpanStack> = const { RefCell::new(SpanStack::new()) };
}

/// An RAII scoped timer: the elapsed time between construction and drop is
/// recorded in the global registry under the thread's nested span path,
/// and — when [`trace`] collection is on — emitted as a timeline event
/// with the span's structured args.
///
/// A span opened inside another records under `outer/inner`. Guards
/// normally drop in LIFO order (natural scoping), but out-of-order drops
/// are safe: each guard records under the path that was current when it
/// was *opened*, and the path unwinds fully once every guard is gone.
/// Guards are not `Send`; they must drop on the thread that opened them.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    token: u64,
    start: Instant,
    args: [(&'static str, i64); trace::MAX_ARGS],
    n_args: u8,
    /// Spans are tied to the thread-local stack they were opened on.
    _not_send: PhantomData<*const ()>,
}

/// Opens a scoped timer on the global registry. See [`Span`].
pub fn span(name: &str) -> Span {
    span_with(name, &[])
}

/// Opens a scoped timer carrying structured args (visible in trace
/// exports; at most [`trace::MAX_ARGS`] are kept). See [`Span`].
#[expect(
    clippy::disallowed_methods,
    reason = "span timing source of the observability layer itself"
)]
pub fn span_with(name: &str, args: &[(&'static str, i64)]) -> Span {
    let token = SPAN_STACK.with(|s| s.borrow_mut().push(name));
    let mut packed = [("", 0i64); trace::MAX_ARGS];
    let n = args.len().min(trace::MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    Span { token, start: Instant::now(), args: packed, n_args: n as u8, _not_send: PhantomData }
}

impl Span {
    /// Sets a structured arg on the span (for values only known at scope
    /// end, e.g. a per-round message count). Updates an existing key or
    /// appends; silently dropped beyond [`trace::MAX_ARGS`] keys.
    pub fn arg(&mut self, key: &'static str, value: i64) {
        for slot in self.args[..self.n_args as usize].iter_mut() {
            if slot.0 == key {
                slot.1 = value;
                return;
            }
        }
        if (self.n_args as usize) < trace::MAX_ARGS {
            self.args[self.n_args as usize] = (key, value);
            self.n_args += 1;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let stack = &mut *stack;
            let Some(idx) = stack.entries.iter().rposition(|e| e.token == self.token) else {
                debug_assert!(false, "span guard dropped off its thread's stack");
                return;
            };
            // Record under the path as it was when this guard was opened
            // (its entry's end), which is exact even if sibling guards
            // were dropped out of LIFO order in between.
            let end = stack.entries[idx].end;
            let path = &stack.path[..end];
            global().record_span_ns(path, ns);
            if trace::enabled() {
                let args = &self.args[..self.n_args as usize];
                trace::record_span(path, trace::ts_of(self.start), ns, args);
            }
            stack.entries.remove(idx);
            if idx == stack.entries.len() {
                // Removed the top guard: shrink to the deepest still-open
                // entry, shedding dangling segments of any guards below
                // that were already dropped out of order.
                let keep = stack.entries.last().map_or(0, |e| e.end);
                stack.path.truncate(keep);
            }
        });
    }
}

/// Restores the original (usually empty) span path on drop; returned by
/// [`adopt_span_path`]. Records nothing itself.
#[derive(Debug)]
pub struct PathAdoption {
    token: u64,
    _not_send: PhantomData<*const ()>,
}

/// The calling thread's current composed span path ("" at top level).
/// Capture in a parent thread and pass to [`adopt_span_path`] in scoped
/// workers so their spans nest under the parent's path (and show as
/// parallel tracks under the same ancestry in traces).
pub fn current_span_path() -> String {
    SPAN_STACK.with(|s| s.borrow().path.clone())
}

/// Pushes `path` as the base of this thread's span path without starting
/// a timer; spans opened while the guard lives record under `path/...`.
/// Intended for worker threads whose span stack is empty. Empty `path`
/// is a no-op base.
pub fn adopt_span_path(path: &str) -> PathAdoption {
    let token = SPAN_STACK.with(|s| s.borrow_mut().push(path));
    PathAdoption { token, _not_send: PhantomData }
}

impl Drop for PathAdoption {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let popped = s.borrow_mut().pop(self.token);
            debug_assert!(popped.is_some(), "path adoption dropped off its thread's stack");
        });
        if trace::enabled() {
            // deliver this worker's events before the parent's scope join
            // observes completion (thread-local destructors run later)
            trace::flush_thread();
        }
    }
}

/// A point-in-time copy of a registry, exportable as JSON or TSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Span statistics by name.
    pub spans: BTreeMap<String, HistStats>,
}

impl Snapshot {
    /// Single-line JSON export with the stable schema shared with
    /// `BENCH_views.json`: `schema`, `source`, `counters`, `gauges`, and a
    /// `results` array of `{bench, name, median_ns, min_ns, samples,
    /// total_ns, max_ns}` rows (one per span).
    pub fn to_json(&self, source: &str) -> String {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let gauges = self.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let results = self
            .spans
            .iter()
            .map(|(name, s)| {
                Json::Obj(vec![
                    ("bench".into(), Json::Str(source.into())),
                    ("name".into(), Json::Str(name.clone())),
                    ("median_ns".into(), Json::Num(s.p50_ns as f64)),
                    ("min_ns".into(), Json::Num(s.min_ns as f64)),
                    ("samples".into(), Json::Num(s.count as f64)),
                    ("total_ns".into(), Json::Num(s.total_ns as f64)),
                    ("max_ns".into(), Json::Num(s.max_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("source".into(), Json::Str(source.into())),
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("results".into(), Json::Arr(results)),
        ])
        .to_string()
    }

    /// TSV export: one row per metric.
    ///
    /// ```text
    /// counter <name> <value>
    /// gauge   <name> <value>
    /// span    <name> <count> <total_ns> <min_ns> <max_ns> <p50_ns>
    /// ```
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter\t{name}\t{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge\t{name}\t{v}\n"));
        }
        for (name, s) in &self.spans {
            out.push_str(&format!(
                "span\t{name}\t{}\t{}\t{}\t{}\t{}\n",
                s.count, s.total_ns, s.min_ns, s.max_ns, s.p50_ns
            ));
        }
        out
    }

    /// The per-request scoping primitive: the change in every metric
    /// since `baseline` was taken (counters and span count/total
    /// subtract saturating; gauges keep their current level — a level
    /// has no meaningful difference; span min/max/p50 are kept from
    /// `self`, as a summary row cannot be subtracted exactly).
    ///
    /// Metrics absent from `baseline` appear with their full value;
    /// metrics whose delta is zero are dropped, so the result holds
    /// exactly what moved during the window. `locapd` and the `locap`
    /// CLI bracket each pipeline run with snapshots and attach the
    /// delta to the artifact's provenance sidecar. The registry is
    /// process-global, so when requests run concurrently a window's
    /// delta attributes everything that ran during it; with a single
    /// worker (or the CLI) it is exact.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, &v) in &self.gauges {
            if baseline.gauges.get(k) != Some(&v) {
                out.gauges.insert(k.clone(), v);
            }
        }
        for (k, s) in &self.spans {
            let base = baseline.spans.get(k).copied().unwrap_or_default();
            let count = s.count.saturating_sub(base.count);
            if count > 0 {
                out.spans.insert(
                    k.clone(),
                    HistStats {
                        count,
                        total_ns: s.total_ns.saturating_sub(base.total_ns),
                        min_ns: s.min_ns,
                        max_ns: s.max_ns,
                        p50_ns: s.p50_ns,
                    },
                );
            }
        }
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`]; returns the
    /// source tag and the snapshot. Span `total_ns`/`max_ns` fields are
    /// optional (absent in hand-written baselines).
    pub fn from_json(text: &str) -> Result<(String, Snapshot), String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        validate_bench_schema(&doc)?;
        let source = doc.get("source").and_then(Json::as_str).unwrap_or_default().to_string();
        let mut snap = Snapshot::default();
        if let Some(fields) = doc.get("counters").and_then(Json::as_object) {
            for (k, v) in fields {
                snap.counters
                    .insert(k.clone(), v.as_u64().ok_or(format!("counter {k} not a u64"))?);
            }
        }
        if let Some(fields) = doc.get("gauges").and_then(Json::as_object) {
            for (k, v) in fields {
                snap.gauges
                    .insert(k.clone(), v.as_i64().ok_or(format!("gauge {k} not an i64"))?);
            }
        }
        for row in doc.get("results").and_then(Json::as_array).unwrap_or(&[]) {
            let name = row.get("name").and_then(Json::as_str).ok_or("result row missing name")?;
            let median = row
                .get("median_ns")
                .and_then(Json::as_u64)
                .ok_or("result row missing median_ns")?;
            let min =
                row.get("min_ns").and_then(Json::as_u64).ok_or("result row missing min_ns")?;
            let samples =
                row.get("samples").and_then(Json::as_u64).ok_or("result row missing samples")?;
            let total = row.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
            let max = row.get("max_ns").and_then(Json::as_u64).unwrap_or(median);
            snap.spans.insert(
                name.to_string(),
                HistStats {
                    count: samples,
                    total_ns: total,
                    min_ns: min,
                    max_ns: max,
                    p50_ns: median,
                },
            );
        }
        Ok((source, snap))
    }
}

/// Validates the shared `BENCH_views.json` / exporter document shape:
/// a `schema` number, optional `counters`/`gauges` objects with integer
/// values, and a `results` array whose rows each carry string `bench` and
/// `name` plus integer `median_ns`, `min_ns` and `samples`.
pub fn validate_bench_schema(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_u64).ok_or("missing schema number")?;
    if schema == 0 || schema > SCHEMA_VERSION {
        return Err(format!("unsupported schema {schema} (expected 1..={SCHEMA_VERSION})"));
    }
    for section in ["counters", "gauges"] {
        if let Some(v) = doc.get(section) {
            let fields = v.as_object().ok_or(format!("{section} is not an object"))?;
            for (k, v) in fields {
                v.as_i64()
                    .or(v.as_u64().map(|x| x as i64))
                    .ok_or(format!("{section}/{k} is not an integer"))?;
            }
        }
    }
    let results = doc
        .get("results")
        .ok_or("missing results array")?
        .as_array()
        .ok_or("results is not an array")?;
    for (i, row) in results.iter().enumerate() {
        for key in ["bench", "name"] {
            row.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("results[{i}] missing string {key}"))?;
        }
        for key in ["median_ns", "min_ns", "samples"] {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("results[{i}] missing integer {key}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("t/c");
        c.add(3);
        reg.counter("t/c").inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("t/g");
        g.set(-7);
        assert_eq!(reg.gauge("t/g").get(), -7);
        g.set_max(2);
        assert_eq!(g.get(), 2);
        g.set_max(-100);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn snapshot_and_reset() {
        let reg = Registry::new();
        reg.counter("a").add(1);
        reg.record_span_ns("s", 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 1);
        assert_eq!(snap.spans["s"].count, 1);
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
        assert!(reg.snapshot().spans.is_empty());
    }

    #[test]
    fn histogram_stats_exact_fields() {
        let h = Histogram::default();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        // below 32 ns the buckets are at most 2 ns wide; 20 is a bound
        assert_eq!(s.p50_ns, 20);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistStats::default());
        assert_eq!(Histogram::default().state(), HistogramState::default());
    }

    /// A reader between `record`'s `count` bump and its `min`/`max`
    /// stores sees one observation, no minimum and no maximum.
    #[test]
    fn a_capture_inside_record_keeps_min_at_most_max() {
        let h = Histogram::default();
        h.count.fetch_add(1, Ordering::Relaxed);
        let state = h.state();
        assert!(state.min <= state.max, "{state:?}");
        let s = h.snapshot();
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.max_ns, "{s:?}");

        h.record(700);
        h.count.fetch_add(1, Ordering::Relaxed);
        let state = h.state();
        assert_eq!((state.count, state.min, state.max), (3, 700, 700));
        assert_eq!(h.quantile_ns(1.0), 700, "a rank past the buckets reads as max");
    }

    #[test]
    fn delta_keeps_only_what_moved() {
        let reg = Registry::new();
        reg.counter("stable").add(5);
        reg.counter("hot").add(2);
        reg.gauge("level").set(3);
        reg.record_span_ns("s", 10);
        let before = reg.snapshot();

        reg.counter("hot").add(7);
        reg.counter("fresh").inc();
        reg.gauge("level").set(4);
        reg.record_span_ns("s", 30);
        reg.record_span_ns("t", 50);
        let after = reg.snapshot();

        let d = after.delta(&before);
        assert_eq!(d.counters.get("hot"), Some(&7));
        assert_eq!(d.counters.get("fresh"), Some(&1));
        assert!(!d.counters.contains_key("stable"), "unchanged counter dropped");
        assert_eq!(d.gauges.get("level"), Some(&4));
        assert_eq!(d.spans["s"].count, 1);
        assert_eq!(d.spans["s"].total_ns, 30);
        assert_eq!(d.spans["t"].count, 1);
        assert_eq!(d.spans["t"].total_ns, 50);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(1);
        reg.record_span_ns("s", 5);
        let snap = reg.snapshot();
        let d = snap.delta(&snap.clone());
        assert!(d.counters.is_empty());
        assert!(d.gauges.is_empty());
        assert!(d.spans.is_empty());
    }
}
