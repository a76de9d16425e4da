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
//! [`snapshot`] is the one read of the registry: a lossless
//! [`TelemetryState`] of every counter, gauge and histogram, which
//! [`TelemetryState::delta_since`] turns into the change over a window
//! and [`TelemetryState::to_json`] puts on the wire. The bench schema
//! that the `OBS_JSON=1` line and `BENCH_views.json` share is rendered
//! and read in `locap-bench`, not here.
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
pub mod sync;
pub mod telemetry;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::Location;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use telemetry::{HistogramState, TelemetryState};

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

/// The process-wide metric store. Most callers use the free functions on
/// the [`global`] registry; a private registry is handy in tests.
///
/// Each metric name has one construction site: the registry keeps the
/// call site that created an entry, and in debug builds constructing the
/// same name again from any other site fails a `debug_assert!` (the
/// publish-twice bug class, where two sites bump one counter). Fetching a
/// name again from its own site is how handles are meant to be reused;
/// tests read values through [`Registry::snapshot`] instead of
/// constructing the metric.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Section<AtomicU64, 40>,
    gauges: Section<AtomicI64, 41>,
    spans: Section<Histogram, 42>,
    latencies: Section<Histogram, 43>,
}

/// One registry section: metrics by name, each with its creating site.
type Section<M, const RANK: u32> = sync::Mutex<BTreeMap<String, Entry<M>>, RANK>;

/// A registered metric and the call site that created it.
#[derive(Debug)]
struct Entry<M> {
    metric: Arc<M>,
    site: &'static Location<'static>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// In debug builds, when `name` was created from another call site.
    #[track_caller]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(entry(&self.counters, name))
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// In debug builds, when `name` was created from another call site.
    #[track_caller]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(entry(&self.gauges, name))
    }

    /// The span histogram named `name`, created on first use. Spans are
    /// keyed by their nested path, so every span shares this one site.
    pub fn span_histogram(&self, name: &str) -> Arc<Histogram> {
        entry(&self.spans, name)
    }

    /// The latency histogram named `name`, created on first use.
    /// Latencies live in their own section (exported by the [`telemetry`]
    /// module), separate from the span histograms.
    ///
    /// # Panics
    ///
    /// In debug builds, when `name` was created from another call site.
    #[track_caller]
    pub fn latency(&self, name: &str) -> Arc<Histogram> {
        entry(&self.latencies, name)
    }

    /// Records a duration under a span name without an RAII guard.
    pub fn record_span_ns(&self, name: &str, ns: u64) {
        self.span_histogram(name).record(ns);
    }

    /// A lossless point-in-time copy of every metric.
    ///
    /// The copy is **canonical**: counters at 0 and histograms with no
    /// observations are omitted, because the delta encoding (counter
    /// increments, count-gated histograms) cannot tell "present at zero"
    /// from "absent", and keeping them would break the exact
    /// snapshot-plus-deltas reconciliation. Gauges at 0 are kept: their
    /// deltas carry absolute values.
    pub fn snapshot(&self) -> TelemetryState {
        let histogram = |h: &Histogram| Some(h.state()).filter(|state| state.count > 0);
        TelemetryState {
            counters: read_section(&self.counters, |c| {
                Some(c.load(Ordering::Relaxed)).filter(|&v| v > 0)
            }),
            gauges: read_section(&self.gauges, |g| Some(g.load(Ordering::Relaxed))),
            spans: read_section(&self.spans, histogram),
            latencies: read_section(&self.latencies, histogram),
        }
    }

    /// Removes every metric. Handles held across a reset keep updating
    /// their detached values; re-looking up the name yields a fresh metric.
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.spans.lock().clear();
        self.latencies.lock().clear();
    }
}

/// The metric named `name` in one registry section, created on first use
/// and recorded with its caller's site.
#[track_caller]
fn entry<M: Default, const RANK: u32>(section: &Section<M, RANK>, name: &str) -> Arc<M> {
    let site = Location::caller();
    let mut map = section.lock();
    let (metric, first) = match map.get(name) {
        Some(e) => (Arc::clone(&e.metric), e.site),
        None => {
            let metric = Arc::new(M::default());
            map.insert(name.to_string(), Entry { metric: Arc::clone(&metric), site });
            (metric, site)
        }
    };
    drop(map);
    debug_assert!(
        first == site,
        "metric {name:?} constructed at {site}, but its one construction site is {first}"
    );
    metric
}

/// `read(metric)` for every metric of a section that `read` keeps, by
/// name. The lock is held only to clone the handles: every span drop
/// takes the spans section's lock, so reading a histogram under it would
/// stall each recording thread for the whole capture.
fn read_section<M, V, const RANK: u32>(
    section: &Section<M, RANK>,
    read: impl Fn(&M) -> Option<V>,
) -> BTreeMap<String, V> {
    let metrics: Vec<(String, Arc<M>)> =
        section.lock().iter().map(|(k, e)| (k.clone(), Arc::clone(&e.metric))).collect();
    metrics.into_iter().filter_map(|(k, m)| Some((k, read(&m)?))).collect()
}

fn global_registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    global_registry()
}

/// The global counter named `name` (see [`Registry::counter`]).
#[track_caller]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The global gauge named `name` (see [`Registry::gauge`]).
#[track_caller]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The global latency histogram named `name` (see [`Registry::latency`]).
#[track_caller]
pub fn latency(name: &str) -> Arc<Histogram> {
    global().latency(name)
}

/// Records `ns` under the global span `name` without a guard.
pub fn record_span_ns(name: &str, ns: u64) {
    global().record_span_ns(name, ns);
}

/// A lossless point-in-time copy of all global metrics (see
/// [`Registry::snapshot`]).
pub fn snapshot() -> TelemetryState {
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
    /// Cleared by [`Span::discard`]: the guard then only unwinds its path.
    record: bool,
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
    Span {
        token,
        start: Instant::now(),
        args: packed,
        n_args: n as u8,
        record: true,
        _not_send: PhantomData,
    }
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

    /// Closes the span without recording it, for a scope that turned out
    /// not to hold the span's work: a request span opened around a cache
    /// lookup, say, whose miss hands the request to another thread that
    /// opens the span again around the real work.
    pub fn discard(mut self) {
        self.record = false;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
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
            if self.record {
                let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let end = stack.entries[idx].end;
                let path = &stack.path[..end];
                global().record_span_ns(path, ns);
                if trace::enabled() {
                    let args = &self.args[..self.n_args as usize];
                    trace::record_span(path, trace::ts_of(self.start), ns, args);
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let counter = |name| reg.counter(name);
        let gauge = |name| reg.gauge(name);
        let c = counter("t/c");
        c.add(3);
        counter("t/c").inc();
        assert_eq!(c.get(), 4);
        let g = gauge("t/g");
        g.set(-7);
        assert_eq!(gauge("t/g").get(), -7);
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
        let s = h.state();
        assert_eq!((s.count, s.sum, s.min, s.max), (3, 60, 10, 30));
        // below 32 ns the buckets are at most 2 ns wide; 20 is a bound
        assert_eq!(s.quantile(0.5), 20);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().state();
        assert_eq!(s, HistogramState::default());
        assert_eq!(s.quantile(0.5), 0);
    }

    /// A reader between `record`'s `count` bump and its `min`/`max`
    /// stores sees one observation, no minimum and no maximum.
    #[test]
    fn a_capture_inside_record_keeps_min_at_most_max() {
        let h = Histogram::default();
        h.count.fetch_add(1, Ordering::Relaxed);
        let state = h.state();
        let p50 = state.quantile(0.5);
        assert!(state.min <= p50 && p50 <= state.max, "{state:?}");

        h.record(700);
        h.count.fetch_add(1, Ordering::Relaxed);
        let state = h.state();
        assert_eq!((state.count, state.min, state.max), (3, 700, 700));
        assert_eq!(state.quantile(1.0), 700, "a rank past the buckets reads as max");
    }

    #[test]
    fn delta_keeps_only_what_moved() {
        let reg = Registry::new();
        let (hot, level) = (reg.counter("hot"), reg.gauge("level"));
        reg.counter("stable").add(5);
        hot.add(2);
        level.set(3);
        reg.record_span_ns("s", 10);
        let before = reg.snapshot();

        hot.add(7);
        reg.counter("fresh").inc();
        level.set(4);
        reg.record_span_ns("s", 30);
        reg.record_span_ns("t", 50);
        let after = reg.snapshot();

        let d = after.delta_since(&before);
        assert_eq!(d.counters.get("hot"), Some(&7));
        assert_eq!(d.counters.get("fresh"), Some(&1));
        assert!(!d.counters.contains_key("stable"), "unchanged counter dropped");
        assert_eq!(d.gauges.get("level"), Some(&4));
        assert_eq!(d.spans["s"].count, 1);
        assert_eq!(d.spans["s"].sum, 30);
        assert_eq!(d.spans["t"].count, 1);
        assert_eq!(d.spans["t"].sum, 50);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(1);
        reg.record_span_ns("s", 5);
        let snap = reg.snapshot();
        assert!(snap.delta_since(&snap).is_empty());
    }

    /// A capture reads each metric after it releases the section's lock,
    /// so a span that drops mid-capture records without waiting for it.
    #[test]
    #[cfg(debug_assertions)]
    fn a_capture_reads_metrics_outside_the_section_lock() {
        let reg = Registry::new();
        reg.record_span_ns("s", 1);
        let counts = read_section(&reg.spans, |h| {
            sync::assert_unlocked();
            reg.record_span_ns("t", 2);
            Some(h.state().count)
        });
        assert_eq!(counts.get("s"), Some(&1));
        assert_eq!(reg.snapshot().spans["t"].count, 1);
    }

    /// The publish-twice shape the registry rejects: one name, two
    /// construction sites, here a `const` and a `format!` template.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "its one construction site is")]
    fn one_name_from_a_const_and_a_format_site_panics() {
        const RUNS: &str = "engine/po/runs";
        let reg = Registry::new();
        reg.counter(RUNS).inc();
        let model = "po";
        reg.counter(&format!("engine/{model}/runs")).inc();
    }

    /// Two different `format!` templates that resolve to one name collide
    /// like any two sites; gauges and latencies keep their sites too.
    #[test]
    #[cfg(debug_assertions)]
    fn every_second_site_of_a_name_panics() {
        let clash = |second: fn(&Registry)| {
            let reg = Registry::new();
            reg.counter("engine/po/runs").inc();
            reg.gauge("g").set(1);
            reg.latency("l").record(1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second(&reg))).is_err()
        };
        assert!(clash(|reg| reg.counter(&format!("engine/po/{}", "runs")).inc()));
        assert!(clash(|reg| reg.counter(&format!("engine/{}/runs", "po")).inc()));
        assert!(clash(|reg| reg.gauge("g").set(2)));
        assert!(clash(|reg| reg.latency("l").record(2)));
        // the sections are separate namespaces, and a site may re-fetch
        assert!(!clash(|reg| reg.gauge("engine/po/runs").set(2)));
        assert!(!clash(|reg| {
            for _ in 0..2 {
                reg.counter("fresh").inc();
            }
        }));
    }

    #[test]
    fn a_name_fetched_again_from_its_site_is_the_same_metric() {
        let reg = Registry::new();
        let runs = |model: &str| reg.counter(&format!("engine/{model}/runs"));
        runs("po").inc();
        runs("po").inc();
        runs("oi").inc();
        let counters = reg.snapshot().counters;
        assert_eq!(counters.get("engine/po/runs"), Some(&2));
        assert_eq!(counters.get("engine/oi/runs"), Some(&1));
    }
}
