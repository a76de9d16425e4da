//! Per-event tracing: bounded per-thread ring buffers of typed events
//! with Chrome trace-event and collapsed-stack (flamegraph) export.
//!
//! The aggregate layer in [`crate`] answers *how much* — total time per
//! span path, hit/miss totals. This module answers *when* and *where*:
//! every span begin/end (via the existing [`crate::Span`] RAII), instant
//! event and counter sample is stamped with a monotonic timestamp and a
//! thread id and appended to a **bounded per-thread ring buffer** — no
//! locks and, after the ring has grown to capacity, no allocation on the
//! append path (name interning is cached per thread, so each distinct
//! name allocates once per thread during warm-up). When a ring is full
//! the oldest events are overwritten and counted as dropped.
//!
//! Tracing is **off by default**: every probe starts with one relaxed
//! atomic load ([`enabled`]) and bails, so instrumented hot paths cost
//! nothing measurable when the `OBS_TRACE` environment variable is
//! unset. With `OBS_TRACE=<path>` set (see [`init_from_env`] /
//! [`flush_from_env`], which the experiment binaries call), the merged
//! buffers are written on exit as
//!
//! * `<path>` — Chrome trace-event JSON (`{"traceEvents": [...]}`),
//!   loadable in Perfetto / `chrome://tracing`; spans are complete (`X`)
//!   events with microsecond timestamps and structured args, instants
//!   are `i` events, counter samples are `C` events, and each thread
//!   gets a `thread_name` metadata record;
//! * `<path>.folded` — collapsed stacks (`a;b;c <self_ns>`), one line
//!   per span path with its **self** time in nanoseconds, directly
//!   consumable by inferno / `flamegraph.pl`.
//!
//! Worker threads carry their own ring (and thread id). The census
//! fan-out (`locap_graph::par::map_chunks`) adopts the caller's span path
//! in each worker via [`crate::adopt_span_path`], so a fan-out renders as
//! parallel tracks under the same ancestry in the timeline.
//!
//! `OBS_TRACE_CAP` overrides the per-thread ring capacity (events;
//! default 65536).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;
use crate::sync::Mutex;

/// Maximum structured args carried by one event.
pub const MAX_ARGS: usize = 4;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAP: usize = 1 << 16;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (begin + duration).
    Span,
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value.
    Counter,
}

/// One trace event with interned name/arg-key ids. Fixed-size: appending
/// one to a warm ring moves no heap memory.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Interned name id (resolve with the collector's name table).
    pub name: u32,
    /// Thread id (dense, assigned per thread on first event).
    pub tid: u32,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (spans; 0 otherwise).
    pub dur_ns: u64,
    /// Sampled value (counters; 0 otherwise).
    pub value: i64,
    /// Structured args as (interned key, value); first `n_args` valid.
    pub args: [(u32, i64); MAX_ARGS],
    /// Number of valid entries in `args`.
    pub n_args: u8,
}

/// A resolved event: names and arg keys as strings (export/report form).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Full event name (for spans: the nested span path).
    pub name: String,
    /// Thread id.
    pub tid: u32,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (spans; 0 otherwise).
    pub dur_ns: u64,
    /// Sampled value (counters; 0 otherwise).
    pub value: i64,
    /// Structured args.
    pub args: Vec<(String, i64)>,
}

/// Global trace state: the enabled flag is checked (one relaxed load)
/// before anything else on every probe.
static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

#[expect(
    clippy::disallowed_methods,
    reason = "the process-wide trace epoch anchor (monotonic timestamps)"
)]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Interned names, shared by all threads; thread-local caches keep the
/// hot path lock-free after each name's first use on a thread.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static Mutex<Interner, 50> {
    static INTERNER: OnceLock<Mutex<Interner, 50>> = OnceLock::new();
    INTERNER.get_or_init(Mutex::default)
}

fn intern_global(name: &str) -> u32 {
    let mut i = interner().lock();
    if let Some(&id) = i.ids.get(name) {
        return id;
    }
    let id = i.names.len() as u32;
    i.names.push(name.to_string());
    i.ids.insert(name.to_string(), id);
    id
}

/// The sink completed per-thread rings drain into (at thread exit, via
/// the ring's destructor) together with each thread's display name.
#[derive(Default)]
struct Sink {
    events: Vec<Event>,
    thread_names: Vec<(u32, String)>,
}

fn sink() -> &'static Mutex<Sink, 51> {
    static SINK: OnceLock<Mutex<Sink, 51>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

/// The per-thread ring buffer. Lives in a thread-local; its destructor
/// drains collected events into the global sink when the thread exits.
struct Ring {
    tid: u32,
    buf: Vec<Event>,
    /// Index of the oldest event once `buf` reached capacity.
    head: usize,
    cap: usize,
    dropped: u64,
    /// Per-thread interned-name cache (global id lookups without the lock).
    names: HashMap<String, u32>,
}

impl Ring {
    fn new() -> Ring {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), |n| n.to_string());
        sink().lock().thread_names.push((tid, name));
        Ring { tid, buf: Vec::new(), head: 0, cap: ring_cap(), dropped: 0, names: HashMap::new() }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = intern_global(name);
        self.names.insert(name.to_string(), id);
        id
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else if self.cap > 0 {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in arrival order (oldest first).
    fn drain_ordered(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        out
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        let events = self.drain_ordered();
        DROPPED.fetch_add(self.dropped, Ordering::Relaxed);
        self.dropped = 0;
        sink().lock().events.extend(events);
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

fn ring_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("OBS_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_RING_CAP)
    })
}

/// Whether tracing is collecting events. One relaxed atomic load — the
/// entire cost of every probe in an untraced run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on (programmatic alternative to [`init_from_env`];
/// used by tests and embedding tools). Pins the trace epoch on first use.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off; already-buffered events stay until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enables tracing iff the `OBS_TRACE` environment variable names an
/// output path. Experiment binaries call this once at startup; pair with
/// [`flush_from_env`] at exit.
pub fn init_from_env() {
    if trace_path().is_some() {
        enable();
    }
}

/// The `OBS_TRACE` output path, if set to a non-empty value.
pub fn trace_path() -> Option<String> {
    match std::env::var("OBS_TRACE") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

/// Nanoseconds since the trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Timestamp for a span that started at `start` (saturates to 0 for
/// instants taken before the epoch was pinned).
pub(crate) fn ts_of(start: Instant) -> u64 {
    start.duration_since(epoch()).as_nanos().min(u64::MAX as u128) as u64
}

fn pack_args(ring: &mut Ring, args: &[(&str, i64)]) -> ([(u32, i64); MAX_ARGS], u8) {
    let mut packed = [(0u32, 0i64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    for (slot, &(k, v)) in packed.iter_mut().zip(args.iter().take(MAX_ARGS)) {
        *slot = (ring.intern(k), v);
    }
    (packed, n as u8)
}

fn record(kind: EventKind, name: &str, ts_ns: u64, dur_ns: u64, value: i64, args: &[(&str, i64)]) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let name = ring.intern(name);
        let (packed, n_args) = pack_args(&mut ring, args);
        let tid = ring.tid;
        ring.push(Event { kind, name, tid, ts_ns, dur_ns, value, args: packed, n_args });
    });
}

/// Records a completed span (called from [`crate::Span`]'s drop; tools
/// emitting synthetic traces may call it directly).
pub fn record_span(path: &str, ts_ns: u64, dur_ns: u64, args: &[(&str, i64)]) {
    if !enabled() {
        return;
    }
    record(EventKind::Span, path, ts_ns, dur_ns, 0, args);
}

/// Records an instant event (a point-in-time marker, e.g. a cache miss).
/// No-op unless tracing is enabled.
#[inline]
pub fn instant(name: &str, args: &[(&str, i64)]) {
    if !enabled() {
        return;
    }
    record(EventKind::Instant, name, now_ns(), 0, 0, args);
}

/// Records a counter sample (a named value at a point in time, rendered
/// as a counter track). No-op unless tracing is enabled.
#[inline]
pub fn counter_sample(name: &str, value: i64) {
    if !enabled() {
        return;
    }
    record(EventKind::Counter, name, now_ns(), 0, value, &[]);
}

/// Drains the calling thread's ring into the shared sink. Worker guards
/// ([`crate::PathAdoption`]) call this on drop so event delivery does not
/// race scope join (scoped threads signal completion *before* their
/// thread-local destructors run); harmless to call anywhere else.
pub fn flush_thread() {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let events = ring.drain_ordered();
        DROPPED.fetch_add(ring.dropped, Ordering::Relaxed);
        ring.dropped = 0;
        if !events.is_empty() {
            sink().lock().events.extend(events);
        }
    });
}

/// Drains every buffered event — the calling thread's ring plus all rings
/// of already-exited threads — resolved to string names, in stable
/// (tid, timestamp) order. Returns the events and the number of events
/// lost to ring overwrites.
///
/// Threads still running keep their buffers; call from the coordinating
/// thread after scoped workers have joined. Workers holding a
/// [`crate::PathAdoption`] guard deliver deterministically (the guard
/// flushes on drop); bare threads deliver at thread exit, which can lag
/// a scope join — prefer adoption guards in scoped workers.
pub fn drain() -> (Vec<ResolvedEvent>, u64) {
    let mut events = RING.with(|r| {
        let mut ring = r.borrow_mut();
        DROPPED.fetch_add(ring.dropped, Ordering::Relaxed);
        ring.dropped = 0;
        ring.drain_ordered()
    });
    {
        let mut s = sink().lock();
        events.append(&mut s.events);
    }
    let names = {
        let i = interner().lock();
        i.names.clone()
    };
    let name_of = |id: u32| names.get(id as usize).cloned().unwrap_or_default();
    let mut out: Vec<ResolvedEvent> = events
        .into_iter()
        .map(|e| ResolvedEvent {
            kind: e.kind,
            name: name_of(e.name),
            tid: e.tid,
            ts_ns: e.ts_ns,
            dur_ns: e.dur_ns,
            value: e.value,
            args: e.args[..e.n_args as usize].iter().map(|&(k, v)| (name_of(k), v)).collect(),
        })
        .collect();
    out.sort_by_key(|a| (a.tid, a.ts_ns));
    (out, DROPPED.swap(0, Ordering::Relaxed))
}

/// Thread display names recorded so far, as `(tid, name)` pairs.
fn thread_names() -> Vec<(u32, String)> {
    sink().lock().thread_names.clone()
}

/// Renders events as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form; timestamps in microseconds).
pub fn to_chrome_json(events: &[ResolvedEvent], dropped: u64) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let mut rows: Vec<Json> = Vec::with_capacity(events.len() + 8);
    for (tid, name) in thread_names() {
        rows.push(Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("name".into(), Json::Str("thread_name".into())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid as f64)),
            ("args".into(), Json::Obj(vec![("name".into(), Json::Str(name))])),
        ]));
    }
    for e in events {
        let args: Vec<(String, Json)> =
            e.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let mut row = vec![
            ("name".into(), Json::Str(e.name.clone())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(e.tid as f64)),
            ("ts".into(), us(e.ts_ns)),
        ];
        match e.kind {
            EventKind::Span => {
                row.push(("ph".into(), Json::Str("X".into())));
                row.push(("dur".into(), us(e.dur_ns)));
                row.push(("cat".into(), Json::Str("span".into())));
                row.push(("args".into(), Json::Obj(args)));
            }
            EventKind::Instant => {
                row.push(("ph".into(), Json::Str("i".into())));
                row.push(("s".into(), Json::Str("t".into())));
                row.push(("cat".into(), Json::Str("instant".into())));
                row.push(("args".into(), Json::Obj(args)));
            }
            EventKind::Counter => {
                row.push(("ph".into(), Json::Str("C".into())));
                row.push(("cat".into(), Json::Str("counter".into())));
                row.push((
                    "args".into(),
                    Json::Obj(vec![("value".into(), Json::Num(e.value as f64))]),
                ));
            }
        }
        rows.push(Json::Obj(row));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(rows)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
        ("droppedEvents".into(), Json::Num(dropped as f64)),
    ])
    .to_string()
}

/// Renders span events as collapsed stacks (`a;b;c <self_ns>` lines,
/// sorted by stack), flamegraph/inferno-compatible. The value of each
/// line is the path's **self** time: its total minus the totals of its
/// direct children in the span-path tree, clamped at zero (parallel
/// workers can legitimately exceed their parent's wall-clock time).
pub fn to_collapsed(events: &[ResolvedEvent]) -> String {
    use std::collections::BTreeMap;
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Span {
            *totals.entry(e.name.as_str()).or_insert(0) += e.dur_ns;
        }
    }
    let mut child_sum: BTreeMap<&str, u64> = BTreeMap::new();
    for &path in totals.keys() {
        if let Some((parent, _)) = path.rsplit_once('/') {
            // nearest *observed* ancestor: walk prefixes until one exists
            let mut anc = parent;
            loop {
                if totals.contains_key(anc) {
                    *child_sum.entry(anc).or_insert(0) += totals[path];
                    break;
                }
                match anc.rsplit_once('/') {
                    Some((up, _)) => anc = up,
                    None => break,
                }
            }
        }
    }
    let mut out = String::new();
    for (path, &total) in &totals {
        let own = total.saturating_sub(child_sum.get(path).copied().unwrap_or(0));
        out.push_str(&path.replace('/', ";"));
        out.push(' ');
        out.push_str(&own.to_string());
        out.push('\n');
    }
    out
}

/// Drains all buffered events and writes `<path>` (Chrome trace JSON) and
/// `<path>.folded` (collapsed stacks).
///
/// # Errors
///
/// Propagates filesystem errors from writing either file.
pub fn flush_to(path: &str) -> std::io::Result<()> {
    let (events, dropped) = drain();
    std::fs::write(path, to_chrome_json(&events, dropped))?;
    std::fs::write(format!("{path}.folded"), to_collapsed(&events))?;
    Ok(())
}

/// Flushes to the `OBS_TRACE` path if tracing was enabled from the
/// environment; returns the path written, if any.
///
/// # Errors
///
/// Propagates filesystem errors from [`flush_to`].
pub fn flush_from_env() -> std::io::Result<Option<String>> {
    match trace_path() {
        Some(p) if enabled() => {
            flush_to(&p)?;
            Ok(Some(p))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring =
            Ring { tid: 0, buf: Vec::new(), head: 0, cap: 4, dropped: 0, names: HashMap::new() };
        for i in 0..6u64 {
            ring.push(Event {
                kind: EventKind::Instant,
                name: 0,
                tid: 0,
                ts_ns: i,
                dur_ns: 0,
                value: 0,
                args: [(0, 0); MAX_ARGS],
                n_args: 0,
            });
        }
        assert_eq!(ring.dropped, 2);
        let ordered = ring.drain_ordered();
        let ts: Vec<u64> = ordered.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5], "oldest two overwritten, order preserved");
        // draining resets the ring but not the drop count (flushed globally)
        assert!(ring.buf.is_empty());
    }

    #[test]
    fn ring_drop_delivers_into_a_poisoned_sink() {
        // a thread that panics while holding the sink poisons it
        let _ = std::thread::spawn(|| {
            let _guard = sink().lock();
            panic!("poison the trace sink");
        })
        .join();
        // the exiting thread's buffered events still reach the sink
        const MARK: u64 = 0x5151_0000_dead_beef;
        let mut ring =
            Ring { tid: 0, buf: Vec::new(), head: 0, cap: 4, dropped: 0, names: HashMap::new() };
        ring.push(Event {
            kind: EventKind::Instant,
            name: 0,
            tid: 0,
            ts_ns: MARK,
            dur_ns: 0,
            value: 0,
            args: [(0, 0); MAX_ARGS],
            n_args: 0,
        });
        drop(ring);
        assert!(sink().lock().events.iter().any(|e| e.ts_ns == MARK));
    }

    #[test]
    fn collapsed_self_time_subtracts_children() {
        let ev = |name: &str, dur: u64| ResolvedEvent {
            kind: EventKind::Span,
            name: name.into(),
            tid: 0,
            ts_ns: 0,
            dur_ns: dur,
            value: 0,
            args: vec![],
        };
        let events = vec![ev("a", 100), ev("a/b", 30), ev("a/b/c", 10), ev("a/d/e", 20)];
        let folded = to_collapsed(&events);
        let lines: Vec<&str> = folded.lines().collect();
        // a self = 100 - (30 [a/b] + 20 [a/d/e: nearest observed ancestor a])
        assert!(lines.contains(&"a 50"), "{folded}");
        assert!(lines.contains(&"a;b 20"), "{folded}");
        assert!(lines.contains(&"a;b;c 10"), "{folded}");
        assert!(lines.contains(&"a;d;e 20"), "{folded}");
    }

    #[test]
    fn collapsed_clamps_parallel_overrun() {
        let ev = |name: &str, dur: u64| ResolvedEvent {
            kind: EventKind::Span,
            name: name.into(),
            tid: 0,
            ts_ns: 0,
            dur_ns: dur,
            value: 0,
            args: vec![],
        };
        // two parallel workers each took 80 of wall-clock 100
        let events = vec![ev("p", 100), ev("p/worker", 160)];
        assert!(to_collapsed(&events).contains("p 0\n"));
    }
}
