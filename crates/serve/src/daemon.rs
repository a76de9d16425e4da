//! The `locapd` daemon: a TCP accept loop, per-connection frame
//! readers, and a bounded worker pool executing pipeline requests under
//! per-request budgets.
//!
//! # Lifecycle
//!
//! [`Daemon::bind`] → [`Daemon::run`] (blocks). Every connection gets a
//! reader thread, which parses each frame and answers operations itself.
//! With a result store (`--store-dir`), the reader also resolves every
//! pipeline request against it: it realises the request's
//! [`BudgetSpec`], makes the budget check every pipeline run starts with,
//! and answers a warm hit right there, splicing the stored bytes into the
//! `ok` line. Only misses, and every pipeline request of a daemon without
//! a store, are `try_send`-ed onto a bounded job queue (a full queue
//! answers `protocol/overloaded` immediately — backpressure is explicit,
//! never silent). Workers pull jobs, realise the budget against a clock
//! started when the job starts, run the pipeline, write a miss's encoded
//! result back to the store, and write the response to the originating
//! connection. A hit can therefore overtake an earlier request of the
//! same connection that is still queued; clients match responses by `id`.
//!
//! Both paths answer through one response function, so artifacts and
//! sidecars, the `serve/request` span and the phase latencies do not
//! depend on which thread answered, and each result is encoded once. The
//! queue-wait phase samples queued jobs only.
//!
//! Failures never kill the daemon: every defective frame, rejected
//! request, model-run error and budget truncation is answered with a
//! typed error response (see [`crate::protocol`]), and a panic inside a
//! request's work answers `run/internal_panic` while its thread goes on
//! serving.
//!
//! # Cancellation
//!
//! Each connection owns a [`CancelToken`] threaded into the budgets of
//! its jobs: when the client disconnects (EOF, error, or truncated
//! frame), in-flight work for that connection is cancelled and engines
//! observe `TruncationReason::Cancelled` at their next budget check. A
//! daemon-wide drain token does the same for every job on shutdown.
//!
//! # Shutdown
//!
//! The `shutdown` op (when enabled) answers first, then stops the
//! accept loop, cancels the drain token and joins workers. Issue it
//! after your other responses arrived: still-queued jobs are answered
//! with `truncated/cancelled`, and responses to already-closed
//! connections are dropped and counted under
//! `serve/responses/undeliverable`.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use locap_core::request::{PipelineRequest, PIPELINES, PIPELINE_STORE_NS};
use locap_core::CoreError;
use locap_graph::budget::{CancelToken, MonotonicClock, RunBudget, StdClock};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_obs::sync::{Mutex, MutexGuard};
use locap_obs::telemetry::TelemetryState;
use locap_obs::Histogram;
use locap_store::{Lookup, StoreHandle, StoreKey};

use crate::protocol::{
    core_error_kind, err_response, ok_response, parse_request, splice_result, BudgetSpec, Frame,
    FrameError, FrameReader, ProtocolError, Request, DEFAULT_MAX_FRAME_BYTES,
};
use crate::telemetry::TelemetryHub;
/// Counter: frames parsed into well-formed requests.
pub const REQUESTS: &str = "serve/requests";
/// Counter: successful (`"ok": true`) responses written.
pub const RESP_OK: &str = "serve/responses/ok";
/// Counter: error (`"ok": false`) responses written.
pub const RESP_ERR: &str = "serve/responses/err";
/// Counter: responses that could not be delivered (client gone).
pub const UNDELIVERABLE: &str = "serve/responses/undeliverable";
/// Counter: client connections accepted.
pub const CONNECTIONS: &str = "serve/connections";
/// Counter: client connections that ended (EOF, error, or truncated
/// frame) — in-flight work for the connection is cancelled.
pub const DISCONNECTS: &str = "serve/disconnects";
/// Counter: provenance sidecars written.
pub const SIDECARS: &str = "serve/provenance_sidecars";
/// Gauge: high-water mark of jobs queued or executing (current depth is
/// in the `stats` op response).
pub const QUEUE_DEPTH: &str = "serve/queue_depth";

/// Span wrapping the work that answers each pipeline request — the
/// pipeline run on a worker, or the budget check and store read of an
/// inline hit — carrying the request's monotonically-assigned id as a
/// `req` arg in OBS_TRACE exports (so `trace_report` can attribute daemon
/// traces per request).
pub const REQUEST_SPAN: &str = "serve/request";

/// Error kind answering a request whose work panicked.
pub const INTERNAL_PANIC: &str = "run/internal_panic";

/// Phase name: enqueue → worker pickup (queued jobs only: an inline
/// store hit never waits in the queue).
pub const PHASE_QUEUE_WAIT: &str = "queue_wait";
/// Phase name: frame bytes → parsed request.
pub const PHASE_PARSE: &str = "parse";
/// Phase name: the request's work — pipeline execution on a worker, or
/// the store read of an inline hit.
pub const PHASE_RUN: &str = "run";
/// Phase name: response build + write (including sidecars).
pub const PHASE_SERIALIZE: &str = "serialize";

/// How often blocked reads and the accept loop re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Counter: sidecar writes that failed on I/O (artifact dir missing,
/// permissions); the response is still delivered.
pub const SIDECAR_FAILURES: &str = "serve/sidecar_failures";

/// Tuning knobs for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing pipeline jobs.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers
    /// `protocol/overloaded`.
    pub queue_depth: usize,
    /// Per-frame byte cap (`protocol/frame_too_large` beyond it).
    pub max_frame_bytes: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Option<Duration>,
    /// Hard clamp on any requested deadline.
    pub max_deadline: Option<Duration>,
    /// When set, every successful pipeline run writes
    /// `<pipeline>-<id>.json` plus its provenance sidecar here.
    pub artifact_dir: Option<PathBuf>,
    /// When set, results are served from (and written back to) the
    /// content-addressed store rooted here: the connection thread answers
    /// a repeat request from disk, without queueing or recomputing it.
    pub store_dir: Option<PathBuf>,
    /// Whether the `shutdown` op is honoured.
    pub allow_shutdown: bool,
    /// Telemetry publisher interval; `None` disables the `subscribe` op
    /// (answered with `protocol/telemetry_disabled`).
    pub telemetry_interval: Option<Duration>,
    /// Per-subscriber telemetry frame-queue depth (slow consumers shed
    /// frames beyond it and resync via a snapshot).
    pub telemetry_queue: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            queue_depth: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline: Some(Duration::from_secs(30)),
            max_deadline: Some(Duration::from_secs(300)),
            artifact_dir: None,
            store_dir: None,
            allow_shutdown: true,
            telemetry_interval: Some(crate::telemetry::DEFAULT_INTERVAL),
            telemetry_queue: crate::telemetry::DEFAULT_QUEUE,
        }
    }
}

/// A clonable remote control for a running [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    drain: CancelToken,
    addr: SocketAddr,
}

impl DaemonHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, cancel in-flight budgets,
    /// drain and exit (same path as the `shutdown` op).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.drain.cancel();
    }
}

/// A bound-but-not-yet-running daemon.
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    addr: SocketAddr,
    config: DaemonConfig,
    stop: Arc<AtomicBool>,
    drain: CancelToken,
    store: Option<StoreHandle>,
}

/// A connection's response writer: its reader thread, the workers
/// answering its jobs and its telemetry forwarder each write whole lines
/// through it.
pub type Writer = Mutex<TcpStream, 30>;

/// Locks `m`, counting a recovered poisoning as a typed
/// `serve/errors/poisoned` event. A poisoned lock means a peer thread
/// panicked; the guarded state (a socket, a channel receiver) is still
/// structurally sound, [`Mutex::lock`] recovers it and clears the flag,
/// and [`MutexGuard::recovered`] reports that on one guard only, so each
/// poisoning is counted exactly once and never kills a thread silently.
pub(crate) fn lock_or_recover<T: ?Sized, const RANK: u32>(
    m: &Mutex<T, RANK>,
) -> MutexGuard<'_, T, RANK> {
    let guard = m.lock();
    if MutexGuard::recovered(&guard) {
        record_error_kind("poisoned");
    }
    guard
}

/// One pipeline request on its way to an answer.
struct Job {
    id: Json,
    /// Monotonically-assigned daemon-wide request id, threaded into the
    /// `serve/request` OBS_TRACE span as a `req` arg.
    req_id: u64,
    request: PipelineRequest,
    budget: BudgetSpec,
    writer: Arc<Writer>,
    cancel: CancelToken,
    /// Daemon-clock reading at enqueue, for the queue-wait phase; `None`
    /// while the connection thread resolves the request inline.
    enqueued_at: Option<Duration>,
    /// Set when the connection thread looked the request up and missed.
    missed: Option<Miss>,
}

/// A store miss that the connection thread hands to a worker.
struct Miss {
    /// The key looked up: the worker writes the result back under it
    /// without a second lookup.
    key: StoreKey,
    /// Under `--artifact-dir`, the registry changes of the lookup, which
    /// the sidecar counts together with the worker's run.
    lookup: Option<TelemetryState>,
}

/// A request phase, in the order of a [`Metrics`] phase row.
#[derive(Debug, Clone, Copy)]
enum Phase {
    QueueWait,
    Parse,
    Run,
    Serialize,
}

/// The serve path's registry handles, built once per [`Daemon::run`] so
/// that serving a request builds no metric name and takes no registry
/// lock.
struct Metrics {
    requests: obs::Counter,
    resp_ok: obs::Counter,
    resp_err: obs::Counter,
    undeliverable: obs::Counter,
    queue_depth: obs::Gauge,
    /// `serve/request/<pipeline>/<phase>` for every pipeline of
    /// [`PIPELINES`] and every [`Phase`], in their orders.
    phases: [[Arc<Histogram>; 4]; PIPELINES.len()],
}

impl Metrics {
    /// The one construction site of these counters, the queue-depth
    /// gauge and the phase latency family.
    fn new() -> Metrics {
        let phases = [PHASE_QUEUE_WAIT, PHASE_PARSE, PHASE_RUN, PHASE_SERIALIZE];
        Metrics {
            requests: obs::counter(REQUESTS),
            resp_ok: obs::counter(RESP_OK),
            resp_err: obs::counter(RESP_ERR),
            undeliverable: obs::counter(UNDELIVERABLE),
            queue_depth: obs::gauge(QUEUE_DEPTH),
            phases: PIPELINES.map(|pipeline| {
                phases.map(|phase| obs::latency(&format!("serve/request/{pipeline}/{phase}")))
            }),
        }
    }

    /// Records one phase latency of a `pipeline` request.
    fn record(&self, pipeline: &str, phase: Phase, ns: u64) {
        let row = PIPELINES.iter().position(|&p| p == pipeline);
        if let Some(h) = row.and_then(|r| self.phases.get(r)).and_then(|hs| hs.get(phase as usize))
        {
            h.record(ns);
        }
    }
}

/// What answering a pipeline request needs, shared by the connection
/// threads (inline store hits) and the workers (queued jobs).
struct Responder {
    config: DaemonConfig,
    /// The daemon clock: times the queue-wait, parse and serialize phases.
    clock: Arc<dyn MonotonicClock>,
    drain: CancelToken,
    store: Option<StoreHandle>,
    metrics: Metrics,
    /// Jobs queued or executing.
    depth: AtomicI64,
}

/// State shared by connection reader threads.
struct ConnShared {
    tx: SyncSender<Job>,
    stop: Arc<AtomicBool>,
    hub: Option<Arc<TelemetryHub>>,
    next_req_id: AtomicU64,
    responder: Arc<Responder>,
}

/// State shared by worker threads.
struct WorkerShared {
    rx: Mutex<Receiver<Job>, 10>,
    responder: Arc<Responder>,
}

impl Daemon {
    /// Binds the listener. Pass port 0 for an ephemeral port (read it
    /// back with [`Daemon::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: DaemonConfig) -> std::io::Result<Daemon> {
        let store = match &config.store_dir {
            Some(dir) => Some(StoreHandle::open(dir).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?),
            None => None,
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Daemon {
            listener,
            addr,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            drain: CancelToken::new(),
            store,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control valid for this daemon's lifetime.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle { stop: Arc::clone(&self.stop), drain: self.drain.clone(), addr: self.addr }
    }

    /// Serves until shutdown (op, [`DaemonHandle::shutdown`], or a fatal
    /// listener error). Worker and connection threads are joined before
    /// returning, so all side effects are visible to the caller.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection and per-request
    /// failures are answered in-protocol.
    pub fn run(self) -> std::io::Result<()> {
        let Daemon { listener, addr: _, config, stop, drain, store } = self;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_depth.max(1));

        let hub = config
            .telemetry_interval
            .map(|iv| Arc::new(TelemetryHub::new(iv, config.telemetry_queue)));
        let publisher = match &hub {
            Some(hub) => {
                let hub = Arc::clone(hub);
                let stop = Arc::clone(&stop);
                Some(
                    std::thread::Builder::new()
                        .name("locapd-telemetry".into())
                        .spawn(move || hub.run(&stop))?,
                )
            }
            None => None,
        };

        let workers = config.workers.max(1);
        let responder = Arc::new(Responder {
            config,
            clock: Arc::new(StdClock::new()),
            drain,
            store,
            metrics: Metrics::new(),
            depth: AtomicI64::new(0),
        });
        let worker_shared =
            Arc::new(WorkerShared { rx: Mutex::new(rx), responder: Arc::clone(&responder) });
        let workers: Vec<_> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&worker_shared);
                std::thread::Builder::new()
                    .name(format!("locapd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<_>>()?;

        let conn_shared = Arc::new(ConnShared {
            tx,
            stop: Arc::clone(&stop),
            hub,
            next_req_id: AtomicU64::new(0),
            responder,
        });
        listener.set_nonblocking(true)?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            obs::sync::assert_unlocked();
            match listener.accept() {
                Ok((stream, _peer)) => {
                    obs::counter(CONNECTIONS).inc();
                    let shared = Arc::clone(&conn_shared);
                    let handle = std::thread::Builder::new()
                        .name("locapd-conn".into())
                        .spawn(move || connection_loop(stream, &shared))?;
                    connections.push(handle);
                    connections.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    join_all(connections);
                    drop(conn_shared);
                    join_workers(workers);
                    join_all(publisher.into_iter().collect());
                    return Err(e);
                }
            }
        }
        join_all(connections);
        // dropping the last sender ends the worker recv loops
        drop(conn_shared);
        join_workers(workers);
        // the publisher sees the stop flag within its poll interval
        join_all(publisher.into_iter().collect());
        Ok(())
    }
}

fn join_all(handles: Vec<std::thread::JoinHandle<()>>) {
    for h in handles {
        if let Err(panic) = h.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

fn join_workers(handles: Vec<std::thread::JoinHandle<()>>) {
    join_all(handles)
}

/// Records an error response kind (`serve/errors/<kind>`) — the one
/// construction site of this counter family.
fn record_error_kind(kind: &str) {
    obs::counter(&format!("serve/errors/{kind}")).inc();
}

/// A duration as saturating nanoseconds.
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Runs `f`, catching a panic as its message. Both request boundaries —
/// a worker's job and a connection thread's inline hit — run inside it,
/// so that a defect in one request answers that request with
/// [`INTERNAL_PANIC`] while the thread goes on serving.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-string panic payload".into());
        format!("the request panicked: {message}")
    })
}

/// A request's resolution on its connection thread: the typed
/// truncation of an already-tripped budget, which every run reports
/// before any lookup, or the stored bytes of a warm hit. `None` on a
/// miss or a damaged entry, which a worker then computes.
fn resolve_inline(
    request: &PipelineRequest,
    budget: &RunBudget,
    store: &StoreHandle,
    key: &StoreKey,
) -> Option<Result<String, CoreError>> {
    if let Err(e) = request.check_budget(budget) {
        return Some(Err(e));
    }
    match store.lookup_text(PIPELINE_STORE_NS, key) {
        Lookup::Hit(result) => Some(Ok(result)),
        Lookup::Miss | Lookup::Corrupt => None,
    }
}

impl Responder {
    /// Under `--artifact-dir`, the registry state at which a request's
    /// provenance window opens.
    fn open_window(&self) -> Option<TelemetryState> {
        self.config.artifact_dir.as_ref().map(|_| obs::snapshot())
    }

    /// The one response path of pipeline requests. It realises `job`'s
    /// budget against a clock started now, runs `run` under the
    /// `serve/request` span inside [`guarded`], and writes the `ok` line,
    /// with `run`'s encoded result spliced in (and, under
    /// `--artifact-dir`, the artifact and its sidecar, whose counters
    /// cover the registry changes since `window`, written first), or the
    /// typed error line. It records the run and serialize phases, and a
    /// queued job's queue wait. `run` returning `None` hands the request
    /// on unanswered (an inline store miss): the span is discarded and
    /// nothing is recorded. Returns whether the request was answered.
    fn respond(
        &self,
        job: &Job,
        window: Option<&TelemetryState>,
        run: impl FnOnce(&RunBudget) -> Option<Result<String, CoreError>>,
    ) -> bool {
        let pipeline = job.request.pipeline();
        if let Some(enqueued_at) = job.enqueued_at {
            let waited = self.clock.elapsed().saturating_sub(enqueued_at);
            self.metrics.record(pipeline, Phase::QueueWait, dur_ns(waited));
        }
        // the deadline runs from here, not from enqueue; the daemon clock
        // only times the other phases
        let job_clock: Arc<dyn MonotonicClock> = Arc::new(StdClock::new());
        let budget = job
            .budget
            .realize(&job_clock, self.config.default_deadline, self.config.max_deadline)
            .with_cancel(job.cancel.clone())
            .with_cancel(self.drain.clone());
        // the span records the run under `serve/request` and, when
        // OBS_TRACE is on, emits a trace event carrying the request id
        let span = obs::span_with(REQUEST_SPAN, &[("req", job.req_id as i64)]);
        let (outcome, elapsed) = locap_bench::timed(|| guarded(|| run(&budget)));
        let outcome = match outcome {
            Ok(Some(outcome)) => outcome.map_err(|e| (core_error_kind(&e), e.to_string())),
            Ok(None) => {
                span.discard();
                return false;
            }
            Err(panic) => Err((INTERNAL_PANIC.to_string(), panic)),
        };
        drop(span);
        self.metrics.record(pipeline, Phase::Run, dur_ns(elapsed));
        if job.enqueued_at.is_some() {
            self.depth.fetch_sub(1, Ordering::SeqCst);
        }
        let serialize_started = self.clock.elapsed();
        match outcome {
            Ok(result) => self.answer_ok(job, &result, elapsed, window),
            Err((kind, message)) => self.write_error(&job.writer, &job.id, &kind, &message),
        }
        let serialize = self.clock.elapsed().saturating_sub(serialize_started);
        self.metrics.record(pipeline, Phase::Serialize, dur_ns(serialize));
        true
    }

    /// A queued job's work: the pipeline run without a whole-request
    /// store lookup, its result encoded once, for the response and, on a
    /// store miss, for the write-back under the key the connection thread
    /// looked up. A failed write is counted by the store and never fails
    /// the run.
    fn compute(&self, job: &Job, budget: &RunBudget) -> Result<String, CoreError> {
        let result = job.request.run_uncached(budget, self.store.as_ref())?.to_string();
        if let (Some(store), Some(miss)) = (&self.store, &job.missed) {
            store.put_text(PIPELINE_STORE_NS, &miss.key, &result).ok();
        }
        Ok(result)
    }

    /// Writes the `ok` line for `result`, an encoded result document,
    /// after writing its artifact and sidecar under `--artifact-dir`.
    fn answer_ok(
        &self,
        job: &Job,
        result: &str,
        elapsed: Duration,
        window: Option<&TelemetryState>,
    ) {
        let pipeline = job.request.pipeline();
        let elapsed_ms = elapsed.as_millis() as u64;
        let mut response = ok_response(&job.id, pipeline, elapsed_ms, Json::Null);
        if let (Some(dir), Some(before)) = (self.config.artifact_dir.as_ref(), window) {
            let run = obs::snapshot().delta_since(before);
            // a miss's window opened on the worker, after its lookup
            let delta = match job.missed.as_ref().and_then(|miss| miss.lookup.as_ref()) {
                Some(lookup) => {
                    let mut delta = lookup.clone();
                    delta.apply(&run);
                    delta
                }
                None => run,
            };
            let sidecar = crate::provenance::sidecar(
                "locapd",
                pipeline,
                job.request.params_json(),
                elapsed_ms,
                &delta,
            );
            let stem = crate::provenance::artifact_stem(pipeline, &job.id);
            let path = dir.join(format!("{stem}.json"));
            match crate::provenance::write_artifact(&path, result, &sidecar) {
                Ok(_) => obs::counter(SIDECARS).inc(),
                Err(e) => {
                    obs::counter(SIDECAR_FAILURES).inc();
                    eprintln!("locapd: failed to write artifact {}: {e}", path.display());
                    // the run succeeded, so the response stays ok — but an
                    // unqualified ok would hide the missing artifact from
                    // `replay --expect-ok` clients
                    if let Json::Obj(fields) = &mut response {
                        let msg = format!("failed to write artifact {}: {e}", path.display());
                        fields.push(("artifact_error".into(), Json::Str(msg)));
                    }
                }
            }
        }
        self.write_line(&job.writer, &splice_result(&response, result), true);
    }

    /// Writes one response line (newline included) and counts it as
    /// ok, err or undeliverable.
    fn write_line(&self, writer: &Writer, line: &str, ok: bool) {
        let delivered = {
            let mut guard = lock_or_recover(writer);
            guard.write_all(line.as_bytes()).and_then(|()| guard.flush()).is_ok()
        };
        let m = &self.metrics;
        let counter = if !delivered {
            &m.undeliverable
        } else if ok {
            &m.resp_ok
        } else {
            &m.resp_err
        };
        counter.inc();
    }

    /// Writes one response document.
    fn write_response(&self, writer: &Writer, doc: &Json) {
        self.write_line(writer, &format!("{doc}\n"), doc.get("ok") == Some(&Json::Bool(true)));
    }

    fn write_error(&self, writer: &Writer, id: &Json, kind: &str, message: &str) {
        record_error_kind(kind);
        self.write_response(writer, &err_response(id, kind, message));
    }
}

/// Best-effort id extraction for error responses to frames that failed
/// to parse as requests.
fn salvage_id(line: &[u8]) -> Json {
    std::str::from_utf8(line)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| doc.get("id").cloned())
        .filter(|id| matches!(id, Json::Bool(_) | Json::Num(_) | Json::Str(_)))
        .unwrap_or(Json::Null)
}

fn stats_json(shared: &ConnShared) -> Json {
    let r = &shared.responder;
    let registry = obs::snapshot();
    let get = |k: &str| registry.counters.get(k).copied().unwrap_or(0) as f64;
    let get_gauge = |k: &str| registry.gauges.get(k).copied().unwrap_or(0) as f64;
    let telemetry_interval_ms = shared.hub.as_ref().map_or(0, |hub| hub.interval_ms());
    let store = Json::Obj(vec![
        ("warm_hit".into(), Json::Num(get(locap_store::STORE_WARM_HIT))),
        ("cold_miss".into(), Json::Num(get(locap_store::STORE_COLD_MISS))),
        ("write".into(), Json::Num(get(locap_store::STORE_WRITE))),
        ("write_failed".into(), Json::Num(get(locap_store::STORE_WRITE_FAILED))),
        ("corrupt".into(), Json::Num(get(locap_store::STORE_CORRUPT))),
        ("hit_rate_pct".into(), Json::Num(get_gauge(locap_store::STORE_HIT_RATE))),
    ]);
    Json::Obj(vec![
        ("requests".into(), Json::Num(get(REQUESTS))),
        ("responses_ok".into(), Json::Num(get(RESP_OK))),
        ("responses_err".into(), Json::Num(get(RESP_ERR))),
        ("undeliverable".into(), Json::Num(get(UNDELIVERABLE))),
        ("connections".into(), Json::Num(get(CONNECTIONS))),
        ("disconnects".into(), Json::Num(get(DISCONNECTS))),
        ("queue_depth".into(), Json::Num(r.depth.load(Ordering::SeqCst) as f64)),
        ("queue_capacity".into(), Json::Num(r.config.queue_depth as f64)),
        ("workers".into(), Json::Num(r.config.workers as f64)),
        ("telemetry_interval_ms".into(), Json::Num(telemetry_interval_ms as f64)),
        // the result-store counter family plus its hit-rate gauge (all
        // zero when the daemon runs without --store-dir)
        ("store".into(), store),
        // the full registry at telemetry resolution: every counter,
        // gauge, span histogram and latency histogram (same encoding as
        // subscribe frames' data)
        ("registry".into(), registry.to_json()),
    ])
}

/// The one construction site of the disconnect counter.
fn record_disconnect() {
    obs::counter(DISCONNECTS).inc();
}

fn connection_loop(stream: TcpStream, shared: &ConnShared) {
    // the read timeout bounds how long shutdown waits on an idle
    // connection; the frame reader keeps partial frames across timeouts
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Writer::new(w)),
        Err(_) => {
            record_disconnect();
            return;
        }
    };
    let cancel = CancelToken::new();
    let mut subscriptions: Vec<u64> = Vec::new();
    let mut reader = FrameReader::new(stream, shared.responder.config.max_frame_bytes);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        obs::sync::assert_unlocked();
        match reader.next_frame() {
            Ok(Frame::Eof) => break,
            Ok(Frame::Line(line)) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue; // keep-alive
                }
                if handle_frame(&line, &writer, &cancel, &mut subscriptions, shared) {
                    break; // shutdown requested on this connection
                }
            }
            Err(FrameError::Idle) => continue,
            Err(FrameError::TooLarge { limit }) => {
                shared.responder.write_error(
                    &writer,
                    &Json::Null,
                    &ProtocolError::FrameTooLarge { limit }.kind(),
                    &ProtocolError::FrameTooLarge { limit }.to_string(),
                );
            }
            Err(FrameError::Unterminated) | Err(FrameError::Io(_)) => break,
        }
    }
    // disconnect: cancel this connection's in-flight jobs and detach its
    // telemetry subscriptions
    cancel.cancel();
    if let Some(hub) = &shared.hub {
        hub.unsubscribe(&subscriptions);
    }
    record_disconnect();
}

/// Handles one well-framed line; returns true when the daemon should
/// shut down.
fn handle_frame(
    line: &[u8],
    writer: &Arc<Writer>,
    cancel: &CancelToken,
    subscriptions: &mut Vec<u64>,
    shared: &ConnShared,
) -> bool {
    let r = &*shared.responder;
    let parse_started = r.clock.elapsed();
    let request = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            r.write_error(writer, &salvage_id(line), &e.kind(), &e.to_string());
            return false;
        }
    };
    let parse_ns = dur_ns(r.clock.elapsed().saturating_sub(parse_started));
    r.metrics.requests.inc();
    match request {
        Request::Ping { id } => {
            r.write_response(writer, &ok_response(&id, "ping", 0, Json::Obj(vec![])));
            false
        }
        Request::Stats { id } => {
            r.write_response(writer, &ok_response(&id, "stats", 0, stats_json(shared)));
            false
        }
        Request::Subscribe { id } => {
            let Some(hub) = &shared.hub else {
                let e = ProtocolError::TelemetryDisabled;
                r.write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            };
            // ack before registering, so the ack precedes the first frame
            let result = Json::Obj(vec![
                ("interval_ms".into(), Json::Num(hub.interval_ms() as f64)),
                ("queue".into(), Json::Num(hub.queue_depth() as f64)),
            ]);
            r.write_response(writer, &ok_response(&id, "subscribe", 0, result));
            subscriptions.push(hub.subscribe(Arc::clone(writer)));
            false
        }
        Request::Shutdown { id } => {
            if !r.config.allow_shutdown {
                let e = ProtocolError::ShutdownDisabled;
                r.write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            }
            r.write_response(writer, &ok_response(&id, "shutdown", 0, Json::Obj(vec![])));
            shared.stop.store(true, Ordering::SeqCst);
            r.drain.cancel();
            true
        }
        Request::Pipeline { id, request, budget } => {
            if shared.stop.load(Ordering::SeqCst) {
                let e = ProtocolError::ShuttingDown;
                r.write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            }
            let req_id = shared.next_req_id.fetch_add(1, Ordering::Relaxed) + 1;
            r.metrics.record(request.pipeline(), Phase::Parse, parse_ns);
            let mut job = Job {
                id,
                req_id,
                request,
                budget,
                writer: Arc::clone(writer),
                cancel: cancel.clone(),
                enqueued_at: None,
                missed: None,
            };
            if let Some(store) = &r.store {
                let key = job.request.store_key();
                let window = r.open_window();
                let answered = r.respond(&job, window.as_ref(), |budget| {
                    resolve_inline(&job.request, budget, store, &key)
                });
                if answered {
                    return false;
                }
                let lookup = window.map(|before| obs::snapshot().delta_since(&before));
                job.missed = Some(Miss { key, lookup });
            }
            shared.enqueue(job);
            false
        }
    }
}

impl ConnShared {
    /// Queues `job` for a worker, answering `protocol/overloaded` when the
    /// queue is full.
    fn enqueue(&self, mut job: Job) {
        let r = &*self.responder;
        job.enqueued_at = Some(r.clock.elapsed());
        let depth = r.depth.fetch_add(1, Ordering::SeqCst) + 1;
        r.metrics.queue_depth.set_max(depth);
        let (job, e) = match self.tx.try_send(job) {
            Ok(()) => return,
            Err(TrySendError::Full(job)) => {
                (job, ProtocolError::Overloaded { queue_depth: r.config.queue_depth })
            }
            Err(TrySendError::Disconnected(job)) => (job, ProtocolError::ShuttingDown),
        };
        r.depth.fetch_sub(1, Ordering::SeqCst);
        r.write_error(&job.writer, &job.id, &e.kind(), &e.to_string());
    }
}

fn worker_loop(shared: &WorkerShared) {
    let r = &*shared.responder;
    loop {
        let job = {
            let rx = lock_or_recover(&shared.rx);
            rx.recv()
        };
        let Ok(job) = job else { return }; // all senders gone: drained
        r.respond(&job, r.open_window().as_ref(), |budget| Some(r.compute(&job, budget)));
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufRead;

    use super::*;

    /// A responder as [`Daemon::run`] builds it, without a store.
    fn responder() -> Responder {
        Responder {
            config: DaemonConfig::default(),
            clock: Arc::new(StdClock::new()),
            drain: CancelToken::new(),
            store: None,
            metrics: Metrics::new(),
            depth: AtomicI64::new(0),
        }
    }

    /// A loopback connection: the daemon's writer and the client's reader.
    fn loopback() -> (Arc<Writer>, std::io::BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Arc::new(Writer::new(server)), std::io::BufReader::new(client))
    }

    fn read_response(reader: &mut std::io::BufReader<TcpStream>) -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(&line).unwrap()
    }

    #[test]
    fn a_panicking_request_is_answered_and_the_thread_serves_on() {
        let responder = responder();
        let (writer, mut reader) = loopback();
        let params = Json::parse(r#"{"delta_prime":2,"n":9}"#).unwrap();
        let job = Job {
            id: Json::Num(1.0),
            req_id: 1,
            request: PipelineRequest::parse("eds-lower", &params).unwrap(),
            budget: BudgetSpec::default(),
            writer,
            cancel: CancelToken::new(),
            enqueued_at: None,
            missed: None,
        };
        let counter = format!("serve/errors/{INTERNAL_PANIC}");
        let before = obs::snapshot().counters.get(&counter).copied().unwrap_or(0);

        let panics = |_: &RunBudget| -> Option<Result<String, CoreError>> { panic!("boom") };
        assert!(responder.respond(&job, None, panics), "a panic is answered, not handed on");
        assert!(responder.respond(&job, None, |budget| Some(responder.compute(&job, budget))));

        let panicked = read_response(&mut reader);
        let error = panicked.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some(INTERNAL_PANIC), "{panicked}");
        assert!(error.get("message").and_then(Json::as_str).unwrap().contains("boom"));
        let served = read_response(&mut reader);
        assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served}");
        let expected = job.request.run(&RunBudget::unlimited()).unwrap();
        assert_eq!(served.get("result"), Some(&expected));
        let after = obs::snapshot().counters.get(&counter).copied().unwrap_or(0);
        assert_eq!(after - before, 1, "the panic is counted once");
    }

    #[test]
    fn lock_or_recover_counts_poisoning_exactly_once() {
        let m: Arc<Mutex<u8, 10>> = Arc::new(Mutex::new(7));
        let holder = Arc::clone(&m);
        let poisoner = std::thread::spawn(move || {
            let _g = holder.lock();
            panic!("poison the lock");
        });
        assert!(poisoner.join().is_err(), "the holder must panic with the lock held");
        let before = obs::snapshot().counters.get("serve/errors/poisoned").copied().unwrap_or(0);
        assert_eq!(*lock_or_recover(&m), 7, "guarded state survives recovery");
        assert_eq!(*lock_or_recover(&m), 7, "the second acquisition takes the plain path");
        let after = obs::snapshot().counters.get("serve/errors/poisoned").copied().unwrap_or(0);
        assert_eq!(after - before, 1, "the typed disconnect is counted exactly once");
    }
}
