//! The `locapd` daemon: a TCP accept loop, per-connection frame
//! readers, and a bounded worker pool executing pipeline requests under
//! per-request budgets.
//!
//! # Lifecycle
//!
//! [`Daemon::bind`] → [`Daemon::run`] (blocks). Every connection gets a
//! reader thread; well-formed pipeline requests are `try_send`-ed onto a
//! bounded job queue (a full queue answers `protocol/overloaded`
//! immediately — backpressure is explicit, never silent). Workers pull
//! jobs, realise the request's [`BudgetSpec`] against a clock started
//! when the job starts, run the pipeline, and write the response to the
//! originating connection.
//!
//! Failures never kill the daemon: every defective frame, rejected
//! request, model-run error and budget truncation is answered with a
//! typed error response (see [`crate::protocol`]).
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use locap_core::request::PipelineRequest;
use locap_graph::budget::{CancelToken, MonotonicClock, StdClock};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;
use locap_store::StoreHandle;

use crate::protocol::{
    core_error_kind, err_response, ok_response, parse_request, BudgetSpec, Frame, FrameError,
    FrameReader, ProtocolError, Request, DEFAULT_MAX_FRAME_BYTES,
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

/// Span wrapping every pipeline run on a worker, carrying the request's
/// monotonically-assigned id as a `req` arg in OBS_TRACE exports (so
/// `trace_report` can attribute daemon traces per request).
pub const REQUEST_SPAN: &str = "serve/request";

/// Phase name: enqueue → worker pickup.
pub const PHASE_QUEUE_WAIT: &str = "queue_wait";
/// Phase name: frame bytes → parsed request.
pub const PHASE_PARSE: &str = "parse";
/// Phase name: pipeline execution on a worker.
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
    /// content-addressed store rooted here: a repeat request answers
    /// from disk without recomputing.
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

#[expect(
    clippy::disallowed_methods,
    reason = "the crate's one poison-recovery site: poisoning is counted as a typed \
              `serve/errors/poisoned` disconnect exactly once"
)]
pub(crate) fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // a poisoned lock means a peer thread panicked; the guarded state
    // (a socket, a channel receiver) is still structurally sound. This
    // is the crate's one poison-recovery site:
    // the event is counted as a typed `serve/errors/poisoned`
    // disconnect exactly once — clearing the poison flag means every
    // later acquisition takes the `Ok` path instead of re-counting —
    // and never kills a thread silently.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            record_error_kind("poisoned");
            poisoned.into_inner()
        }
    }
}

/// One queued pipeline job.
struct Job {
    id: Json,
    /// Monotonically-assigned daemon-wide request id, threaded into the
    /// worker's `serve/request` OBS_TRACE span as a `req` arg.
    req_id: u64,
    request: PipelineRequest,
    budget: BudgetSpec,
    writer: Arc<Mutex<TcpStream>>, // lint: lock-rank=30
    cancel: CancelToken,
    /// Shared-clock reading at enqueue, for the queue-wait phase.
    enqueued_at: Duration,
}

/// State shared by connection reader threads.
struct ConnShared {
    tx: SyncSender<Job>,
    stop: Arc<AtomicBool>,
    drain: CancelToken,
    depth: Arc<AtomicI64>,
    config: DaemonConfig,
    clock: Arc<dyn MonotonicClock>,
    hub: Option<Arc<TelemetryHub>>,
    next_req_id: Arc<AtomicU64>,
}

/// State shared by worker threads.
struct WorkerShared {
    rx: Mutex<Receiver<Job>>, // lint: lock-rank=10
    clock: Arc<dyn MonotonicClock>,
    drain: CancelToken,
    depth: Arc<AtomicI64>,
    config: DaemonConfig,
    store: Option<StoreHandle>,
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
        let depth = Arc::new(AtomicI64::new(0));
        let clock: Arc<dyn MonotonicClock> = Arc::new(StdClock::new());
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

        let worker_shared = Arc::new(WorkerShared {
            rx: Mutex::new(rx),
            clock: Arc::clone(&clock),
            drain: drain.clone(),
            depth: Arc::clone(&depth),
            config: config.clone(),
            store,
        });
        let workers: Vec<_> = (0..config.workers.max(1))
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
            drain,
            depth,
            config,
            clock,
            hub,
            next_req_id: Arc::new(AtomicU64::new(0)),
        });
        listener.set_nonblocking(true)?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
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

/// Records one request-phase latency into the
/// `serve/request/<pipeline>/<phase>` histogram — the one construction
/// site of this latency family. Phases are [`PHASE_QUEUE_WAIT`],
/// [`PHASE_PARSE`], [`PHASE_RUN`] and [`PHASE_SERIALIZE`].
fn record_phase(pipeline: &str, phase: &str, ns: u64) {
    obs::latency(&format!("serve/request/{pipeline}/{phase}")).record(ns);
}

/// A duration as saturating nanoseconds.
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Writes one response line; counts it as ok/err/undeliverable.
fn write_response(writer: &Mutex<TcpStream>, doc: &Json) {
    let ok = doc.get("ok") == Some(&Json::Bool(true));
    let line = format!("{doc}\n");
    let delivered = {
        let mut guard = lock_or_recover(writer);
        guard.write_all(line.as_bytes()).and_then(|()| guard.flush()).is_ok()
    };
    if !delivered {
        obs::counter(UNDELIVERABLE).inc();
    } else if ok {
        obs::counter(RESP_OK).inc();
    } else {
        obs::counter(RESP_ERR).inc();
    }
}

fn write_error(writer: &Mutex<TcpStream>, id: &Json, kind: &str, message: &str) {
    record_error_kind(kind);
    write_response(writer, &err_response(id, kind, message));
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
    let registry = TelemetryState::capture_global();
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
        ("queue_depth".into(), Json::Num(shared.depth.load(Ordering::SeqCst) as f64)),
        ("queue_capacity".into(), Json::Num(shared.config.queue_depth as f64)),
        ("workers".into(), Json::Num(shared.config.workers as f64)),
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
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => {
            record_disconnect();
            return;
        }
    };
    let cancel = CancelToken::new();
    let mut subscriptions: Vec<u64> = Vec::new();
    let mut reader = FrameReader::new(stream, shared.config.max_frame_bytes);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
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
                write_error(
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
    writer: &Arc<Mutex<TcpStream>>,
    cancel: &CancelToken,
    subscriptions: &mut Vec<u64>,
    shared: &ConnShared,
) -> bool {
    let parse_started = shared.clock.elapsed();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            write_error(writer, &salvage_id(line), &e.kind(), &e.to_string());
            return false;
        }
    };
    let parse_ns = dur_ns(shared.clock.elapsed().saturating_sub(parse_started));
    obs::counter(REQUESTS).inc();
    match request {
        Request::Ping { id } => {
            write_response(writer, &ok_response(&id, "ping", 0, Json::Obj(vec![])));
            false
        }
        Request::Stats { id } => {
            write_response(writer, &ok_response(&id, "stats", 0, stats_json(shared)));
            false
        }
        Request::Subscribe { id } => {
            let Some(hub) = &shared.hub else {
                let e = ProtocolError::TelemetryDisabled;
                write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            };
            // ack before registering, so the ack precedes the first frame
            let result = Json::Obj(vec![
                ("interval_ms".into(), Json::Num(hub.interval_ms() as f64)),
                ("queue".into(), Json::Num(hub.queue_depth() as f64)),
            ]);
            write_response(writer, &ok_response(&id, "subscribe", 0, result));
            subscriptions.push(hub.subscribe(Arc::clone(writer)));
            false
        }
        Request::Shutdown { id } => {
            if !shared.config.allow_shutdown {
                let e = ProtocolError::ShutdownDisabled;
                write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            }
            write_response(writer, &ok_response(&id, "shutdown", 0, Json::Obj(vec![])));
            shared.stop.store(true, Ordering::SeqCst);
            shared.drain.cancel();
            true
        }
        Request::Pipeline { id, request, budget } => {
            if shared.stop.load(Ordering::SeqCst) {
                let e = ProtocolError::ShuttingDown;
                write_error(writer, &id, &e.kind(), &e.to_string());
                return false;
            }
            let req_id = shared.next_req_id.fetch_add(1, Ordering::Relaxed) + 1;
            record_phase(request.pipeline(), PHASE_PARSE, parse_ns);
            let job = Job {
                id,
                req_id,
                request,
                budget,
                writer: Arc::clone(writer),
                cancel: cancel.clone(),
                enqueued_at: shared.clock.elapsed(),
            };
            shared.depth.fetch_add(1, Ordering::SeqCst);
            obs::gauge(QUEUE_DEPTH).set_max(shared.depth.load(Ordering::SeqCst));
            match shared.tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    shared.depth.fetch_sub(1, Ordering::SeqCst);
                    let e = ProtocolError::Overloaded { queue_depth: shared.config.queue_depth };
                    write_error(&job.writer, &job.id, &e.kind(), &e.to_string());
                }
                Err(TrySendError::Disconnected(job)) => {
                    shared.depth.fetch_sub(1, Ordering::SeqCst);
                    let e = ProtocolError::ShuttingDown;
                    write_error(&job.writer, &job.id, &e.kind(), &e.to_string());
                }
            }
            false
        }
    }
}

fn worker_loop(shared: &WorkerShared) {
    loop {
        let job = {
            let rx = lock_or_recover(&shared.rx);
            rx.recv()
        };
        let Ok(job) = job else { return }; // all senders gone: drained
        process_job(job, shared);
    }
}

fn process_job(job: Job, shared: &WorkerShared) {
    let pipeline = job.request.pipeline();
    record_phase(
        pipeline,
        PHASE_QUEUE_WAIT,
        dur_ns(shared.clock.elapsed().saturating_sub(job.enqueued_at)),
    );
    let before = shared.config.artifact_dir.as_ref().map(|_| obs::snapshot());
    // the deadline runs from job start; the shared clock only times the
    // queue-wait and serialize phases
    let job_clock: Arc<dyn MonotonicClock> = Arc::new(StdClock::new());
    let budget = job
        .budget
        .realize(&job_clock, shared.config.default_deadline, shared.config.max_deadline)
        .with_cancel(job.cancel.clone())
        .with_cancel(shared.drain.clone());
    let (outcome, elapsed) = {
        // the span records the run under `serve/request` and, when
        // OBS_TRACE is on, emits a trace event carrying the request id
        let _span = obs::span_with(REQUEST_SPAN, &[("req", job.req_id as i64)]);
        locap_bench::timed(|| job.request.run_with_store(&budget, shared.store.as_ref()))
    };
    record_phase(pipeline, PHASE_RUN, dur_ns(elapsed));
    shared.depth.fetch_sub(1, Ordering::SeqCst);
    let serialize_started = shared.clock.elapsed();
    match outcome {
        Ok(result) => {
            let mut artifact_error: Option<String> = None;
            if let (Some(dir), Some(before)) = (shared.config.artifact_dir.as_ref(), before) {
                let delta = obs::snapshot().delta(&before);
                let pipeline = job.request.pipeline();
                let sidecar = crate::provenance::sidecar(
                    "locapd",
                    pipeline,
                    job.request.params_json(),
                    elapsed.as_millis() as u64,
                    &delta,
                );
                let stem = crate::provenance::artifact_stem(pipeline, &job.id);
                let path = dir.join(format!("{stem}.json"));
                match crate::provenance::write_artifact(&path, &result, &sidecar) {
                    Ok(_) => obs::counter(SIDECARS).inc(),
                    Err(e) => {
                        obs::counter(SIDECAR_FAILURES).inc();
                        eprintln!("locapd: failed to write artifact {}: {e}", path.display());
                        // the run succeeded, so the response stays ok —
                        // but an unqualified ok would hide the missing
                        // artifact from `replay --expect-ok` clients
                        artifact_error =
                            Some(format!("failed to write artifact {}: {e}", path.display()));
                    }
                }
            }
            let mut doc =
                ok_response(&job.id, job.request.pipeline(), elapsed.as_millis() as u64, result);
            if let (Some(msg), Json::Obj(fields)) = (artifact_error, &mut doc) {
                fields.push(("artifact_error".into(), Json::Str(msg)));
            }
            write_response(&job.writer, &doc);
        }
        Err(e) => {
            write_error(&job.writer, &job.id, &core_error_kind(&e), &e.to_string());
        }
    }
    record_phase(
        pipeline,
        PHASE_SERIALIZE,
        dur_ns(shared.clock.elapsed().saturating_sub(serialize_started)),
    );
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the poison test takes the raw lock on purpose: a panicking holder must poison it"
)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_recover_counts_poisoning_exactly_once() {
        let m = Arc::new(Mutex::new(7u8));
        let holder = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = holder.lock().expect("fresh lock");
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "the panicking holder must poison the lock");
        let before = obs::snapshot().counters.get("serve/errors/poisoned").copied().unwrap_or(0);
        assert_eq!(*lock_or_recover(&m), 7, "guarded state survives recovery");
        assert_eq!(*lock_or_recover(&m), 7, "the second acquisition takes the Ok path");
        assert!(!m.is_poisoned(), "recovery clears the poison flag");
        let after = obs::snapshot().counters.get("serve/errors/poisoned").copied().unwrap_or(0);
        assert_eq!(after - before, 1, "the typed disconnect is counted exactly once");
    }
}
