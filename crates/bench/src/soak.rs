//! Open-loop constant-QPS soak engine for a live `locapd`.
//!
//! The engine drives a fixed request schedule against a running daemon:
//! global tick *i* is due at `i / qps` seconds after start, ticks are
//! round-robined across `connections` TCP connections, and — this is
//! the open-loop part — a tick is sent when it is **due**, not when the
//! previous response arrived, so a slow daemon faces the offered rate
//! instead of silently throttling the generator (coordinated omission).
//!
//! Each connection runs a sender thread (the schedule) and a receiver
//! thread (response matching by request id). Per-request latency —
//! send-to-response, including daemon queueing — lands in the
//! `soak/request` span (visible in the `OBS_JSON` snapshot) and in a
//! run-local [`Histogram`] for p50/p90/p99 within 1/16 relative error.
//! Failures are counted by kind: `transport/…` for
//! connection-level trouble, the daemon's own `error.kind` for `ok:
//! false` responses.
//!
//! All timing goes through [`locap_graph::budget::MonotonicClock`]
//! (shared with `locapd` itself), keeping the workspace's clock
//! discipline: no ad-hoc `Instant` reads.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use locap_graph::budget::{MonotonicClock, StdClock};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_obs::sync::Mutex;
use locap_obs::Histogram;

/// Span recording every request's send-to-response latency.
pub const LATENCY_SPAN: &str = "soak/request";
/// Counter of requests the schedule put on the wire.
pub const SENT: &str = "soak/sent";
/// Counter of `ok: true` responses matched to a request.
pub const OK: &str = "soak/ok";
/// Gauge holding the most recent run's offered rate, milli-QPS.
pub const TARGET_QPS: &str = "soak/target_qps_x1000";
/// Gauge holding the most recent run's response rate, milli-QPS.
pub const ACHIEVED_QPS: &str = "soak/achieved_qps_x1000";

/// How long receivers poll before re-checking stop conditions.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// A soak scenario: where, how hard, for how long, and with what.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// `host:port` of the daemon under load.
    pub addr: String,
    /// Offered request rate across all connections, per second.
    pub qps: f64,
    /// Length of the send schedule.
    pub duration: Duration,
    /// Concurrent TCP connections sharing the schedule round-robin.
    pub connections: usize,
    /// Pipeline each request invokes.
    pub pipeline: String,
    /// Raw JSON object text for the request `params`.
    pub params: String,
    /// Extra time after the schedule ends to wait for in-flight
    /// responses before declaring them unanswered.
    pub drain: Duration,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            addr: String::new(),
            qps: 50.0,
            duration: Duration::from_secs(2),
            connections: 2,
            pipeline: "census".into(),
            params: r#"{"family":"directed-cycle","n":12,"radius":2}"#.into(),
            drain: Duration::from_secs(10),
        }
    }
}

/// The outcome of one soak run.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// The offered rate the schedule aimed for.
    pub target_qps: f64,
    /// Responses (ok or error) per second of total runtime.
    pub achieved_qps: f64,
    /// Requests sent.
    pub sent: u64,
    /// `ok: true` responses matched to a request.
    pub ok: u64,
    /// Failures by kind (daemon `error.kind`s and `transport/…`).
    pub errors: BTreeMap<String, u64>,
    /// Requests still unanswered when the drain window closed.
    pub unanswered: u64,
    /// Total wall-clock of the run, milliseconds (schedule + drain used).
    pub elapsed_ms: u64,
    /// Median latency from the run's histogram (within 1/16), ns.
    pub p50_ns: u64,
    /// 90th percentile latency, ns.
    pub p90_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Largest observed latency, ns.
    pub max_ns: u64,
}

impl SoakReport {
    /// Whether the run completed cleanly: everything sent, everything
    /// answered `ok: true`.
    pub fn passed(&self) -> bool {
        self.sent > 0 && self.errors.is_empty() && self.unanswered == 0
    }
}

/// Run-wide state shared by every sender/receiver thread.
struct Shared {
    clock: StdClock,
    hist: Histogram,
    errors: Mutex<BTreeMap<String, u64>, 20>,
    sent: AtomicU64,
    ok: AtomicU64,
    answered: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// The one construction site of the soak error-counter family.
    fn record_error(&self, kind: &str, n: u64) {
        if n == 0 {
            return;
        }
        obs::counter(&format!("soak/errors/{kind}")).add(n);
        let mut errors = self.errors.lock();
        *errors.entry(kind.to_string()).or_insert(0) += n;
    }
}

/// Requests in flight on one connection: request id → send time (ns).
type Pending = Arc<Mutex<BTreeMap<u64, u64>, 10>>;

/// Runs the scenario to completion and reports.
///
/// # Errors
///
/// Only configuration errors fail the call (`qps <= 0`, no connections);
/// runtime trouble — refused connections, dropped responses, daemon
/// errors — is *reported* in the returned [`SoakReport`] so a soak under
/// overload still yields its error taxonomy.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    if !cfg.qps.is_finite() || cfg.qps <= 0.0 {
        return Err(format!("qps must be positive and finite, got {}", cfg.qps));
    }
    if cfg.connections == 0 {
        return Err("connections must be at least 1".into());
    }
    let shared = Arc::new(Shared {
        clock: StdClock::new(),
        hist: Histogram::default(),
        errors: Mutex::new(BTreeMap::new()),
        sent: AtomicU64::new(0),
        ok: AtomicU64::new(0),
        answered: AtomicU64::new(0),
    });
    let deadline = cfg.duration + cfg.drain;
    let workers: Vec<_> = (0..cfg.connections)
        .map(|conn| {
            let cfg = cfg.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || connection_worker(&cfg, conn, &shared, deadline))
        })
        .collect();
    let mut unanswered = 0;
    for w in workers {
        unanswered += w.join().map_err(|_| "a soak worker panicked".to_string())?;
    }
    shared.record_error("transport/unanswered", unanswered);
    let elapsed = shared.clock.elapsed();

    let answered = shared.answered.load(Ordering::SeqCst);
    let latency = shared.hist.state();
    let report = SoakReport {
        target_qps: cfg.qps,
        achieved_qps: answered as f64 / elapsed.as_secs_f64().max(1e-9),
        sent: shared.sent.load(Ordering::SeqCst),
        ok: shared.ok.load(Ordering::SeqCst),
        errors: shared.errors.lock().clone(),
        unanswered,
        elapsed_ms: elapsed.as_millis().min(u64::MAX as u128) as u64,
        p50_ns: latency.quantile(0.50),
        p90_ns: latency.quantile(0.90),
        p99_ns: latency.quantile(0.99),
        max_ns: latency.max,
    };
    publish(&report);
    Ok(report)
}

/// Publishes the headline numbers into the global registry so the
/// standard `OBS_JSON` snapshot line carries them (gauges hold the
/// most-recent run's rates; the counters accumulate, like the
/// [`LATENCY_SPAN`] histogram that the quantiles come from).
fn publish(report: &SoakReport) {
    obs::gauge(TARGET_QPS).set((report.target_qps * 1000.0) as i64);
    obs::gauge(ACHIEVED_QPS).set((report.achieved_qps * 1000.0) as i64);
    obs::counter(SENT).add(report.sent);
    obs::counter(OK).add(report.ok);
}

/// One connection: a receiver thread matching responses while this
/// thread walks the send schedule. Returns the number of requests left
/// unanswered on this connection.
fn connection_worker(
    cfg: &SoakConfig,
    conn: usize,
    shared: &Arc<Shared>,
    deadline: Duration,
) -> u64 {
    let stream = match TcpStream::connect(&cfg.addr) {
        Ok(s) => s,
        Err(_) => {
            shared.record_error("transport/connect", 1);
            return 0;
        }
    };
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => {
            shared.record_error("transport/connect", 1);
            return 0;
        }
    };
    let pending: Pending = Arc::new(Mutex::new(BTreeMap::new()));
    let sender_done = Arc::new(AtomicBool::new(false));
    let receiver = {
        let shared = Arc::clone(shared);
        let pending = Arc::clone(&pending);
        let sender_done = Arc::clone(&sender_done);
        std::thread::spawn(move || receive(reader, &pending, &shared, &sender_done, deadline))
    };
    send_schedule(cfg, conn, stream, shared, &pending);
    sender_done.store(true, Ordering::SeqCst);
    let _ = receiver.join();
    let leftover = pending.lock();
    leftover.len() as u64
}

/// Walks this connection's share of the global open-loop schedule.
fn send_schedule(
    cfg: &SoakConfig,
    conn: usize,
    mut stream: TcpStream,
    shared: &Shared,
    pending: &Pending,
) {
    let period_ns = 1e9 / cfg.qps;
    let mut tick = conn as u64;
    loop {
        let due = Duration::from_nanos((tick as f64 * period_ns) as u64);
        if due >= cfg.duration {
            break;
        }
        let now = shared.clock.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let line = format!(
            "{{\"id\":{tick},\"pipeline\":\"{}\",\"params\":{}}}\n",
            cfg.pipeline, cfg.params
        );
        pending.lock().insert(tick, shared.now_ns());
        obs::sync::assert_unlocked();
        if stream.write_all(line.as_bytes()).is_err() {
            pending.lock().remove(&tick);
            shared.record_error("transport/send", 1);
            break;
        }
        shared.sent.fetch_add(1, Ordering::SeqCst);
        tick += cfg.connections as u64;
    }
}

/// Matches response lines to pending requests until everything sent on
/// this connection is answered or the drain deadline passes.
fn receive(
    stream: TcpStream,
    pending: &Pending,
    shared: &Shared,
    sender_done: &AtomicBool,
    deadline: Duration,
) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if sender_done.load(Ordering::SeqCst) && pending.lock().is_empty() {
            return;
        }
        if shared.clock.elapsed() > deadline {
            return;
        }
        // a timed-out read_line keeps any partial frame appended to
        // `line`, so the next pass resumes mid-frame losslessly
        obs::sync::assert_unlocked();
        match reader.read_line(&mut line) {
            Ok(0) => {
                shared.record_error("transport/eof", 1);
                return;
            }
            Ok(_) => {
                process_response(&line, pending, shared);
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                shared.record_error("transport/recv", 1);
                return;
            }
        }
    }
}

fn process_response(line: &str, pending: &Pending, shared: &Shared) {
    let now_ns = shared.now_ns();
    let Ok(doc) = Json::parse(line) else {
        shared.record_error("transport/bad_frame", 1);
        return;
    };
    let Some(id) = doc.get("id").and_then(Json::as_u64) else {
        shared.record_error("transport/bad_frame", 1);
        return;
    };
    let sent_ns = pending.lock().remove(&id);
    let Some(sent_ns) = sent_ns else {
        shared.record_error("transport/unknown_id", 1);
        return;
    };
    let latency = now_ns.saturating_sub(sent_ns);
    shared.hist.record(latency);
    obs::record_span_ns(LATENCY_SPAN, latency);
    shared.answered.fetch_add(1, Ordering::SeqCst);
    if doc.get("ok") == Some(&Json::Bool(true)) {
        shared.ok.fetch_add(1, Ordering::SeqCst);
    } else {
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("response/unknown")
            .to_string();
        shared.record_error(&kind, 1);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the fake daemon bounds its accept loop by wall time"
)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A minimal line server: answers every request with `ok: true`
    /// except ids divisible by `fail_every`, which get a typed error.
    fn fake_daemon(fail_every: u64) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut conns = Vec::new();
            // serve every connection of one soak run, then wind down
            // when the listener poll sees no new connection
            listener.set_nonblocking(true).expect("nonblocking");
            let started = std::time::Instant::now();
            while started.elapsed() < Duration::from_secs(20) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        conns.push(std::thread::spawn(move || serve_conn(stream, fail_every)));
                    }
                    Err(_) => {
                        if !conns.is_empty() && conns.iter().all(|c| c.is_finished()) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        (addr, handle)
    }

    fn serve_conn(stream: TcpStream, fail_every: u64) {
        let mut writer = stream.try_clone().expect("clone");
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { return };
            let id: u64 = line
                .split("\"id\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|tok| tok.trim().parse().ok())
                .expect("request id");
            let resp = if fail_every > 0 && id % fail_every == 0 {
                format!(
                    "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"fake/overload\",\"message\":\"x\"}}}}\n"
                )
            } else {
                format!("{{\"id\":{id},\"ok\":true,\"result\":{{}}}}\n")
            };
            if writer.write_all(resp.as_bytes()).is_err() {
                return;
            }
        }
    }

    #[test]
    fn soak_against_a_clean_server_passes() {
        let (addr, server) = fake_daemon(0);
        let cfg = SoakConfig {
            addr: addr.to_string(),
            qps: 200.0,
            duration: Duration::from_millis(250),
            connections: 2,
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg).expect("soak runs");
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.sent, 50, "open-loop schedule is exact: qps x duration");
        assert_eq!(report.ok, 50);
        assert!(report.achieved_qps > 0.0);
        assert!(report.p50_ns <= report.p90_ns && report.p90_ns <= report.p99_ns, "{report:?}");
        assert!(report.p99_ns <= report.max_ns.max(report.p99_ns), "{report:?}");
        server.join().expect("server");
    }

    #[test]
    fn soak_reports_the_error_taxonomy() {
        let (addr, server) = fake_daemon(5);
        let cfg = SoakConfig {
            addr: addr.to_string(),
            qps: 100.0,
            duration: Duration::from_millis(250),
            connections: 1,
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg).expect("soak runs");
        assert!(!report.passed());
        assert_eq!(report.sent, 25);
        // ids 0, 5, 10, 15, 20 fail
        assert_eq!(report.errors.get("fake/overload").copied(), Some(5), "{report:?}");
        assert_eq!(report.ok, 20);
        assert_eq!(report.unanswered, 0);
        server.join().expect("server");
    }

    #[test]
    fn refused_connections_are_reported_not_fatal() {
        // a bound-then-dropped listener: nothing listens on the port
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let cfg = SoakConfig {
            addr: addr.to_string(),
            qps: 50.0,
            duration: Duration::from_millis(50),
            connections: 2,
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg).expect("config is valid");
        assert!(!report.passed());
        assert_eq!(report.errors.get("transport/connect").copied(), Some(2), "{report:?}");
        assert_eq!(report.sent, 0);
    }

    #[test]
    fn config_errors_are_rejected() {
        let bad_qps = SoakConfig { qps: 0.0, ..SoakConfig::default() };
        assert!(run_soak(&bad_qps).is_err());
        let no_conns = SoakConfig { connections: 0, ..SoakConfig::default() };
        assert!(run_soak(&no_conns).is_err());
    }
}
