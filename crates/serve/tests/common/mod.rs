//! Shared harness for the serve integration tests: an in-process daemon
//! on an ephemeral port plus a line-oriented JSON client.

// Each integration-test binary compiles this module separately and
// uses a different subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;
use locap_serve::daemon::{Daemon, DaemonConfig, DaemonHandle};

/// How long a test client waits for one response before failing the
/// test (a hang guard, not a performance bound).
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// An in-process daemon bound to `127.0.0.1:0`, shut down on drop.
pub struct TestDaemon {
    addr: SocketAddr,
    handle: DaemonHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    /// Binds and serves `config` on a background thread.
    pub fn start(config: DaemonConfig) -> TestDaemon {
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = daemon.local_addr();
        let handle = daemon.handle();
        let thread = std::thread::spawn(move || daemon.run());
        TestDaemon { addr, handle, thread: Some(thread) }
    }

    /// The daemon with default test settings (2 workers, queue 16).
    pub fn default_config() -> DaemonConfig {
        DaemonConfig::default()
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The control handle (stop flag + drain token).
    pub fn handle(&self) -> &DaemonHandle {
        &self.handle
    }

    /// Stops the daemon and propagates any serve-loop error.
    pub fn stop(mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("daemon thread").expect("daemon run");
        }
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            // Already panicking or stopped explicitly — don't double-panic.
            let _ = t.join();
        }
    }
}

/// A blocking newline-delimited JSON client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with the hang-guard read timeout.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test daemon");
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    /// Sends one frame (`line` must not contain a newline).
    pub fn send_line(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send frame");
        self.stream.write_all(b"\n").expect("send newline");
    }

    /// Sends raw bytes verbatim.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw bytes");
    }

    /// Receives one response line, parsed.
    pub fn recv(&mut self) -> Json {
        let line = self.recv_line();
        Json::parse(&line).unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"))
    }

    /// Receives one raw response line.
    pub fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("receive response");
        assert!(n > 0, "daemon closed the connection instead of responding");
        line
    }

    /// Sends one frame and receives one response.
    pub fn roundtrip(&mut self, line: &str) -> Json {
        self.send_line(line);
        self.recv()
    }

    /// Half-closes the write side (the daemon sees EOF).
    pub fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// The `error.kind` of an error response, if any.
pub fn err_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

/// Asserts `resp` is `ok: true` and returns its `result` object.
#[track_caller]
pub fn expect_ok(resp: &Json) -> &Json {
    assert_eq!(resp.get("ok").cloned(), Some(Json::Bool(true)), "expected ok response: {resp}");
    resp.get("result")
        .unwrap_or_else(|| panic!("ok response without result: {resp}"))
}

/// Asserts `resp` is `ok: false` with the given error kind.
#[track_caller]
pub fn expect_err(resp: &Json, kind: &str) {
    assert_eq!(resp.get("ok").cloned(), Some(Json::Bool(false)), "expected error response: {resp}");
    assert_eq!(err_kind(resp), Some(kind), "wrong error kind in {resp}");
}

/// The `result.registry` of a `stats` roundtrip: the daemon's whole
/// metrics registry.
#[track_caller]
pub fn stats_registry(client: &mut Client) -> TelemetryState {
    let resp = client.roundtrip(r#"{"op":"stats","id":"stats"}"#);
    let registry = expect_ok(&resp)
        .get("registry")
        .unwrap_or_else(|| panic!("stats carries registry: {resp}"));
    TelemetryState::from_json(registry)
        .unwrap_or_else(|e| panic!("stats registry parses as a telemetry state ({e}): {resp}"))
}

/// Counter `name` of `state`. Snapshots omit zero counters, so an absent
/// counter reads 0.
pub fn counter(state: &TelemetryState, name: &str) -> u64 {
    state.counters.get(name).copied().unwrap_or(0)
}

/// A request holding a worker for 402–512 ms with the release `locap`
/// CLI on a 2-vCPU host: a 1,399,680-node lift (cycle 30 × |H| = 36³),
/// whose exact OPT on C30 stays cheap. It must outlast the 50 ms after
/// which the disconnect tests hang up; m = 30 (182–354 ms) came too
/// close to that.
pub const SLOW_REQUEST: &str =
    r#"{"id":"slow","pipeline":"transfer","params":{"algo":"vc-non-min","cycle":30,"m":36}}"#;

/// A valid request line for every pipeline, with parameters small
/// enough to answer in milliseconds.
pub const VALID_REQUESTS: [(&str, &str); 7] = [
    ("eds-lower", r#"{"id":"c-eds","pipeline":"eds-lower","params":{"delta_prime":2,"n":9}}"#),
    ("homogeneous", r#"{"id":"c-hom","pipeline":"homogeneous","params":{"k":1,"r":1,"m":6}}"#),
    ("hom-lift", r#"{"id":"c-lift","pipeline":"hom-lift","params":{"cycle":3,"m":6}}"#),
    (
        "oi-to-po",
        r#"{"id":"c-oipo","pipeline":"oi-to-po","params":{"algo":"vc-non-min","cycle":9,"m":6}}"#,
    ),
    (
        "ramsey",
        r#"{"id":"c-ram","pipeline":"ramsey","params":{"algo":"local-max","universe":20,"r":1,"m":5}}"#,
    ),
    (
        "transfer",
        r#"{"id":"c-tr","pipeline":"transfer","params":{"algo":"vc-non-min","cycle":9,"m":6}}"#,
    ),
    (
        "census",
        r#"{"id":"c-cen","pipeline":"census","params":{"family":"directed-cycle","n":12,"radius":2}}"#,
    ),
];
