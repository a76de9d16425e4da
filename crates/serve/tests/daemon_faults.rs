//! Fault injection for `locapd`: torn connections, expired deadlines
//! and a saturated worker pool must each resolve into a clean typed
//! response (or a cancelled job) **and** the matching observability
//! counters — the daemon itself never dies.
//!
//! Counter assertions are delta-based (`snapshot` before, poll after)
//! and use `>=`, because the obs registry is process-global and tests
//! in this binary run concurrently.

#![expect(
    clippy::disallowed_methods,
    reason = "the fault tests poll the registry against wall-clock deadlines"
)]

mod common;

use std::time::{Duration, Instant};

use common::{expect_err, expect_ok, Client, TestDaemon, SLOW_REQUEST, VALID_REQUESTS};
use locap_obs as obs;
use locap_obs::telemetry::TelemetryState;
use locap_serve::daemon::DaemonConfig;

/// Polls until `counter` has grown by at least `by` over `base`, or
/// fails after 10 s. Returns the observed delta.
#[track_caller]
fn await_counter_delta(base: &TelemetryState, counter: &str, by: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let delta = obs::snapshot().delta_since(base).counters.get(counter).copied().unwrap_or(0);
        if delta >= by {
            return delta;
        }
        assert!(
            Instant::now() < deadline,
            "counter {counter} did not grow by {by} within 10s (delta {delta})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Tearing the connection down mid-request cancels the in-flight job:
/// the worker observes the cancellation token, publishes
/// `budget/truncated/cancelled`, and the daemon records the disconnect
/// and keeps serving.
#[test]
fn client_disconnect_mid_request_cancels_the_job() {
    let daemon = TestDaemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let base = obs::snapshot();
    {
        let mut victim = Client::connect(daemon.addr());
        victim.send_line(SLOW_REQUEST);
        // Give the worker a moment to dequeue, then vanish.
        std::thread::sleep(Duration::from_millis(50));
    } // drop = close both directions
    await_counter_delta(&base, "serve/disconnects", 1);
    await_counter_delta(&base, "budget/truncated/cancelled", 1);
    // The daemon survived and the (single) worker is free again.
    let mut client = Client::connect(daemon.addr());
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

/// A half-closed connection (client EOF with the read side open) also
/// cancels in-flight work — and the cancellation response, if the
/// worker races the disconnect, is never mistaken for success.
#[test]
fn client_half_close_mid_request_cancels_the_job() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let base = obs::snapshot();
    let mut victim = Client::connect(daemon.addr());
    victim.send_line(SLOW_REQUEST);
    std::thread::sleep(Duration::from_millis(50));
    victim.shutdown_write();
    await_counter_delta(&base, "serve/disconnects", 1);
    await_counter_delta(&base, "budget/truncated/cancelled", 1);
    daemon.stop();
}

/// A deadline expiring mid-pipeline yields a typed `truncated/deadline`
/// response on the still-healthy connection, plus the
/// `budget/truncated/deadline` counter.
#[test]
fn deadline_expiry_mid_pipeline_is_a_typed_truncation() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let base = obs::snapshot();
    let mut client = Client::connect(daemon.addr());
    let Some(rest) = SLOW_REQUEST.strip_suffix('}') else {
        panic!("slow request literal must end with }}");
    };
    let resp = client.roundtrip(&format!(r#"{rest},"budget":{{"deadline_ms":5}}}}"#));
    expect_err(&resp, "truncated/deadline");
    await_counter_delta(&base, "budget/truncated/deadline", 1);
    // Same connection, next request: fully served.
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

/// Saturating the pool produces typed `protocol/overloaded` responses
/// and the matching `serve/errors/protocol/overloaded` counter family.
#[test]
fn saturation_publishes_overload_counters() {
    let daemon =
        TestDaemon::start(DaemonConfig { workers: 1, queue_depth: 1, ..DaemonConfig::default() });
    let base = obs::snapshot();
    let mut client = Client::connect(daemon.addr());
    client.send_line(SLOW_REQUEST);
    for i in 0..20 {
        client.send_line(&format!(
            r#"{{"id":{i},"pipeline":"census","params":{{"family":"directed-cycle","n":12}}}}"#
        ));
    }
    let mut overloaded = 0u64;
    for _ in 0..21 {
        let resp = client.recv();
        if common::err_kind(&resp) == Some("protocol/overloaded") {
            overloaded += 1;
        }
    }
    assert!(overloaded > 0, "a depth-1 queue under a 20-request burst must overflow");
    let counted = await_counter_delta(&base, "serve/errors/protocol/overloaded", overloaded);
    assert!(counted >= overloaded, "every overloaded response is counted");
    daemon.stop();
}

/// Request-level rejections are mirrored in the `serve/errors/*`
/// counter family, so operators can see malformed traffic without logs.
#[test]
fn request_rejections_are_counted_by_kind() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let base = obs::snapshot();
    let mut client = Client::connect(daemon.addr());
    let resp = client
        .roundtrip(r#"{"id":1,"pipeline":"census","params":{"family":"directed-cycle","n":2}}"#);
    expect_err(&resp, "request/bad_param");
    await_counter_delta(&base, "serve/errors/request/bad_param", 1);
    let resp = client.roundtrip("garbage");
    expect_err(&resp, "protocol/bad_json");
    await_counter_delta(&base, "serve/errors/protocol/bad_json", 1);
    daemon.stop();
}
