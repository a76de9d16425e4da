//! Conformance suite for the live-telemetry surface of `locapd`:
//!
//! * `subscribe` handshake — ack first, then a snapshot frame, then
//!   delta frames with strictly increasing `seq` (heartbeats even when
//!   idle);
//! * multiple concurrent subscribers each receiving a coherent stream;
//! * subscriber disconnect mid-stream (daemon unaffected, subscriber
//!   gauge recovers);
//! * slow consumers: bounded queues shed frames, the shed count is
//!   echoed per-subscriber, and the stream re-anchors with a snapshot;
//! * malformed subscribe frames and telemetry-disabled daemons;
//! * **exact reconciliation**: a snapshot plus every subsequent delta
//!   reconstructs the registry state byte-for-byte while concurrent
//!   pipeline load runs — checked against a final `stats` snapshot;
//! * the `locap watch` binary end-to-end.
//!
//! Every test in this binary serialises on one mutex: they all observe
//! the process-global metrics registry, and the runner executes tests
//! on parallel threads.

#![expect(
    clippy::disallowed_methods,
    reason = "the stream tests poll against wall-clock deadlines"
)]

mod common;

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{expect_err, expect_ok, Client, TestDaemon, VALID_REQUESTS};
use locap_obs::json::Json;
use locap_obs::sync::{Mutex, MutexGuard};
use locap_obs::telemetry::TelemetryState;
use locap_serve::daemon::{DaemonConfig, Writer};
use locap_serve::protocol::TelemetryFrame;
use locap_serve::telemetry::TelemetryHub;

// Outermost test-serialization lock: taken before any daemon or registry
// lock, hence the lowest rank. It recovers from poison, so one panicking
// case does not cascade into every later case.
static SERIAL: Mutex<(), 1> = Mutex::new(());

fn serialize() -> MutexGuard<'static, (), 1> {
    SERIAL.lock()
}

/// A daemon config with a fast publisher for test turnaround.
fn telemetry_config() -> DaemonConfig {
    DaemonConfig { telemetry_interval: Some(Duration::from_millis(40)), ..DaemonConfig::default() }
}

/// Reads lines until the next telemetry frame (skipping interleaved
/// responses), with a hang guard.
fn next_frame(client: &mut Client) -> TelemetryFrame {
    for _ in 0..100 {
        let line = client.recv_line();
        if let Some(frame) = TelemetryFrame::parse(&line).expect("well-formed telemetry frame") {
            return frame;
        }
    }
    panic!("no telemetry frame within 100 lines");
}

#[test]
fn subscribe_acks_then_streams_snapshot_and_heartbeat_deltas() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    let mut client = Client::connect(daemon.addr());

    let ack = client.roundtrip(r#"{"op":"subscribe","id":"s1"}"#);
    let result = expect_ok(&ack);
    assert_eq!(result.get("interval_ms").and_then(Json::as_u64), Some(40), "ack: {ack}");
    assert!(result.get("queue").and_then(Json::as_u64).is_some(), "ack carries queue: {ack}");

    // the ack precedes any frame; the first frame is a full snapshot
    let first = next_frame(&mut client);
    assert_eq!(first.kind, "snapshot", "first frame anchors the stream");
    assert_eq!(first.dropped, 0);
    assert!(
        first.data.counters.contains_key("serve/requests"),
        "snapshot carries the serve counters"
    );

    // heartbeats keep coming while idle, seq strictly increasing, and
    // an idle daemon reaches a fixed point (empty deltas)
    let mut seq = first.seq;
    let mut saw_empty_delta = false;
    for _ in 0..6 {
        let frame = next_frame(&mut client);
        assert!(frame.seq > seq, "seq must increase: {} then {}", seq, frame.seq);
        seq = frame.seq;
        if frame.kind == "delta" && frame.data.is_empty() {
            saw_empty_delta = true;
        }
    }
    assert!(saw_empty_delta, "an idle daemon streams empty heartbeat deltas");
    daemon.stop();
}

#[test]
fn multiple_subscribers_see_coherent_streams() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    let mut sub_a = Client::connect(daemon.addr());
    let mut sub_b = Client::connect(daemon.addr());
    expect_ok(&sub_a.roundtrip(r#"{"op":"subscribe","id":"a"}"#));
    expect_ok(&sub_b.roundtrip(r#"{"op":"subscribe","id":"b"}"#));
    let snap_a = next_frame(&mut sub_a);
    let snap_b = next_frame(&mut sub_b);
    assert_eq!(snap_a.kind, "snapshot");
    assert_eq!(snap_b.kind, "snapshot");

    // drive one request on a third connection; both subscribers must
    // observe the same counter movement through their own streams
    let mut driver = Client::connect(daemon.addr());
    expect_ok(&driver.roundtrip(VALID_REQUESTS[6].1));

    for (label, sub, snap) in [("a", &mut sub_a, snap_a), ("b", &mut sub_b, snap_b)] {
        let base = snap.data.counters.get("serve/requests").copied().unwrap_or(0);
        let mut state = snap.data;
        for _ in 0..50 {
            let frame = next_frame(sub);
            if frame.kind == "snapshot" {
                state = frame.data;
            } else {
                state.apply(&frame.data);
            }
            if state.counters.get("serve/requests").copied().unwrap_or(0) > base {
                break;
            }
        }
        assert!(
            state.counters.get("serve/requests").copied().unwrap_or(0) > base,
            "subscriber {label} observed the request through its stream"
        );
    }
    daemon.stop();
}

#[test]
fn subscriber_disconnect_leaves_the_daemon_serving() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    {
        let mut sub = Client::connect(daemon.addr());
        expect_ok(&sub.roundtrip(r#"{"op":"subscribe","id":"gone"}"#));
        let _ = next_frame(&mut sub);
        // drop mid-stream: connection closes with the subscription live
    }
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(r#"{"op":"ping","id":"after"}"#));
    expect_ok(&client.roundtrip(VALID_REQUESTS[0].1));

    // the subscribers gauge must fall back to zero once the daemon
    // notices the disconnect
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.roundtrip(r#"{"op":"stats"}"#);
        let registry = expect_ok(&stats).get("registry").expect("stats registry").clone();
        let state = TelemetryState::from_json(&registry).expect("registry parses");
        let live = state.gauges.get("telemetry/subscribers").copied().unwrap_or(0);
        if live == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "subscriber gauge stuck at {live}");
        std::thread::sleep(Duration::from_millis(25));
    }
    daemon.stop();
}

#[test]
fn slow_consumer_frames_are_shed_and_the_stream_reanchors() {
    let _guard = serialize();
    // Drive the hub directly (no publisher thread) so every tick is
    // under test control: queue depth 1, the writer mutex held by a
    // wedge thread to stall the forwarder, then released.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reader = BufReader::new(client);
    let (server, _) = listener.accept().expect("accept");

    let hub = TelemetryHub::new(Duration::from_millis(10), 1);
    let writer = Arc::new(Writer::new(server));
    hub.subscribe(Arc::clone(&writer));

    let read_frame = |reader: &mut BufReader<TcpStream>| -> TelemetryFrame {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        TelemetryFrame::parse(&line).expect("frame parses").expect("line is a frame")
    };

    hub.publish_once();
    let first = read_frame(&mut reader);
    assert_eq!(first.kind, "snapshot");
    assert_eq!(first.dropped, 0);

    {
        // wedge the forwarder: it blocks on the writer mutex with one
        // frame in hand while the depth-1 queue fills behind it. The
        // wedge holds the writer on its own thread, because the ticks
        // take the hub's lower-ranked locks.
        let (wedged, wedge_taken) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let wedge_writer = Arc::clone(&writer);
        let wedge = std::thread::spawn(move || {
            let _wedge = wedge_writer.lock();
            wedged.send(()).expect("the test thread waits for the wedge");
            let _ = released.recv();
        });
        wedge_taken.recv().expect("wedge thread holds the writer");
        for _ in 0..5 {
            hub.publish_once();
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(release);
        wedge.join().expect("wedge thread");
    }
    // at least one tick found the queue full and shed its frame; after
    // the shed, the subscriber is marked for resync, so the FIRST frame
    // that carries dropped >= 1 must be a snapshot
    let mut reanchor = None;
    for _ in 0..30 {
        hub.publish_once();
        std::thread::sleep(Duration::from_millis(5));
        let frame = read_frame(&mut reader);
        if frame.dropped >= 1 {
            reanchor = Some(frame);
            break;
        }
    }
    let reanchor = reanchor.expect("a frame reporting shed frames");
    assert_eq!(reanchor.kind, "snapshot", "the first frame after a shed re-anchors the stream");
    // the global shed counter moved too (the typed telemetry/dropped site)
    assert!(
        reanchor.data.counters.get("telemetry/dropped").copied().unwrap_or(0) >= 1,
        "telemetry/dropped counted the shed frames: {:?}",
        reanchor.data.counters
    );
}

#[test]
fn malformed_subscribe_frames_get_typed_errors() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    let mut client = Client::connect(daemon.addr());
    expect_err(&client.roundtrip(r#"{"op":"subscribe","id":[1,2]}"#), "protocol/bad_id");
    expect_err(&client.roundtrip(r#"{"op":"subscrybe"}"#), "protocol/unknown_op");
    // the connection is still usable afterwards
    expect_ok(&client.roundtrip(r#"{"op":"ping","id":"alive"}"#));
    daemon.stop();
}

#[test]
fn subscribe_is_refused_when_telemetry_is_disabled() {
    let _guard = serialize();
    let config = DaemonConfig { telemetry_interval: None, ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    expect_err(&client.roundtrip(r#"{"op":"subscribe","id":"no"}"#), "protocol/telemetry_disabled");
    // stats reports streaming off
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(
        expect_ok(&stats).get("telemetry_interval_ms").and_then(Json::as_u64),
        Some(0),
        "disabled telemetry reports interval 0: {stats}"
    );
    daemon.stop();
}

/// The acceptance test: while concurrent pipeline requests run, a
/// subscriber's snapshot plus every subsequent delta reconstructs the
/// registry **exactly** — verified against a `stats` snapshot taken on
/// the same connection.
#[test]
fn streamed_deltas_reconcile_exactly_with_a_stats_snapshot() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    let mut sub = Client::connect(daemon.addr());
    expect_ok(&sub.roundtrip(r#"{"op":"subscribe","id":"rec"}"#));
    let first = next_frame(&mut sub);
    assert_eq!(first.kind, "snapshot");
    let mut state = first.data;

    // concurrent load: three connections, each replaying the full
    // pipeline matrix, while the subscription streams
    let addr = daemon.addr();
    let loaders: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for (_, request) in VALID_REQUESTS {
                    expect_ok(&client.roundtrip(request));
                }
                client // keep the connection open: no disconnect churn
            })
        })
        .collect();
    let _held: Vec<Client> = loaders.into_iter().map(|t| t.join().expect("loader")).collect();

    // drain to quiescence: 3 consecutive empty deltas mean every metric
    // write from the load (including post-response phase records) landed
    let mut quiet = 0;
    while quiet < 3 {
        let frame = next_frame(&mut sub);
        if frame.kind == "snapshot" {
            state = frame.data;
            quiet = 0;
        } else {
            quiet = if frame.data.is_empty() { quiet + 1 } else { 0 };
            state.apply(&frame.data);
        }
    }

    // the stats snapshot is captured after its own serve/requests
    // increment but before its response is written, so the stream's
    // final state differs from it by exactly one serve/responses/ok.
    // Telemetry frames may interleave before the response on this
    // shared connection; fold them into the streamed state.
    sub.send_line(r#"{"op":"stats","id":"rec-stats"}"#);
    let stats = loop {
        let line = sub.recv_line();
        match TelemetryFrame::parse(&line).expect("well-formed line") {
            Some(frame) if frame.kind == "snapshot" => state = frame.data,
            Some(frame) => state.apply(&frame.data),
            None => break Json::parse(&line).unwrap_or_else(|e| panic!("bad stats ({e}): {line}")),
        }
    };
    let registry = expect_ok(&stats).get("registry").expect("stats registry").clone();
    let stats_state = TelemetryState::from_json(&registry).expect("registry parses");
    let mut expected = stats_state;
    *expected.counters.entry("serve/responses/ok".into()).or_insert(0) += 1;

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if state == expected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stream never reconciled.\n streamed: {}\n expected: {}",
            state.to_json(),
            expected.to_json()
        );
        let frame = next_frame(&mut sub);
        if frame.kind == "snapshot" {
            state = frame.data;
        } else {
            state.apply(&frame.data);
        }
    }
    daemon.stop();
}

#[test]
fn watch_binary_renders_tsv_frames_end_to_end() {
    let _guard = serialize();
    let daemon = TestDaemon::start(telemetry_config());
    // give the watcher something non-trivial to render
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(VALID_REQUESTS[6].1));

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_locap"))
        .args(["watch", "--addr", &daemon.addr().to_string(), "--frames", "2", "--tsv"])
        .output()
        .expect("spawn locap watch");
    assert!(
        output.status.success(),
        "locap watch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().any(|l| l.contains("\tcounter\tserve/requests\t")),
        "watch rendered counter rows:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.contains("\tlatency\tserve/request/")),
        "watch rendered per-phase latency rows:\n{stdout}"
    );
    daemon.stop();
}
