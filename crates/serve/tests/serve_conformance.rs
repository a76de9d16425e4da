//! Protocol-conformance suite for `locapd`: an in-process daemon over a
//! real TCP socket, driven through the full request matrix —
//!
//! * every pipeline × a valid request (all seven answer `ok: true`);
//! * every malformed-frame class (bad JSON, wrong shape, bad ids, bad
//!   budgets, unknown pipelines/ops) × a typed error response, with the
//!   daemon provably alive afterwards;
//! * oversized and truncated-budget requests;
//! * ops (`ping`, `stats`, `shutdown`, shutdown disabled);
//! * provenance sidecars for artifact-producing requests;
//! * a deterministic load test (8 clients × 25 pipelined requests, every
//!   response matched to its request exactly once) and a worker-pool
//!   saturation test (typed `protocol/overloaded`, nothing lost).

mod common;

use common::{
    counter, err_kind, expect_err, expect_ok, stats_registry, Client, TestDaemon, VALID_REQUESTS,
};
use std::time::Duration;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;
use locap_serve::daemon::DaemonConfig;

#[test]
fn every_pipeline_serves_a_valid_request() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    for (pipeline, request) in VALID_REQUESTS {
        let resp = client.roundtrip(request);
        let result = expect_ok(&resp);
        assert_eq!(
            resp.get("pipeline").and_then(Json::as_str),
            Some(pipeline),
            "response names its pipeline: {resp}"
        );
        assert!(
            matches!(result, Json::Obj(fields) if !fields.is_empty()),
            "{pipeline} returned an empty result: {resp}"
        );
        assert!(
            resp.get("elapsed_ms").and_then(Json::as_u64).is_some(),
            "response carries elapsed_ms: {resp}"
        );
    }
    daemon.stop();
}

#[test]
fn responses_echo_the_request_id_verbatim() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    for id in [r#""string-id""#, "42", "-7", "3.5", "true"] {
        let resp = client.roundtrip(&format!(
            r#"{{"id":{id},"pipeline":"census","params":{{"family":"directed-cycle","n":12}}}}"#
        ));
        let expected = Json::parse(id).expect("test id parses");
        assert_eq!(resp.get("id").cloned(), Some(expected), "id echo for {id}: {resp}");
    }
    daemon.stop();
}

/// Every malformed-frame class is answered with its documented typed
/// error kind — and the connection keeps serving afterwards.
#[test]
fn malformed_requests_get_typed_errors_and_daemon_survives() {
    let cases: &[(&str, &str)] = &[
        ("not json at all", "protocol/bad_json"),
        (r#"{"id":1,"pipeline":"census""#, "protocol/bad_json"),
        (r#"[1,2,3]"#, "protocol/not_an_object"),
        (r#""just a string""#, "protocol/not_an_object"),
        (r#"{"pipeline":"census"}"#, "protocol/missing_id"),
        (r#"{"id":null,"pipeline":"census"}"#, "protocol/missing_id"),
        (r#"{"id":[1],"pipeline":"census"}"#, "protocol/bad_id"),
        (r#"{"id":{"a":1},"pipeline":"census"}"#, "protocol/bad_id"),
        (r#"{"id":1}"#, "protocol/missing_pipeline"),
        (r#"{"id":1,"pipeline":7}"#, "protocol/missing_pipeline"),
        (r#"{"op":"reboot"}"#, "protocol/unknown_op"),
        (r#"{"op":"subscribe"}"#, "protocol/unknown_op"),
        (r#"{"op":"ping","id":[1,2]}"#, "protocol/bad_id"),
        (r#"{"id":1,"pipeline":"census","budget":7}"#, "protocol/bad_budget"),
        (r#"{"id":1,"pipeline":"census","budget":{"deadline_ms":"soon"}}"#, "protocol/bad_budget"),
        (r#"{"id":1,"pipeline":"census","budget":{"fuel":9}}"#, "protocol/bad_budget"),
        (r#"{"id":1,"pipeline":"warp"}"#, "request/unknown_pipeline"),
        (r#"{"id":1,"pipeline":"census"}"#, "request/missing_param"),
        (
            r#"{"id":1,"pipeline":"census","params":{"family":"directed-cycle","n":2}}"#,
            "request/bad_param",
        ),
        (r#"{"id":1,"pipeline":"eds-lower","params":{"n":99999999}}"#, "request/bad_param"),
        (r#"{"id":1,"pipeline":"eds-lower","params":{"n":132}}"#, "request/bad_param"),
        (
            r#"{"id":1,"pipeline":"oi-to-po","params":{"algo":"vc-non-min","cycle":130}}"#,
            "request/bad_param",
        ),
        (
            r#"{"id":1,"pipeline":"transfer","params":{"algo":"is-local-min","cycle":130}}"#,
            "request/bad_param",
        ),
    ];
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    for (frame, kind) in cases {
        let resp = client.roundtrip(frame);
        expect_err(&resp, kind);
    }
    // The same connection still serves a valid request.
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

/// Sizes beyond the exact solvers' limit are typed parse errors, never a
/// solver panic: a one-worker daemon answers each with
/// `request/bad_param` and its worker still serves the next job.
#[test]
fn oversized_solver_inputs_are_typed_and_the_worker_survives() {
    let daemon = TestDaemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(daemon.addr());
    for frame in [
        r#"{"id":"big","pipeline":"eds-lower","params":{"delta_prime":2,"n":132}}"#,
        r#"{"id":"big","pipeline":"oi-to-po","params":{"algo":"vc-non-min","cycle":130}}"#,
        r#"{"id":"big","pipeline":"transfer","params":{"algo":"is-local-min","cycle":130}}"#,
    ] {
        expect_err(&client.roundtrip(frame), "request/bad_param");
        expect_ok(&client.roundtrip(VALID_REQUESTS[0].1));
    }
    daemon.stop();
}

/// A toroidal census whose `m^k` nodes overflow, or whose state count
/// exceeds the longest admitted directed cycle's, is one typed
/// `request/bad_param` line: never a wrapped empty census, a panicked
/// worker or an aborted daemon. Each is followed by a `ping` that the
/// same one-worker daemon still answers.
#[test]
fn oversized_toroidal_censuses_are_typed_and_the_daemon_survives() {
    let daemon = TestDaemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(daemon.addr());
    for (k, m) in [(4, 1 << 20), (8, 256), (1 << 20, 3), (20, 3), (2, 100_000)] {
        let frame = format!(
            r#"{{"id":"torus","pipeline":"census","params":{{"family":"toroidal","k":{k},"m":{m}}}}}"#
        );
        expect_err(&client.roundtrip(&frame), "request/bad_param");
        let pong = client.roundtrip(r#"{"op":"ping","id":"after-torus"}"#);
        expect_ok(&pong);
        assert_eq!(pong.get("id").and_then(Json::as_str), Some("after-torus"), "k={k} m={m}");
    }
    daemon.stop();
}

/// A homogeneous lift over the 3,000,000-node cap is one typed
/// `core/too_large` line, rejected before the lift is allocated (the
/// first shape used to abort the daemon, the second to overrun its
/// deadline by seconds). The same one-worker daemon then answers `ping`.
#[test]
fn oversized_lifts_are_typed_and_the_daemon_survives() {
    let daemon = TestDaemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(daemon.addr());
    for frame in [
        r#"{"id":"lift","pipeline":"hom-lift","params":{"cycle":1048576,"m":6}}"#,
        r#"{"id":"lift","pipeline":"hom-lift","params":{"cycle":20000,"m":6},"budget":{"deadline_ms":100}}"#,
    ] {
        expect_err(&client.roundtrip(frame), "core/too_large");
        let pong = client.roundtrip(r#"{"op":"ping","id":"after-lift"}"#);
        expect_ok(&pong);
        assert_eq!(pong.get("id").and_then(Json::as_str), Some("after-lift"), "{frame}");
    }
    daemon.stop();
}

/// A job's deadline runs from the job's start, not the daemon's: a
/// daemon up longer than its default deadline still answers `ok`.
#[test]
fn default_deadline_runs_from_job_start() {
    let deadline = Duration::from_millis(300);
    let config = DaemonConfig { default_deadline: Some(deadline), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    std::thread::sleep(2 * deadline);
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(VALID_REQUESTS[0].1));
    daemon.stop();
}

#[test]
fn oversized_frame_is_rejected_in_protocol_and_connection_survives() {
    let config = DaemonConfig { max_frame_bytes: 256, ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let huge = format!(r#"{{"id":1,"pipeline":"census","pad":"{}"}}"#, "x".repeat(512));
    let resp = client.roundtrip(&huge);
    expect_err(&resp, "protocol/frame_too_large");
    assert_eq!(resp.get("id").cloned(), Some(Json::Null), "oversized frames lose their id");
    // Resynchronised: the next (normal-sized) frame is served.
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

#[test]
fn empty_frames_are_keepalives() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    client.send_raw(b"\n\n\n");
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

/// A zero deadline expires before any pipeline does work: all seven
/// answer with `truncated/deadline`, deterministically.
#[test]
fn zero_deadline_truncates_every_pipeline() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    for (pipeline, request) in VALID_REQUESTS {
        let Some(rest) = request.strip_suffix('}') else {
            panic!("request literal must end with }}");
        };
        let resp = client.roundtrip(&format!(r#"{rest},"budget":{{"deadline_ms":0}}}}"#));
        expect_err(&resp, "truncated/deadline");
        let message = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(
            message.contains(pipeline),
            "truncation message names the stage {pipeline}: {resp}"
        );
    }
    daemon.stop();
}

#[test]
fn max_rounds_budget_is_honoured() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    // radius 3 census needs 3 rounds; a 1-round budget truncates it.
    let resp = client.roundtrip(
        r#"{"id":1,"pipeline":"census","params":{"family":"directed-cycle","n":12,"radius":3},"budget":{"max_rounds":1}}"#,
    );
    expect_err(&resp, "truncated/round_limit");
    daemon.stop();
}

#[test]
fn ping_and_stats_ops_answer_inline() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    let pong = client.roundtrip(r#"{"op":"ping","id":"p1"}"#);
    expect_ok(&pong);
    assert_eq!(pong.get("id").and_then(Json::as_str), Some("p1"));

    let _ = client.roundtrip(VALID_REQUESTS[0].1);
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let result = expect_ok(&stats);
    // the registry plus the three values it does not hold
    let Json::Obj(fields) = result else { panic!("stats result is an object: {stats}") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["queue_depth", "queue_capacity", "workers", "registry"], "{stats}");
    for field in ["queue_depth", "queue_capacity", "workers"] {
        assert!(
            result.get(field).and_then(Json::as_u64).is_some(),
            "stats carries {field}: {stats}"
        );
    }
    // the registry snapshot: counters, gauges, spans and latencies
    // (a worker counts the pipeline's response after writing it, so
    // only the ping's and the first stats' are certain to be counted)
    let state = stats_registry(&mut client);
    assert!(counter(&state, "serve/requests") >= 4, "stats counted this connection's requests");
    assert!(counter(&state, "serve/responses/ok") >= 2, "stats counted the ok responses");
    assert!(counter(&state, "serve/connections") >= 1, "stats counted the connection");
    assert!(
        state.latencies.keys().any(|k| k.starts_with("serve/request/")),
        "registry snapshot carries per-phase request latencies: {}",
        state.to_json()
    );
    daemon.stop();
}

#[test]
fn shutdown_op_responds_then_stops_the_daemon() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr());
    let resp = client.roundtrip(r#"{"op":"shutdown","id":"bye"}"#);
    expect_ok(&resp);
    // run() returns; stop() would hang forever if it did not.
    daemon.stop();
}

#[test]
fn shutdown_op_can_be_disabled() {
    let config = DaemonConfig { allow_shutdown: false, ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let resp = client.roundtrip(r#"{"op":"shutdown"}"#);
    expect_err(&resp, "protocol/shutdown_disabled");
    // Still serving.
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

#[test]
fn artifact_requests_write_provenance_sidecars() {
    let dir = std::env::temp_dir().join(format!("locap-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let config = DaemonConfig { artifact_dir: Some(dir.clone()), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let resp = client.roundtrip(
        r#"{"id":"prov-1","pipeline":"census","params":{"family":"directed-cycle","n":12}}"#,
    );
    expect_ok(&resp);
    daemon.stop();

    let artifact = dir.join("census-prov-1.json");
    let sidecar = dir.join("census-prov-1.json.provenance.json");
    let artifact_doc =
        Json::parse(std::fs::read_to_string(&artifact).expect("artifact written").trim())
            .expect("artifact is JSON");
    assert_eq!(artifact_doc.get("nodes").and_then(Json::as_u64), Some(12));
    let doc = Json::parse(std::fs::read_to_string(&sidecar).expect("sidecar written").trim())
        .expect("sidecar is JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(locap_serve::provenance::SCHEMA));
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("locapd"));
    assert_eq!(doc.get("pipeline").and_then(Json::as_str), Some("census"));
    assert_eq!(
        doc.get("params").and_then(|p| p.get("n")).and_then(Json::as_u64),
        Some(12),
        "sidecar records the effective params: {doc}"
    );
    assert!(doc.get("created_unix_ms").and_then(Json::as_u64).is_some());
    let registry = doc.get("registry").expect("sidecar carries its registry");
    let delta = TelemetryState::from_json(registry).expect("a registry document");
    assert!(!delta.counters.is_empty(), "sidecar carries an obs-counter delta: {doc}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic load test: 8 concurrent clients, 25 pipelined
/// requests each, every response matched to its request id exactly
/// once — nothing lost, nothing duplicated.
#[test]
fn concurrent_load_loses_and_duplicates_nothing() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let config =
        DaemonConfig { workers: 2, queue_depth: CLIENTS * PER_CLIENT, ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let addr = daemon.addr();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for i in 0..PER_CLIENT {
                    c.send_line(&format!(
                        r#"{{"id":{},"pipeline":"census","params":{{"family":"directed-cycle","n":12}}}}"#,
                        client * PER_CLIENT + i
                    ));
                }
                let mut seen = [false; PER_CLIENT];
                for _ in 0..PER_CLIENT {
                    let resp = c.recv();
                    expect_ok(&resp);
                    let id = resp
                        .get("id")
                        .and_then(Json::as_u64)
                        .unwrap_or_else(|| panic!("numeric id expected: {resp}"))
                        as usize;
                    let slot = id.checked_sub(client * PER_CLIENT).expect("id in client range");
                    assert!(slot < PER_CLIENT, "id {id} outside client {client}'s range");
                    assert!(!seen[slot], "duplicate response for id {id}");
                    seen[slot] = true;
                }
                assert!(seen.iter().all(|&s| s), "client {client} lost responses");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("load client");
    }
    daemon.stop();
}

/// Worker-pool saturation: one worker held busy by a slow request and a
/// depth-1 queue force `protocol/overloaded` — but every request still
/// gets exactly one response and the daemon keeps serving.
#[test]
fn saturation_answers_with_typed_overloaded() {
    let config = DaemonConfig { workers: 1, queue_depth: 1, ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    // Holds the single worker for 61–105 ms of real work (release
    // `locap` CLI, 2-vCPU host), while the burst below is sent in
    // microseconds: the queue overflows long before the worker frees.
    client.send_line(
        r#"{"id":"slow","pipeline":"transfer","params":{"algo":"vc-non-min","cycle":9,"m":30}}"#,
    );
    const BURST: usize = 30;
    for i in 0..BURST {
        client.send_line(&format!(
            r#"{{"id":{i},"pipeline":"census","params":{{"family":"directed-cycle","n":12}}}}"#
        ));
    }
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    let mut slow_answered = false;
    for _ in 0..BURST + 1 {
        let resp = client.recv();
        if resp.get("id").and_then(Json::as_str) == Some("slow") {
            expect_ok(&resp);
            slow_answered = true;
        } else if err_kind(&resp) == Some("protocol/overloaded") {
            let message = resp
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("queue full"),
                "overloaded response explains the queue state: {resp}"
            );
            overloaded += 1;
        } else {
            expect_ok(&resp);
            ok += 1;
        }
    }
    assert!(slow_answered, "the slow request itself was answered");
    assert!(overloaded > 0, "a depth-1 queue under a 30-request burst must overflow");
    assert_eq!(ok + overloaded, BURST, "every burst request answered exactly once");
    // Recovered: the next request succeeds.
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    daemon.stop();
}

/// All on-disk store entry files under `root` (recursive).
fn store_entries(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read store dir") {
            let path = entry.expect("store dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

/// The tentpole acceptance path: a repeat request answers from the
/// store (`store/warm_hit` moves), and corrupting every store entry on
/// disk degrades to a recompute — same result, `store/corrupt` moves,
/// no error, no panic — after which the repaired store serves warm
/// again.
#[test]
fn store_dir_serves_repeats_warm_and_degrades_on_corruption() {
    let dir = std::env::temp_dir().join(format!("locap-conformance-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DaemonConfig { store_dir: Some(dir.clone()), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let request = VALID_REQUESTS[6].1; // census

    let cold = client.roundtrip(request);
    let cold_result = expect_ok(&cold).clone();
    let after_cold = stats_registry(&mut client);
    assert!(counter(&after_cold, "store/write") >= 1, "cold run wrote store entries");

    let warm = client.roundtrip(request);
    assert_eq!(expect_ok(&warm), &cold_result, "warm result identical to cold");
    let after_warm = stats_registry(&mut client);
    let warm_hits = counter(&after_warm, "store/warm_hit");
    assert!(warm_hits >= 1, "repeat request served from the store");

    // Flip one byte in the middle of every entry on disk.
    let entries = store_entries(&dir);
    assert!(!entries.is_empty(), "store holds entries after a cold run");
    for path in &entries {
        let mut bytes = std::fs::read(path).expect("read store entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, &bytes).expect("rewrite store entry");
    }
    let recomputed = client.roundtrip(request);
    assert_eq!(expect_ok(&recomputed), &cold_result, "corruption degrades to a recompute");
    let after_corrupt = stats_registry(&mut client);
    assert!(counter(&after_corrupt, "store/corrupt") >= 1, "damaged entries counted as misses");

    // The recompute repaired the entries: warm again.
    let repaired = client.roundtrip(request);
    assert_eq!(expect_ok(&repaired), &cold_result);
    let after_repair = stats_registry(&mut client);
    assert!(
        counter(&after_repair, "store/warm_hit") > warm_hits,
        "repaired store serves warm again"
    );
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// An artifact/sidecar write failure must not hide behind an
/// unqualified `ok` response: the response stays ok (the run
/// succeeded) but carries `artifact_error`, so `replay --expect-ok`
/// clients detect the missing artifact.
#[test]
fn failed_artifact_write_is_flagged_in_the_ok_response() {
    let base = std::env::temp_dir()
        .join(format!("locap-conformance-artifact-fail-{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("create scratch dir");
    // The artifact dir's parent is a regular file, so every artifact
    // write fails with NotADirectory — even when running as root
    // (permission bits would not).
    let blocker = base.join("blocker");
    std::fs::write(&blocker, b"not a directory\n").expect("create blocker file");
    let config =
        DaemonConfig { artifact_dir: Some(blocker.join("artifacts")), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());

    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    let message = resp
        .get("artifact_error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("ok response flags the failed artifact write: {resp}"));
    assert!(
        message.contains("failed to write artifact"),
        "artifact_error explains the failure: {resp}"
    );

    // A daemon with a writable artifact dir stays unqualified-ok.
    daemon.stop();
    let ok_dir = base.join("artifacts-ok");
    std::fs::create_dir_all(&ok_dir).expect("create artifact dir");
    let config = DaemonConfig { artifact_dir: Some(ok_dir), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let resp = client.roundtrip(VALID_REQUESTS[6].1);
    expect_ok(&resp);
    assert!(resp.get("artifact_error").is_none(), "no spurious artifact_error: {resp}");
    daemon.stop();
    std::fs::remove_dir_all(&base).ok();
}
