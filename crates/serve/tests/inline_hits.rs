//! Warm store hits answered on the connection thread: a hit never waits
//! for a worker, keeps the budget check every run starts with, reads the
//! store exactly once, splices the stored bytes into a line identical to
//! the cold one, and writes its artifact and sidecar like a computed
//! result.
//!
//! The store counters live in the process-global registry, so the tests
//! of this binary run one at a time (see [`serial`]) and can pin them
//! exactly.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use common::{expect_err, expect_ok, Client, TestDaemon, SLOW_REQUEST};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_obs::sync::{Mutex, MutexGuard};
use locap_obs::telemetry::TelemetryState;
use locap_serve::daemon::DaemonConfig;

/// A cheap request that is primed into the store before it is replayed.
const PRIMED: &str = r#"{"id":"primed","pipeline":"eds-lower","params":{"delta_prime":2,"n":9}}"#;

// Outermost test-serialization lock: taken before any daemon or registry
// lock, hence the lowest rank. It recovers from poison, so one failing
// test does not fail every later one.
static SERIAL: Mutex<(), 1> = Mutex::new(());

fn serial() -> MutexGuard<'static, (), 1> {
    SERIAL.lock()
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("locap-inline-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `PRIMED` with another id.
fn primed_as(id: &str) -> String {
    PRIMED.replace(r#""id":"primed""#, &format!(r#""id":"{id}""#))
}

/// A response line with its `elapsed_ms` value replaced by 0, the one
/// field in which a warm answer may differ from the cold one.
fn mask_elapsed(line: &str) -> String {
    const FIELD: &str = "\"elapsed_ms\":";
    let Some(at) = line.find(FIELD) else { return line.to_string() };
    let start = at + FIELD.len();
    let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}0{}", &line[..start], &line[start + digits..])
}

/// Waits until a worker has picked up one more `pipeline` job than at
/// `base`: the queue-wait phase is recorded at pickup.
fn await_pickup(base: &TelemetryState, pipeline: &str) {
    let name = format!("serve/request/{pipeline}/queue_wait");
    let count = |state: &TelemetryState| state.latencies.get(&name).map_or(0, |h| h.count);
    for _ in 0..2000 {
        if count(&obs::snapshot()) > count(base) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("no worker picked up the {pipeline} job within 10 s");
}

/// The `store` object of a `stats` roundtrip, as
/// `(warm_hit, cold_miss, write, corrupt)`.
fn store_counts(client: &mut Client) -> (u64, u64, u64, u64) {
    let resp = client.roundtrip(r#"{"op":"stats","id":"stats"}"#);
    let store = expect_ok(&resp).get("store").expect("stats carries store");
    let get = |k: &str| store.get(k).and_then(Json::as_u64).unwrap_or(0);
    (get("warm_hit"), get("cold_miss"), get("write"), get("corrupt"))
}

/// With its one worker busy and its one queue slot taken, a daemon
/// without the inline path answers `protocol/overloaded`; a primed
/// request is answered from the store at once, ahead of both.
#[test]
fn a_primed_request_is_answered_while_the_pool_is_saturated() {
    let _serial = serial();
    let dir = scratch("saturated");
    let config = DaemonConfig {
        workers: 1,
        queue_depth: 1,
        store_dir: Some(dir.join("store")),
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    let cold = client.roundtrip(PRIMED);
    let cold_result = expect_ok(&cold).clone();

    let base = obs::snapshot();
    client.send_line(SLOW_REQUEST);
    // The worker holds the slow job for hundreds of milliseconds; the
    // next job takes the one queue slot.
    await_pickup(&base, "transfer");
    client.send_line(
        r#"{"id":"queued","pipeline":"census","params":{"family":"directed-cycle","n":13}}"#,
    );
    client.send_line(&primed_as("primed-again"));

    let first = client.recv();
    assert_eq!(first.get("id").and_then(Json::as_str), Some("primed-again"), "{first}");
    assert_eq!(expect_ok(&first), &cold_result, "the hit carries the cold result");
    // Both jobs were accepted, so the hit overtook a full pool.
    for id in ["slow", "queued"] {
        let resp = client.recv();
        assert_eq!(resp.get("id").and_then(Json::as_str), Some(id), "{resp}");
        expect_ok(&resp);
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The inline path makes the budget check every run starts with: a
/// zero deadline truncates a warm hit exactly as it truncates a cold run.
#[test]
fn a_warm_hit_still_truncates_on_a_zero_deadline() {
    let _serial = serial();
    let dir = scratch("deadline");
    let config = DaemonConfig { store_dir: Some(dir.join("store")), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(PRIMED));
    let Some(rest) = PRIMED.strip_suffix('}') else {
        panic!("the primed request literal must end with }}");
    };
    let resp = client.roundtrip(&format!(r#"{rest},"budget":{{"deadline_ms":0}}}}"#));
    expect_err(&resp, "truncated/deadline");
    // The entry is still there for a request with time to read it.
    expect_ok(&client.roundtrip(PRIMED));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every request reads the store exactly once: a miss is looked up on
/// the connection thread and written back by the worker without a second
/// lookup, and a hit is one read. The hit's line equals the cold line
/// byte for byte apart from `elapsed_ms`.
#[test]
fn each_request_reads_the_store_once() {
    let _serial = serial();
    let dir = scratch("lookups");
    let config = DaemonConfig { store_dir: Some(dir.join("store")), ..DaemonConfig::default() };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());

    let base = store_counts(&mut client);
    client.send_line(PRIMED);
    let cold = client.recv_line();
    expect_ok(&Json::parse(&cold).expect("cold line is JSON"));
    let after_cold = store_counts(&mut client);
    assert_eq!(
        after_cold,
        (base.0, base.1 + 1, base.2 + 1, base.3),
        "a miss: one lookup, one write"
    );

    client.send_line(PRIMED);
    let warm = client.recv_line();
    let after_warm = store_counts(&mut client);
    assert_eq!(after_warm, (base.0 + 1, base.1 + 1, base.2 + 1, base.3), "a hit: one lookup");
    assert_eq!(mask_elapsed(&warm), mask_elapsed(&cold), "the spliced line is the cold line");
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `--artifact-dir`, a hit answered inline writes the same artifact
/// a computed result writes, plus its provenance sidecar. Each sidecar
/// counts the request's one store lookup, although a miss looks up on
/// the connection thread and runs on a worker.
#[test]
fn a_hit_writes_its_artifact_and_sidecar() {
    let _serial = serial();
    let dir = scratch("artifacts");
    let artifacts = dir.join("artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifact dir");
    let config = DaemonConfig {
        store_dir: Some(dir.join("store")),
        artifact_dir: Some(artifacts.clone()),
        ..DaemonConfig::default()
    };
    let daemon = TestDaemon::start(config);
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(&primed_as("cold")));
    let warm = client.roundtrip(&primed_as("warm"));
    expect_ok(&warm);
    assert!(warm.get("artifact_error").is_none(), "{warm}");
    daemon.stop();

    let read = |name: &str| {
        std::fs::read_to_string(artifacts.join(name))
            .unwrap_or_else(|e| panic!("{name} written: {e}"))
    };
    assert_eq!(read("eds-lower-warm.json"), read("eds-lower-cold.json"), "same artifact bytes");
    let store_counts = |id: &str| {
        let sidecar = Json::parse(read(&format!("eds-lower-{id}.json.provenance.json")).trim())
            .expect("sidecar is JSON");
        assert_eq!(sidecar.get("tool").and_then(Json::as_str), Some("locapd"));
        assert_eq!(sidecar.get("pipeline").and_then(Json::as_str), Some("eds-lower"));
        let counters = sidecar.get("counters").expect("sidecar carries counters");
        let get = |k: &str| counters.get(k).and_then(Json::as_u64).unwrap_or(0);
        (get("store/warm_hit"), get("store/cold_miss"), get("store/write"))
    };
    assert_eq!(store_counts("cold"), (0, 1, 1), "the miss's window holds its lookup and write");
    assert_eq!(store_counts("warm"), (1, 0, 0), "the hit's window holds its lookup");
    std::fs::remove_dir_all(&dir).ok();
}
