//! Integration tests for the observability layer: concurrent counter
//! increments from scoped threads, nested span aggregation, histogram
//! bucket boundaries, and a round-trip of the exported JSON against the
//! `BENCH_views.json` schema (including the checked-in baseline itself).
//!
//! All tests use uniquely-prefixed metric names on the global registry (or
//! private registries) so they stay independent under the parallel test
//! runner.

use locap_obs as obs;
use obs::json::Json;
use obs::{bucket_index, bucket_upper_bound, Histogram, Registry, Snapshot, BUCKETS};

#[test]
fn concurrent_counter_increments_from_scoped_threads() {
    let reg = Registry::new();
    let workers = 8;
    let per_worker = 10_000u64;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let c = reg.counter("scoped/incs");
            scope.spawn(move || {
                for _ in 0..per_worker {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(reg.snapshot().counters["scoped/incs"], workers * per_worker);
}

#[test]
fn concurrent_span_recording_from_scoped_threads() {
    // Worker threads aggregate into one shared histogram through the
    // global registry, exactly like the engines' scoped sweeps.
    let name = "obs_test/worker_span";
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..50 {
                    let _s = obs::span(name);
                }
            });
        }
    });
    let snap = obs::snapshot();
    assert_eq!(snap.spans[name].count, 200);
}

#[test]
fn nested_spans_aggregate_under_composed_paths() {
    {
        let _outer = obs::span("obs_test_nest/outer");
        for _ in 0..3 {
            let _inner = obs::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let snap = obs::snapshot();
    let outer = snap.spans["obs_test_nest/outer"];
    let inner = snap.spans["obs_test_nest/outer/inner"];
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 3);
    assert!(inner.min_ns >= 1_000_000, "sleep floor");
    assert!(
        outer.total_ns >= inner.total_ns,
        "outer ({}) encloses the inner spans ({})",
        outer.total_ns,
        inner.total_ns
    );
    // after both guards dropped, a new top-level span is not nested
    {
        let _top = obs::span("obs_test_nest/top2");
    }
    assert!(obs::snapshot().spans.contains_key("obs_test_nest/top2"));
}

#[test]
fn histogram_bucket_boundaries() {
    // buckets 0..16 hold one value each; above that, 16 equal-width
    // sub-buckets per power-of-two octave
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(15), 15);
    assert_eq!(bucket_index(16), 16);
    assert_eq!(bucket_index(31), 31);
    assert_eq!(bucket_index(32), 32);
    assert_eq!(bucket_index(33), 32);
    assert_eq!(bucket_index(34), 33);
    assert_eq!(bucket_index(1023), 111);
    assert_eq!(bucket_index(1024), 112);
    assert_eq!(bucket_index(1087), 112);
    assert_eq!(bucket_index(1088), 113);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_upper_bound(15), 15);
    assert_eq!(bucket_upper_bound(32), 33);
    assert_eq!(bucket_upper_bound(111), 1023);
    assert_eq!(bucket_upper_bound(112), 1087);
    assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);

    let h = Histogram::default();
    for v in [0u64, 15, 32, 33, 1023, 1024, 1087, 1088, u64::MAX] {
        h.record(v);
    }
    let state = h.state();
    assert_eq!(
        state.buckets,
        vec![(0, 1), (15, 1), (32, 2), (111, 1), (112, 2), (113, 1), (BUCKETS as u32 - 1, 1)],
        "32 and 33 share [32, 34); 1024 and 1087 share [1024, 1088); the last bucket is open"
    );
    assert_eq!((state.count, state.min, state.max), (9, 0, u64::MAX));
}

#[test]
fn exported_json_round_trips_against_bench_schema() {
    let reg = Registry::new();
    reg.counter("engine/po/evals").add(12);
    reg.counter("engine/po/hits").add(88);
    reg.gauge("view_cache/classes").set(4);
    reg.record_span_ns("e99/total", 123_456);
    reg.record_span_ns("e99/total", 234_567);
    reg.record_span_ns("e99/census", 9_999);

    let snap = reg.snapshot();
    let text = snap.to_json("e99_selftest");
    assert_eq!(text.lines().count(), 1, "export is a single line");

    // the exported document validates against the shared schema...
    let doc = Json::parse(&text).expect("export parses");
    obs::validate_bench_schema(&doc).expect("export matches the BENCH schema");

    // ...and parses back to the same aggregate statistics
    let (source, back) = Snapshot::from_json(&text).expect("round-trip parse");
    assert_eq!(source, "e99_selftest");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.gauges, snap.gauges);
    assert_eq!(back.spans, snap.spans);
}

#[test]
fn tsv_export_shape() {
    let reg = Registry::new();
    reg.counter("c").add(5);
    reg.gauge("g").set(-1);
    reg.record_span_ns("s", 7);
    let tsv = reg.snapshot().to_tsv();
    let lines: Vec<&str> = tsv.lines().collect();
    assert_eq!(lines, vec!["counter\tc\t5", "gauge\tg\t-1", "span\ts\t1\t7\t7\t7\t7"]);
}

#[test]
fn checked_in_baseline_validates() {
    // The repo's own baseline must parse under the same schema the
    // exporter emits (schema 1 baselines stay readable).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json");
    let text = std::fs::read_to_string(path).expect("BENCH_views.json readable");
    let doc = Json::parse(&text).expect("baseline parses");
    obs::validate_bench_schema(&doc).expect("baseline matches schema");
}
