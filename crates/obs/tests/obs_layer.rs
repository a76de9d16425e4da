//! Integration tests for the observability layer: concurrent counter
//! increments from scoped threads, nested span aggregation and histogram
//! bucket boundaries.
//!
//! All tests use uniquely-prefixed metric names on the global registry (or
//! private registries) so they stay independent under the parallel test
//! runner.

use locap_obs as obs;
use obs::{bucket_index, bucket_upper_bound, Histogram, Registry, BUCKETS};

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
    let outer = &snap.spans["obs_test_nest/outer"];
    let inner = &snap.spans["obs_test_nest/outer/inner"];
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 3);
    assert!(inner.min >= 1_000_000, "sleep floor");
    assert!(
        outer.sum >= inner.sum,
        "outer ({}) encloses the inner spans ({})",
        outer.sum,
        inner.sum
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
