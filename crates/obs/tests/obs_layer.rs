//! Integration tests for the observability layer: concurrent counter
//! increments from scoped threads, nested span aggregation, worker-path
//! adoption, out-of-LIFO-order span drops and histogram bucket
//! boundaries.
//!
//! All tests use uniquely-prefixed metric names on the global registry (or
//! private registries) so they stay independent under the parallel test
//! runner. Span-path state is thread-local, so the path tests run on
//! dedicated threads.

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
fn a_discarded_span_records_nothing_and_unwinds_its_path() {
    {
        let outer = obs::span("obs_test_discard/outer");
        {
            let _inner = obs::span("inner");
        }
        outer.discard();
    }
    {
        let _top = obs::span("obs_test_discard/top");
    }
    let snap = obs::snapshot();
    assert!(!snap.spans.contains_key("obs_test_discard/outer"), "{:?}", snap.spans.keys());
    assert_eq!(snap.spans["obs_test_discard/outer/inner"].count, 1, "spans inside still record");
    assert_eq!(snap.spans["obs_test_discard/top"].count, 1, "the path unwound fully");
}

#[test]
fn adopted_paths_show_workers_under_parent_ancestry() {
    std::thread::scope(|s| {
        s.spawn(|| {
            let _root = obs::span("obs_test_adopt/parent");
            let base = obs::current_span_path();
            assert_eq!(base, "obs_test_adopt/parent");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let base = base.clone();
                    s.spawn(move || {
                        let _adopt = obs::adopt_span_path(&base);
                        let _s = obs::span("worker");
                        assert_eq!(obs::current_span_path(), "obs_test_adopt/parent/worker");
                    });
                }
            });
        });
    });
    // adoption records worker spans under the composed path, and nothing
    // under a bare "worker"
    let snap = obs::snapshot();
    assert_eq!(snap.spans["obs_test_adopt/parent/worker"].count, 2);
    assert_eq!(snap.spans["obs_test_adopt/parent"].count, 1);
    assert!(!snap.spans.contains_key("worker"));
}

#[test]
fn out_of_order_span_drops_record_open_time_paths() {
    // Regression: guards dropped out of LIFO order (mem::drop reordering)
    // must still record under the paths they were opened with, and the
    // thread path must unwind fully afterwards.
    std::thread::scope(|s| {
        s.spawn(|| {
            let a = obs::span("obs_test_lifo/a");
            let b = obs::span("b");
            let c = obs::span("c");
            drop(a); // out of order: a dropped under c
            drop(c);
            drop(b);
            assert_eq!(obs::current_span_path(), "", "path fully unwound");
            // a fresh span is top-level again, not nested under leftovers
            let _t = obs::span("obs_test_lifo/after");
        });
    });
    let snap = obs::snapshot();
    assert_eq!(snap.spans["obs_test_lifo/a"].count, 1, "a under its open-time path");
    assert_eq!(snap.spans["obs_test_lifo/a/b"].count, 1);
    assert_eq!(snap.spans["obs_test_lifo/a/b/c"].count, 1);
    assert_eq!(snap.spans["obs_test_lifo/after"].count, 1);
    assert!(
        !snap.spans.keys().any(|k| k.contains("obs_test_lifo/a/b/c/")),
        "nothing recorded under a stale nested path: {:?}",
        snap.spans.keys().filter(|k| k.contains("obs_test_lifo")).collect::<Vec<_>>()
    );
}

#[test]
fn interleaved_drops_keep_sibling_paths_exact() {
    std::thread::scope(|s| {
        s.spawn(|| {
            let a = obs::span("obs_test_weave/a");
            let b = obs::span("b");
            // b now dangles over a's segment; a sibling opened after the
            // out-of-order drop nests under b's open-time path (b is still
            // the deepest open guard)
            drop(a);
            let c = obs::span("c");
            drop(c);
            drop(b);
            assert_eq!(obs::current_span_path(), "");
        });
    });
    let snap = obs::snapshot();
    assert_eq!(snap.spans["obs_test_weave/a"].count, 1);
    assert_eq!(snap.spans["obs_test_weave/a/b"].count, 1);
    assert_eq!(snap.spans["obs_test_weave/a/b/c"].count, 1);
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
