//! Integration tests for the event-tracing layer: programmatic
//! enable/drain, span events with args and worker-path adoption, ring
//! overflow accounting, Chrome trace/collapsed-stack export shape, and
//! the out-of-LIFO-order span-drop regression.
//!
//! Trace collection is process-global (one enabled flag, one sink), so
//! every test that enables it holds `TRACE_LOCK` and drains before
//! releasing. Tests that open spans hold it too, even with tracing off:
//! a span opened while another test has tracing on lands in that test's
//! sink. Span-path state is thread-local, so path-only tests run on
//! dedicated threads to stay independent of the parallel test runner.

#![expect(
    clippy::disallowed_methods,
    reason = "TRACE_LOCK serialises the tests; a poisoned serialization lock means a prior test \
              already failed, and unwrap surfaces that loudly instead of letting later tests race \
              a half-reset trace sink"
)]

use locap_obs as obs;
use obs::json::Json;
use obs::trace::{self, EventKind};
use std::sync::Mutex;

// Outermost test-serialization lock: taken before any trace-internal
// lock (interner=20, sink=21), hence the lowest rank in the crate.
static TRACE_LOCK: Mutex<()> = Mutex::new(()); // lint: lock-rank=1

/// Runs `f` on a fresh thread with tracing on, returning the drained
/// events (tracing state is global; the lock serialises enablement).
fn with_trace<T: Send>(f: impl FnOnce() -> T + Send) -> (Vec<trace::ResolvedEvent>, u64, T) {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::drain(); // discard anything a prior panicked test left behind
    trace::enable();
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            let out = f();
            trace::flush_thread(); // don't race the scope join
            out
        })
        .join()
        .expect("traced thread")
    });
    trace::disable();
    let (events, dropped) = trace::drain();
    (events, dropped, out)
}

#[test]
fn disabled_tracing_collects_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::drain();
    assert!(!trace::enabled());
    {
        let _s = obs::span("trace_test_off/span");
        trace::instant("trace_test_off/instant", &[("x", 1)]);
        trace::counter_sample("trace_test_off/counter", 7);
    }
    let (events, dropped) = trace::drain();
    assert!(events.is_empty(), "no events buffered while disabled: {events:?}");
    assert_eq!(dropped, 0);
}

#[test]
fn span_events_carry_path_args_and_thread_id() {
    let (events, dropped, ()) = with_trace(|| {
        let mut outer = obs::span_with("trace_test_nest/outer", &[("round", 3)]);
        outer.arg("messages", 12);
        {
            let _inner = obs::span("inner");
        }
        trace::instant("trace_test_nest/hit", &[("node", 5)]);
        trace::counter_sample("trace_test_nest/level", 42);
    });
    assert_eq!(dropped, 0);
    let span_of = |name: &str| {
        events
            .iter()
            .find(|e| e.kind == EventKind::Span && e.name == name)
            .unwrap_or_else(|| panic!("missing span {name} in {events:?}"))
    };
    let outer = span_of("trace_test_nest/outer");
    assert_eq!(outer.args, vec![("round".to_string(), 3), ("messages".to_string(), 12)]);
    let inner = span_of("trace_test_nest/outer/inner");
    assert_eq!(inner.tid, outer.tid, "same thread");
    assert!(inner.ts_ns >= outer.ts_ns, "inner starts inside outer");
    assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
    let instant = events
        .iter()
        .find(|e| e.kind == EventKind::Instant && e.name == "trace_test_nest/hit")
        .expect("instant recorded");
    assert_eq!(instant.args, vec![("node".to_string(), 5)]);
    let counter = events
        .iter()
        .find(|e| e.kind == EventKind::Counter && e.name == "trace_test_nest/level")
        .expect("counter sample recorded");
    assert_eq!(counter.value, 42);
}

#[test]
fn adopted_paths_show_workers_under_parent_ancestry() {
    let (events, _dropped, ()) = with_trace(|| {
        let _root = obs::span("trace_test_adopt/parent");
        let base = obs::current_span_path();
        assert_eq!(base, "trace_test_adopt/parent");
        std::thread::scope(|s| {
            for w in 0..2 {
                let base = base.clone();
                s.spawn(move || {
                    let _adopt = obs::adopt_span_path(&base);
                    let _s = obs::span_with("worker", &[("worker", w)]);
                    assert_eq!(obs::current_span_path(), "trace_test_adopt/parent/worker");
                });
            }
        });
    });
    let workers: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "trace_test_adopt/parent/worker")
        .collect();
    assert_eq!(workers.len(), 2, "both workers under the parent path: {events:?}");
    assert_ne!(workers[0].tid, workers[1].tid, "workers on distinct timeline tracks");
    let parent = events
        .iter()
        .find(|e| e.kind == EventKind::Span && e.name == "trace_test_adopt/parent")
        .expect("parent span");
    assert!(workers.iter().all(|w| w.tid != parent.tid), "workers off the parent track");
    // adoption records worker spans under the composed path in the
    // aggregate registry too, and nothing under a bare "worker"
    let snap = obs::snapshot();
    assert_eq!(snap.spans["trace_test_adopt/parent/worker"].count, 2);
    assert!(!snap.spans.contains_key("worker"));
}

#[test]
fn out_of_order_span_drops_record_open_time_paths() {
    // Regression: guards dropped out of LIFO order (mem::drop reordering)
    // must still record under the paths they were opened with, and the
    // thread path must unwind fully afterwards.
    let _guard = TRACE_LOCK.lock().unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            let a = obs::span("trace_test_lifo/a");
            let b = obs::span("b");
            let c = obs::span("c");
            drop(a); // out of order: a dropped under c
            drop(c);
            drop(b);
            assert_eq!(obs::current_span_path(), "", "path fully unwound");
            // a fresh span is top-level again, not nested under leftovers
            let _t = obs::span("trace_test_lifo/after");
        })
        .join()
        .expect("lifo thread");
    });
    let snap = obs::snapshot();
    assert_eq!(snap.spans["trace_test_lifo/a"].count, 1, "a under its open-time path");
    assert_eq!(snap.spans["trace_test_lifo/a/b"].count, 1);
    assert_eq!(snap.spans["trace_test_lifo/a/b/c"].count, 1);
    assert_eq!(snap.spans["trace_test_lifo/after"].count, 1);
    assert!(
        !snap.spans.keys().any(|k| k.contains("trace_test_lifo/a/b/c/")),
        "nothing recorded under a stale nested path: {:?}",
        snap.spans.keys().filter(|k| k.contains("trace_test_lifo")).collect::<Vec<_>>()
    );
}

#[test]
fn interleaved_drops_keep_sibling_paths_exact() {
    let _guard = TRACE_LOCK.lock().unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            let a = obs::span("trace_test_weave/a");
            let b = obs::span("b");
            drop(a); // b now dangles over a's segment
                     // a sibling opened after the out-of-order drop nests under b's
                     // open-time path (b is still the deepest open guard)
            let c = obs::span("c");
            drop(c);
            drop(b);
            assert_eq!(obs::current_span_path(), "");
        })
        .join()
        .expect("weave thread");
    });
    let snap = obs::snapshot();
    assert_eq!(snap.spans["trace_test_weave/a"].count, 1);
    assert_eq!(snap.spans["trace_test_weave/a/b"].count, 1);
    assert_eq!(snap.spans["trace_test_weave/a/b/c"].count, 1);
}

#[test]
fn chrome_export_is_valid_and_perfetto_shaped() {
    let (events, dropped, ()) = with_trace(|| {
        let _s = obs::span_with("trace_test_chrome/phase", &[("round", 1)]);
        trace::instant("trace_test_chrome/miss", &[]);
        trace::counter_sample("trace_test_chrome/classes", 9);
    });
    let text = trace::to_chrome_json(&events, dropped);
    let doc = Json::parse(&text).expect("chrome trace parses as JSON");
    let rows = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array present")
        .to_vec();
    assert!(!rows.is_empty());
    for row in &rows {
        let ph = row.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(["X", "i", "C", "M"].contains(&ph), "known phase {ph}");
        if ph != "M" {
            assert!(row.get("ts").is_some(), "timestamped: {row}");
        }
    }
    let span_row = rows
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("trace_test_chrome/phase"))
        .expect("span exported");
    assert_eq!(span_row.get("ph").and_then(Json::as_str), Some("X"));
    assert!(span_row.get("dur").is_some(), "complete events carry dur");
    let args = span_row.get("args").and_then(Json::as_object).expect("span args object");
    assert!(args.iter().any(|(k, v)| k == "round" && v.as_i64() == Some(1)));
    assert!(
        rows.iter().any(|r| r.get("ph").and_then(Json::as_str) == Some("M")
            && r.get("name").and_then(Json::as_str) == Some("thread_name")),
        "thread_name metadata present"
    );
}

#[test]
fn collapsed_export_semicolon_stacks_with_self_time() {
    let (events, _dropped, ()) = with_trace(|| {
        let _a = obs::span("trace_test_fold/a");
        let _b = obs::span("b");
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    let folded = trace::to_collapsed(&events);
    let mut a_total = 0u64;
    let mut b_total = 0u64;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack <value>");
        let value: u64 = value.parse().expect("numeric self time");
        match stack {
            "trace_test_fold;a" => a_total = value,
            "trace_test_fold;a;b" => b_total = value,
            other => panic!("unexpected stack {other}"),
        }
    }
    assert!(b_total >= 1_000_000, "leaf keeps its full time (slept 1ms): {b_total}");
    // parent's self time excludes the child's
    let snap = obs::snapshot();
    let a_span = snap.spans["trace_test_fold/a"].total_ns;
    assert!(a_total < a_span, "self ({a_total}) < total ({a_span})");
}

#[test]
fn ring_overflow_reports_dropped_events() {
    // OBS_TRACE_CAP is latched once per process, so simulate overflow by
    // pushing more events than the default capacity.
    let n = trace::DEFAULT_RING_CAP + 100;
    let (events, dropped, ()) = with_trace(move || {
        for _ in 0..n {
            trace::instant("trace_test_overflow/tick", &[]);
        }
    });
    assert_eq!(events.len(), trace::DEFAULT_RING_CAP);
    assert_eq!(dropped as usize, 100);
    // the survivors are the newest events, still in order
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

#[test]
fn flush_to_writes_trace_and_folded_files() {
    let dir = std::env::temp_dir().join("locap_trace_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("out.trace.json");
    let path_str = path.to_str().expect("utf8 path");
    {
        let _guard = TRACE_LOCK.lock().unwrap();
        trace::drain();
        trace::enable();
        {
            let _s = obs::span("trace_test_flush/work");
        }
        trace::disable();
        trace::flush_to(path_str).expect("flush writes files");
    }
    let text = std::fs::read_to_string(&path).expect("trace file written");
    Json::parse(&text).expect("trace file is valid JSON");
    let folded =
        std::fs::read_to_string(format!("{path_str}.folded")).expect("folded file written");
    assert!(folded.contains("trace_test_flush;work "), "folded: {folded}");
    let _ = std::fs::remove_dir_all(&dir);
}
