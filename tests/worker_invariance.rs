//! Worker-invariance law: a census means the same on 1 worker as on 8.
//!
//! Every census sweep fans out through `locap_graph::par::map_chunks`.
//! This test pins the worker count with `par::with_workers` at 1, 2, 4
//! and 8 and runs every `PIPELINES` request plus the two ordered-type
//! censuses that no pipeline reaches. Against the 1-worker run, each
//! case must produce
//!
//! * byte-identical result text,
//! * identical counter deltas in the process-global registry,
//! * identical gauge levels afterwards, and
//! * identical span counts on every row except the fan-out's `…/worker`
//!   rows.
//!
//! The cases are sized so that each fan-out site crosses its threshold
//! in at least one of them. To keep the law from passing vacuously, each
//! case names the `…/worker` rows it must record at 2 or more workers;
//! at 1 worker it must record none.
//!
//! The registry is process-global, so this file holds a single `#[test]`.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use locap_core::request::{PipelineRequest, PIPELINES};
use locap_graph::budget::RunBudget;
use locap_graph::canon::{ordered_ltype_census, ordered_type_census};
use locap_graph::{gen, par, product};
use locap_obs as obs;
use locap_obs::json::Json;

/// Worker counts the law is checked at; the first is the reference.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One census run to repeat at every worker count.
struct Case {
    name: String,
    /// The `…/worker` span rows the run records at 2 or more workers.
    worker_rows: &'static [&'static str],
    run: Box<dyn Fn() -> String>,
}

/// A `PIPELINES` request, run with an unlimited budget; the result text
/// is the response JSON, or the error's display on failure.
fn pipeline(pipeline: &'static str, params: &str, worker_rows: &'static [&'static str]) -> Case {
    let params = Json::parse(params).expect("test params are JSON");
    let req = PipelineRequest::parse(pipeline, &params).expect("test params parse");
    Case {
        name: format!("{pipeline} {params}"),
        worker_rows,
        run: Box::new(move || match req.run(&RunBudget::unlimited()) {
            Ok(doc) => doc.to_string(),
            Err(e) => format!("error: {e}"),
        }),
    }
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        pipeline("eds-lower", r#"{"delta_prime":2,"n":9}"#, &[]),
        // 12^3 = 1,728 nodes: the homogeneity census fans out
        pipeline(
            "homogeneous",
            r#"{"k":1,"r":2,"m":12}"#,
            &["homogeneous/construct/census_count/worker"],
        ),
        pipeline("hom-lift", r#"{"cycle":3,"m":6}"#, &[]),
        pipeline("oi-to-po", r#"{"algo":"vc-non-min","cycle":9,"m":6}"#, &[]),
        pipeline("ramsey", r#"{"algo":"local-max","universe":20,"r":1,"m":5}"#, &[]),
        pipeline("transfer", r#"{"algo":"vc-non-min","cycle":9,"m":6}"#, &[]),
        // 4,096 nodes × 2 walk states = 8,192 states per walk level, the
        // refinement's PARALLEL_MIN_STATES: radius 2 fans level 1 out
        // (level 0 and the root passes never fan out)
        pipeline(
            "census",
            r#"{"family":"directed-cycle","n":4096,"radius":2}"#,
            &["view_cache/refine/round/worker"],
        ),
    ];
    let covered: Vec<&str> = cases.iter().filter_map(|c| c.name.split(' ').next()).collect();
    assert_eq!(covered, PIPELINES, "one case per pipeline, in PIPELINES order");

    // 32 × 32 = 1,024 nodes each: the canonical-key census fans out
    let grid = gen::grid(32, 32);
    let torus = product::toroidal(2, 32);
    let rank: Vec<usize> = (0..1024).collect();
    let grid_rank = rank.clone();
    cases.push(Case {
        name: "ordered_type_census grid(32, 32) r=2".into(),
        worker_rows: &["census/ordered/worker"],
        run: Box::new(move || format!("{:?}", ordered_type_census(&grid, &grid_rank, 2))),
    });
    cases.push(Case {
        name: "ordered_ltype_census toroidal(2, 32) r=2".into(),
        worker_rows: &["census/ordered_l/worker"],
        run: Box::new(move || format!("{:?}", ordered_ltype_census(&torus, &rank, 2))),
    });
    cases
}

/// What one run leaves behind, split into the parts the law compares.
struct Observed {
    result: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    /// Span counts of every row except the `…/worker` rows.
    spans: BTreeMap<String, u64>,
    /// The `…/worker` rows, by name.
    worker_rows: Vec<String>,
}

fn observe(case: &Case, workers: usize) -> Observed {
    let before = obs::global().snapshot();
    // a panicking run is a result like any other, so one broken site
    // cannot hide the others (the panic hook still prints the message)
    let result =
        std::panic::catch_unwind(AssertUnwindSafe(|| par::with_workers(workers, &case.run)))
            .unwrap_or_else(|_| "panicked".into());
    let after = obs::global().snapshot();
    let delta = after.delta_since(&before);
    let (worker_rows, spans): (Vec<_>, Vec<_>) =
        delta.spans.iter().partition(|(name, _)| name.ends_with("/worker"));
    Observed {
        result,
        counters: delta.counters,
        gauges: after.gauges,
        spans: spans.into_iter().map(|(name, s)| (name.clone(), s.count)).collect(),
        worker_rows: worker_rows.into_iter().map(|(name, _)| name.clone()).collect(),
    }
}

/// The entries on which two maps disagree, as `key: left vs right`.
fn map_diff<V: PartialEq + std::fmt::Debug>(
    left: &BTreeMap<String, V>,
    right: &BTreeMap<String, V>,
) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = left.keys().chain(right.keys()).collect();
    keys.into_iter()
        .filter(|k| left.get(*k) != right.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", left.get(k), right.get(k)))
        .collect()
}

/// How `observed` at `workers` breaks the law against the 1-worker run.
fn violations(case: &Case, workers: usize, observed: &Observed, one: &Observed) -> Vec<String> {
    let mut out = Vec::new();
    let expected_rows: &[&str] = if workers == 1 { &[] } else { case.worker_rows };
    if observed.worker_rows != expected_rows {
        out.push(format!("worker rows {:?}, expected {expected_rows:?}", observed.worker_rows));
    }
    if observed.result != one.result {
        let clip = |s: &str| s.chars().take(160).collect::<String>();
        out.push(format!("result {:?} vs {:?}", clip(&one.result), clip(&observed.result)));
    }
    for (part, diff) in [
        ("counters", map_diff(&one.counters, &observed.counters)),
        ("gauges", map_diff(&one.gauges, &observed.gauges)),
        ("span counts", map_diff(&one.spans, &observed.spans)),
    ] {
        if !diff.is_empty() {
            out.push(format!("{part} differ: {}", diff.join(", ")));
        }
    }
    out.into_iter()
        .map(|v| format!("{} at {workers} worker(s): {v}", case.name))
        .collect()
}

#[test]
fn censuses_do_not_depend_on_the_worker_count() {
    let mut found = Vec::new();
    for case in cases() {
        let one = observe(&case, WORKERS[0]);
        found.extend(violations(&case, WORKERS[0], &one, &one));
        for workers in &WORKERS[1..] {
            let observed = observe(&case, *workers);
            found.extend(violations(&case, *workers, &observed, &one));
        }
    }
    assert!(found.is_empty(), "worker-invariance violations:\n{}", found.join("\n"));
}
