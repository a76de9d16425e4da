//! The perf-regression gate behind the `bench_gate` binary.
//!
//! The gate compares a fresh criterion-shim run against the checked-in
//! `BENCH_views.json` baseline:
//!
//! * **timings** — each baseline row's `median_ns` is compared with the
//!   rerun median; the gate fails when `current > baseline × tolerance`
//!   (default ×1.25, i.e. +25%; override with `BENCH_GATE_TOLERANCE`).
//! * **engine counters** (schema 2) — the baseline embeds the counter
//!   snapshot of a fixed deterministic workload ([`counter_workload`]);
//!   these are compared **exactly**, catching algorithmic regressions
//!   (lost memoization, extra evaluations) that timing noise would hide.
//!
//! Everything here is a pure function over parsed text so the policy is
//! unit-testable; the binary only adds process plumbing (running
//! `cargo bench` per baseline bench with `CRITERION_SHIM_TSV=1`).

use std::collections::BTreeMap;

use locap_graph::budget::RunBudget;
use locap_obs as obs;
use obs::json::Json;

/// One baseline benchmark row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRow {
    /// Bench target the row came from (e.g. `view_engine`).
    pub bench: String,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: u64,
    /// Best per-iteration time, nanoseconds.
    pub min_ns: u64,
    /// Samples recorded.
    pub samples: u64,
}

/// A parsed `BENCH_views.json` baseline (schema 1 or 2).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Schema version of the document.
    pub schema: u64,
    /// Rows keyed by benchmark name.
    pub rows: BTreeMap<String, BaselineRow>,
    /// Engine-counter snapshot of [`counter_workload`] (schema 2 only).
    pub counters: BTreeMap<String, u64>,
}

impl Baseline {
    /// The distinct bench targets named by the rows, sorted.
    pub fn benches(&self) -> Vec<String> {
        let mut out: Vec<String> = self.rows.values().map(|r| r.bench.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Parses a baseline document, validating it against the shared schema.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    obs::validate_bench_schema(&doc)?;
    let schema = doc.get("schema").and_then(Json::as_u64).expect("validated");
    let mut rows = BTreeMap::new();
    for row in doc.get("results").and_then(Json::as_array).expect("validated") {
        let name = row.get("name").and_then(Json::as_str).expect("validated").to_string();
        rows.insert(
            name,
            BaselineRow {
                bench: row.get("bench").and_then(Json::as_str).expect("validated").to_string(),
                median_ns: row.get("median_ns").and_then(Json::as_u64).expect("validated"),
                min_ns: row.get("min_ns").and_then(Json::as_u64).expect("validated"),
                samples: row.get("samples").and_then(Json::as_u64).expect("validated"),
            },
        );
    }
    let mut counters = BTreeMap::new();
    if let Some(fields) = doc.get("counters").and_then(Json::as_object) {
        for (k, v) in fields {
            counters.insert(k.clone(), v.as_u64().ok_or(format!("counter {k} not a u64"))?);
        }
    }
    Ok(Baseline { schema, rows, counters })
}

/// One measurement from a criterion-shim TSV run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Full benchmark name (`group/function/param`).
    pub name: String,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: u64,
    /// Best per-iteration time, nanoseconds.
    pub min_ns: u64,
    /// Samples recorded.
    pub samples: u64,
}

/// Parses the `name\tmedian_ns\tmin_ns\titers` lines the criterion shim
/// prints under `CRITERION_SHIM_TSV=1`; non-matching lines are skipped
/// (cargo may interleave its own output).
pub fn parse_shim_tsv(text: &str) -> Vec<Measurement> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split('\t');
            let name = parts.next()?.to_string();
            let median_ns = parts.next()?.trim().parse().ok()?;
            let min_ns = parts.next()?.trim().parse().ok()?;
            let samples = parts.next()?.trim().parse().ok()?;
            Some(Measurement { name, median_ns, min_ns, samples })
        })
        .collect()
}

/// One timing regression found by [`compare`].
#[derive(Debug, Clone)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Rerun median, nanoseconds.
    pub current_ns: u64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// The outcome of a gate comparison.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Rows compared (present in both baseline and rerun).
    pub checked: usize,
    /// Rows beyond tolerance.
    pub regressions: Vec<Regression>,
    /// Baseline rows (restricted to the benches rerun) with no
    /// measurement — a renamed or deleted benchmark.
    pub missing: Vec<String>,
    /// Counter mismatches (schema 2), as `name: expected != actual`.
    pub counter_mismatches: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.counter_mismatches.is_empty()
    }
}

/// Compares a rerun against the baseline. Only baseline rows whose bench
/// is in `benches_run` are considered (the smoke job may rerun a subset);
/// `tolerance` is the allowed `current / baseline` median ratio.
pub fn compare(
    baseline: &Baseline,
    benches_run: &[String],
    current: &[Measurement],
    tolerance: f64,
) -> GateOutcome {
    let by_name: BTreeMap<&str, &Measurement> =
        current.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut out = GateOutcome::default();
    for (name, row) in &baseline.rows {
        if !benches_run.contains(&row.bench) {
            continue;
        }
        match by_name.get(name.as_str()) {
            None => out.missing.push(name.clone()),
            Some(m) => {
                out.checked += 1;
                let ratio = m.median_ns as f64 / (row.median_ns.max(1)) as f64;
                if ratio > tolerance {
                    out.regressions.push(Regression {
                        name: name.clone(),
                        baseline_ns: row.median_ns,
                        current_ns: m.median_ns,
                        ratio,
                    });
                }
            }
        }
    }
    out
}

/// Merges a rerun measurement into an accumulated best-of map: per name,
/// the elementwise minimum of `median_ns` and `min_ns` across reruns.
/// The gate retries regressed benches with this merge because scheduler
/// noise inflates some reruns but a real regression is slow on all of
/// them — the best-of median stays high only when the slowdown is real.
pub fn merge_min(best: &mut BTreeMap<String, Measurement>, m: Measurement) {
    best.entry(m.name.clone())
        .and_modify(|b| {
            b.median_ns = b.median_ns.min(m.median_ns);
            b.min_ns = b.min_ns.min(m.min_ns);
            b.samples = b.samples.max(m.samples);
        })
        .or_insert(m);
}

/// The distinct bench targets containing the regressed rows, sorted —
/// what a retry pass needs to rerun.
pub fn benches_of(regressions: &[Regression], baseline: &Baseline) -> Vec<String> {
    let mut out: Vec<String> = regressions
        .iter()
        .filter_map(|r| baseline.rows.get(&r.name).map(|row| row.bench.clone()))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Renders the full baseline-vs-current comparison as a TSV table, one
/// row per baseline entry (restricted to `benches_run`), with the ratio
/// and the verdict under `tolerance`. Printed in full when the gate
/// fails, so a failure log shows every measurement — not just the
/// offending rows — alongside the tolerance that was actually applied.
pub fn render_comparison_tsv(
    baseline: &Baseline,
    benches_run: &[String],
    current: &[Measurement],
    tolerance: f64,
) -> String {
    let by_name: BTreeMap<&str, &Measurement> =
        current.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut out =
        format!("name\tbaseline_ns\tcurrent_ns\tratio\tstatus (tolerance x{tolerance})\n");
    for (name, row) in &baseline.rows {
        if !benches_run.contains(&row.bench) {
            continue;
        }
        match by_name.get(name.as_str()) {
            None => {
                out.push_str(&format!("{name}\t{}\t-\t-\tMISSING\n", row.median_ns));
            }
            Some(m) => {
                let ratio = m.median_ns as f64 / (row.median_ns.max(1)) as f64;
                let status = if ratio > tolerance { "REGRESSION" } else { "ok" };
                out.push_str(&format!(
                    "{name}\t{}\t{}\t{ratio:.3}\t{status}\n",
                    row.median_ns, m.median_ns
                ));
            }
        }
    }
    out
}

/// Compares the expected counter snapshot against an actual one, exactly;
/// keys absent from `expected` are ignored (new instrumentation is not a
/// regression), keys absent from `actual` are mismatches.
pub fn compare_counters(
    expected: &BTreeMap<String, u64>,
    actual: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (k, &want) in expected {
        match actual.get(k) {
            Some(&got) if got == want => {}
            Some(&got) => out.push(format!("{k}: baseline {want} != current {got}")),
            None => out.push(format!("{k}: baseline {want} != current <absent>")),
        }
    }
    out
}

/// Splits a bench spec into `(package, target)`: `pkg:target` names an
/// explicit package, a bare target lives in `locap-bench`.
///
/// ```
/// use locap_bench::gate::split_spec;
/// assert_eq!(split_spec("locap-graph:canon"), ("locap-graph", "canon"));
/// assert_eq!(split_spec("views"), ("locap-bench", "views"));
/// ```
pub fn split_spec(spec: &str) -> (&str, &str) {
    match spec.split_once(':') {
        Some((pkg, target)) => (pkg, target),
        None => ("locap-bench", spec),
    }
}

/// Counter prefixes that are deterministic under [`counter_workload`]
/// (timing spans and worker gauges are machine-dependent and excluded;
/// `intern/` hits and misses are deterministic because the workload's
/// graphs stay below every parallel-fan-out threshold).
const STABLE_PREFIXES: &[&str] =
    &["engine/", "view_cache/", "census/", "homogeneous/", "oi_to_po/", "intern/"];

/// Runs a fixed, deterministic workload through the instrumented engines
/// and returns the stable counter snapshot. Must be called in a fresh
/// process (the global registry accumulates): `bench_gate` is.
///
/// The workload exercises the EDS lower-bound pipeline (ViewCache census)
/// and the OI engine, so the counters cover memoization behaviour across
/// both the PO-view and the ordered-neighbourhood paths.
pub fn counter_workload() -> BTreeMap<String, u64> {
    let inst = locap_core::eds_lower::eds_instance(2, 9).expect("Δ'=2, n=9 is a valid instance");
    locap_core::eds_lower::lower_bound_report_budgeted(&inst, &RunBudget::unlimited())
        .expect("lower bound certifies");

    struct RootIsSmallest;
    impl locap_models::OiVertexAlgorithm for RootIsSmallest {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &locap_graph::canon::OrderedNbhd) -> bool {
            t.root == 0
        }
    }
    let g = locap_graph::gen::cycle(32);
    let rank: Vec<usize> = (0..32).collect();
    let mut eng = locap_models::engine::OiEngine::new(&g, &rank);
    let _ = eng.run_vertex_budgeted(&RootIsSmallest, &RunBudget::unlimited());
    let _ = locap_graph::canon::ordered_type_census(&g, &rank, 1);

    obs::snapshot()
        .counters
        .into_iter()
        .filter(|(k, _)| STABLE_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect()
}

/// Renders a schema-2 baseline document (pretty-printed, matching the
/// checked-in `BENCH_views.json` style) from rerun measurements and a
/// counter snapshot.
pub fn render_baseline(
    date: &str,
    toolchain: &str,
    note: &str,
    counters: &BTreeMap<String, u64>,
    rows: &[(String, Measurement)],
) -> String {
    let esc = |s: &str| Json::Str(s.into()).to_string();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", obs::SCHEMA_VERSION));
    out.push_str(&format!("  \"date\": {},\n", esc(date)));
    out.push_str(&format!("  \"toolchain\": {},\n", esc(toolchain)));
    out.push_str(&format!("  \"note\": {},\n", esc(note)));
    out.push_str("  \"counters\": {\n");
    let n = counters.len();
    for (i, (k, v)) in counters.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!("    {}: {v}{comma}\n", esc(k)));
    }
    out.push_str("  },\n");
    out.push_str("  \"results\": [\n");
    let n = rows.len();
    for (i, (bench, m)) in rows.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str("    {\n");
        out.push_str(&format!("      \"bench\": {},\n", esc(bench)));
        out.push_str(&format!("      \"name\": {},\n", esc(&m.name)));
        out.push_str(&format!("      \"median_ns\": {},\n", m.median_ns));
        out.push_str(&format!("      \"min_ns\": {},\n", m.min_ns));
        out.push_str(&format!("      \"samples\": {}\n", m.samples));
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock. Uses the
/// days-to-civil algorithm so the gate stays dependency-free.
#[expect(clippy::disallowed_methods, reason = "stamps refreshed baselines with the recording date")]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days, for day counts since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA1: &str = r#"{
      "schema": 1, "note": "x",
      "results": [
        {"bench": "b1", "name": "b1/f/1", "median_ns": 1000, "min_ns": 900, "samples": 20},
        {"bench": "b2", "name": "b2/g/2", "median_ns": 5000, "min_ns": 4500, "samples": 20}
      ]
    }"#;

    #[test]
    fn parses_schema_1_baseline() {
        let b = parse_baseline(SCHEMA1).unwrap();
        assert_eq!(b.schema, 1);
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.rows["b1/f/1"].median_ns, 1000);
        assert!(b.counters.is_empty());
        assert_eq!(b.benches(), vec!["b1".to_string(), "b2".to_string()]);
    }

    #[test]
    fn parses_schema_2_baseline_with_counters() {
        let text = r#"{"schema": 2, "counters": {"engine/oi/evals": 7},
            "results": [{"bench": "b", "name": "b/f", "median_ns": 10, "min_ns": 9, "samples": 3}]}"#;
        let b = parse_baseline(text).unwrap();
        assert_eq!(b.schema, 2);
        assert_eq!(b.counters["engine/oi/evals"], 7);
    }

    #[test]
    fn rejects_bad_schema() {
        assert!(parse_baseline(r#"{"schema": 99, "results": []}"#).is_err());
        assert!(parse_baseline(r#"{"results": []}"#).is_err());
    }

    #[test]
    fn tsv_parse_skips_noise() {
        let text = "Compiling foo\nb1/f/1\t1100\t1000\t20\nnot a row\nb2/g/2\t4000\t3900\t20\n";
        let ms = parse_shim_tsv(text);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "b1/f/1");
        assert_eq!(ms[0].median_ns, 1100);
    }

    fn all_benches() -> Vec<String> {
        vec!["b1".into(), "b2".into()]
    }

    #[test]
    fn within_tolerance_passes() {
        let b = parse_baseline(SCHEMA1).unwrap();
        let current = vec![
            Measurement { name: "b1/f/1".into(), median_ns: 1200, min_ns: 1000, samples: 20 },
            Measurement { name: "b2/g/2".into(), median_ns: 5100, min_ns: 4600, samples: 20 },
        ];
        let out = compare(&b, &all_benches(), &current, 1.25);
        assert!(out.ok(), "{out:?}");
        assert_eq!(out.checked, 2);
    }

    #[test]
    fn synthetic_regression_fails() {
        // A deliberately slowed benchmark (3× the baseline median) must
        // trip the gate at the default +25% tolerance.
        let b = parse_baseline(SCHEMA1).unwrap();
        let current = vec![
            Measurement { name: "b1/f/1".into(), median_ns: 3000, min_ns: 2900, samples: 20 },
            Measurement { name: "b2/g/2".into(), median_ns: 5000, min_ns: 4500, samples: 20 },
        ];
        let out = compare(&b, &all_benches(), &current, 1.25);
        assert!(!out.ok());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].name, "b1/f/1");
        assert!((out.regressions[0].ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn missing_row_fails_but_subset_runs_skip_other_benches() {
        let b = parse_baseline(SCHEMA1).unwrap();
        // rerun only b1, and without its row -> missing
        let out = compare(&b, &["b1".to_string()], &[], 1.25);
        assert_eq!(out.missing, vec!["b1/f/1".to_string()]);
        assert_eq!(out.checked, 0);
        // b2's rows are not reported missing (not rerun)
        assert!(!out.missing.contains(&"b2/g/2".to_string()));
    }

    #[test]
    fn merge_min_keeps_best_of_reruns() {
        let mut best = BTreeMap::new();
        merge_min(
            &mut best,
            Measurement { name: "b/f".into(), median_ns: 900, min_ns: 800, samples: 20 },
        );
        merge_min(
            &mut best,
            Measurement { name: "b/f".into(), median_ns: 700, min_ns: 850, samples: 5 },
        );
        assert_eq!(best["b/f"].median_ns, 700);
        assert_eq!(best["b/f"].min_ns, 800);
        assert_eq!(best["b/f"].samples, 20);
    }

    #[test]
    fn benches_of_maps_regressed_rows_to_their_targets() {
        let b = parse_baseline(SCHEMA1).unwrap();
        let regs = vec![
            Regression { name: "b2/g/2".into(), baseline_ns: 1, current_ns: 2, ratio: 2.0 },
            Regression { name: "b1/f/1".into(), baseline_ns: 1, current_ns: 2, ratio: 2.0 },
            Regression { name: "gone/row".into(), baseline_ns: 1, current_ns: 2, ratio: 2.0 },
        ];
        assert_eq!(benches_of(&regs, &b), vec!["b1".to_string(), "b2".to_string()]);
    }

    #[test]
    fn comparison_tsv_lists_every_row_and_the_tolerance() {
        let b = parse_baseline(SCHEMA1).unwrap();
        // b1 regressed, b2 fine and present -> both rows still printed
        let current = vec![
            Measurement { name: "b1/f/1".into(), median_ns: 3000, min_ns: 2900, samples: 20 },
            Measurement { name: "b2/g/2".into(), median_ns: 5000, min_ns: 4500, samples: 20 },
        ];
        let tsv = render_comparison_tsv(&b, &all_benches(), &current, 1.25);
        assert!(tsv.contains("tolerance x1.25"), "{tsv}");
        assert!(tsv.contains("b1/f/1\t1000\t3000\t3.000\tREGRESSION"), "{tsv}");
        assert!(tsv.contains("b2/g/2\t5000\t5000\t1.000\tok"), "{tsv}");
        // a missing row renders too
        let tsv = render_comparison_tsv(&b, &all_benches(), &current[..1], 1.25);
        assert!(tsv.contains("b2/g/2\t5000\t-\t-\tMISSING"), "{tsv}");
        // rows of benches not rerun are excluded
        let tsv = render_comparison_tsv(&b, &["b1".to_string()], &current, 1.25);
        assert!(!tsv.contains("b2/g/2"), "{tsv}");
    }

    #[test]
    fn counter_comparison_is_exact() {
        let expected: BTreeMap<String, u64> =
            [("engine/oi/evals".to_string(), 5), ("view_cache/tree_misses".to_string(), 2)]
                .into_iter()
                .collect();
        let mut actual = expected.clone();
        assert!(compare_counters(&expected, &actual).is_empty());
        actual.insert("engine/oi/evals".into(), 6);
        let bad = compare_counters(&expected, &actual);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("5 != current 6"));
        // extra actual counters are fine
        actual.insert("engine/oi/evals".into(), 5);
        actual.insert("new/counter".into(), 1);
        assert!(compare_counters(&expected, &actual).is_empty());
    }

    #[test]
    fn counter_workload_is_deterministic_within_a_process() {
        // Two runs accumulate, so equality of *deltas* is what matters:
        // run once, snapshot; run again, every counter exactly doubles.
        let first = counter_workload();
        assert!(!first.is_empty(), "workload populates engine counters");
        assert!(first.keys().any(|k| k.starts_with("engine/oi/")));
        assert!(first.keys().any(|k| k.starts_with("view_cache/")));
        let second = counter_workload();
        for (k, v) in &first {
            assert_eq!(second[k], 2 * v, "{k} doubles on the second run");
        }
    }

    #[test]
    fn rendered_baseline_reparses() {
        let counters: BTreeMap<String, u64> = [("engine/po/evals".to_string(), 3)].into();
        let rows = vec![(
            "view_engine".to_string(),
            Measurement {
                name: "view_engine/census".into(),
                median_ns: 42,
                min_ns: 40,
                samples: 5,
            },
        )];
        let text = render_baseline("2026-08-06", "rustc", "note \"quoted\"", &counters, &rows);
        let b = parse_baseline(&text).unwrap();
        assert_eq!(b.schema, obs::SCHEMA_VERSION);
        assert_eq!(b.counters["engine/po/evals"], 3);
        assert_eq!(b.rows["view_engine/census"].median_ns, 42);
    }

    #[test]
    fn split_spec_round_trips() {
        assert_eq!(split_spec("locap-graph:canon"), ("locap-graph", "canon"));
        assert_eq!(split_spec("views"), ("locap-bench", "views"));
        // a qualified spec re-joined from its parts parses back identically
        let (pkg, target) = split_spec("locap-serve:serve_load");
        assert_eq!(split_spec(&format!("{pkg}:{target}")), (pkg, target));
        // only the first ':' splits, so targets may not contain one —
        // the remainder stays with the target verbatim
        assert_eq!(split_spec("a:b:c"), ("a", "b:c"));
    }

    #[test]
    fn civil_date_shape() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }
}
