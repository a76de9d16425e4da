//! The perf-regression gate behind the `bench_gate` binary.
//!
//! Every gated row is a **ratio of two medians measured in one `cargo
//! bench` process**: a fast path over its reference path, paired by
//! [`PAIRS`]. A slower host moves both medians of a pair together, so
//! the host's speed cancels out of the ratio, and the gate compares
//! each current ratio with the baseline's at the fixed [`TOLERANCE`]: a
//! row fails when `current > baseline × TOLERANCE`. Both sides are
//! measured the same way: every bench runs [`RUNS`] times and each row
//! keeps its fastest run ([`fastest_of_runs`]).
//!
//! The baseline also embeds the counter snapshot of a fixed
//! deterministic workload ([`counter_workload`]). Tier-1's
//! `counter_snapshot.rs` test compares it exactly on every run, catching
//! algorithmic regressions (lost memoization, extra evaluations) that
//! carry no timing noise.
//!
//! The module owns the baseline's schema: [`render_baseline`] writes a
//! baseline and [`parse_baseline`] reads and validates one, refusing a
//! row without its partner.
//!
//! Everything here is a pure function over parsed text so the policy is
//! unit-testable; the binary only adds process plumbing (running
//! `cargo bench` per baseline bench with `CRITERION_SHIM_TSV=1`).

use std::collections::BTreeMap;

use locap_graph::budget::RunBudget;
use locap_obs as obs;
use obs::json::Json;

/// The baseline schema version that [`render_baseline`] writes;
/// [`parse_baseline`] reads versions 1 through this one.
pub const SCHEMA_VERSION: u64 = 2;

/// The pairing rule, as `(numerator, denominator, ratio)` name parts: a
/// row whose name contains `numerator` is divided by the row named with
/// `numerator` replaced by `denominator`, and the ratio row is named with
/// `ratio` in its place. Each `view_engine` engine row goes over its
/// naive sibling.
pub const PAIRS: &[(&str, &str, &str)] = &[("/engine/", "/naive/", "/engine÷naive/")];

/// How far a ratio may grow over its baseline value before the gate
/// fails: ×1.25, i.e. +25%.
pub const TOLERANCE: f64 = 1.25;

/// How many times `bench_gate` runs every bench, in `check` and `record`
/// alike, before [`fastest_of_runs`] merges the runs.
pub const RUNS: usize = 3;

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

/// A gated ratio: the median of row `num` over the median of row `den`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatioRow {
    /// The ratio's name, e.g. `view_census/engine÷naive/homogeneous_n4096/2`.
    pub name: String,
    /// Numerator row name.
    pub num: String,
    /// Denominator row name.
    pub den: String,
}

/// A parsed `BENCH_views.json` baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Schema version of the document.
    pub schema: u64,
    /// Rows keyed by benchmark name.
    pub rows: BTreeMap<String, BaselineRow>,
    /// Every row paired with its partner.
    pub ratios: Vec<RatioRow>,
    /// The counter snapshot of [`counter_workload`] (schema 2 only).
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

/// Pairs every row by [`PAIRS`] and returns the ratio rows, in the
/// order of their numerator rows' names.
///
/// # Errors
///
/// Names the first row that matches no pair, or whose partner is absent:
/// a row nothing divides would go ungated.
fn ratio_rows(rows: &BTreeMap<String, BaselineRow>) -> Result<Vec<RatioRow>, String> {
    let mut out = Vec::new();
    for name in rows.keys() {
        let (partner, ratio) = PAIRS
            .iter()
            .find_map(|&(num, den, ratio)| {
                if name.contains(num) {
                    Some((name.replacen(num, den, 1), Some(name.replacen(num, ratio, 1))))
                } else {
                    name.contains(den).then(|| (name.replacen(den, num, 1), None))
                }
            })
            .ok_or(format!("row {name} matches no ratio pair"))?;
        if !rows.contains_key(&partner) {
            return Err(format!("row {name} has no partner {partner}"));
        }
        if let Some(ratio) = ratio {
            out.push(RatioRow { name: ratio, num: name.clone(), den: partner });
        }
    }
    Ok(out)
}

/// Parses and validates a baseline. A baseline has a `schema` number in
/// `1..=SCHEMA_VERSION`, an optional `counters` object of `u64`s, and a
/// `results` array whose rows each carry string `bench` and `name` plus
/// integer `median_ns`, `min_ns` and `samples`, and whose rows pair up
/// by [`PAIRS`]. Other fields (`date`, `note`) are not read.
///
/// # Errors
///
/// Returns a description of the first malformed field or unpaired row.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(Json::as_u64).ok_or("missing schema number")?;
    if schema == 0 || schema > SCHEMA_VERSION {
        return Err(format!("unsupported schema {schema} (expected 1..={SCHEMA_VERSION})"));
    }
    let counters = match doc.get("counters") {
        None => BTreeMap::new(),
        Some(section) => section
            .as_object()
            .ok_or("counters is not an object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or(format!("counters/{k} is not a u64"))?)))
            .collect::<Result<_, String>>()?,
    };
    let results = doc
        .get("results")
        .ok_or("missing results array")?
        .as_array()
        .ok_or("results is not an array")?;
    let mut rows = BTreeMap::new();
    for (i, row) in results.iter().enumerate() {
        let text = |key| {
            row.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("results[{i}] missing string {key}"))
        };
        let int = |key| {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("results[{i}] missing integer {key}"))
        };
        let bench = text("bench")?.to_string();
        let name = text("name")?.to_string();
        let row = BaselineRow {
            bench,
            median_ns: int("median_ns")?,
            min_ns: int("min_ns")?,
            samples: int("samples")?,
        };
        rows.insert(name, row);
    }
    let ratios = ratio_rows(&rows)?;
    Ok(Baseline { schema, rows, ratios, counters })
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

/// Merges runs of the same benches into one row per name, in the first
/// run's order, keeping the row's smallest median and smallest min. Load
/// from other processes only ever slows a run down, so a row's fastest
/// run is the closest to its code's own speed: a burst of load during
/// one run moves neither the baseline nor a check, while a row whose
/// code got slower is slow in every run.
pub fn fastest_of_runs(runs: &[Vec<(String, Measurement)>]) -> Vec<(String, Measurement)> {
    let first = runs.first().map_or(&[][..], Vec::as_slice);
    first
        .iter()
        .map(|(bench, m)| {
            let same = || runs.iter().flatten().map(|(_, o)| o).filter(|o| o.name == m.name);
            let median_ns = same().map(|o| o.median_ns).min().unwrap_or(m.median_ns);
            let min_ns = same().map(|o| o.min_ns).min().unwrap_or(m.min_ns);
            (bench.clone(), Measurement { median_ns, min_ns, ..m.clone() })
        })
        .collect()
}

/// One ratio row of a gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioCheck {
    /// The ratio row's name.
    pub name: String,
    /// The ratio in the baseline.
    pub baseline: f64,
    /// The ratio now, if both of its rows were measured.
    pub current: Option<f64>,
}

impl RatioCheck {
    /// Whether the current ratio is there and within [`TOLERANCE`] of
    /// the baseline's.
    pub fn ok(&self) -> bool {
        self.current.is_some_and(|c| c <= self.baseline * TOLERANCE)
    }

    /// `ok`, `REGRESSION` or `MISSING`.
    pub fn verdict(&self) -> &'static str {
        match self.current {
            None => "MISSING",
            Some(_) if self.ok() => "ok",
            Some(_) => "REGRESSION",
        }
    }
}

/// Compares every ratio row of `baseline` with the same ratio in
/// `current`.
///
/// # Errors
///
/// Names the first current row that the baseline lacks: a new bench row
/// is gated only once `bench_gate record` has recorded it with its
/// partner.
pub fn compare(baseline: &Baseline, current: &[Measurement]) -> Result<Vec<RatioCheck>, String> {
    if let Some(m) = current.iter().find(|m| !baseline.rows.contains_key(&m.name)) {
        return Err(format!("bench row {} is not in the baseline; record it first", m.name));
    }
    let recorded = baseline.rows.iter().map(|(name, row)| (name.as_str(), row.median_ns)).collect();
    let current = current.iter().map(|m| (m.name.as_str(), m.median_ns)).collect();
    Ok(baseline
        .ratios
        .iter()
        .filter_map(|r| {
            Some(RatioCheck {
                name: r.name.clone(),
                baseline: ratio_of(&recorded, r)?,
                current: ratio_of(&current, r),
            })
        })
        .collect())
}

/// The median of `r.num` over the median of `r.den`, if both are there.
fn ratio_of(medians: &BTreeMap<&str, u64>, r: &RatioRow) -> Option<f64> {
    let (num, den) = (medians.get(r.num.as_str())?, medians.get(r.den.as_str())?);
    Some(*num as f64 / (*den).max(1) as f64)
}

/// Renders a gate run as a TSV table: every ratio row with its baseline
/// ratio, its current ratio, the one over the other and the verdict
/// under [`TOLERANCE`]. `bench_gate check` prints it on every run, so a
/// log shows every ratio, not just the failing ones.
pub fn render_table(checks: &[RatioCheck]) -> String {
    let mut out = format!("ratio\tbaseline\tcurrent\tchange\tverdict (limit x{TOLERANCE})\n");
    for c in checks {
        let (current, change) = match c.current {
            Some(v) => (format!("{v:.4}"), format!("{:.3}", v / c.baseline)),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{}\t{:.4}\t{current}\t{change}\t{}\n",
            c.name,
            c.baseline,
            c.verdict()
        ));
    }
    out
}

/// Splits a bench spec into `(package, target)`: `pkg:target` names an
/// explicit package, a bare target lives in `locap-bench`.
///
/// ```
/// use locap_bench::gate::split_spec;
/// assert_eq!(split_spec("locap-serve:store_warm"), ("locap-serve", "store_warm"));
/// assert_eq!(split_spec("view_engine"), ("locap-bench", "view_engine"));
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
/// and the OI engine (through `run::oi_vertex_budgeted`), so the counters
/// cover memoization behaviour across both the PO-view and the
/// ordered-neighbourhood paths.
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
    let _ =
        locap_models::run::oi_vertex_budgeted(&g, &rank, &RootIsSmallest, &RunBudget::unlimited());
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
    out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
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
        {"bench": "b", "name": "g/engine/1", "median_ns": 500, "min_ns": 450, "samples": 20},
        {"bench": "b", "name": "g/naive/1", "median_ns": 1000, "min_ns": 900, "samples": 20},
        {"bench": "b", "name": "g/engine/2", "median_ns": 3000, "min_ns": 2900, "samples": 20},
        {"bench": "b", "name": "g/naive/2", "median_ns": 1000, "min_ns": 900, "samples": 20},
        {"bench": "p:s", "name": "s/engine/x", "median_ns": 30, "min_ns": 25, "samples": 5},
        {"bench": "p:s", "name": "s/naive/x", "median_ns": 3000, "min_ns": 2500, "samples": 5}
      ]
    }"#;

    /// The checked-in baseline, whose ratio rows the gate checks.
    fn checked_in() -> Baseline {
        parse_baseline(include_str!("../../../BENCH_views.json")).expect("BENCH_views.json parses")
    }

    /// A rerun of `b` whose every median is the baseline's times `scale(name)`.
    fn rerun_of(b: &Baseline, scale: impl Fn(&str) -> f64) -> Vec<Measurement> {
        b.rows
            .iter()
            .map(|(name, row)| Measurement {
                name: name.clone(),
                median_ns: (row.median_ns as f64 * scale(name)) as u64,
                min_ns: row.min_ns,
                samples: row.samples,
            })
            .collect()
    }

    /// A baseline document with one row per name, every median 1.
    fn doc_of(names: &[&str]) -> String {
        let rows: Vec<String> = names
            .iter()
            .map(|n| {
                format!(r#"{{"bench":"b","name":"{n}","median_ns":1,"min_ns":1,"samples":1}}"#)
            })
            .collect();
        format!(r#"{{"schema":2,"results":[{}]}}"#, rows.join(","))
    }

    #[test]
    fn parses_schema_1_baseline() {
        let b = parse_baseline(SCHEMA1).unwrap();
        assert_eq!(b.schema, 1);
        assert_eq!(b.rows.len(), 6);
        assert_eq!(b.rows["g/engine/1"].median_ns, 500);
        assert!(b.counters.is_empty());
        assert_eq!(b.benches(), vec!["b".to_string(), "p:s".to_string()]);
        let names: Vec<&str> = b.ratios.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["g/engine÷naive/1", "g/engine÷naive/2", "s/engine÷naive/x"]);
        assert_eq!(
            (b.ratios[2].num.as_str(), b.ratios[2].den.as_str()),
            ("s/engine/x", "s/naive/x")
        );
    }

    #[test]
    fn parses_schema_2_baseline_with_counters() {
        let text = r#"{"schema": 2, "counters": {"engine/oi/evals": 7},
            "results": [{"bench": "b", "name": "b/engine/f", "median_ns": 10, "min_ns": 9, "samples": 3},
                        {"bench": "b", "name": "b/naive/f", "median_ns": 20, "min_ns": 19, "samples": 3}]}"#;
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
    fn parse_baseline_rejection_table() {
        // (document, expected error substring)
        let cases: &[(&str, &str)] = &[
            (r#"{"results":[]}"#, "missing schema number"),
            (r#"{"schema":"2","results":[]}"#, "missing schema number"),
            (r#"{"schema":0,"results":[]}"#, "unsupported schema 0"),
            (r#"{"schema":99,"results":[]}"#, "unsupported schema 99"),
            (r#"{"schema":2}"#, "missing results array"),
            (r#"{"schema":2,"results":7}"#, "results is not an array"),
            (r#"{"schema":2,"counters":[],"results":[]}"#, "counters is not an object"),
            (r#"{"schema":2,"counters":{"c":"x"},"results":[]}"#, "counters/c is not a u64"),
            (r#"{"schema":2,"counters":{"c":1.5},"results":[]}"#, "counters/c is not a u64"),
            (r#"{"schema":2,"counters":{"c":-1},"results":[]}"#, "counters/c is not a u64"),
            (
                r#"{"schema":2,"results":[{"name":"n","median_ns":1,"min_ns":1,"samples":1}]}"#,
                "results[0] missing string bench",
            ),
            (
                r#"{"schema":2,"results":[{"bench":"b","median_ns":1,"min_ns":1,"samples":1}]}"#,
                "results[0] missing string name",
            ),
            (
                r#"{"schema":2,"results":[{"bench":"b","name":"n","min_ns":1,"samples":1}]}"#,
                "results[0] missing integer median_ns",
            ),
            (
                r#"{"schema":2,"results":[{"bench":"b","name":"n","median_ns":-1,"min_ns":1,"samples":1}]}"#,
                "results[0] missing integer median_ns",
            ),
            (
                r#"{"schema":2,"results":[{"bench":"b","name":"n","median_ns":1,"min_ns":1}]}"#,
                "results[0] missing integer samples",
            ),
            (
                r#"{"schema":2,"results":[{},{"bench":"b","name":"n","median_ns":1,"min_ns":1,"samples":1}]}"#,
                "results[0] missing string bench",
            ),
        ];
        for (text, want) in cases {
            let err = parse_baseline(text).expect_err(&format!("{text} should be rejected"));
            assert!(err.contains(want), "for {text}: got {err:?}, want substring {want:?}");
        }
        // and the happy path next to the table, for contrast
        let ok = r#"{"schema":2,"counters":{"c":1},
            "results":[{"bench":"b","name":"n/engine/1","median_ns":1,"min_ns":1,"samples":1},
                       {"bench":"b","name":"n/naive/1","median_ns":1,"min_ns":1,"samples":1}]}"#;
        let b = parse_baseline(ok).expect("valid document accepted");
        assert_eq!((b.counters["c"], b.rows["n/engine/1"].samples), (1, 1));
    }

    #[test]
    fn an_unpaired_baseline_row_is_an_error() {
        let err = |names: &[&str]| parse_baseline(&doc_of(names)).expect_err("unpaired");
        assert_eq!(err(&["g/engine/1"]), "row g/engine/1 has no partner g/naive/1");
        assert_eq!(err(&["g/naive/1"]), "row g/naive/1 has no partner g/engine/1");
        assert_eq!(
            err(&["store/warm_census", "g/engine/1", "g/naive/1"]),
            "row store/warm_census matches no ratio pair"
        );
        assert_eq!(err(&["tree/build/L1_r4"]), "row tree/build/L1_r4 matches no ratio pair");
        let b = parse_baseline(&doc_of(&["g/naive/1", "g/engine/1"])).expect("a pair");
        let ratio = RatioRow {
            name: "g/engine÷naive/1".into(),
            num: "g/engine/1".into(),
            den: "g/naive/1".into(),
        };
        assert_eq!(b.ratios, [ratio]);
    }

    #[test]
    fn the_checked_in_baseline_gates_eight_ratios() {
        let b = checked_in();
        assert_eq!(b.ratios.len(), 8, "the view_engine pairs");
        assert_eq!(b.rows.len(), 2 * b.ratios.len(), "every row is in one ratio");
        assert_eq!(b.benches(), ["view_engine"]);
    }

    #[test]
    fn a_bench_row_the_baseline_lacks_is_an_error() {
        let b = checked_in();
        let mut run = rerun_of(&b, |_| 1.0);
        run.push(Measurement { name: "g/engine/new".into(), median_ns: 1, min_ns: 1, samples: 5 });
        let err = compare(&b, &run).expect_err("an unrecorded row");
        assert_eq!(err, "bench row g/engine/new is not in the baseline; record it first");
    }

    #[test]
    fn a_uniformly_slower_host_passes() {
        let b = checked_in();
        let checks = compare(&b, &rerun_of(&b, |_| 3.0)).unwrap();
        assert_eq!(checks.len(), b.ratios.len());
        assert!(checks.iter().all(RatioCheck::ok), "{}", render_table(&checks));
    }

    #[test]
    fn one_slower_engine_row_fails_naming_its_ratio() {
        let b = checked_in();
        let slow = "view_census/engine/homogeneous_n4096/2";
        let checks =
            compare(&b, &rerun_of(&b, |name| if name == slow { 1.3 } else { 1.0 })).unwrap();
        let failed: Vec<&str> =
            checks.iter().filter(|c| !c.ok()).map(|c| c.name.as_str()).collect();
        assert_eq!(failed, ["view_census/engine÷naive/homogeneous_n4096/2"]);
        assert!(
            render_table(&checks).contains("view_census/engine÷naive/homogeneous_n4096/2\t"),
            "the table names it"
        );
    }

    #[test]
    fn the_table_lists_every_ratio_row_with_both_ratios_and_its_verdict() {
        let b = parse_baseline(SCHEMA1).unwrap();
        let m = |name: &str, median_ns| Measurement {
            name: name.into(),
            median_ns,
            min_ns: 0,
            samples: 5,
        };
        // pair 1 grows from 0.5 to 0.75, pair 2 holds at 3.0, pair 3 lost
        // its engine row
        let current = vec![
            m("g/engine/1", 1500),
            m("g/naive/1", 2000),
            m("g/engine/2", 6000),
            m("g/naive/2", 2000),
            m("s/naive/x", 3000),
        ];
        let checks = compare(&b, &current).unwrap();
        assert_eq!(
            render_table(&checks),
            "ratio\tbaseline\tcurrent\tchange\tverdict (limit x1.25)\n\
             g/engine÷naive/1\t0.5000\t0.7500\t1.500\tREGRESSION\n\
             g/engine÷naive/2\t3.0000\t3.0000\t1.000\tok\n\
             s/engine÷naive/x\t0.0100\t-\t-\tMISSING\n"
        );
        let verdicts: Vec<bool> = checks.iter().map(RatioCheck::ok).collect();
        assert_eq!(verdicts, [false, true, false], "a missing row fails too");
    }

    #[test]
    fn a_slower_engine_fails_whatever_load_slows_its_naive_row() {
        let b = checked_in();
        let (engine, naive) =
            ("view_census/engine/homogeneous_n4096/2", "view_census/naive/homogeneous_n4096/2");
        // runs that slow the engine and the naive row by the given
        // factors, merged as `bench_gate` merges them
        let check = |runs: &[(f64, f64)]| {
            let runs: Vec<Vec<(String, Measurement)>> = runs
                .iter()
                .map(|&(e, n)| {
                    let scale = |name: &str| match name {
                        _ if name == engine => e,
                        _ if name == naive => n,
                        _ => 1.0,
                    };
                    rerun_of(&b, scale).into_iter().map(|m| (String::new(), m)).collect()
                })
                .collect();
            let rows: Vec<Measurement> =
                fastest_of_runs(&runs).into_iter().map(|(_, m)| m).collect();
            compare(&b, &rows).unwrap()
        };
        // a burst slows one run's naive row (that run's ratio reads 0.5)
        // and another run's engine row: neither moves the fastest runs
        assert!(check(&[(1.0, 2.0), (1.6, 1.0), (1.0, 1.0)]).iter().all(RatioCheck::ok));
        // an engine twice as slow stays twice as slow, also in the run
        // whose naive row a burst slowed
        let failed: Vec<(String, Option<f64>)> = check(&[(2.0, 2.0), (2.0, 1.0)])
            .into_iter()
            .filter(|c| !c.ok())
            .map(|c| (c.name, c.current.map(|v| (v / c.baseline * 100.0).round())))
            .collect();
        let want = "view_census/engine÷naive/homogeneous_n4096/2".to_string();
        assert_eq!(failed, [(want, Some(200.0))]);
    }

    #[test]
    fn tsv_parse_skips_noise() {
        let text = "Compiling foo\nb1/f/1\t1100\t1000\t20\nnot a row\nb2/g/2\t4000\t3900\t20\n";
        let ms = parse_shim_tsv(text);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "b1/f/1");
        assert_eq!(ms[0].median_ns, 1100);
    }

    #[test]
    fn fastest_of_runs_keeps_each_rows_fastest_run() {
        let run = |engine, naive| {
            let m = |name: &str, median_ns| Measurement {
                name: name.into(),
                median_ns,
                min_ns: median_ns / 2,
                samples: 10,
            };
            vec![
                ("b".to_string(), m("g/engine/1", engine)),
                ("b".to_string(), m("g/naive/1", naive)),
            ]
        };
        // bursts of load slow the naive row in two runs of three
        let rows = fastest_of_runs(&[run(100, 900), run(110, 400), run(90, 700)]);
        let got: Vec<(&str, u64, u64)> =
            rows.iter().map(|(_, m)| (m.name.as_str(), m.median_ns, m.min_ns)).collect();
        assert_eq!(got, [("g/engine/1", 90, 45), ("g/naive/1", 400, 200)]);
        assert!(fastest_of_runs(&[]).is_empty());
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
        let row = |name: &str, median_ns| {
            let m = Measurement { name: name.into(), median_ns, min_ns: 40, samples: 5 };
            ("view_engine".to_string(), m)
        };
        let rows = vec![row("g/engine/1", 42), row("g/naive/1", 4200)];
        let text = render_baseline("2026-08-06", "rustc", "note \"quoted\"", &counters, &rows);
        let b = parse_baseline(&text).unwrap();
        assert_eq!(b.schema, SCHEMA_VERSION);
        assert_eq!(b.counters["engine/po/evals"], 3);
        assert_eq!(b.rows["g/engine/1"].median_ns, 42);
        assert_eq!(b.ratios.len(), 1);
    }

    #[test]
    fn split_spec_round_trips() {
        assert_eq!(split_spec("locap-graph:canon"), ("locap-graph", "canon"));
        assert_eq!(split_spec("views"), ("locap-bench", "views"));
        // a qualified spec re-joined from its parts parses back identically
        let (pkg, target) = split_spec("locap-serve:store_warm");
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
