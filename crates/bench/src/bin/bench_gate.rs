//! `bench_gate` — the perf-regression gate.
//!
//! ```text
//! bench_gate [check|record|counters] [--baseline PATH] [--tolerance X] [--out PATH]
//!            [--with-bench SPEC]...
//! ```
//!
//! * `check` (default) — rerun every bench named in the baseline with
//!   `CRITERION_SHIM_TSV=1`, rerun the deterministic counter workload,
//!   and compare both against the baseline. Benches with regressed rows
//!   are retried (up to twice), keeping each row's best-of medians, so
//!   scheduler noise on a loaded host does not trip the gate — a real
//!   regression is slow on every rerun. Exit 0 when clean, 1 on any
//!   regression / missing row / counter mismatch, 2 on config errors.
//! * `record` — rerun the same benches and workload and write a fresh
//!   schema-2 baseline to `--out` (default: the baseline path). Each
//!   `--with-bench SPEC` adds a bench target not yet in the baseline,
//!   which is how a new scenario first enters `BENCH_views.json`.
//! * `counters` — print the deterministic counter snapshot and exit
//!   (debug aid; also what the schema-2 baseline embeds).
//!
//! A bench spec (in a baseline row's `bench` field or `--with-bench`) is
//! either a bare target in `locap-bench` (`view_engine`) or
//! `package:target` for a bench in another workspace crate
//! (`locap-serve:serve_load`).
//!
//! Environment: `BENCH_GATE_TOLERANCE` (default 1.25) and
//! `BENCH_GATE_BASELINE` mirror the flags; `CRITERION_SHIM_SAMPLES=n`
//! propagates to the shim for reduced-sample smoke runs.

use std::collections::BTreeMap;
use std::process::Command;

use locap_bench::gate;

const DEFAULT_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json");

/// Retries of a regressed bench before its regressions are believed.
const MAX_RETRIES: usize = 2;

fn main() {
    std::process::exit(run());
}

struct Config {
    mode: String,
    baseline_path: String,
    out_path: Option<String>,
    tolerance: f64,
    with_benches: Vec<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut mode = "check".to_string();
    let mut baseline_path =
        std::env::var("BENCH_GATE_BASELINE").unwrap_or_else(|_| DEFAULT_BASELINE.to_string());
    let mut out_path = None;
    let mut tolerance = match std::env::var("BENCH_GATE_TOLERANCE") {
        Ok(v) => v.parse::<f64>().map_err(|_| format!("bad BENCH_GATE_TOLERANCE {v:?}"))?,
        Err(_) => 1.25,
    };
    let mut with_benches = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "check" | "record" | "counters" => mode = a,
            "--baseline" => baseline_path = args.next().ok_or("--baseline needs a path")?,
            "--out" => out_path = Some(args.next().ok_or("--out needs a path")?),
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                tolerance = v.parse().map_err(|_| format!("bad tolerance {v:?}"))?;
            }
            "--with-bench" => {
                with_benches.push(args.next().ok_or("--with-bench needs a bench spec")?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if tolerance <= 0.0 {
        return Err(format!("tolerance must be positive, got {tolerance}"));
    }
    if !with_benches.is_empty() && mode != "record" {
        return Err("--with-bench only applies to record mode".to_string());
    }
    Ok(Config { mode, baseline_path, out_path, tolerance, with_benches })
}

fn run() -> i32 {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 2;
        }
    };
    match cfg.mode.as_str() {
        "counters" => {
            for (k, v) in gate::counter_workload() {
                println!("{k}\t{v}");
            }
            0
        }
        "record" => record(&cfg),
        _ => check(&cfg),
    }
}

fn load_baseline(path: &str) -> Result<gate::Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
    gate::parse_baseline(&text).map_err(|e| format!("parsing baseline {path}: {e}"))
}

/// Runs one bench spec under the shim's TSV mode and returns its rows.
fn run_bench(bench: &str) -> Result<Vec<gate::Measurement>, String> {
    let (pkg, target) = gate::split_spec(bench);
    eprintln!("bench_gate: running bench {bench} ...");
    let out = Command::new("cargo")
        .args(["bench", "-q", "-p", pkg, "--bench", target])
        .env("CRITERION_SHIM_TSV", "1")
        .output()
        .map_err(|e| format!("spawning cargo bench {bench}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo bench {bench} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(gate::parse_shim_tsv(&String::from_utf8_lossy(&out.stdout)))
}

fn run_benches(benches: &[String]) -> Result<Vec<(String, gate::Measurement)>, String> {
    let mut rows = Vec::new();
    for bench in benches {
        for m in run_bench(bench)? {
            rows.push((bench.clone(), m));
        }
    }
    Ok(rows)
}

fn check(cfg: &Config) -> i32 {
    let baseline = match load_baseline(&cfg.baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 2;
        }
    };
    let benches = baseline.benches();
    let rows = match run_benches(&benches) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 2;
        }
    };
    let mut best: BTreeMap<String, gate::Measurement> = BTreeMap::new();
    for (_, m) in rows {
        gate::merge_min(&mut best, m);
    }
    let measurements = |best: &BTreeMap<String, gate::Measurement>| -> Vec<gate::Measurement> {
        best.values().cloned().collect()
    };
    let mut outcome = gate::compare(&baseline, &benches, &measurements(&best), cfg.tolerance);
    for retry in 1..=MAX_RETRIES {
        if outcome.regressions.is_empty() {
            break;
        }
        let again = gate::benches_of(&outcome.regressions, &baseline);
        eprintln!(
            "bench_gate: {} regressed rows; retry {retry}/{MAX_RETRIES} of {again:?} ...",
            outcome.regressions.len()
        );
        for bench in &again {
            match run_bench(bench) {
                Ok(ms) => {
                    for m in ms {
                        gate::merge_min(&mut best, m);
                    }
                }
                Err(e) => {
                    eprintln!("bench_gate: {e}");
                    return 2;
                }
            }
        }
        outcome = gate::compare(&baseline, &benches, &measurements(&best), cfg.tolerance);
    }
    if !baseline.counters.is_empty() {
        eprintln!("bench_gate: running counter workload ...");
        let actual = gate::counter_workload();
        outcome.counter_mismatches = gate::compare_counters(&baseline.counters, &actual);
    }

    println!(
        "bench gate: {} rows checked against {} (tolerance x{})",
        outcome.checked, cfg.baseline_path, cfg.tolerance
    );
    for r in &outcome.regressions {
        println!(
            "  REGRESSION {}: {} ns -> {} ns (x{:.2})",
            r.name, r.baseline_ns, r.current_ns, r.ratio
        );
    }
    for name in &outcome.missing {
        println!("  MISSING    {name}: in baseline but not rerun output");
    }
    for m in &outcome.counter_mismatches {
        println!("  COUNTER    {m}");
    }
    if outcome.ok() {
        println!("bench gate: OK");
        0
    } else {
        // the full table (every row, not just the offenders) plus the
        // applied tolerance, so a failure log is self-contained
        println!("\nbench gate: full baseline-vs-current comparison:");
        print!(
            "{}",
            gate::render_comparison_tsv(&baseline, &benches, &measurements(&best), cfg.tolerance)
        );
        println!(
            "\nbench gate: FAILED ({} regressions, {} missing, {} counter mismatches)",
            outcome.regressions.len(),
            outcome.missing.len(),
            outcome.counter_mismatches.len()
        );
        1
    }
}

fn record(cfg: &Config) -> i32 {
    let mut benches = match load_baseline(&cfg.baseline_path) {
        Ok(b) => b.benches(),
        Err(e) => {
            eprintln!("bench_gate: {e} (record mode needs an existing baseline to know which benches to run)");
            return 2;
        }
    };
    benches.extend(cfg.with_benches.iter().cloned());
    benches.sort();
    benches.dedup();
    let rows = match run_benches(&benches) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 2;
        }
    };
    eprintln!("bench_gate: running counter workload ...");
    let counters: BTreeMap<String, u64> = gate::counter_workload();
    let text = gate::render_baseline(
        &gate::today_utc(),
        "rustc stable, release profile, criterion shim",
        "medians/mins in ns (CRITERION_SHIM_TSV); counters are the exact snapshot of the gate's deterministic workload",
        &counters,
        &rows,
    );
    let out_path = cfg.out_path.as_deref().unwrap_or(&cfg.baseline_path);
    if let Err(e) = std::fs::write(out_path, &text) {
        eprintln!("bench_gate: writing {out_path}: {e}");
        return 2;
    }
    println!(
        "bench gate: recorded {} rows and {} counters to {out_path}",
        rows.len(),
        counters.len()
    );
    0
}
