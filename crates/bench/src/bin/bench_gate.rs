//! `bench_gate` — the perf-regression gate.
//!
//! ```text
//! bench_gate [check|record|counters] [--baseline PATH] [--out PATH] [--with-bench SPEC]...
//! ```
//!
//! * `check` (default) — run every bench named in the baseline three
//!   times (`gate::RUNS`) with `CRITERION_SHIM_TSV=1`, keep each row's
//!   fastest run, and compare each ratio row (an engine median over its
//!   naive sibling; see `gate::PAIRS`) with the baseline's ratio at
//!   ×1.25 (`gate::TOLERANCE`). Both medians of a ratio come from one
//!   bench process, so the host's speed cancels out. Prints the ratio
//!   table. Exit 0 when every ratio is within the limit, 1 on a
//!   regression or a missing row, 2 on config errors, among them a
//!   baseline row without its partner and a bench row the baseline
//!   lacks.
//! * `record` — measure the same benches the same way, run the counter
//!   workload, and write a fresh schema-2 baseline to `--out` (default:
//!   the baseline path). Each `--with-bench SPEC` adds a bench target not
//!   yet in the baseline, which is how a new scenario first enters
//!   `BENCH_views.json`. Exits 2 without writing when a row would lack
//!   its partner.
//! * `counters` — print the deterministic counter snapshot and exit: the
//!   one the schema-2 baseline embeds, which tier-1's
//!   `counter_snapshot.rs` test compares exactly.
//!
//! A bench spec (in a baseline row's `bench` field or `--with-bench`) is
//! either a bare target in `locap-bench` (`view_engine`) or
//! `package:target` for a bench in another workspace crate.
//!
//! `CRITERION_SHIM_SAMPLES=n` propagates to the shim for reduced-sample
//! smoke runs.

use std::process::Command;

use locap_bench::gate;

const DEFAULT_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json");

fn main() {
    std::process::exit(run());
}

struct Config {
    mode: String,
    baseline_path: String,
    out_path: Option<String>,
    with_benches: Vec<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut mode = "check".to_string();
    let mut baseline_path = DEFAULT_BASELINE.to_string();
    let mut out_path = None;
    let mut with_benches = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "check" | "record" | "counters" => mode = a,
            "--baseline" => baseline_path = args.next().ok_or("--baseline needs a path")?,
            "--out" => out_path = Some(args.next().ok_or("--out needs a path")?),
            "--with-bench" => {
                with_benches.push(args.next().ok_or("--with-bench needs a bench spec")?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !with_benches.is_empty() && mode != "record" {
        return Err("--with-bench only applies to record mode".to_string());
    }
    Ok(Config { mode, baseline_path, out_path, with_benches })
}

fn run() -> i32 {
    let result = parse_args().and_then(|cfg| match cfg.mode.as_str() {
        "counters" => {
            for (k, v) in gate::counter_workload() {
                println!("{k}\t{v}");
            }
            Ok(0)
        }
        "record" => record(&cfg),
        _ => check(&cfg),
    });
    result.unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        2
    })
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

/// Runs every bench `gate::RUNS` times and keeps each row's fastest run.
fn measure(benches: &[String]) -> Result<Vec<(String, gate::Measurement)>, String> {
    let runs = (0..gate::RUNS).map(|_| run_benches(benches)).collect::<Result<Vec<_>, _>>()?;
    Ok(gate::fastest_of_runs(&runs))
}

fn check(cfg: &Config) -> Result<i32, String> {
    let baseline = load_baseline(&cfg.baseline_path)?;
    let current: Vec<gate::Measurement> =
        measure(&baseline.benches())?.into_iter().map(|(_, m)| m).collect();
    let checks = gate::compare(&baseline, &current)?;
    println!("bench gate: {} ratio rows against {}", checks.len(), cfg.baseline_path);
    print!("{}", gate::render_table(&checks));
    let failed: Vec<&gate::RatioCheck> = checks.iter().filter(|c| !c.ok()).collect();
    if failed.is_empty() {
        println!("bench gate: OK");
        return Ok(0);
    }
    for c in &failed {
        println!("  {} {}", c.verdict(), c.name);
    }
    println!("bench gate: FAILED ({} of {} ratio rows)", failed.len(), checks.len());
    Ok(1)
}

fn record(cfg: &Config) -> Result<i32, String> {
    let mut benches = load_baseline(&cfg.baseline_path)
        .map_err(|e| {
            format!("{e} (record mode needs an existing baseline to know which benches to run)")
        })?
        .benches();
    benches.extend(cfg.with_benches.iter().cloned());
    benches.sort();
    benches.dedup();
    let rows = measure(&benches)?;
    eprintln!("bench_gate: running counter workload ...");
    let counters = gate::counter_workload();
    let text = gate::render_baseline(
        &gate::today_utc(),
        "rustc stable, release profile, criterion shim",
        "medians/mins in ns (CRITERION_SHIM_TSV), each the smallest of three runs'; the gate checks each engine/naive median ratio; counters are the exact snapshot of the gate's deterministic workload",
        &counters,
        &rows,
    );
    // what check would refuse is not written
    gate::parse_baseline(&text).map_err(|e| format!("not writing the new baseline: {e}"))?;
    let out_path = cfg.out_path.as_deref().unwrap_or(&cfg.baseline_path);
    std::fs::write(out_path, &text).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "bench gate: recorded {} rows and {} counters to {out_path}",
        rows.len(),
        counters.len()
    );
    Ok(0)
}
