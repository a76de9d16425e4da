//! `soak` — sustained-QPS load harness for a live `locapd`.
//!
//! ```text
//! soak --addr HOST:PORT [--qps N] [--duration-ms N] [--connections N]
//!      [--pipeline NAME] [--params JSON] [--drain-ms N] [--expect-ok]
//! ```
//!
//! Drives an open-loop constant-rate request schedule (see
//! `locap_bench::soak`) and reports achieved QPS, the error taxonomy,
//! and exact latency quantiles. With `OBS_JSON=1` the human table is
//! suppressed and the standard schema-valid snapshot line is emitted
//! instead — the soak numbers travel as `soak/*` counters, gauges, and
//! the `soak/request` span, so `bench_gate validate` can check the
//! artifact in CI.
//!
//! `--expect-ok` turns a dirty run (any error or unanswered request)
//! into exit code 1, for use as a smoke gate.

use std::time::Duration;

use locap_bench::soak::{run_soak, SoakConfig, SoakReport};
use locap_bench::{cells, hprintln, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, expect_ok) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("soak: {e}");
            eprintln!(
                "usage: soak --addr HOST:PORT [--qps N] [--duration-ms N] [--connections N]\n\
                 \x20           [--pipeline NAME] [--params JSON] [--drain-ms N] [--expect-ok]"
            );
            std::process::exit(2);
        }
    };
    let mut passed = true;
    locap_bench::run("soak", "SOAK", "sustained-QPS load harness for locapd", || {
        match run_soak(&cfg) {
            Ok(report) => {
                render(&cfg, &report);
                passed = report.passed();
            }
            Err(e) => {
                eprintln!("soak: {e}");
                passed = false;
            }
        }
    });
    if expect_ok && !passed {
        std::process::exit(1);
    }
}

fn parse(args: &[String]) -> Result<(SoakConfig, bool), String> {
    let mut cfg = SoakConfig::default();
    let mut expect_ok = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--addr" => cfg.addr = value()?.to_string(),
            "--qps" => {
                cfg.qps = value()?.parse().map_err(|e| format!("bad --qps: {e}"))?;
            }
            "--duration-ms" => {
                let ms: u64 = value()?.parse().map_err(|e| format!("bad --duration-ms: {e}"))?;
                cfg.duration = Duration::from_millis(ms);
            }
            "--connections" => {
                cfg.connections =
                    value()?.parse().map_err(|e| format!("bad --connections: {e}"))?;
            }
            "--pipeline" => cfg.pipeline = value()?.to_string(),
            "--params" => cfg.params = value()?.to_string(),
            "--drain-ms" => {
                let ms: u64 = value()?.parse().map_err(|e| format!("bad --drain-ms: {e}"))?;
                cfg.drain = Duration::from_millis(ms);
            }
            "--expect-ok" => expect_ok = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("--addr is required".into());
    }
    Ok((cfg, expect_ok))
}

fn render(cfg: &SoakConfig, report: &SoakReport) {
    hprintln!(
        "\nsoak of {} — pipeline {} at {} QPS over {} connection(s) for {} ms:\n",
        cfg.addr,
        cfg.pipeline,
        cfg.qps,
        cfg.connections,
        cfg.duration.as_millis(),
    );
    let mut t = Table::new(&["metric", "value"]);
    t.row(&cells([&"target QPS", &format!("{:.1}", report.target_qps)]));
    t.row(&cells([&"achieved QPS", &format!("{:.1}", report.achieved_qps)]));
    t.row(&cells([&"sent", &report.sent]));
    t.row(&cells([&"ok", &report.ok]));
    t.row(&cells([&"unanswered", &report.unanswered]));
    t.row(&cells([&"elapsed (ms)", &report.elapsed_ms]));
    t.row(&cells([&"latency p50 (ns)", &report.p50_ns]));
    t.row(&cells([&"latency p90 (ns)", &report.p90_ns]));
    t.row(&cells([&"latency p99 (ns)", &report.p99_ns]));
    t.row(&cells([&"latency max (ns)", &report.max_ns]));
    t.print();
    if report.errors.is_empty() {
        hprintln!("\nno errors");
    } else {
        hprintln!("\nerrors by kind:\n");
        let mut t = Table::new(&["kind", "count"]);
        for (kind, n) in &report.errors {
            t.row(&cells([kind, n]));
        }
        t.print();
    }
    hprintln!("\nresult: {}", if report.passed() { "PASS" } else { "FAIL" });
}
