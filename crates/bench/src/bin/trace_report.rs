//! CLI for inspecting traces written with `OBS_TRACE=<path>`.
//!
//! ```text
//! trace_report <trace.json>           attribution tree + per-round/per-request tables
//! trace_report diff <a.json> <b.json> per-path total deltas (B vs A)
//! ```
//!
//! Exits non-zero if a file is unreadable or not valid Chrome trace JSON,
//! so it doubles as a trace validity check in CI.

use locap_bench::trace_report::{aggregate, load, render_diff, render_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] if path != "diff" => report(path),
        [cmd, a, b] if cmd == "diff" => diff(a, b),
        _ => {
            eprintln!("usage: trace_report <trace.json>");
            eprintln!("       trace_report diff <a.json> <b.json>");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("trace_report: {e}");
        std::process::exit(1);
    }
}

fn report(path: &str) -> Result<(), String> {
    let trace = load(path)?;
    print!("{}", render_report(&trace));
    Ok(())
}

fn diff(a: &str, b: &str) -> Result<(), String> {
    let ta = aggregate(&load(a)?);
    let tb = aggregate(&load(b)?);
    print!("{}", render_diff(&ta, &tb));
    Ok(())
}
