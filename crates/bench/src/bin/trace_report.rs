//! CLI over the span attribution of registry documents.
//!
//! ```text
//! trace_report <metrics.json>           span tree: count, total, self and max per path
//! trace_report diff <a.json> <b.json>   per-path total deltas (B vs A)
//! ```
//!
//! A file holds one or more documents with a `registry` object, one per
//! line: `OBS_JSON=1` lines, e.g. the stdout of
//! `OBS_JSON=1 e09_oi_to_po > m.json`, or a provenance sidecar. Exits
//! non-zero if a file is unreadable or holds a malformed line, so it
//! doubles as a validity check in CI.

use locap_bench::trace_report::{load, render_diff, render_tree};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] if path != "diff" => load(path).map(|stats| render_tree(&stats)),
        [cmd, a, b] if cmd == "diff" => load(a).and_then(|a| Ok(render_diff(&a, &load(b)?))),
        _ => {
            eprintln!("usage: trace_report <metrics.json>");
            eprintln!("       trace_report diff <a.json> <b.json>");
            std::process::exit(2);
        }
    };
    match result {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("trace_report: {e}");
            std::process::exit(1);
        }
    }
}
