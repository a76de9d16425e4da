//! Shared helpers for the experiment binaries and the perf-regression
//! gate.
//!
//! Each binary `eNN_…` regenerates one figure or claims table of the paper
//! (see DESIGN.md §3 for the index and EXPERIMENTS.md for recorded
//! outputs). The helpers here render aligned ASCII tables so the binaries'
//! stdout is directly pasteable into EXPERIMENTS.md — and, when the
//! `OBS_JSON` environment variable is set, suppress the human output and
//! emit a single machine-readable JSON line from the observability
//! registry instead (see [`run`]).
//!
//! The [`gate`] module implements the regression gate behind the
//! `bench_gate` binary: it parses the checked-in `BENCH_views.json`
//! baseline, runs the corresponding criterion-shim benches, and fails
//! when a ratio of two medians from one bench process (an engine over
//! its naive oracle) grows past ×1.25 of the baseline's ratio.
//!
//! The [`trace_report`] module, behind the binary of the same name, turns
//! registry documents (`OBS_JSON` lines and provenance sidecars) into a
//! run's attribution: the span tree with count, total, self and max time
//! per path, and per-path deltas between runs.

#![warn(missing_docs)]

pub mod gate;
pub mod soak;
pub mod trace_report;

use locap_obs as obs;
use obs::json::Json;

/// Whether human-readable output is enabled: true unless the `OBS_JSON`
/// environment variable is set to a non-empty value other than `0`.
pub fn human_output() -> bool {
    match std::env::var_os("OBS_JSON") {
        None => true,
        Some(v) => v.is_empty() || v == "0",
    }
}

/// Runs `f` and reports how long it took.
///
/// This is the one sanctioned wall-clock read for ad-hoc timing in the
/// experiment binaries: code under measurement never touches `Instant`
/// itself, so the execution core stays deterministic and clock reads
/// stay auditable.
#[expect(
    clippy::disallowed_methods,
    reason = "the one ad-hoc timer experiment binaries are routed through"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// `println!` gated on [`human_output`]: silent under `OBS_JSON=1` so the
/// JSON line stays the only stdout output.
#[macro_export]
macro_rules! hprintln {
    ($($arg:tt)*) => {
        if $crate::human_output() {
            println!($($arg)*);
        }
    };
}

/// `print!` gated on [`human_output`].
#[macro_export]
macro_rules! hprint {
    ($($arg:tt)*) => {
        if $crate::human_output() {
            print!($($arg)*);
        }
    };
}

/// Runs one experiment body with observability wiring: prints the banner,
/// times the body under a `total` span, and — when `OBS_JSON` is set —
/// prints the registry snapshot as a single JSON line on stdout,
/// `{"source": <source>, "registry": …}`. The `registry` object is
/// [`TelemetryState::to_json`](obs::telemetry::TelemetryState::to_json),
/// as in `locapd`'s `stats` result; `source` tags the emitting binary.
/// [`trace_report`] reads such lines back as a span tree.
pub fn run(source: &str, id: &str, title: &str, body: impl FnOnce()) {
    banner(id, title);
    {
        let _total = obs::span("total");
        body();
    }
    if !human_output() {
        let line = Json::Obj(vec![
            ("source".into(), Json::Str(source.into())),
            ("registry".into(), obs::snapshot().to_json()),
        ]);
        println!("{line}");
    }
}

/// Prints a header banner for an experiment (human output only).
pub fn banner(id: &str, title: &str) {
    hprintln!("================================================================");
    hprintln!("{id}: {title}");
    hprintln!("================================================================");
}

/// A minimal aligned-column table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds a row (must match the header length).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to stdout (human output only).
    pub fn print(&self) {
        if !human_output() {
            return;
        }
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for c in 0..cols {
                s.push_str(&format!("{:width$}  ", cells[c], width = widths[c]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// Convenience macro-free cell builder.
pub fn cells<const N: usize>(values: [&dyn std::fmt::Display; N]) -> Vec<String> {
    values.iter().map(|v| v.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&cells([&1, &"xyz"]));
        t.row(&cells([&100, &"q"]));
        t.print();
        banner("E00", "smoke");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&cells([&1, &2]));
    }

    #[test]
    fn human_output_defaults_on() {
        // The test runner does not set OBS_JSON.
        assert!(human_output());
    }
}
