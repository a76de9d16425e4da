//! A run's span attribution, read from its registry documents.
//!
//! Under `OBS_JSON=1` every experiment binary and the `locap` CLI print
//! one line whose `registry` object is the run's registry snapshot
//! ([`crate::run`]), and every provenance sidecar carries the registry
//! delta of its request under the same key. Both are
//! [`TelemetryState::to_json`], which keeps each span path's count, sum
//! and largest time exactly. The `trace_report` binary is a thin CLI over
//! this module, with two views:
//!
//! * an **attribution tree** — per span path: count, total, self and max
//!   duration, where self time subtracts the totals of the path's nearest
//!   *observed* descendants;
//! * a **diff** of two files — per-path total deltas, for before/after
//!   comparisons of the same workload.
//!
//! A file may hold several lines (one per binary of a sweep, say): their
//! spans add up per path.

use std::collections::BTreeMap;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Number of spans recorded under this path.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Total minus the totals of nearest-observed descendants (clamped at
    /// zero: parallel workers can exceed their parent's wall clock).
    pub self_ns: u64,
    /// Largest single duration.
    pub max_ns: u64,
}

/// Reads a file of registry documents and aggregates their spans.
///
/// # Errors
///
/// Returns a description of the I/O or parse failure.
pub fn load(path: &str) -> Result<BTreeMap<String, PathStats>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Aggregates the spans of one JSON document per non-empty line, each
/// read from its `registry` object through [`TelemetryState::from_json`]:
/// per path, counts and totals add up, maxima take the largest, and self
/// times follow from the merged totals.
///
/// # Errors
///
/// Fails on a line that is not JSON, has no `registry` object, or holds
/// one that [`TelemetryState::from_json`] rejects, and on text with no
/// line at all.
pub fn parse(text: &str) -> Result<BTreeMap<String, PathStats>, String> {
    let mut stats: BTreeMap<String, PathStats> = BTreeMap::new();
    let mut lines = 0;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let registry = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|doc| {
                TelemetryState::from_json(doc.get("registry").ok_or("no registry object")?)
            })
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        lines += 1;
        for (name, h) in registry.spans {
            let s = stats.entry(name).or_default();
            s.count = s.count.saturating_add(h.count);
            s.total_ns = s.total_ns.saturating_add(h.sum);
            s.max_ns = s.max_ns.max(h.max);
        }
    }
    if lines == 0 {
        return Err("no registry document".into());
    }
    set_self_times(&mut stats);
    Ok(stats)
}

/// The nearest proper prefix of `path`, cut at a `/`, that has a row in
/// `stats`: the path's parent in the attribution tree.
fn observed_parent<'p>(stats: &BTreeMap<String, PathStats>, path: &'p str) -> Option<&'p str> {
    let mut anc = path;
    while let Some((up, _)) = anc.rsplit_once('/') {
        if stats.contains_key(up) {
            return Some(up);
        }
        anc = up;
    }
    None
}

/// Sets every path's self time: its total minus the totals of the paths
/// whose [`observed_parent`] it is, clamped at zero.
fn set_self_times(stats: &mut BTreeMap<String, PathStats>) {
    let mut child_sum: BTreeMap<String, u64> = BTreeMap::new();
    for (path, s) in stats.iter() {
        if let Some(parent) = observed_parent(stats, path) {
            let sum = child_sum.entry(parent.to_string()).or_default();
            *sum = sum.saturating_add(s.total_ns);
        }
    }
    for (path, s) in stats.iter_mut() {
        s.self_ns = s.total_ns.saturating_sub(child_sum.get(path).copied().unwrap_or(0));
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn render_columns(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for c in 0..cols {
            widths[c] = widths[c].max(row[c].len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], out: &mut String| {
        let mut s = String::new();
        for c in 0..cols {
            // last column (the path) left-aligned, numerics right-aligned
            if c + 1 == cols {
                s.push_str(&cells[c]);
            } else {
                s.push_str(&format!("{:>width$}  ", cells[c], width = widths[c]));
            }
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(header, &mut out);
    for row in rows {
        line(row, &mut out);
    }
    out
}

/// Renders the attribution tree: a header, then one line per path in
/// path order, with count / total / self / max columns (milliseconds).
/// A path shows as its part below its nearest observed ancestor (the
/// parent its self time is charged to), one step deeper than that
/// ancestor.
pub fn render_tree(stats: &BTreeMap<String, PathStats>) -> String {
    let header: Vec<String> =
        ["count", "total_ms", "self_ms", "max_ms", "path"].map(str::to_string).into();
    // a parent sorts before its descendants, so its depth is known first
    let mut depths: BTreeMap<&str, usize> = BTreeMap::new();
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|(path, s)| {
            let (depth, label) = match observed_parent(stats, path) {
                Some(parent) => (depths[parent] + 1, &path[parent.len() + 1..]),
                None => (0, path.as_str()),
            };
            depths.insert(path, depth);
            vec![
                s.count.to_string(),
                fmt_ms(s.total_ns),
                fmt_ms(s.self_ns),
                fmt_ms(s.max_ns),
                format!("{}{label}", "  ".repeat(depth)),
            ]
        })
        .collect();
    render_columns(&header, &rows)
}

/// Renders per-path deltas between two aggregated runs: total in A,
/// total in B, signed delta, and percentage change relative to A.
pub fn render_diff(a: &BTreeMap<String, PathStats>, b: &BTreeMap<String, PathStats>) -> String {
    let mut paths: Vec<&String> = a.keys().chain(b.keys()).collect();
    paths.sort();
    paths.dedup();
    let header: Vec<String> = ["a_total_ms", "b_total_ms", "delta_ms", "delta_pct", "path"]
        .map(str::to_string)
        .into();
    let rows: Vec<Vec<String>> = paths
        .iter()
        .map(|path| {
            let ta = a.get(*path).map_or(0, |s| s.total_ns);
            let tb = b.get(*path).map_or(0, |s| s.total_ns);
            let delta = tb as i128 - ta as i128;
            let pct = if ta == 0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * delta as f64 / ta as f64)
            };
            vec![
                fmt_ms(ta),
                fmt_ms(tb),
                format!("{:+.3}", delta as f64 / 1e6),
                pct,
                (*path).clone(),
            ]
        })
        .collect();
    render_columns(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_obs::telemetry::HistogramState;

    /// A registry document with one span per `(path, count, total, max)`,
    /// in microseconds.
    fn line(rows: &[(&str, u64, u64, u64)]) -> String {
        let mut state = TelemetryState::default();
        for &(path, count, total_us, max_us) in rows {
            let (sum, max) = (total_us * 1000, max_us * 1000);
            let h = HistogramState { count, sum, min: 0, max, buckets: vec![] };
            state.spans.insert(path.into(), h);
        }
        Json::Obj(vec![("registry".into(), state.to_json())]).to_string()
    }

    #[test]
    fn parse_and_aggregate_self_time() {
        // parent 10ms with two children of 3ms: self = 4ms. The
        // grandchild's total is charged to its nearest observed ancestor
        // (the child), not the parent.
        let text = line(&[
            ("p", 1, 10_000, 10_000),
            ("p/c", 2, 6_000, 3_000),
            ("p/c/skip/g", 1, 1_000, 1_000),
        ]);
        let stats = parse(&text).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats["p"].total_ns, 10_000_000);
        assert_eq!(stats["p"].self_ns, 4_000_000);
        assert_eq!(stats["p/c"].count, 2);
        assert_eq!(stats["p/c"].self_ns, 5_000_000);
        assert_eq!(stats["p/c"].max_ns, 3_000_000);
        assert_eq!(stats["p/c/skip/g"].self_ns, 1_000_000);
    }

    #[test]
    fn self_time_clamps_for_parallel_children() {
        // two parallel workers sum past the parent's wall clock
        let stats = parse(&line(&[("p", 1, 5_000, 5_000), ("p/w", 2, 8_000, 4_000)])).unwrap();
        assert_eq!(stats["p"].self_ns, 0);
        assert_eq!(stats["p/w"].total_ns, 8_000_000);
    }

    #[test]
    fn lines_of_one_file_add_up_per_path() {
        let text = format!(
            "{}\n\n{}\n",
            line(&[("total", 1, 9_000, 9_000), ("total/a", 1, 2_000, 2_000)]),
            line(&[("total", 1, 5_000, 5_000)])
        );
        let stats = parse(&text).unwrap();
        assert_eq!((stats["total"].count, stats["total"].total_ns), (2, 14_000_000));
        assert_eq!((stats["total"].max_ns, stats["total"].self_ns), (9_000_000, 12_000_000));
        let tree = render_tree(&stats);
        assert_eq!(tree.lines().count(), 3, "a header and one row per path: {tree}");
        assert!(tree.lines().any(|l| l.ends_with("    a") && l.starts_with("    1")), "{tree}");
    }

    #[test]
    fn the_tree_labels_paths_below_their_observed_parent() {
        let stats = parse(&line(&[
            ("total", 1, 9_000, 9_000),
            ("total/transfer/vertex", 2, 6_000, 4_000),
            ("total/transfer/vertex/lift", 2, 1_000, 600),
            ("z/orphan", 1, 5, 5),
        ]))
        .unwrap();
        assert_eq!(stats["total"].self_ns, 3_000_000, "the lift is charged to its parent");
        let tree = render_tree(&stats);
        // the path column starts where its header does
        let offset = tree.find("path").unwrap();
        let labels: Vec<&str> = tree.lines().skip(1).map(|l| &l[offset..]).collect();
        assert_eq!(labels, ["total", "  transfer/vertex", "    lift", "z/orphan"], "{tree}");
    }

    /// `render_tree`'s rows as `"<label> <self_ms>"`.
    fn tree_self_ms(stats: &BTreeMap<String, PathStats>) -> Vec<String> {
        let tree = render_tree(stats);
        let offset = tree.find("path").unwrap();
        tree.lines()
            .skip(1)
            .map(|l| {
                let self_ms = l[..offset].split_whitespace().nth(2).unwrap();
                format!("{} {self_ms}", l[offset..].trim_start())
            })
            .collect()
    }

    #[test]
    fn the_tree_shows_self_time_net_of_observed_children() {
        // a's self = 100 - (30 [a/b] + 20 [a/d/e: nearest observed ancestor a])
        let stats = parse(&line(&[
            ("a", 1, 100, 100),
            ("a/b", 1, 30, 30),
            ("a/b/c", 1, 10, 10),
            ("a/d/e", 1, 20, 20),
        ]))
        .unwrap();
        assert_eq!(tree_self_ms(&stats), ["a 0.050", "b 0.020", "c 0.010", "d/e 0.020"]);
    }

    #[test]
    fn the_tree_shows_a_parallel_overrun_as_zero_self_time() {
        // two parallel workers each took 80 of wall-clock 100
        let stats = parse(&line(&[("p", 1, 100, 100), ("p/worker", 2, 160, 80)])).unwrap();
        assert_eq!(tree_self_ms(&stats), ["p 0.000", "worker 0.160"]);
    }

    #[test]
    fn diff_reports_deltas_and_new_paths() {
        let a = parse(&line(&[("x", 1, 1_000, 1_000)])).unwrap();
        let b = parse(&line(&[("x", 1, 1_500, 1_500), ("y", 1, 2_000, 2_000)])).unwrap();
        let out = render_diff(&a, &b);
        assert!(out.contains("+50.0%"), "{out}");
        assert!(out.lines().any(|l| l.ends_with('y') && l.contains('-')), "{out}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").unwrap_err().starts_with("line 1: "));
        assert_eq!(parse("{\"foo\": 1}").unwrap_err(), "line 1: no registry object");
        assert!(parse("{\"registry\": 5}").unwrap_err().contains("not an object"));
        assert_eq!(parse("\n  \n").unwrap_err(), "no registry document");
        // a malformed second line fails the whole file
        let good = line(&[("x", 1, 1, 1)]);
        let err = parse(&format!("{good}\n{}\n", good.replace("\"count\":1", "\"count\":-1")))
            .unwrap_err();
        assert!(err.starts_with("line 2: histogram count"), "{err}");
        // a baseline carries rows, not a registry
        let baseline = r#"{"schema":2,"results":[{"bench":"b","name":"n","median_ns":1,"min_ns":1,"samples":1}]}"#;
        assert_eq!(parse(baseline).unwrap_err(), "line 1: no registry object");
    }
}
