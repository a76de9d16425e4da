//! The ratcheting baseline: `lint_baseline.json` grandfathers existing
//! violations per `(rule, file)` with a one-line reason, and the check
//! fails on any growth *or* any unrecorded shrinkage — debt may only go
//! down, and paydowns must be committed (`--update-baseline`).
//!
//! Entries are keyed by `(rule, file)` with a count rather than by line
//! number: line-keyed baselines churn on every unrelated edit, while a
//! count-keyed ratchet is stable under refactors yet still catches each
//! newly introduced violation in a file.
//!
//! Schema 2 splits the document into two independently ratcheting
//! sections: `entries` (crate `src/` trees) and `test_entries` (files
//! under `tests/` and `benches/`, which only the concurrency rules
//! L6/L7 scan). Test debt never masks production debt and vice versa;
//! each section only goes down. Schema-1 documents (everything in
//! `entries`) still parse.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use locap_obs::json::Json;

use crate::diag::{DiagStatus, Diagnostic};

/// Which baseline section a file ratchets in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Crate `src/` trees: all rules run.
    Src,
    /// `tests/` and `benches/` trees: only the concurrency rules
    /// (L6 lock-order, L7 poison-discipline) run — test code may
    /// allocate, panic and name metrics freely, but deadlocks and
    /// silent poison recovery are just as fatal there.
    Test,
}

impl Section {
    /// Section of a repo-relative `/`-separated path.
    pub fn of(path: &str) -> Section {
        if path.contains("/tests/") || path.contains("/benches/") {
            Section::Test
        } else {
            Section::Src
        }
    }

    /// The JSON key of the section's entry array.
    pub fn key(self) -> &'static str {
        match self {
            Section::Src => "entries",
            Section::Test => "test_entries",
        }
    }
}

/// Placeholder reason `--update-baseline` writes for new entries. The
/// check refuses it: a human must replace it with a real rationale.
pub const TODO_REASON: &str = "TODO: document why this debt is grandfathered";

/// One grandfathered `(rule, file)` debt bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id (`L2`…`L8`).
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// Number of violations tolerated in that file.
    pub count: u64,
    /// Why the debt is acceptable for now.
    pub reason: String,
}

/// The parsed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries, sorted by `(rule, file)`.
    pub entries: Vec<BaselineEntry>,
}

/// Outcome of comparing a run against the baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetOutcome {
    /// Human-readable ratchet failures (growth, stale debt, missing
    /// reasons). Empty means the ratchet passes.
    pub failures: Vec<String>,
    /// Count of stale entries (debt shrank without a baseline update).
    pub stale: u64,
}

impl Baseline {
    /// Loads a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the JSON baseline document (schema 1 or 2).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(Json::as_u64).ok_or("missing schema number")?;
        if !(1..=2).contains(&schema) {
            return Err(format!("unsupported baseline schema {schema}"));
        }
        let mut entries = Vec::new();
        for section in [Section::Src, Section::Test] {
            let key = section.key();
            let rows = match doc.get(key).and_then(Json::as_array) {
                Some(rows) => rows,
                None if section == Section::Test => continue, // absent in schema 1
                None => return Err(format!("missing {key} array")),
            };
            for (i, row) in rows.iter().enumerate() {
                let field = |k: &str| {
                    row.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key}[{i}]/{k} not a string"))
                };
                entries.push(BaselineEntry {
                    rule: field("rule")?,
                    file: field("file")?,
                    count: row
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or(format!("{key}[{i}]/count not a u64"))?,
                    reason: field("reason")?,
                });
            }
        }
        entries.sort_by(|a, b| (&a.rule, &a.file).cmp(&(&b.rule, &b.file)));
        Ok(Baseline { entries })
    }

    /// Serializes the baseline (schema 2, pretty-printed: one entry per
    /// stanza so paydown diffs read naturally in review; `src` and
    /// `tests`/`benches` debt in separate sections).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 2");
        for section in [Section::Src, Section::Test] {
            let rows: Vec<&BaselineEntry> =
                self.entries.iter().filter(|e| Section::of(&e.file) == section).collect();
            let _ = write!(out, ",\n  \"{}\": [\n", section.key());
            let n = rows.len();
            for (i, e) in rows.iter().enumerate() {
                let row = Json::Obj(vec![
                    ("rule".into(), Json::Str(e.rule.clone())),
                    ("file".into(), Json::Str(e.file.clone())),
                    ("count".into(), Json::Num(e.count as f64)),
                    ("reason".into(), Json::Str(e.reason.clone())),
                ]);
                let _ = writeln!(out, "    {row}{}", if i + 1 < n { "," } else { "" });
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Tolerated count for `(rule, file)`.
    fn allowance(&self, rule: &str, file: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.rule == rule && e.file == file)
            .map_or(0, |e| e.count)
    }

    /// Applies the ratchet: marks each diagnostic baselined or new, and
    /// reports growth, unrecorded shrinkage and placeholder reasons.
    pub fn ratchet(&self, diags: &mut [Diagnostic]) -> RatchetOutcome {
        let mut outcome = RatchetOutcome::default();
        let current = count_by_bucket(diags);
        for d in diags.iter_mut() {
            let allowed = self.allowance(d.rule, &d.file);
            let cur = current.get(&(d.rule.to_string(), d.file.clone())).copied().unwrap_or(0);
            d.status = if cur <= allowed { DiagStatus::Baselined } else { DiagStatus::New };
        }
        for ((rule, file), cur) in &current {
            let allowed = self.allowance(rule, file);
            if *cur > allowed {
                outcome.failures.push(format!(
                    "{rule} {file}: {cur} violation(s), baseline allows {allowed} — fix the new \
                     one(s); never grow the baseline for new code"
                ));
            }
        }
        for e in &self.entries {
            let cur = current.get(&(e.rule.clone(), e.file.clone())).copied().unwrap_or(0);
            if cur < e.count {
                outcome.stale += 1;
                outcome.failures.push(format!(
                    "{} {}: baseline records {} but only {cur} remain — debt was paid, lock it \
                     in with `--update-baseline`",
                    e.rule, e.file, e.count
                ));
            }
            if e.reason.trim().is_empty() || e.reason.starts_with("TODO") {
                outcome.failures.push(format!(
                    "{} {}: baseline entry has no reason — document why this debt is \
                     grandfathered",
                    e.rule, e.file
                ));
            }
        }
        outcome
    }

    /// Rebuilds the baseline from the current diagnostics, keeping the
    /// reasons of surviving entries and flagging new ones with
    /// [`TODO_REASON`] for a human to fill in.
    pub fn updated(&self, diags: &[Diagnostic]) -> Baseline {
        let current = count_by_bucket(diags);
        let mut entries: Vec<BaselineEntry> = current
            .into_iter()
            .map(|((rule, file), count)| {
                let reason = self
                    .entries
                    .iter()
                    .find(|e| e.rule == rule && e.file == file)
                    .map_or_else(|| TODO_REASON.to_string(), |e| e.reason.clone());
                BaselineEntry { rule, file, count, reason }
            })
            .collect();
        entries.sort_by(|a, b| (&a.rule, &a.file).cmp(&(&b.rule, &b.file)));
        Baseline { entries }
    }
}

fn count_by_bucket(diags: &[Diagnostic]) -> BTreeMap<(String, String), u64> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry((d.rule.to_string(), d.file.clone())).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str) -> Diagnostic {
        Diagnostic::new(rule, file, 1, 1, "m".into())
    }

    #[test]
    fn round_trips() {
        let b = Baseline {
            entries: vec![BaselineEntry {
                rule: "L1".into(),
                file: "crates/core/src/a.rs".into(),
                count: 3,
                reason: "construction-bounded indexing".into(),
            }],
        };
        assert_eq!(Baseline::parse(&b.render()).expect("parses"), b);
    }

    #[test]
    fn ratchet_passes_at_exact_budget() {
        let b = Baseline {
            entries: vec![BaselineEntry {
                rule: "L1".into(),
                file: "f.rs".into(),
                count: 2,
                reason: "ok".into(),
            }],
        };
        let mut diags = vec![diag("L1", "f.rs"), diag("L1", "f.rs")];
        let out = b.ratchet(&mut diags);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(diags.iter().all(|d| d.status == DiagStatus::Baselined));
    }

    #[test]
    fn ratchet_fails_on_growth_and_new_files() {
        let b = Baseline {
            entries: vec![BaselineEntry {
                rule: "L1".into(),
                file: "f.rs".into(),
                count: 1,
                reason: "ok".into(),
            }],
        };
        let mut diags = vec![diag("L1", "f.rs"), diag("L1", "f.rs"), diag("L2", "g.rs")];
        let out = b.ratchet(&mut diags);
        assert_eq!(out.failures.len(), 2);
        assert!(diags.iter().all(|d| d.status == DiagStatus::New));
    }

    #[test]
    fn ratchet_fails_on_stale_debt_and_todo_reasons() {
        let b = Baseline {
            entries: vec![
                BaselineEntry {
                    rule: "L1".into(),
                    file: "f.rs".into(),
                    count: 5,
                    reason: "ok".into(),
                },
                BaselineEntry {
                    rule: "L3".into(),
                    file: "g.rs".into(),
                    count: 1,
                    reason: TODO_REASON.into(),
                },
            ],
        };
        let mut diags = vec![diag("L1", "f.rs"), diag("L3", "g.rs")];
        let out = b.ratchet(&mut diags);
        assert_eq!(out.stale, 1);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
    }

    #[test]
    fn update_keeps_reasons_and_shrinks() {
        let b = Baseline {
            entries: vec![BaselineEntry {
                rule: "L1".into(),
                file: "f.rs".into(),
                count: 9,
                reason: "kept".into(),
            }],
        };
        let updated = b.updated(&[diag("L1", "f.rs"), diag("L3", "h.rs")]);
        assert_eq!(updated.entries.len(), 2);
        assert_eq!(updated.entries[0].count, 1);
        assert_eq!(updated.entries[0].reason, "kept");
        assert_eq!(updated.entries[1].reason, TODO_REASON);
    }

    #[test]
    fn sections_split_and_round_trip() {
        assert_eq!(Section::of("crates/serve/src/daemon.rs"), Section::Src);
        assert_eq!(Section::of("crates/serve/tests/conformance.rs"), Section::Test);
        assert_eq!(Section::of("crates/bench/benches/soak.rs"), Section::Test);
        let b = Baseline {
            entries: vec![
                BaselineEntry {
                    rule: "L1".into(),
                    file: "crates/core/src/a.rs".into(),
                    count: 3,
                    reason: "src debt".into(),
                },
                BaselineEntry {
                    rule: "L7".into(),
                    file: "crates/serve/tests/t.rs".into(),
                    count: 1,
                    reason: "test debt".into(),
                },
            ],
        };
        let text = b.render();
        assert!(text.contains("\"schema\": 2"));
        assert!(text.contains("\"test_entries\""));
        let src_part = text.split("test_entries").next().expect("split");
        assert!(!src_part.contains("tests/t.rs"), "test debt stays out of the src section");
        assert_eq!(Baseline::parse(&text).expect("parses"), b);
    }

    #[test]
    fn schema_one_documents_still_parse() {
        let text = "{\"schema\":1,\"entries\":[{\"rule\":\"L1\",\"file\":\"f.rs\",\"count\":2,\"reason\":\"r\"}]}";
        let b = Baseline::parse(text).expect("schema 1 parses");
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].count, 2);
        assert!(Baseline::parse("{\"schema\":3,\"entries\":[]}").is_err());
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/lint_baseline.json")).expect("empty");
        assert!(b.entries.is_empty());
    }
}
