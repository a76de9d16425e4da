//! Diagnostics: the finding type, the rule catalogue, human rendering
//! and the machine-readable JSON document (emitted through the
//! `locap-obs` JSON writer, validated by [`validate_lint_schema`] the
//! same way `validate_bench_schema` locks the bench documents).

use locap_obs::json::Json;

/// The lint JSON document schema version. Version 2 added the
/// per-diagnostic `fixable` flag (`check --fix`); version-1 documents
/// still validate.
pub const LINT_SCHEMA_VERSION: u64 = 2;

/// The rule catalogue: `(id, name, summary)` for every rule the engine
/// runs, in rule order.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "L1",
        "panic-discipline",
        "no unwrap/expect/panic!/unreachable!/todo!/unimplemented!/direct slice indexing in the \
         execution core outside tests and `# Panics`-documented functions",
    ),
    (
        "L2",
        "clock-discipline",
        "Instant::now/SystemTime::now only at allowlisted sites, so run budgets and benchmarks \
         stay deterministic everywhere else",
    ),
    (
        "L3",
        "counter-discipline",
        "obs counter/gauge/histogram names are const declarations (or const format! families), \
         each registered at exactly one construction site",
    ),
    ("L4", "forbid-unsafe", "every crate root (lib and bins) carries #![forbid(unsafe_code)]"),
    (
        "L6",
        "lock-order",
        "every Mutex/RwLock declaration carries `// lint: lock-rank=N`; overlapping guard \
         acquisitions must strictly increase in rank, and guards must be provably dropped \
         (scope exit or drop()) before send/recv/blocking-I/O calls",
    ),
    (
        "L7",
        "poison-discipline",
        ".lock().unwrap()/.expect()/.unwrap_or_else() is forbidden outside the one allowlisted \
         poison-recovery helper per crate — poisoning must become a typed, counted event, \
         never a silent thread death",
    ),
    (
        "L8",
        "hot-path-allocation",
        "fns annotated `// lint: hot` may not format!/to_string/vec!/Vec::new/HashMap::new/\
         .clone() outside their setup prefix (before `// lint: hot-setup-end`); per-line \
         escape hatch `// lint: hot-allow(reason)`",
    ),
];

/// Whether a diagnostic is covered by the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagStatus {
    /// Grandfathered by `lint_baseline.json`.
    Baselined,
    /// Not covered: fails ratchet mode.
    New,
}

impl DiagStatus {
    /// Stable string form for the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagStatus::Baselined => "baselined",
            DiagStatus::New => "new",
        }
    }
}

/// One mechanical edit of a source file: replace `[start, end)` with
/// `text` (`start == end` is a pure insertion). `check --fix` applies
/// these right-to-left per file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixEdit {
    /// Byte offset of the replaced span's first byte.
    pub start: usize,
    /// Byte offset one past the replaced span.
    pub end: usize,
    /// Replacement text.
    pub text: String,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`L1`…`L8`).
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte-based within the line).
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Ratchet status (filled in by the baseline comparison).
    pub status: DiagStatus,
    /// Mechanical fix, when one exists (empty = not auto-fixable).
    pub fixes: Vec<FixEdit>,
}

impl Diagnostic {
    /// Creates a finding (status starts as [`DiagStatus::New`]).
    pub fn new(rule: &'static str, file: &str, line: usize, col: usize, message: String) -> Self {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
            status: DiagStatus::New,
            fixes: Vec::new(),
        }
    }

    /// Attaches mechanical fix edits.
    pub fn with_fixes(mut self, fixes: Vec<FixEdit>) -> Self {
        self.fixes = fixes;
        self
    }

    /// The rule's human name from the catalogue.
    pub fn rule_name(&self) -> &'static str {
        RULES
            .iter()
            .find(|(id, _, _)| *id == self.rule)
            .map_or("?", |(_, name, _)| name)
    }

    /// One-line human rendering: `file:line:col [L1 panic-discipline] …`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{} {}] {}{}",
            self.file,
            self.line,
            self.col,
            self.rule,
            self.rule_name(),
            self.message,
            match self.status {
                DiagStatus::Baselined => " (baselined)",
                DiagStatus::New => "",
            }
        )
    }
}

/// Summary counts for a lint run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Files scanned.
    pub files: u64,
    /// Total diagnostics found.
    pub diagnostics: u64,
    /// Diagnostics covered by the baseline.
    pub baselined: u64,
    /// Diagnostics not covered (ratchet failures).
    pub new: u64,
    /// Baseline entries whose debt has shrunk or vanished (must be
    /// re-recorded with `--update-baseline`).
    pub stale: u64,
}

/// Renders a lint run as the machine-readable JSON document.
pub fn to_json(summary: &Summary, diags: &[Diagnostic]) -> String {
    let rules = RULES
        .iter()
        .map(|(id, name, desc)| {
            Json::Obj(vec![
                ("id".into(), Json::Str((*id).into())),
                ("name".into(), Json::Str((*name).into())),
                ("description".into(), Json::Str((*desc).into())),
            ])
        })
        .collect();
    let rows = diags
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(d.rule.into())),
                ("file".into(), Json::Str(d.file.clone())),
                ("line".into(), Json::Num(d.line as f64)),
                ("col".into(), Json::Num(d.col as f64)),
                ("status".into(), Json::Str(d.status.as_str().into())),
                ("fixable".into(), Json::Bool(!d.fixes.is_empty())),
                ("message".into(), Json::Str(d.message.clone())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Num(LINT_SCHEMA_VERSION as f64)),
        ("source".into(), Json::Str("locap-lint".into())),
        (
            "summary".into(),
            Json::Obj(vec![
                ("files".into(), Json::Num(summary.files as f64)),
                ("diagnostics".into(), Json::Num(summary.diagnostics as f64)),
                ("baselined".into(), Json::Num(summary.baselined as f64)),
                ("new".into(), Json::Num(summary.new as f64)),
                ("stale".into(), Json::Num(summary.stale as f64)),
            ]),
        ),
        ("rules".into(), Json::Arr(rules)),
        ("diagnostics".into(), Json::Arr(rows)),
    ])
    .to_string()
}

/// Validates the shape of a document produced by [`to_json`].
pub fn validate_lint_schema(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_u64).ok_or("missing schema number")?;
    if schema == 0 || schema > LINT_SCHEMA_VERSION {
        return Err(format!("unsupported schema {schema} (expected 1..={LINT_SCHEMA_VERSION})"));
    }
    if doc.get("source").and_then(Json::as_str) != Some("locap-lint") {
        return Err("source must be \"locap-lint\"".into());
    }
    let summary = doc.get("summary").ok_or("missing summary object")?;
    for key in ["files", "diagnostics", "baselined", "new", "stale"] {
        summary
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("summary/{key} not a u64"))?;
    }
    let rules = doc.get("rules").and_then(Json::as_array).ok_or("missing rules array")?;
    for (i, rule) in rules.iter().enumerate() {
        for key in ["id", "name", "description"] {
            rule.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("rules[{i}]/{key} not a string"))?;
        }
    }
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_array)
        .ok_or("missing diagnostics array")?;
    for (i, row) in diags.iter().enumerate() {
        for key in ["rule", "file", "message"] {
            row.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("diagnostics[{i}]/{key} not a string"))?;
        }
        for key in ["line", "col"] {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("diagnostics[{i}]/{key} not a u64"))?;
        }
        match row.get("status").and_then(Json::as_str) {
            Some("baselined" | "new") => {}
            _ => return Err(format!("diagnostics[{i}]/status not baselined|new")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_and_validates() {
        let diags = vec![Diagnostic::new("L1", "crates/core/src/a.rs", 3, 9, "x.unwrap()".into())];
        let summary =
            Summary { files: 1, diagnostics: 1, baselined: 0, new: 1, ..Summary::default() };
        let text = to_json(&summary, &diags);
        let doc = Json::parse(&text).expect("parses");
        validate_lint_schema(&doc).expect("valid");
        assert_eq!(doc.get("summary").and_then(|s| s.get("new")).and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn validator_rejects_mutations() {
        let diags = vec![Diagnostic::new("L2", "f.rs", 1, 1, "m".into())];
        let summary = Summary::default();
        let good = to_json(&summary, &diags);
        for (from, to) in [
            ("\"schema\":2", "\"schema\":99"),
            ("\"source\":\"locap-lint\"", "\"source\":\"other\""),
            ("\"status\":\"new\"", "\"status\":\"maybe\""),
            ("\"line\":1", "\"line\":\"one\""),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "mutation {from} must apply");
            let doc = Json::parse(&bad).expect("still parses");
            assert!(validate_lint_schema(&doc).is_err(), "must reject {from} -> {to}");
        }
    }

    #[test]
    fn render_includes_rule_name() {
        let d = Diagnostic::new("L4", "crates/x/src/lib.rs", 1, 1, "missing forbid".into());
        assert!(d.render().contains("[L4 forbid-unsafe]"));
    }
}
