//! Diagnostics: the finding type, the rule catalogue and human rendering.

/// The rule catalogue: `(id, name, summary)` for every rule the engine
/// runs.
pub const RULES: &[(&str, &str, &str)] = &[(
    "L8",
    "hot-path-allocation",
    "fns annotated `// lint: hot` may not format!/to_string/vec!/Vec::new/HashMap::new/\
     .clone() outside their setup prefix (before `// lint: hot-setup-end`); per-line \
     escape hatch `// lint: hot-allow(reason)`; a `// lint: hot` that annotates no fn \
     is itself a violation",
)];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`L8`).
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte-based within the line).
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Creates a finding.
    pub fn new(rule: &'static str, file: &str, line: usize, col: usize, message: String) -> Self {
        Diagnostic { rule, file: file.to_string(), line, col, message }
    }

    /// The rule's human name from the catalogue.
    pub fn rule_name(&self) -> &'static str {
        RULES
            .iter()
            .find(|(id, _, _)| *id == self.rule)
            .map_or("?", |(_, name, _)| name)
    }

    /// One-line human rendering: `file:line:col [L8 hot-path-allocation] …`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{} {}] {}",
            self.file,
            self.line,
            self.col,
            self.rule,
            self.rule_name(),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_rule_name() {
        let d = Diagnostic::new("L8", "crates/x/src/lib.rs", 1, 1, "format! in hot fn".into());
        assert!(d.render().contains("[L8 hot-path-allocation]"));
    }
}
