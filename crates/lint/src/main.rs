//! The `locap-lint` CLI.
//!
//! ```text
//! locap-lint check [--root DIR] [--json FILE|-] [--fix]
//! locap-lint validate FILE
//! locap-lint rules
//! ```
//!
//! `check` runs the workspace analyzer: exit 0 when it finds no
//! diagnostics, exit 1 on any. `--fix` applies the mechanical fixes
//! first (L3 const hoisting, `lock-rank=TODO` scaffolding — which the
//! TODO check then rejects until a human picks the rank), then runs the
//! normal check on the fixed tree; a second `--fix` run is a no-op.
//! When `GITHUB_STEP_SUMMARY` is set, `check` appends a per-rule
//! markdown table to it.
//!
//! `validate` checks a lint diagnostics document against the lint
//! schema with the in-repo parser. `rules` prints the catalogue.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use locap_lint::{diag, Config, FixEdit};
use locap_obs::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"check", rest)) => check(rest),
        Some((&"validate", rest)) => validate(rest),
        Some((&"rules", [])) => {
            for (id, name, desc) in diag::RULES {
                println!("{id}  {name:<19} {desc}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: locap-lint check [--root DIR] [--json FILE|-] [--fix]\n       \
                 locap-lint validate FILE\n       locap-lint rules"
            );
            ExitCode::from(2)
        }
    }
}

fn default_root() -> PathBuf {
    // the crate lives at <root>/crates/lint, so the workspace root is
    // fixed at compile time — `cargo run -p locap-lint` works from any cwd
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn check(rest: &[&str]) -> ExitCode {
    let mut root = default_root();
    let mut json_out: Option<String> = None;
    let mut fix = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a directory"),
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some((*v).to_string()),
                None => return usage_error("--json needs a file (or -)"),
            },
            "--fix" => fix = true,
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }
    if fix {
        match apply_fixes(&root) {
            Ok((edits, files)) => {
                println!("locap-lint: applied {edits} fix edit(s) across {files} file(s)")
            }
            Err(e) => {
                eprintln!("locap-lint: fix failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let run = match locap_lint::run_check(&root, &Config::locap()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("locap-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &run.diagnostics {
        println!("{}", d.render());
    }
    let s = &run.summary;
    println!("locap-lint: {} file(s), {} diagnostic(s)", s.files, s.diagnostics);
    if let Some(path) = json_out {
        let doc = diag::to_json(s, &run.diagnostics);
        if path == "-" {
            println!("{doc}");
        } else if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("locap-lint: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary_path.is_empty() {
            let md = step_summary(&run);
            if let Err(e) = append_file(Path::new(&summary_path), &md) {
                eprintln!("locap-lint: failed to append step summary: {e}");
            }
        }
    }
    if run.passed() {
        println!("locap-lint: gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("locap-lint: FAIL {} diagnostic(s) — fix each one", s.diagnostics);
        ExitCode::FAILURE
    }
}

/// Applies every mechanical fix the analyzer proposes, right-to-left
/// per file (identical edits deduplicated, overlapping edits dropped
/// keeping the earliest). Returns `(edits applied, files rewritten)`.
fn apply_fixes(root: &Path) -> Result<(usize, usize), String> {
    let files = locap_lint::collect_workspace_files(root).map_err(|e| e.to_string())?;
    let diags = locap_lint::analyze_files(&files, &Config::locap());
    let texts: BTreeMap<&str, &str> = files.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    let mut by_file: BTreeMap<&str, Vec<&FixEdit>> = BTreeMap::new();
    for d in &diags {
        for fx in &d.fixes {
            by_file.entry(d.file.as_str()).or_default().push(fx);
        }
    }
    let mut applied = 0;
    let mut rewritten = 0;
    for (file, mut edits) in by_file {
        let Some(orig) = texts.get(file) else { continue };
        edits.sort_by(|a, b| (a.start, a.end, &a.text).cmp(&(b.start, b.end, &b.text)));
        edits.dedup();
        let mut kept: Vec<&FixEdit> = Vec::new();
        for e in edits {
            if e.end <= orig.len() && kept.last().is_none_or(|p: &&FixEdit| p.end <= e.start) {
                kept.push(e);
            }
        }
        if kept.is_empty() {
            continue;
        }
        let mut text = (*orig).to_string();
        for e in kept.iter().rev() {
            text.replace_range(e.start..e.end, &e.text);
            applied += 1;
        }
        std::fs::write(root.join(file), text).map_err(|e| format!("{file}: {e}"))?;
        rewritten += 1;
    }
    Ok((applied, rewritten))
}

/// Renders the CI step-summary markdown: per-rule diagnostic counts.
fn step_summary(run: &locap_lint::Run) -> String {
    use std::fmt::Write as _;
    let mut md = String::from("## locap-lint\n\n| rule | name | diagnostics |\n|---|---|---|\n");
    for (id, name, _) in diag::RULES {
        let total = run.diagnostics.iter().filter(|d| d.rule == *id).count();
        let _ = writeln!(md, "| {id} | {name} | {total} |");
    }
    md
}

/// Appends `text` to `path`, creating it if needed.
fn append_file(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())
}

fn validate(rest: &[&str]) -> ExitCode {
    let [path] = rest else { return usage_error("validate needs exactly one FILE") };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("locap-lint: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match Json::parse(text.trim()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("locap-lint: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match locap_lint::validate_lint_schema(&doc) {
        Ok(()) => {
            println!("locap-lint: {path}: schema-valid lint diagnostics document");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("locap-lint: {path}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("locap-lint: {msg}");
    ExitCode::from(2)
}
