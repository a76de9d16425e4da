//! The `locap-lint` CLI.
//!
//! ```text
//! locap-lint check [--root DIR] [--baseline FILE] [--json FILE|-] [--update-baseline] [--fix]
//! locap-lint validate FILE [--root DIR]
//! locap-lint rules
//! ```
//!
//! `check` runs the workspace analyzer in ratchet mode: exit 0 when
//! every violation is grandfathered by `lint_baseline.json`, exit 1 on
//! any new violation or any unrecorded paydown. `--update-baseline`
//! rewrites the baseline to the current debt (keeping reasons, flagging
//! new entries with a TODO a human must replace). `--fix` applies the
//! mechanical fixes first (L3 const hoisting, `lock-rank=TODO`
//! scaffolding — which the TODO check then rejects until a human picks
//! the rank), then runs the normal check on the fixed tree; a second
//! `--fix` run is a no-op. When `GITHUB_STEP_SUMMARY` is set, `check`
//! appends a per-rule markdown table with the baseline delta to it.
//!
//! `validate` checks a JSON document with the in-repo parser: lint
//! diagnostics documents against the lint schema, and baseline
//! documents (recognized by their `entries` array) for shape *and*
//! staleness — exit 2 if any baseline entry points at a file that no
//! longer exists, so renamed-away debt can't linger. `rules` prints
//! the catalogue.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use locap_lint::{diag, Baseline, Config, FixEdit, Section};
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
                "usage: locap-lint check [--root DIR] [--baseline FILE] [--json FILE|-] \
                 [--update-baseline] [--fix]\n       locap-lint validate FILE [--root DIR]\n       \
                 locap-lint rules"
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
    let mut baseline_path: Option<PathBuf> = None;
    let mut json_out: Option<String> = None;
    let mut update = false;
    let mut fix = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a directory"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a file"),
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some((*v).to_string()),
                None => return usage_error("--json needs a file (or -)"),
            },
            "--update-baseline" => update = true,
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
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint_baseline.json"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("locap-lint: failed to load baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match locap_lint::run_check(&root, &Config::locap(), &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("locap-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if update {
        let updated = baseline.updated(&run.diagnostics);
        let todo = updated.entries.iter().filter(|e| e.reason.starts_with("TODO")).count();
        if let Err(e) = std::fs::write(&baseline_path, updated.render()) {
            eprintln!("locap-lint: failed to write baseline: {e}");
            return ExitCode::from(2);
        }
        println!(
            "locap-lint: wrote {} entr(ies) to {}{}",
            updated.entries.len(),
            baseline_path.display(),
            if todo > 0 {
                format!(" — {todo} new entr(ies) need a reason before `check` passes")
            } else {
                String::new()
            }
        );
        return ExitCode::SUCCESS;
    }

    for d in &run.diagnostics {
        println!("{}", d.render());
    }
    let s = &run.summary;
    println!(
        "locap-lint: {} file(s), {} diagnostic(s) ({} baselined, {} new, {} stale baseline \
         entr(ies))",
        s.files, s.diagnostics, s.baselined, s.new, s.stale
    );
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
            let md = step_summary(&run, &baseline);
            if let Err(e) = append_file(Path::new(&summary_path), &md) {
                eprintln!("locap-lint: failed to append step summary: {e}");
            }
        }
    }
    if run.passed() {
        println!("locap-lint: ratchet gate passed");
        ExitCode::SUCCESS
    } else {
        for f in &run.failures {
            eprintln!("locap-lint: FAIL {f}");
        }
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

/// Renders the CI step-summary markdown: per-rule counts and the
/// baseline delta (paydowns and growth per `(rule, file)` bucket).
fn step_summary(run: &locap_lint::Run, baseline: &Baseline) -> String {
    use std::fmt::Write as _;
    let mut md = String::from(
        "## locap-lint\n\n| rule | name | diagnostics | baselined | new |\n|---|---|---|---|---|\n",
    );
    for (id, name, _) in diag::RULES {
        let total = run.diagnostics.iter().filter(|d| d.rule == *id).count();
        let baselined = run
            .diagnostics
            .iter()
            .filter(|d| d.rule == *id && d.status == locap_lint::DiagStatus::Baselined)
            .count();
        let _ = writeln!(md, "| {id} | {name} | {total} | {baselined} | {} |", total - baselined);
    }
    let mut current: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for d in &run.diagnostics {
        *current.entry((d.rule, d.file.as_str())).or_insert(0) += 1;
    }
    let mut delta_rows: Vec<String> = Vec::new();
    for e in &baseline.entries {
        let cur = current.get(&(e.rule.as_str(), e.file.as_str())).copied().unwrap_or(0);
        if cur != e.count {
            delta_rows.push(format!(
                "| {} | {} | `{}` | {} | {cur} | {} |",
                section_name(&e.file),
                e.rule,
                e.file,
                e.count,
                if cur < e.count { "paydown — record it" } else { "growth — fix it" }
            ));
        }
    }
    for ((rule, file), cur) in &current {
        let known = baseline.entries.iter().any(|e| e.rule == *rule && e.file == *file);
        if !known {
            delta_rows.push(format!(
                "| {} | {rule} | `{file}` | 0 | {cur} | new file — fix it |",
                section_name(file)
            ));
        }
    }
    if delta_rows.is_empty() {
        md.push_str("\nBaseline delta: none — debt unchanged.\n");
    } else {
        md.push_str("\n### Baseline delta\n\n| section | rule | file | baseline | current | action |\n|---|---|---|---|---|---|\n");
        for row in delta_rows {
            md.push_str(&row);
            md.push('\n');
        }
    }
    let s = &run.summary;
    let _ = writeln!(
        md,
        "\n{} file(s) scanned, {} diagnostic(s), gate **{}**.",
        s.files,
        s.diagnostics,
        if run.passed() { "passed" } else { "FAILED" }
    );
    md
}

/// Human section label of a baseline entry's file.
fn section_name(file: &str) -> &'static str {
    match Section::of(file) {
        Section::Src => "src",
        Section::Test => "tests",
    }
}

/// Appends `text` to `path`, creating it if needed.
fn append_file(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())
}

fn validate(rest: &[&str]) -> ExitCode {
    let mut root = default_root();
    let mut file: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a directory"),
            },
            other if !other.starts_with("--") && file.is_none() => file = Some(other),
            other => return usage_error(&format!("unknown argument {other}")),
        }
    }
    let Some(path) = file else { return usage_error("validate needs a FILE") };
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
    // a baseline document carries `entries` but no `source` stamp
    if doc.get("entries").is_some() && doc.get("source").is_none() {
        return validate_baseline(path, &text, &root);
    }
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

/// Validates a baseline document: parseable shape, and every entry's
/// file must still exist under `root` — exit 2 on stale entries, so a
/// rename or deletion can't leave phantom debt allowances behind.
fn validate_baseline(path: &str, text: &str, root: &Path) -> ExitCode {
    let baseline = match Baseline::parse(text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("locap-lint: {path}: baseline schema violation: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stale = 0;
    for e in &baseline.entries {
        if !root.join(&e.file).is_file() {
            stale += 1;
            eprintln!(
                "locap-lint: {path}: stale baseline entry {} {} — file no longer exists; \
                 drop the entry (its debt is gone with the file)",
                e.rule, e.file
            );
        }
    }
    if stale > 0 {
        return ExitCode::from(2);
    }
    println!(
        "locap-lint: {path}: schema-valid baseline document, {} entr(ies), all files present",
        baseline.entries.len()
    );
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("locap-lint: {msg}");
    ExitCode::from(2)
}
