//! `locap-lint` — a dependency-free, workspace-aware static analyzer
//! for the execution-core contracts that rustc and clippy cannot check.
//!
//! The paper's whole argument is that guarantees must hold
//! *mechanically* — Göös, Hirvonen and Suomela eliminate the informal
//! slack between ID and PO by construction, not by inspection — and
//! this crate applies the same spirit to the codebase: three
//! repo-specific lints, run in CI, that fail on any violation.
//!
//! The toolchain holds the rest. `unsafe_code = "forbid"` is a
//! workspace lint; the panic-free core is eight clippy restriction
//! lints denied at each of its scope roots; and clock and poison
//! discipline are clippy's `disallowed-methods` list in `clippy.toml`.
//! Every sanctioned site carries `#[expect(…, reason)]` on its fn (see
//! the README "Static analysis" section).
//!
//! The rules (see [`diag::RULES`] for the catalogue):
//!
//! | id | name | contract |
//! |----|------|----------|
//! | L3 | counter-discipline | metric names are consts, each constructed at exactly one site |
//! | L6 | lock-order        | every `Mutex`/`RwLock` carries `// lint: lock-rank=N`; overlapping acquisitions strictly increase; no blocking under a held guard |
//! | L8 | hot-path-allocation | `// lint: hot` fns allocate only in their setup prefix |
//!
//! The engine analyzes a brace tree ([`tree`]) built over the token
//! stream — delimiter-matched token trees with item/fn/impl scopes and
//! `#[cfg(test)]` regions lifted into the IR — rather than flat token
//! scans, which is what makes scope-aware rules like L6 and L8
//! expressible. `tests/` and `benches/` trees are scanned too, by L6
//! only.
//!
//! Everything is hand-rolled on `std` (lexer included — see
//! [`lexer`]), consistent with the workspace's offline-shim policy:
//! no `syn`, no `serde`, no registry access.

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod tree;

pub use config::Config;
pub use diag::{validate_lint_schema, Diagnostic, FixEdit, Summary};
pub use rules::analyze_files;

use std::io;
use std::path::{Path, PathBuf};

/// Collects the analyzable source files of the workspace rooted at
/// `root`: every `.rs` file under `crates/*/src` (bin targets
/// included) plus `crates/*/tests` and `crates/*/benches`, as
/// repo-relative `/`-separated paths with contents, sorted for
/// determinism.
///
/// `tests/` and `benches/` files run only the lock-order rule (L6).
/// `examples/` stays out of scope.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let crates_dir = root.join("crates");
    let mut rs_files = Vec::new();
    for krate in read_dir_sorted(&crates_dir)? {
        for sub in ["src", "tests", "benches"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                walk_rs(&dir, &mut rs_files)?;
            }
        }
    }
    let mut out = Vec::with_capacity(rs_files.len());
    for path in rs_files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, std::fs::read_to_string(&path)?));
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            walk_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// A full analyzer run over the workspace.
#[derive(Debug)]
pub struct Run {
    /// All diagnostics, sorted by `(file, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Run counts.
    pub summary: Summary,
}

impl Run {
    /// Whether the gate passes: the run found no diagnostics at all.
    pub fn passed(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Scans the workspace at `root` and runs every rule.
pub fn run_check(root: &Path, cfg: &Config) -> io::Result<Run> {
    let files = collect_workspace_files(root)?;
    let diagnostics = analyze_files(&files, cfg);
    let summary = Summary { files: files.len() as u64, diagnostics: diagnostics.len() as u64 };
    Ok(Run { diagnostics, summary })
}
