//! `locap-lint` — a dependency-free, workspace-aware static analyzer
//! that enforces the execution-core contracts mechanically.
//!
//! PRs 2–4 bought this workspace three invariants by hand: a panic-free
//! execution core with typed `RunError`s, deterministic budgets that
//! never read the wall clock themselves, and an observability registry
//! where every metric is published from one place. The paper's whole
//! argument is that guarantees must hold *mechanically* — Göös,
//! Hirvonen and Suomela eliminate the informal slack between ID and PO
//! by construction, not by inspection — and this crate applies the same
//! spirit to the codebase: seven repo-specific lints, run in CI, with a
//! ratcheting baseline so existing debt is visible, justified and only
//! allowed to shrink.
//!
//! The rules (see [`diag::RULES`] for the catalogue):
//!
//! | id | name | contract |
//! |----|------|----------|
//! | L1 | panic-discipline  | no `unwrap`/`expect`/`panic!`/`unreachable!`/direct indexing in the execution core |
//! | L2 | clock-discipline  | `Instant::now`/`SystemTime::now` only at allowlisted sites |
//! | L3 | counter-discipline | metric names are consts, each constructed at exactly one site |
//! | L4 | forbid-unsafe     | every crate root carries `#![forbid(unsafe_code)]` |
//! | L6 | lock-order        | every `Mutex`/`RwLock` carries `// lint: lock-rank=N`; overlapping acquisitions strictly increase; no blocking under a held guard |
//! | L7 | poison-discipline | post-lock `unwrap`/`expect`/`unwrap_or_else` only inside the one poison-recovery helper per crate |
//! | L8 | hot-path-allocation | `// lint: hot` fns allocate only in their setup prefix |
//!
//! Since v2 the engine analyzes a brace tree ([`tree`]) built over the
//! token stream — delimiter-matched token trees with item/fn/impl
//! scopes and `#[cfg(test)]` regions lifted into the IR — rather than
//! flat token scans, which is what makes scope-aware rules like L6–L8
//! expressible. `tests/` and `benches/` trees are scanned too (L6/L7
//! only) and ratchet in their own baseline section.
//!
//! Everything is hand-rolled on `std` (lexer included — see
//! [`lexer`]), consistent with the workspace's offline-shim policy:
//! no `syn`, no `serde`, no registry access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod tree;

pub use baseline::{Baseline, BaselineEntry, RatchetOutcome, Section};
pub use config::Config;
pub use diag::{validate_lint_schema, DiagStatus, Diagnostic, FixEdit, Summary};
pub use rules::analyze_files;

use std::io;
use std::path::{Path, PathBuf};

/// Collects the analyzable source files of the workspace rooted at
/// `root`: every `.rs` file under `crates/*/src` (bin targets
/// included) plus `crates/*/tests` and `crates/*/benches`, as
/// repo-relative `/`-separated paths with contents, sorted for
/// determinism.
///
/// `tests/` and `benches/` files are in scope since v2 — they run only
/// the concurrency rules (L6/L7; see [`baseline::Section`]) and
/// ratchet in the baseline's `test_entries` section. `examples/` stays
/// out of scope.
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

/// A full analyzer run: scan, analyze, ratchet against the baseline.
#[derive(Debug)]
pub struct Run {
    /// All diagnostics, ratchet status filled in.
    pub diagnostics: Vec<Diagnostic>,
    /// Run counts.
    pub summary: Summary,
    /// Ratchet failures (empty means the gate passes).
    pub failures: Vec<String>,
}

impl Run {
    /// Whether the gate passes (no new violations, no stale baseline).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Scans the workspace at `root` and ratchets against `baseline`.
pub fn run_check(root: &Path, cfg: &Config, baseline: &Baseline) -> io::Result<Run> {
    let files = collect_workspace_files(root)?;
    let mut diagnostics = analyze_files(&files, cfg);
    let outcome = baseline.ratchet(&mut diagnostics);
    let baselined = diagnostics.iter().filter(|d| d.status == DiagStatus::Baselined).count() as u64;
    let summary = Summary {
        files: files.len() as u64,
        diagnostics: diagnostics.len() as u64,
        baselined,
        new: diagnostics.len() as u64 - baselined,
        stale: outcome.stale,
    };
    Ok(Run { diagnostics, summary, failures: outcome.failures })
}
