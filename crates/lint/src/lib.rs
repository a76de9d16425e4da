//! `locap-lint` — a dependency-free workspace analyzer for the one
//! execution-core contract that rustc, clippy and the workspace's own
//! types cannot check: hot-path allocation (L8).
//!
//! The paper's whole argument is that guarantees must hold
//! *mechanically* — Göös, Hirvonen and Suomela eliminate the informal
//! slack between ID and PO by construction, not by inspection — and the
//! workspace follows it: each contract is held by the toolchain or by a
//! type wherever one can hold it. `unsafe_code = "forbid"` is a
//! workspace lint; the panic-free core is eight clippy restriction lints
//! denied at each of its scope roots; clock and poison discipline are
//! clippy's `disallowed-methods` list in `clippy.toml`; lock order is
//! the rank of `locap_obs::sync::Mutex`, checked at every acquisition in
//! debug builds; and each metric name's single construction site is
//! checked by the `locap_obs` registry in debug builds.
//!
//! What is left is L8 (see [`diag::RULES`]): fns annotated
//! `// lint: hot` allocate only in their setup prefix. Counting a fn's
//! allocations at run time would need a counting global allocator, an
//! `unsafe impl GlobalAlloc`, so the rule stays lexical: it finds each
//! fn's body by brace depth over the lexer's significant tokens
//! ([`source::FileInfo::fns`]). It runs in every `cargo test` as the
//! `workspace_is_clean` test and fails on any diagnostic.
//!
//! Everything is hand-rolled on `std` (lexer included — see
//! [`lexer`]), consistent with the workspace's offline-shim policy:
//! no `syn`, no registry access.

#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::Diagnostic;
pub use rules::analyze_files;

use std::io;
use std::path::{Path, PathBuf};

/// Collects the analyzable source files of the workspace rooted at
/// `root`: every `.rs` file under `crates/*/src` (bin targets included),
/// as repo-relative `/`-separated paths with contents, sorted for
/// determinism. Tests, benches and examples are out of scope.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut rs_files = Vec::new();
    for krate in read_dir_sorted(&root.join("crates"))? {
        let dir = krate.join("src");
        if dir.is_dir() {
            walk_rs(&dir, &mut rs_files)?;
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

/// Scans the workspace at `root` and returns every diagnostic, sorted by
/// `(file, line, col)`; the gate passes when there are none.
pub fn run_check(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(analyze_files(&collect_workspace_files(root)?))
}
