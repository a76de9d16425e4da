//! L8, hot-path allocation: the one contract rule that rustc and clippy
//! cannot check.
//!
//! Fns annotated `// lint: hot` may only allocate in their setup prefix
//! (everything before the `// lint: hot-setup-end` line); past it,
//! allocating constructors need a justified per-line
//! `// lint: hot-allow(reason)`. A `lint: hot` marker that annotates no
//! fn is itself a violation, so a misplaced marker cannot silently drop a
//! fn out of the rule. The rule stays lexical because counting the
//! allocations a fn makes at run time needs a counting global allocator,
//! an `unsafe impl GlobalAlloc`, and the workspace forbids unsafe code.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileInfo, FnItem};

/// Heap-allocating constructors L8 forbids past the setup prefix.
const HOT_ALLOC_TYPES: &[&str] =
    &["Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque"];

/// Runs L8 over `files` (`(repo-relative path, contents)` pairs) and
/// returns the diagnostics sorted by `(file, line, col)`. This is the
/// pure core of the analyzer; [`crate::run_check`] wraps it with
/// filesystem walking.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (path, text) in files {
        check_hot_allocation(&FileInfo::new(path.clone(), text.clone()), &mut diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    diags
}

fn push(diags: &mut Vec<Diagnostic>, f: &FileInfo, off: usize, msg: String) {
    let (line, col) = f.line_col(off);
    diags.push(Diagnostic::new("L8", &f.path, line, col, msg));
}

fn check_hot_allocation(f: &FileInfo, diags: &mut Vec<Diagnostic>) {
    let mut claimed = Vec::new();
    for item in f.fns() {
        let Some(marker_line) = hot_marker_line(f, &item) else { continue };
        claimed.push(marker_line);
        let (body_line, _) = f.line_col(item.body_start);
        let (end_line, _) = f.line_col(item.body_end.saturating_sub(1));
        let setup_end = f
            .markers
            .range(body_line..=end_line)
            .find(|(_, m)| m.contains("hot-setup-end"))
            .map_or(item.body_start, |(&l, _)| f.line_offset(l + 1));
        let kind_at = |k: usize| (k < f.sig.len()).then(|| f.sig_kind(k));
        for i in f.sig_index_at(setup_end)..f.sig_index_at(item.body_end) {
            if f.sig_kind(i) != TokenKind::Ident {
                continue;
            }
            let t = f.sig_text(i);
            let what = if matches!(t, "format" | "vec")
                && kind_at(i + 1) == Some(TokenKind::Punct(b'!'))
            {
                format!("{t}!")
            } else if matches!(t, "to_string" | "to_owned" | "clone")
                && i > 0
                && f.sig_kind(i - 1) == TokenKind::Punct(b'.')
                && kind_at(i + 1) == Some(TokenKind::Punct(b'('))
            {
                format!(".{t}()")
            } else if HOT_ALLOC_TYPES.contains(&t)
                && kind_at(i + 1) == Some(TokenKind::ColonColon)
                && kind_at(i + 2) == Some(TokenKind::Ident)
                && matches!(f.sig_text(i + 2), "new" | "with_capacity")
            {
                format!("{t}::{}", f.sig_text(i + 2))
            } else {
                continue;
            };
            let off = f.sig_start(i);
            match f.marker_on(f.line_col(off).0).and_then(hot_allow_reason) {
                Some(reason) if reason.is_empty() => push(
                    diags,
                    f,
                    off,
                    "`lint: hot-allow` without a reason — justify the allocation or remove the \
                     escape hatch"
                        .into(),
                ),
                Some(_) => {}
                None => push(
                    diags,
                    f,
                    off,
                    format!(
                        "`{what}` in hot fn `{}` past the setup prefix — hot paths reuse scratch \
                         buffers; allocate before `// lint: hot-setup-end` or justify with \
                         `// lint: hot-allow(reason)`",
                        item.name
                    ),
                ),
            }
        }
    }
    for (&line, m) in &f.markers {
        if has_hot_marker(m) && !claimed.contains(&line) {
            push(
                diags,
                f,
                f.line_offset(line),
                "`// lint: hot` annotates no fn — put it on the `fn` line or in the \
                 doc/attribute block directly above it"
                    .into(),
            );
        }
    }
}

/// The line of the `// lint: hot` marker annotating a fn, if any: the
/// header lines from its first attribute down to the `fn` keyword, or the
/// contiguous doc/attribute/comment block above.
fn hot_marker_line(f: &FileInfo, item: &FnItem) -> Option<usize> {
    let (kw_line, _) = f.line_col(item.keyword);
    let (header_line, _) = f.line_col(item.header_start);
    if let Some((&line, _)) =
        f.markers.range(header_line..=kw_line).find(|(_, m)| has_hot_marker(m))
    {
        return Some(line);
    }
    let mut line = header_line;
    while line > 1 {
        let above = f.nth_line(line - 1).trim_start();
        if !(above.starts_with("//") || above.starts_with("#[")) {
            break;
        }
        line -= 1;
        if f.marker_on(line).is_some_and(has_hot_marker) {
            return Some(line);
        }
    }
    None
}

/// `lint: hot` exactly — not `hot-setup-end`, not `hot-allow(…)`.
fn has_hot_marker(m: &str) -> bool {
    m.match_indices("lint: hot")
        .any(|(i, pat)| match m.as_bytes().get(i + pat.len()) {
            None => true,
            Some(&b) => b != b'-' && !b.is_ascii_alphanumeric() && b != b'_',
        })
}

/// The reason inside `hot-allow(reason)`, if the marker carries one.
fn hot_allow_reason(m: &str) -> Option<String> {
    let i = m.find("hot-allow(")?;
    let rest = &m[i + "hot-allow(".len()..];
    let end = rest.find(')')?;
    Some(rest[..end].trim().to_string())
}
