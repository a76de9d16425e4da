//! The seven contract rules.
//!
//! L1–L4 are linear scans over the significant tokens of a file
//! (trivia stripped, literals opaque), with the test / `# Panics`
//! regions from [`crate::source`] masking exempt code. The v2 rules
//! lean on the brace tree ([`crate::tree`]): L6 (lock-order) resolves
//! guard lifetimes against enclosing blocks and runs crate-wide so
//! ranks declared in one file bind call sites in another; L7 (poison
//! discipline) exempts exactly the allowlisted helper fn bodies; L8
//! (hot-path allocation) ties `// lint: hot` annotations to fn scopes.
//! L3's duplicate-registration half and L6 need more than one file, so
//! [`analyze_files`] runs per-file rules first and cross-file passes
//! after.
//!
//! Files under `tests/` and `benches/` (the [`Section::Test`] section)
//! only run the concurrency rules L6/L7 — panic/clock/metric freedom
//! is the point of test code, but a deadlock in a test harness hangs
//! CI just as hard as one in the daemon.

use std::collections::{BTreeMap, BTreeSet};

use crate::baseline::Section;
use crate::config::Config;
use crate::diag::{Diagnostic, FixEdit};
use crate::lexer::{str_value, Doc, TokenKind};
use crate::source::FileInfo;
use crate::tree::{Delim, ScopeKind};

/// Keywords that may legally precede `[` without forming an indexing
/// expression (`return [..]`, `match x { .. }`, array types, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Macro-call names L1 forbids in the execution core.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs every rule over `files` (`(repo-relative path, contents)`
/// pairs) and returns the diagnostics sorted by `(file, line, col,
/// rule)`. This is the pure core of the analyzer — the CLI wraps it
/// with filesystem walking and baseline ratcheting.
pub fn analyze_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let infos: Vec<FileInfo> = files
        .iter()
        .map(|(path, text)| FileInfo::new(path.clone(), text.clone()))
        .collect();
    let mut diags = Vec::new();
    let mut metric_sites: Vec<MetricSite> = Vec::new();
    for info in &infos {
        if Section::of(&info.path) == Section::Src {
            check_panic_discipline(info, cfg, &mut diags);
            check_clock_discipline(info, cfg, &mut diags);
            collect_metric_sites(info, cfg, &mut metric_sites, &mut diags);
            check_forbid_unsafe(info, &mut diags);
            check_hot_allocation(info, &mut diags);
        }
        check_poison_discipline(info, cfg, &mut diags);
    }
    check_duplicate_registration(&metric_sites, &mut diags);
    check_lock_order(&infos, cfg, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diags
}

fn push(diags: &mut Vec<Diagnostic>, rule: &'static str, f: &FileInfo, off: usize, msg: String) {
    let (line, col) = f.line_col(off);
    diags.push(Diagnostic::new(rule, &f.path, line, col, msg));
}

/// L1: no panicking constructs in the execution core.
fn check_panic_discipline(f: &FileInfo, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if !cfg.in_panic_scope(&f.path) {
        return;
    }
    let n = f.sig.len();
    for i in 0..n {
        let off = f.sig_start(i);
        if f.in_test(off) || f.in_panics_fn(off) {
            continue;
        }
        match f.sig_kind(i) {
            TokenKind::Ident => {
                let name = f.sig_text(i);
                let prev_dot = i > 0 && f.sig_kind(i - 1) == TokenKind::Punct(b'.');
                let next_paren = i + 1 < n && f.sig_kind(i + 1) == TokenKind::Punct(b'(');
                let next_bang = i + 1 < n && f.sig_kind(i + 1) == TokenKind::Punct(b'!');
                if prev_dot && next_paren && matches!(name, "unwrap" | "expect") {
                    push(
                        diags,
                        "L1",
                        f,
                        off,
                        format!(
                            ".{name}() in the execution core — return a typed \
                             RunError/CoreError (or document the contract under `# Panics`)"
                        ),
                    );
                } else if next_bang && PANIC_MACROS.contains(&name) {
                    push(
                        diags,
                        "L1",
                        f,
                        off,
                        format!(
                            "{name}! in the execution core — return a typed error (or \
                             document the contract under `# Panics`)"
                        ),
                    );
                }
            }
            TokenKind::Punct(b'[') if i > 0 => {
                let indexee = match f.sig_kind(i - 1) {
                    TokenKind::Ident if !NON_INDEX_KEYWORDS.contains(&f.sig_text(i - 1)) => {
                        Some(f.sig_text(i - 1))
                    }
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => Some(""),
                    _ => None,
                };
                if let Some(base) = indexee {
                    let what = if base.is_empty() {
                        "direct slice indexing".to_string()
                    } else {
                        format!("direct slice indexing `{base}[…]`")
                    };
                    push(
                        diags,
                        "L1",
                        f,
                        off,
                        format!("{what} in the execution core — prefer .get()/error paths"),
                    );
                }
            }
            _ => {}
        }
    }
}

/// L2: wall-clock reads only at allowlisted sites.
fn check_clock_discipline(f: &FileInfo, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let n = f.sig.len();
    let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
    for i in 0..n.saturating_sub(2) {
        if f.sig_kind(i) != TokenKind::Ident
            || f.sig_kind(i + 1) != TokenKind::ColonColon
            || f.sig_kind(i + 2) != TokenKind::Ident
            || f.sig_text(i + 2) != "now"
        {
            continue;
        }
        let symbol: &'static str = match f.sig_text(i) {
            "Instant" => "Instant::now",
            "SystemTime" => "SystemTime::now",
            _ => continue,
        };
        let off = f.sig_start(i);
        if f.in_test(off) {
            continue;
        }
        let count = seen.entry(symbol).or_insert(0);
        *count += 1;
        match cfg.clock_allowance(&f.path, symbol) {
            Some(allow) if *count <= allow.max => {}
            Some(allow) => push(
                diags,
                "L2",
                f,
                off,
                format!(
                    "{symbol} beyond this file's allowance of {} (allowlisted because: {}) — \
                     route timing through the budget clock or locap_bench::timed",
                    allow.max, allow.reason
                ),
            ),
            None => push(
                diags,
                "L2",
                f,
                off,
                format!(
                    "{symbol} outside the clock allowlist — take a MonotonicClock (budgets) or \
                     use locap_bench::timed so runs stay deterministic"
                ),
            ),
        }
    }
}

/// One obs metric construction site, keyed for duplicate detection.
#[derive(Debug)]
struct MetricSite {
    /// `name:<resolved>` for const names, `fmt:<template>` for
    /// `format!` families.
    key: String,
    file: String,
    line: usize,
    col: usize,
}

/// L3 (per-file half): metric names must be consts or const-`format!`
/// templates; collects construction sites for the cross-file pass.
fn collect_metric_sites(
    f: &FileInfo,
    cfg: &Config,
    sites: &mut Vec<MetricSite>,
    diags: &mut Vec<Diagnostic>,
) {
    if cfg.counter_exempt(&f.path) {
        return;
    }
    let consts = const_str_decls(f);
    let mut hoisted: BTreeMap<String, String> = BTreeMap::new();
    let n = f.sig.len();
    for i in 0..n {
        if f.sig_kind(i) != TokenKind::Ident
            || !matches!(f.sig_text(i), "counter" | "gauge" | "span_histogram" | "latency")
        {
            continue;
        }
        let qualified =
            i > 0 && matches!(f.sig_kind(i - 1), TokenKind::ColonColon | TokenKind::Punct(b'.'));
        let called = i + 1 < n && f.sig_kind(i + 1) == TokenKind::Punct(b'(');
        if !qualified || !called {
            continue;
        }
        let off = f.sig_start(i);
        if f.in_test(off) {
            continue;
        }
        // first argument, skipping leading `&`
        let mut a = i + 2;
        while a < n && f.sig_kind(a) == TokenKind::Punct(b'&') {
            a += 1;
        }
        if a >= n {
            continue;
        }
        let (line, col) = f.line_col(off);
        let record = |sites: &mut Vec<MetricSite>, key: String| {
            sites.push(MetricSite { key, file: f.path.clone(), line, col });
        };
        match f.sig_kind(a) {
            TokenKind::Str => {
                let fixes = hoist_const_fix(f, &consts, &mut hoisted, a);
                diags.push(
                    Diagnostic::new(
                        "L3",
                        &f.path,
                        line,
                        col,
                        format!(
                            "inline metric name {} — declare it as a `const` so the registry \
                             has one authoritative spelling",
                            f.sig_text(a)
                        ),
                    )
                    .with_fixes(fixes),
                );
            }
            TokenKind::Ident if f.sig_text(a) == "format" => {
                // &format!("template", …): the template is the family name
                let template = (a + 1..n.min(a + 4))
                    .find(|&j| f.sig_kind(j) == TokenKind::Str)
                    .and_then(|j| str_value(f.sig_text(j)));
                match template {
                    Some(t) => record(sites, format!("fmt:{t}")),
                    None => push(
                        diags,
                        "L3",
                        f,
                        off,
                        "format!-built metric name without a literal template — the name \
                         family must be statically visible"
                            .into(),
                    ),
                }
            }
            TokenKind::Ident => {
                let name = f.sig_text(a);
                match consts.get(name) {
                    Some(value) => record(sites, format!("name:{value}")),
                    None => push(
                        diags,
                        "L3",
                        f,
                        off,
                        format!(
                            "metric name `{name}` does not resolve to a `const &str` declared \
                             in this file"
                        ),
                    ),
                }
            }
            _ => push(
                diags,
                "L3",
                f,
                off,
                "metric name must be a `const` identifier or a literal format! template".into(),
            ),
        }
    }
}

/// `const NAME: … = "value";` declarations in a file.
fn const_str_decls(f: &FileInfo) -> BTreeMap<&str, String> {
    let mut out = BTreeMap::new();
    let n = f.sig.len();
    for i in 0..n.saturating_sub(3) {
        if f.sig_kind(i) != TokenKind::Ident || f.sig_text(i) != "const" {
            continue;
        }
        if f.sig_kind(i + 1) != TokenKind::Ident || f.sig_kind(i + 2) != TokenKind::Punct(b':') {
            continue;
        }
        // scan a short window for `= "literal"`
        for j in i + 3..n.min(i + 12) {
            match f.sig_kind(j) {
                TokenKind::Punct(b'=') => {
                    if j + 1 < n && f.sig_kind(j + 1) == TokenKind::Str {
                        if let Some(v) = str_value(f.sig_text(j + 1)) {
                            out.insert(f.sig_text(i + 1), v);
                        }
                    }
                    break;
                }
                TokenKind::Punct(b';') | TokenKind::Punct(b'{') => break,
                _ => {}
            }
        }
    }
    out
}

/// L3 (cross-file half): each metric name/family has exactly one
/// construction site in the workspace.
fn check_duplicate_registration(sites: &[MetricSite], diags: &mut Vec<Diagnostic>) {
    let mut by_key: BTreeMap<&str, Vec<&MetricSite>> = BTreeMap::new();
    for s in sites {
        by_key.entry(&s.key).or_default().push(s);
    }
    for (key, group) in by_key {
        if group.len() <= 1 {
            continue;
        }
        let mut sorted: Vec<&&MetricSite> = group.iter().collect();
        sorted.sort_by_key(|s| (&s.file, s.line, s.col));
        let first = sorted[0];
        let name = key.split_once(':').map_or(key, |(_, v)| v);
        for dup in &sorted[1..] {
            diags.push(Diagnostic::new(
                "L3",
                &dup.file,
                dup.line,
                dup.col,
                format!(
                    "metric name \"{name}\" is constructed at {} site(s); hoist the handle — \
                     first construction at {}:{} (the publish-twice bug class)",
                    sorted.len(),
                    first.file,
                    first.line
                ),
            ));
        }
    }
}

/// L4: crate roots carry `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(f: &FileInfo, diags: &mut Vec<Diagnostic>) {
    if !is_crate_root(&f.path) {
        return;
    }
    let n = f.sig.len();
    let has_forbid = (0..n.saturating_sub(7)).any(|i| {
        f.sig_kind(i) == TokenKind::Punct(b'#')
            && f.sig_kind(i + 1) == TokenKind::Punct(b'!')
            && f.sig_kind(i + 2) == TokenKind::Punct(b'[')
            && f.sig_kind(i + 3) == TokenKind::Ident
            && f.sig_text(i + 3) == "forbid"
            && f.sig_kind(i + 4) == TokenKind::Punct(b'(')
            && f.sig_text(i + 5) == "unsafe_code"
            && f.sig_kind(i + 6) == TokenKind::Punct(b')')
            && f.sig_kind(i + 7) == TokenKind::Punct(b']')
    });
    if !has_forbid {
        // insert after the leading inner-doc block, before the first
        // real item, keeping the `//! docs … blank … attr` convention
        let insert_at = f
            .tokens
            .iter()
            .find(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace
                        | TokenKind::LineComment(Doc::Inner)
                        | TokenKind::BlockComment(Doc::Inner)
                )
            })
            .map_or(f.text.len(), |t| f.line_start_of(t.start));
        diags.push(
            Diagnostic::new(
                "L4",
                &f.path,
                1,
                1,
                "crate root lacks #![forbid(unsafe_code)] — every locap crate (including bin \
                 targets, which are their own crate roots) must forbid unsafe"
                    .into(),
            )
            .with_fixes(vec![FixEdit {
                start: insert_at,
                end: insert_at,
                text: "#![forbid(unsafe_code)]\n\n".into(),
            }]),
        );
    }
}

/// Whether `path` is a crate root the analyzer scans: `src/lib.rs`,
/// `src/main.rs` or `src/bin/*.rs` of a workspace crate.
fn is_crate_root(path: &str) -> bool {
    if !path.starts_with("crates/") {
        return false;
    }
    path.ends_with("/src/lib.rs")
        || path.ends_with("/src/main.rs")
        || (path.contains("/src/bin/") && path.ends_with(".rs"))
}

/// Builds the const-hoisting fix for an inline metric name: declare
/// `const NAME: &str = "value";` above the enclosing item (docs and
/// attributes included, so they stay attached to their item) and
/// replace the literal with `NAME`. Reuses an existing same-value
/// const (including one hoisted earlier in this run — `hoisted` maps
/// value → name of consts already scheduled for this file); bails (no
/// fix) on a name collision with a different value.
fn hoist_const_fix(
    f: &FileInfo,
    consts: &BTreeMap<&str, String>,
    hoisted: &mut BTreeMap<String, String>,
    a: usize,
) -> Vec<FixEdit> {
    let lit = f.tokens[f.sig[a]];
    let Some(value) = str_value(lit.text(&f.text)) else { return Vec::new() };
    if let Some((name, _)) = consts.iter().find(|(_, v)| **v == value) {
        return vec![FixEdit { start: lit.start, end: lit.end, text: (*name).to_string() }];
    }
    if let Some(name) = hoisted.get(&value) {
        return vec![FixEdit { start: lit.start, end: lit.end, text: name.clone() }];
    }
    let mut name: String = value
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { '_' })
        .collect();
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        name.insert_str(0, "M_");
    }
    if consts.contains_key(name.as_str()) || hoisted.values().any(|n| *n == name) {
        return Vec::new();
    }
    hoisted.insert(value, name.clone());
    let anchor = f.fn_scope_at(lit.start).map_or(lit.start, |s| s.header_start);
    let mut ls = f.line_start_of(anchor);
    while ls > 0 {
        let prev = f.line_start_of(ls - 1);
        let t = f.text[prev..ls - 1].trim_start();
        if t.starts_with("///")
            || (t.starts_with("//") && !t.starts_with("//!"))
            || t.starts_with("#[")
        {
            ls = prev;
        } else {
            break;
        }
    }
    vec![
        FixEdit {
            start: ls,
            end: ls,
            text: format!("const {name}: &str = {};\n\n", lit.text(&f.text)),
        },
        FixEdit { start: lit.start, end: lit.end, text: name },
    ]
}

/// L7: post-lock `unwrap`/`expect`/`unwrap_or_else` outside the
/// allowlisted poison-recovery helper of the crate. Poisoning must be
/// handled in exactly one audited place per crate, as a typed, counted
/// event — scattered inline recovery (or a silent thread abort) is the
/// debt this rule ratchets out.
fn check_poison_discipline(f: &FileInfo, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let helpers = cfg.lock_helper_names(&f.path);
    let n = f.sig.len();
    for i in 0..n {
        if f.sig_kind(i) != TokenKind::Ident || !matches!(f.sig_text(i), "lock" | "read" | "write")
        {
            continue;
        }
        let prev_dot = i > 0 && f.sig_kind(i - 1) == TokenKind::Punct(b'.');
        let empty_call = i + 2 < n
            && f.sig_kind(i + 1) == TokenKind::Punct(b'(')
            && f.sig_kind(i + 2) == TokenKind::Punct(b')');
        if !prev_dot || !empty_call || i + 5 >= n {
            continue;
        }
        if f.sig_kind(i + 3) != TokenKind::Punct(b'.') || f.sig_kind(i + 4) != TokenKind::Ident {
            continue;
        }
        let method = f.sig_text(i + 4);
        if !matches!(method, "unwrap" | "expect" | "unwrap_or_else")
            || f.sig_kind(i + 5) != TokenKind::Punct(b'(')
        {
            continue;
        }
        let off = f.sig_start(i + 4);
        if f.in_test(off) {
            continue;
        }
        let in_helper = f
            .fn_scope_at(off)
            .and_then(|s| s.name.as_deref())
            .is_some_and(|name| helpers.contains(&name));
        if in_helper {
            continue;
        }
        let hint = if helpers.is_empty() {
            "add a poison-recovery helper for this crate and allowlist it in Config::locap"
                .to_string()
        } else {
            format!("route it through `{}`", helpers.join("`/`"))
        };
        push(
            diags,
            "L7",
            f,
            off,
            format!(
                ".{}().{method}(…) outside the poison-recovery helper — poisoning must become \
                 a typed, counted event, never a silent thread death; {hint}",
                f.sig_text(i)
            ),
        );
    }
}

/// Heap-allocating constructors L8 forbids past the setup prefix.
const HOT_ALLOC_TYPES: &[&str] =
    &["Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque"];

/// L8: hot-path allocation discipline. Fns annotated `// lint: hot`
/// may only allocate in their setup prefix (everything before the
/// `// lint: hot-setup-end` line); past it, allocating constructors
/// need a justified per-line `// lint: hot-allow(reason)`.
fn check_hot_allocation(f: &FileInfo, diags: &mut Vec<Diagnostic>) {
    for scope in f.scopes.iter().filter(|s| s.kind == ScopeKind::Fn) {
        if !fn_is_hot(f, scope) {
            continue;
        }
        let name = scope.name.clone().unwrap_or_default();
        let (body_line, _) = f.line_col(scope.body_start);
        let (end_line, _) = f.line_col(scope.body_end.saturating_sub(1));
        let mut setup_end = scope.body_start;
        for (&l, m) in f.markers.range(body_line..=end_line) {
            if m.contains("hot-setup-end") {
                setup_end = f.line_offset(l + 1);
                break;
            }
        }
        let lo = f.sig_index_at(setup_end);
        let hi = f.sig_index_at(scope.body_end);
        for i in lo..hi {
            let off = f.sig_start(i);
            if f.in_test(off) || f.sig_kind(i) != TokenKind::Ident {
                continue;
            }
            let t = f.sig_text(i);
            let kind_at = |k: usize| (k < f.sig.len()).then(|| f.sig_kind(k));
            let what = if matches!(t, "format" | "vec")
                && kind_at(i + 1) == Some(TokenKind::Punct(b'!'))
            {
                Some(format!("{t}!"))
            } else if matches!(t, "to_string" | "to_owned" | "clone")
                && i > 0
                && f.sig_kind(i - 1) == TokenKind::Punct(b'.')
                && kind_at(i + 1) == Some(TokenKind::Punct(b'('))
            {
                Some(format!(".{t}()"))
            } else if HOT_ALLOC_TYPES.contains(&t)
                && kind_at(i + 1) == Some(TokenKind::ColonColon)
                && kind_at(i + 2) == Some(TokenKind::Ident)
                && matches!(f.sig_text(i + 2), "new" | "with_capacity")
            {
                Some(format!("{t}::{}", f.sig_text(i + 2)))
            } else {
                None
            };
            let Some(what) = what else { continue };
            let (line, _) = f.line_col(off);
            if let Some(m) = f.marker_on(line) {
                if let Some(reason) = hot_allow_reason(m) {
                    if reason.is_empty() {
                        push(
                            diags,
                            "L8",
                            f,
                            off,
                            "`lint: hot-allow` without a reason — justify the allocation \
                             or remove the escape hatch"
                                .into(),
                        );
                    }
                    continue;
                }
            }
            push(
                diags,
                "L8",
                f,
                off,
                format!(
                    "`{what}` in hot fn `{name}` past the setup prefix — hot paths reuse \
                     scratch buffers; allocate before `// lint: hot-setup-end` or justify \
                     with `// lint: hot-allow(reason)`"
                ),
            );
        }
    }
}

/// Whether a fn scope carries the `// lint: hot` annotation, on the
/// `fn` line or in the contiguous doc/attribute/comment block above.
fn fn_is_hot(f: &FileInfo, scope: &crate::tree::Scope) -> bool {
    let (kw_line, _) = f.line_col(scope.keyword);
    if f.marker_on(kw_line).is_some_and(has_hot_marker) {
        return true;
    }
    let (mut line, _) = f.line_col(scope.header_start);
    while line > 1 {
        let above = f.nth_line(line - 1);
        let t = above.trim_start();
        if !(t.starts_with("//") || t.starts_with("#[")) {
            break;
        }
        line -= 1;
        if f.marker_on(line).is_some_and(has_hot_marker) {
            return true;
        }
    }
    false
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

/// Method names whose call blocks (channel ops and blocking I/O). L6
/// forbids them while a ranked guard is held, unless the call goes
/// through the guard binding itself (blocking through the guarded
/// resource is the point of holding the guard — e.g. the worker pool's
/// `rx.recv()` single-consumer handoff).
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_line",
    "read_until",
    "read_to_end",
    "read_to_string",
    "accept",
];

/// One ranked `Mutex`/`RwLock` declaration.
struct RankDecl {
    rank: u32,
    display: String,
    file: String,
    line: usize,
}

/// One guard acquisition inside a fn body, with its modeled lifetime.
struct LockEvent {
    mutex: String,
    rank: u32,
    acq: usize,
    release: usize,
    binding: Option<String>,
    line: usize,
}

/// Lock-relevant facts of one fn body.
struct FnLocks<'a> {
    f: &'a FileInfo,
    fn_name: String,
    events: Vec<LockEvent>,
    calls: Vec<(usize, String)>,
    blocking: Vec<(usize, String, Option<String>)>,
}

/// The crate bucket of a repo-relative path (`crates/<name>`).
fn crate_of(path: &str) -> String {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => path.rsplit_once('/').map_or_else(|| path.to_string(), |(d, _)| d.to_string()),
    }
}

/// L6: lock-order discipline, crate-wide. Every `Mutex`/`RwLock`
/// declaration (fields, statics, type aliases) must be annotated
/// `// lint: lock-rank=N`; overlapping guard acquisitions in a fn —
/// direct, or via a one-level call into the same crate — must strictly
/// increase in rank, and no blocking call may happen under a held
/// guard except through the guard binding itself. Ranks are *declared*
/// rather than inferred so the intended global order survives
/// refactors (see DESIGN.md).
fn check_lock_order(infos: &[FileInfo], cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let mut by_crate: BTreeMap<String, Vec<&FileInfo>> = BTreeMap::new();
    for f in infos {
        by_crate.entry(crate_of(&f.path)).or_default().push(f);
    }
    for files in by_crate.values() {
        let mut ranks: BTreeMap<String, RankDecl> = BTreeMap::new();
        for f in files {
            collect_rank_decls(f, &mut ranks, diags);
        }
        let mut fn_ranks: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        let mut analyses: Vec<FnLocks> = Vec::new();
        for f in files {
            let helpers = cfg.lock_helper_names(&f.path);
            for scope in f.scopes.iter().filter(|s| s.kind == ScopeKind::Fn) {
                let fa = collect_fn_locks(f, scope, &ranks, &helpers);
                for e in &fa.events {
                    fn_ranks.entry(fa.fn_name.clone()).or_default().insert(e.rank);
                }
                analyses.push(fa);
            }
        }
        for fa in &analyses {
            check_fn_lock_order(fa, &fn_ranks, diags);
        }
    }
}

/// Collects ranked declarations of a file; missing, placeholder,
/// unparseable and conflicting annotations are diagnostics.
fn collect_rank_decls(
    f: &FileInfo,
    ranks: &mut BTreeMap<String, RankDecl>,
    diags: &mut Vec<Diagnostic>,
) {
    let n = f.sig.len();
    let mut seen_lines: BTreeSet<usize> = BTreeSet::new();
    for i in 0..n {
        if f.sig_kind(i) != TokenKind::Ident || !matches!(f.sig_text(i), "Mutex" | "RwLock") {
            continue;
        }
        if i + 1 >= n || f.sig_kind(i + 1) != TokenKind::Punct(b'<') {
            continue;
        }
        let off = f.sig_start(i);
        if f.in_test(off) {
            continue;
        }
        // fn params, attribute args and tuple fields live in ()/[]
        // groups — not rankable declarations
        if matches!(
            f.tree.innermost_group_delim(&f.tokens, off),
            Some(Delim::Paren | Delim::Bracket)
        ) {
            continue;
        }
        // statement start (`,` counts: struct fields)
        let mut s = i;
        while s > 0 && !matches!(f.sig_kind(s - 1), TokenKind::Punct(b';' | b'{' | b'}' | b',')) {
            s -= 1;
        }
        // skip a visibility qualifier
        let mut first = s;
        if f.sig_kind(first) == TokenKind::Ident && f.sig_text(first) == "pub" {
            first += 1;
            if first < n && f.sig_kind(first) == TokenKind::Punct(b'(') {
                first = matching_close(f, first, n) + 1;
            }
        }
        let leading =
            if first < n && f.sig_kind(first) == TokenKind::Ident { f.sig_text(first) } else { "" };
        let is_field = f
            .innermost_scope(
                off,
                &[
                    ScopeKind::Fn,
                    ScopeKind::Struct,
                    ScopeKind::Enum,
                    ScopeKind::Union,
                    ScopeKind::Impl,
                    ScopeKind::Trait,
                    ScopeKind::Mod,
                    ScopeKind::Macro,
                ],
            )
            .is_some_and(|sc| {
                matches!(sc.kind, ScopeKind::Struct | ScopeKind::Enum | ScopeKind::Union)
            });
        let name = if matches!(leading, "static" | "type") {
            (first + 1 < n && f.sig_kind(first + 1) == TokenKind::Ident)
                .then(|| f.sig_text(first + 1).to_string())
        } else if is_field {
            (s..i).rev().find_map(|k| {
                (f.sig_kind(k) == TokenKind::Punct(b':')
                    && k > 0
                    && f.sig_kind(k - 1) == TokenKind::Ident)
                    .then(|| f.sig_text(k - 1).to_string())
            })
        } else {
            None
        };
        let Some(name) = name else { continue };
        let (line, _) = f.line_col(off);
        if !seen_lines.insert(line) {
            continue;
        }
        let ann = f.marker_on(line).or_else(|| f.marker_on(line.wrapping_sub(1)));
        match ann.and_then(parse_lock_rank).as_deref() {
            None => {
                let eol = f.line_end_of(off);
                diags.push(
                    Diagnostic::new(
                        "L6",
                        &f.path,
                        line,
                        off - f.line_start_of(off) + 1,
                        format!(
                            "{} `{name}` lacks a `// lint: lock-rank=N` annotation — declare \
                             its place in the crate's lock order so overlap analysis can see it",
                            f.sig_text(i)
                        ),
                    )
                    .with_fixes(vec![FixEdit {
                        start: eol,
                        end: eol,
                        text: " // lint: lock-rank=TODO".into(),
                    }]),
                );
            }
            Some("TODO") => push(
                diags,
                "L6",
                f,
                off,
                format!(
                    "placeholder `lock-rank=TODO` on `{name}` — pick its rank (acquisitions \
                     must strictly increase; see the README annotation grammar)"
                ),
            ),
            Some(v) => match v.parse::<u32>() {
                Err(_) => push(
                    diags,
                    "L6",
                    f,
                    off,
                    format!("unparseable lock-rank `{v}` on `{name}` — expected an integer"),
                ),
                Ok(r) => {
                    let key = name.to_ascii_lowercase();
                    match ranks.get(&key) {
                        Some(prev) if prev.rank != r => push(
                            diags,
                            "L6",
                            f,
                            off,
                            format!(
                                "conflicting lock-rank for `{name}`: {r} here vs {} at {}:{} — \
                                 one name resolves to one rank per crate",
                                prev.rank, prev.file, prev.line
                            ),
                        ),
                        Some(_) => {}
                        None => {
                            ranks.insert(
                                key,
                                RankDecl {
                                    rank: r,
                                    display: name.clone(),
                                    file: f.path.clone(),
                                    line,
                                },
                            );
                        }
                    }
                }
            },
        }
    }
}

/// The value of a `lock-rank=` marker.
fn parse_lock_rank(m: &str) -> Option<String> {
    let i = m.find("lock-rank=")?;
    let rest = &m[i + "lock-rank=".len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// Collects guard acquisitions, same-crate call sites and blocking
/// calls of one fn body (nested fn items excluded — they have their
/// own scope).
fn collect_fn_locks<'a>(
    f: &'a FileInfo,
    scope: &crate::tree::Scope,
    ranks: &BTreeMap<String, RankDecl>,
    helpers: &[&'static str],
) -> FnLocks<'a> {
    let lo = f.sig_index_at(scope.body_start);
    let hi = f.sig_index_at(scope.body_end);
    let mut out = FnLocks {
        f,
        fn_name: scope.name.clone().unwrap_or_default(),
        events: Vec::new(),
        calls: Vec::new(),
        blocking: Vec::new(),
    };
    for i in lo..hi {
        if f.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let off = f.sig_start(i);
        if f.in_test(off) || f.fn_scope_at(off).map(|s| s.body_start) != Some(scope.body_start) {
            continue;
        }
        let t = f.sig_text(i);
        let kind_at = |k: usize| (k < f.sig.len()).then(|| f.sig_kind(k));
        let prev_dot = i > lo && f.sig_kind(i - 1) == TokenKind::Punct(b'.');
        // direct acquisition: recv.lock() / .read() / .write(), no args
        if matches!(t, "lock" | "read" | "write")
            && prev_dot
            && kind_at(i + 1) == Some(TokenKind::Punct(b'('))
            && kind_at(i + 2) == Some(TokenKind::Punct(b')'))
        {
            if let Some(r) = receiver_before(f, i - 1) {
                if let Some(decl) = ranks.get(&r.to_ascii_lowercase()) {
                    let (binding, release) = guard_extent(f, scope, lo, hi, i, i + 2);
                    out.events.push(LockEvent {
                        mutex: decl.display.clone(),
                        rank: decl.rank,
                        acq: off,
                        release,
                        binding,
                        line: f.line_col(off).0,
                    });
                }
            }
            continue;
        }
        // blocking calls (channel / I/O)
        if BLOCKING_CALLS.contains(&t) && prev_dot && kind_at(i + 1) == Some(TokenKind::Punct(b'('))
        {
            let recv = (i >= 2 && f.sig_kind(i - 2) == TokenKind::Ident)
                .then(|| f.sig_text(i - 2).to_string());
            out.blocking.push((off, t.to_string(), recv));
            continue;
        }
        // helper-call acquisition: lock_or_recover(&self.subs)
        if helpers.contains(&t) && !prev_dot && kind_at(i + 1) == Some(TokenKind::Punct(b'(')) {
            if let Some(r) = helper_arg_receiver(f, i + 1, hi) {
                if let Some(decl) = ranks.get(&r.to_ascii_lowercase()) {
                    let close = matching_close(f, i + 1, hi);
                    let (binding, release) = guard_extent(f, scope, lo, hi, i, close);
                    out.events.push(LockEvent {
                        mutex: decl.display.clone(),
                        rank: decl.rank,
                        acq: off,
                        release,
                        binding,
                        line: f.line_col(off).0,
                    });
                }
            }
            continue;
        }
        // one-level same-crate free-fn call (ranks resolved later)
        if !prev_dot
            && kind_at(i + 1) == Some(TokenKind::Punct(b'('))
            && (i == 0 || f.sig_kind(i - 1) != TokenKind::ColonColon)
            && !NON_INDEX_KEYWORDS.contains(&t)
        {
            out.calls.push((off, t.to_string()));
        }
    }
    out
}

/// The receiver identifier before the `.` at sig index `dot`:
/// `name.lock()` and the accessor idiom `name().lock()` both resolve
/// to `name`.
fn receiver_before(f: &FileInfo, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let k = dot - 1;
    match f.sig_kind(k) {
        TokenKind::Ident => Some(f.sig_text(k).to_string()),
        TokenKind::Punct(b')')
            if k >= 2
                && f.sig_kind(k - 1) == TokenKind::Punct(b'(')
                && f.sig_kind(k - 2) == TokenKind::Ident =>
        {
            Some(f.sig_text(k - 2).to_string())
        }
        _ => None,
    }
}

/// Last path identifier of a helper call's first argument:
/// `helper(&self.subs)` → `subs`, `helper(writer)` → `writer`,
/// `helper(interner())` → `interner`.
fn helper_arg_receiver(f: &FileInfo, open: usize, hi: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut last: Option<String> = None;
    for j in open..hi.min(f.sig.len()) {
        match f.sig_kind(j) {
            TokenKind::Punct(b'(') => depth += 1,
            TokenKind::Punct(b')') => {
                if depth <= 1 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(b',') if depth == 1 => break,
            TokenKind::Ident if depth == 1 => {
                let t = f.sig_text(j);
                if t != "mut" {
                    last = Some(t.to_string());
                }
            }
            _ => {}
        }
    }
    last
}

/// Sig index of the `)` matching the `(` at sig index `open`.
fn matching_close(f: &FileInfo, open: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    for j in open..hi.min(f.sig.len()) {
        match f.sig_kind(j) {
            TokenKind::Punct(b'(') => depth += 1,
            TokenKind::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    hi.min(f.sig.len()).saturating_sub(1)
}

/// Models the lifetime of the guard acquired at sig index `start`
/// (call closing at `call_close`): `(binding, release byte offset)`.
///
/// A `let`-bound guard (possibly through an `unwrap`/`expect`/
/// `unwrap_or_else` combinator, then `;`) lives to its enclosing block
/// close, or to an explicit `drop(binding)`. Everything else is a
/// statement temporary: it dies at the statement's `;`, at the close
/// of the block expression ending the statement (`match m.lock() {…}`),
/// or where the enclosing block closes.
fn guard_extent(
    f: &FileInfo,
    scope: &crate::tree::Scope,
    lo: usize,
    hi: usize,
    start: usize,
    call_close: usize,
) -> (Option<String>, usize) {
    let n = f.sig.len();
    let mut s = start;
    while s > lo && !matches!(f.sig_kind(s - 1), TokenKind::Punct(b';' | b'{' | b'}')) {
        s -= 1;
    }
    let is_let = f.sig_kind(s) == TokenKind::Ident && f.sig_text(s) == "let";
    if is_let {
        // skip an allowed post-lock combinator chain; a direct `;`
        // after it means the binding IS the guard
        let mut j = call_close + 1;
        while j + 2 < n
            && f.sig_kind(j) == TokenKind::Punct(b'.')
            && f.sig_kind(j + 1) == TokenKind::Ident
            && matches!(f.sig_text(j + 1), "unwrap" | "expect" | "unwrap_or_else")
            && f.sig_kind(j + 2) == TokenKind::Punct(b'(')
        {
            j = matching_close(f, j + 2, hi) + 1;
        }
        if j < n && f.sig_kind(j) == TokenKind::Punct(b';') {
            let mut b = s + 1;
            if b < n && f.sig_kind(b) == TokenKind::Ident && f.sig_text(b) == "mut" {
                b += 1;
            }
            let binding =
                (b < n && f.sig_kind(b) == TokenKind::Ident).then(|| f.sig_text(b).to_string());
            let block_end = f
                .tree
                .enclosing_brace(&f.tokens, f.sig_start(start))
                .map_or(scope.body_end, |(_, e)| e);
            let mut release = block_end;
            if let Some(name) = &binding {
                for k in call_close..hi.min(n).saturating_sub(3) {
                    if f.sig_start(k) >= block_end {
                        break;
                    }
                    if f.sig_kind(k) == TokenKind::Ident
                        && f.sig_text(k) == "drop"
                        && f.sig_kind(k + 1) == TokenKind::Punct(b'(')
                        && f.sig_kind(k + 2) == TokenKind::Ident
                        && f.sig_text(k + 2) == *name
                        && f.sig_kind(k + 3) == TokenKind::Punct(b')')
                    {
                        release = f.tokens[f.sig[k + 3]].end;
                        break;
                    }
                }
            }
            return (binding, release);
        }
    }
    // statement temporary
    let mut depth = 0usize;
    let mut j = call_close + 1;
    while j < hi.min(n) {
        match f.sig_kind(j) {
            TokenKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokenKind::Punct(b')' | b']') => {
                if depth == 0 {
                    return (None, f.sig_start(j));
                }
                depth -= 1;
            }
            TokenKind::Punct(b'}') => {
                if depth == 0 {
                    return (None, f.sig_start(j));
                }
                depth -= 1;
                if depth == 0 && !is_let {
                    return (None, f.tokens[f.sig[j]].end);
                }
            }
            TokenKind::Punct(b';') if depth == 0 => return (None, f.tokens[f.sig[j]].end),
            _ => {}
        }
        j += 1;
    }
    (None, scope.body_end)
}

/// The per-fn L6 checks: overlapping acquisitions must strictly
/// increase in rank; blocking calls and rank-acquiring same-crate
/// callees are forbidden under a held guard.
fn check_fn_lock_order(
    fa: &FnLocks,
    fn_ranks: &BTreeMap<String, BTreeSet<u32>>,
    diags: &mut Vec<Diagnostic>,
) {
    let f = fa.f;
    for (ai, a) in fa.events.iter().enumerate() {
        for b in &fa.events[ai + 1..] {
            if b.acq > a.acq && b.acq < a.release && b.rank <= a.rank {
                push(
                    diags,
                    "L6",
                    f,
                    b.acq,
                    format!(
                        "lock order violation: `{}` (rank {}) acquired while `{}` (rank {}, \
                         line {}) is held — overlapping acquisitions must strictly increase \
                         in rank",
                        b.mutex, b.rank, a.mutex, a.rank, a.line
                    ),
                );
            }
        }
        for (off, m, recv) in &fa.blocking {
            if *off <= a.acq || *off >= a.release {
                continue;
            }
            if a.binding.is_some() && recv.as_deref() == a.binding.as_deref() {
                continue; // blocking through the guarded resource itself
            }
            push(
                diags,
                "L6",
                f,
                *off,
                format!(
                    "blocking `.{m}(…)` while guard on `{}` (rank {}, line {}) is held — \
                     drop the guard (scope exit or drop()) before channel ops / blocking I/O",
                    a.mutex, a.rank, a.line
                ),
            );
        }
        for (off, callee) in &fa.calls {
            if *off <= a.acq || *off >= a.release {
                continue;
            }
            let Some(rs) = fn_ranks.get(callee) else { continue };
            if let Some(&r) = rs.iter().find(|&&r| r <= a.rank) {
                push(
                    diags,
                    "L6",
                    f,
                    *off,
                    format!(
                        "call to `{callee}` (acquires rank {r}) while `{}` (rank {}, line {}) \
                         is held — a callee's acquisitions must rank above every held guard",
                        a.mutex, a.rank, a.line
                    ),
                );
            }
        }
    }
}
