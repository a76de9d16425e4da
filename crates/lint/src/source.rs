//! Per-file analysis context: the token stream, the brace tree built
//! over it, the item scopes, and the derived regions the rules treat
//! specially.
//!
//! **Test regions** are computed once per file: items annotated
//! `#[cfg(test)]` / `#[test]` / `#[should_panic]` (attribute through
//! the end of the item's brace block or `;`), computed on the brace
//! tree ([`crate::tree`]). All rules skip them: test code may name
//! metrics and allocate freely.
//!
//! `// lint: …` marker comments (`lock-rank=N`, `hot`, `hot-setup-end`,
//! `hot-allow(reason)` — see the README annotation grammar) are indexed
//! by line here so the L6/L8 rules can resolve them in O(log n).

use std::collections::BTreeMap;

use crate::lexer::{self, Doc, Token, TokenKind};
use crate::tree::{self, Scope, ScopeKind, Tree};

/// A source file prepared for rule checks.
#[derive(Debug)]
pub struct FileInfo {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// The file contents.
    pub text: String,
    /// The full token stream (trivia included; spans tile `text`).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// The brace tree over `tokens` (total; recovery diags inside).
    pub tree: Tree,
    /// Item scopes detected on the tree, sorted by header offset.
    pub scopes: Vec<Scope>,
    /// Byte ranges of test-only code, sorted and disjoint-ish.
    pub test_regions: Vec<(usize, usize)>,
    /// `// lint: …` marker comment text by 1-based line.
    pub markers: BTreeMap<usize, String>,
    line_starts: Vec<usize>,
}

impl FileInfo {
    /// Lexes `text`, builds the brace tree and derives scopes, marker
    /// index and test regions.
    pub fn new(path: String, text: String) -> FileInfo {
        let tokens = lexer::lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment(_) | TokenKind::BlockComment(_)
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0];
        line_starts
            .extend(text.bytes().enumerate().filter(|(_, b)| *b == b'\n').map(|(i, _)| i + 1));
        let tree = tree::build(&tokens);
        let scopes = tree::scopes(&tree, &tokens, &text);
        let test_regions = tree::test_regions(&tree, &tokens, &text);
        let mut markers = BTreeMap::new();
        for t in &tokens {
            // plain comments only: doc comments *describing* the
            // annotation grammar must not activate it
            if !matches!(
                t.kind,
                TokenKind::LineComment(Doc::None) | TokenKind::BlockComment(Doc::None)
            ) {
                continue;
            }
            let comment = t.text(&text);
            if !comment.contains("lint:") {
                continue;
            }
            let line = line_starts.partition_point(|&s| s <= t.start);
            let slot: &mut String = markers.entry(line).or_default();
            if !slot.is_empty() {
                slot.push(' ');
            }
            slot.push_str(comment);
        }
        FileInfo { path, text, tokens, sig, tree, scopes, test_regions, markers, line_starts }
    }

    /// 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        let col = offset - self.line_starts[line - 1] + 1;
        (line, col)
    }

    /// The source line containing `offset`, without its newline.
    pub fn line_text(&self, offset: usize) -> &str {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        let start = self.line_starts[line - 1];
        let end = self.line_starts.get(line).map_or(self.text.len(), |e| e - 1);
        self.text[start..end].trim_end_matches('\r')
    }

    /// Byte offset of the first byte of the line containing `offset`.
    pub fn line_start_of(&self, offset: usize) -> usize {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        self.line_starts[line - 1]
    }

    /// Byte offset of the newline ending the line containing `offset`
    /// (the file end for an unterminated last line).
    pub fn line_end_of(&self, offset: usize) -> usize {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        self.line_starts.get(line).map_or(self.text.len(), |e| e - 1)
    }

    /// Byte offset of the first byte of 1-based line `line` (file end
    /// past EOF).
    pub fn line_offset(&self, line: usize) -> usize {
        self.line_starts.get(line.wrapping_sub(1)).copied().unwrap_or(self.text.len())
    }

    /// The text of 1-based line `line` (empty past EOF), newline excluded.
    pub fn nth_line(&self, line: usize) -> &str {
        let Some(&start) = self.line_starts.get(line.wrapping_sub(1)) else { return "" };
        let end = self.line_starts.get(line).map_or(self.text.len(), |e| e - 1);
        self.text[start..end].trim_end_matches('\r')
    }

    /// The text of the significant token at `sig[i]`.
    pub fn sig_text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.text)
    }

    /// The kind of the significant token at `sig[i]`.
    pub fn sig_kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    /// Start offset of the significant token at `sig[i]`.
    pub fn sig_start(&self, i: usize) -> usize {
        self.tokens[self.sig[i]].start
    }

    /// Whether `offset` falls in test-only code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| offset >= s && offset < e)
    }

    /// The marker comment (`// lint: …`) text on a 1-based line.
    pub fn marker_on(&self, line: usize) -> Option<&str> {
        self.markers.get(&line).map(String::as_str)
    }

    /// Innermost scope of `kinds` whose body contains `offset`.
    pub fn innermost_scope(&self, offset: usize, kinds: &[ScopeKind]) -> Option<&Scope> {
        self.scopes
            .iter()
            .filter(|s| kinds.contains(&s.kind) && s.contains(offset))
            .max_by_key(|s| s.body_start)
    }

    /// Innermost `fn` scope whose body contains `offset`.
    pub fn fn_scope_at(&self, offset: usize) -> Option<&Scope> {
        self.innermost_scope(offset, &[ScopeKind::Fn])
    }

    /// Index into `sig` of the first significant token at or after byte
    /// `offset` — for slicing a scope body out of the sig stream.
    pub fn sig_index_at(&self, offset: usize) -> usize {
        self.sig.partition_point(|&t| self.tokens[t].start < offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = FileInfo::new("crates/x/src/a.rs".into(), src.into());
        assert_eq!(f.test_regions.len(), 1);
        assert!(!f.in_test(src.find("live").expect("live")));
        assert!(f.in_test(src.find("unwrap").expect("unwrap")));
    }

    #[test]
    fn cfg_test_attribute_variants() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { }\n#[test]\nfn t() {}\n";
        let f = FileInfo::new("a.rs".into(), src.into());
        assert_eq!(f.test_regions.len(), 2);
    }

    #[test]
    fn markers_and_scopes_resolve() {
        let src = "// lint: lock-rank=3\nstatic M: Mutex<()> = Mutex::new(());\n\n/// Doc.\n// lint: hot\npub fn enc(&self) { body(); }\n";
        let f = FileInfo::new("a.rs".into(), src.into());
        assert!(f.marker_on(1).is_some_and(|m| m.contains("lock-rank=3")));
        assert!(f.marker_on(2).is_none());
        assert!(f.marker_on(5).is_some_and(|m| m.contains("hot")));
        let body = src.find("body").expect("body");
        let scope = f.fn_scope_at(body).expect("fn scope");
        assert_eq!(scope.name.as_deref(), Some("enc"));
        assert!(f.fn_scope_at(0).is_none());
    }

    #[test]
    fn line_col_is_one_based() {
        let f = FileInfo::new("a.rs".into(), "ab\ncd\n".into());
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(4), (2, 2));
        assert_eq!(f.line_text(4), "cd");
    }
}
