//! Per-file analysis context: the token stream, its significant tokens,
//! the fn items found on them by brace depth, and the `// lint: …` marker
//! comments indexed by line.
//!
//! Markers (`hot`, `hot-setup-end`, `hot-allow(reason)` — see the README
//! "Static analysis" section) are plain comments only: doc comments
//! *describing* the grammar never activate it.

use std::collections::BTreeMap;

use crate::lexer::{self, Doc, Token, TokenKind};

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
    /// `// lint: …` marker comment text by 1-based line.
    pub markers: BTreeMap<usize, String>,
    line_starts: Vec<usize>,
}

/// A `fn` item with a body, located on the significant tokens.
#[derive(Debug)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub keyword: usize,
    /// Byte offset of the item's first token: its attributes and
    /// qualifiers, everything after the previous `;`, `{` or `}`.
    pub header_start: usize,
    /// Byte offset of the body's opening `{`.
    pub body_start: usize,
    /// Byte offset one past the body's closing `}` (the file end when it
    /// is never closed).
    pub body_end: usize,
}

impl FileInfo {
    /// Lexes `text` and indexes its significant tokens, lines and markers.
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
        let mut markers = BTreeMap::new();
        for t in &tokens {
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
        FileInfo { path, text, tokens, sig, markers, line_starts }
    }

    /// 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        let col = offset - self.line_starts[line - 1] + 1;
        (line, col)
    }

    /// The source line containing `offset`, without its newline.
    pub fn line_text(&self, offset: usize) -> &str {
        self.nth_line(self.line_col(offset).0)
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

    /// The marker comment (`// lint: …`) text on a 1-based line.
    pub fn marker_on(&self, line: usize) -> Option<&str> {
        self.markers.get(&line).map(String::as_str)
    }

    /// Index into `sig` of the first significant token at or after byte
    /// `offset` — for slicing a fn body out of the sig stream.
    pub fn sig_index_at(&self, offset: usize) -> usize {
        self.sig.partition_point(|&t| self.tokens[t].start < offset)
    }

    /// Every `fn` item with a body, in source order, nested fns included.
    /// A `fn` keyword followed by a name starts an item; its body is the
    /// first `{` outside parentheses and brackets, unless a `;` ends the
    /// item first (a bodyless trait method), and the body runs to the
    /// matching `}` by brace depth. Literals and comments are single
    /// tokens, so braces inside them never count; `fn(u8) -> u8` pointer
    /// types have no name and are skipped.
    pub fn fns(&self) -> Vec<FnItem> {
        let n = self.sig.len();
        let punct = |i: usize, b: u8| self.sig_kind(i) == TokenKind::Punct(b);
        let mut out = Vec::new();
        for kw in 0..n {
            if self.sig_text(kw) != "fn" || kw + 1 >= n || self.sig_kind(kw + 1) != TokenKind::Ident
            {
                continue;
            }
            let first = (0..kw).rev().find(|&i| punct(i, b';') || punct(i, b'{') || punct(i, b'}'));
            let mut depth = 0usize;
            let mut open = None;
            for i in kw + 2..n {
                match self.sig_kind(i) {
                    TokenKind::Punct(b'(' | b'[') => depth += 1,
                    TokenKind::Punct(b')' | b']') => depth = depth.saturating_sub(1),
                    TokenKind::Punct(b'{') if depth == 0 => {
                        open = Some(i);
                        break;
                    }
                    TokenKind::Punct(b';') if depth == 0 => break,
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let mut braces = 0usize;
            let close = (open..n).find(|&i| {
                if punct(i, b'{') {
                    braces += 1;
                } else if punct(i, b'}') {
                    braces -= 1;
                }
                braces == 0
            });
            out.push(FnItem {
                name: self.sig_text(kw + 1).to_string(),
                keyword: self.sig_start(kw),
                header_start: self.sig_start(first.map_or(0, |i| i + 1)),
                body_start: self.sig_start(open),
                body_end: close.map_or(self.text.len(), |i| self.tokens[self.sig[i]].end),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_and_scopes_resolve() {
        let src = "// lint: hot-allow(r)\nstatic M: Mutex<()> = Mutex::new(());\n\n/// Doc.\n// lint: hot\npub fn enc(&self) { body(); }\n";
        let f = FileInfo::new("a.rs".into(), src.into());
        assert!(f.marker_on(1).is_some_and(|m| m.contains("hot-allow(r)")));
        assert!(f.marker_on(2).is_none());
        assert!(f.marker_on(5).is_some_and(|m| m.contains("hot")));
        let fns = f.fns();
        assert_eq!(fns.len(), 1, "{fns:#?}");
        assert_eq!(fns[0].name, "enc");
        let body = src.find("body").expect("body");
        assert!(fns[0].body_start < body && body < fns[0].body_end);
        assert_eq!(&src[fns[0].header_start..fns[0].keyword], "pub ");
    }

    #[test]
    fn fn_bodies_nest_and_skip_pointer_types_and_literals() {
        let src = "trait T { fn decl(&self); }\n\
                   struct S { f: fn(u8) -> u8 }\n\
                   impl S {\n    #[inline]\n    fn outer(&self) -> [u8; 2] { let s = \"}\"; fn inner() {} [0, 1] }\n}\n";
        let f = FileInfo::new("a.rs".into(), src.into());
        let fns = f.fns();
        let names: Vec<&str> = fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"], "{fns:#?}");
        assert_eq!(&src[fns[0].body_end - 1..fns[0].body_end], "}");
        assert!(src[fns[0].body_start..fns[0].body_end].ends_with("[0, 1] }"));
        assert!(src[fns[0].header_start..].starts_with("#[inline]"));
        assert!(fns[0].body_start < fns[1].body_start && fns[1].body_end < fns[0].body_end);
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
