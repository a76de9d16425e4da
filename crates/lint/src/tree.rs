//! The brace-tree IR: token trees over the full lexed stream.
//!
//! Flat token scans with ad-hoc depth counters cannot serve the
//! scope-aware rules (lock-order, hot-path allocation): both need real
//! nesting — which block a guard dies in, which fn a call site belongs
//! to, where a struct body ends. [`build`] turns the lexer's
//! flat stream into a tree of delimiter groups (`()`, `[]`, `{}`) with
//! every non-delimiter token (trivia included) kept as a leaf, and
//! [`scopes`] layers item/fn/impl detection on top. `#[cfg(test)]`
//! region tracking, previously an index walk inside `source.rs`, is
//! lifted onto the tree too ([`test_regions`]).
//!
//! Construction is **total**: malformed input (stray closers, groups
//! left open at EOF) still produces a tree — recovery keeps every
//! token — plus typed [`TreeDiag`]s on the side; never a panic, never
//! a dropped token. The lexer's tiling invariant lifts to trees: a
//! preorder flatten visits every token index exactly once, in order
//! (`tree_props.rs` proptests both properties on adversarial input,
//! raw strings and unbalanced delimiters included).

use crate::lexer::{Token, TokenKind};

/// A delimiter pair kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

impl Delim {
    /// The delimiter a `Punct` opening byte introduces.
    pub fn of_open(b: u8) -> Option<Delim> {
        match b {
            b'(' => Some(Delim::Paren),
            b'[' => Some(Delim::Bracket),
            b'{' => Some(Delim::Brace),
            _ => None,
        }
    }

    /// The delimiter a `Punct` closing byte terminates.
    pub fn of_close(b: u8) -> Option<Delim> {
        match b {
            b')' => Some(Delim::Paren),
            b']' => Some(Delim::Bracket),
            b'}' => Some(Delim::Brace),
            _ => None,
        }
    }
}

/// One tree node: a non-delimiter token, or a delimited group.
#[derive(Debug)]
pub enum Node {
    /// Index into the token stream.
    Leaf(usize),
    /// A delimited group.
    Group(Group),
}

/// A delimited token group.
#[derive(Debug)]
pub struct Group {
    /// Which delimiter pair.
    pub delim: Delim,
    /// Token index of the opening delimiter.
    pub open: usize,
    /// Token index of the closing delimiter; `None` when the group was
    /// still open at EOF (recovered, see [`TreeDiagKind::Unclosed`]).
    pub close: Option<usize>,
    /// Child nodes, in token order.
    pub children: Vec<Node>,
}

/// What went wrong while matching delimiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDiagKind {
    /// A closing delimiter with no matching opener; kept as a leaf.
    StrayClose,
    /// An opening delimiter never closed; the group ends at the point
    /// an outer group closed over it, or at EOF.
    Unclosed,
}

/// A typed delimiter-matching diagnostic. Construction never fails —
/// these are reported on the side while recovery keeps every token in
/// the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeDiag {
    /// What went wrong.
    pub kind: TreeDiagKind,
    /// Token index of the offending delimiter.
    pub token: usize,
}

/// The brace tree of one file.
#[derive(Debug, Default)]
pub struct Tree {
    /// Top-level nodes, in token order.
    pub roots: Vec<Node>,
    /// Delimiter-matching diagnostics (empty for well-formed input).
    pub diags: Vec<TreeDiag>,
}

impl Tree {
    /// Preorder token indices: for any input this visits every token
    /// index exactly once, in order — the tiling invariant on trees.
    pub fn flatten(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for node in &self.roots {
            flatten_node(node, &mut out);
        }
        out
    }

    /// Innermost brace group whose body contains byte `offset`, as
    /// `(open_byte, end_byte)` where `end_byte` is one past the closing
    /// `}` — the block an expression at `offset` lives in. `None` at
    /// file level.
    pub fn enclosing_brace(&self, tokens: &[Token], offset: usize) -> Option<(usize, usize)> {
        let mut best = None;
        let mut nodes = &self.roots;
        'descend: loop {
            for node in nodes {
                let Node::Group(g) = node else { continue };
                let start = tokens[g.open].start;
                let end = node_end(node, tokens);
                if offset > start && offset < end {
                    if g.delim == Delim::Brace {
                        best = Some((start, end));
                    }
                    nodes = &g.children;
                    continue 'descend;
                }
            }
            return best;
        }
    }

    /// Delimiter of the innermost group whose body contains byte
    /// `offset` — distinguishes fn-parameter / attribute positions
    /// (paren, bracket) from item bodies (brace). `None` at file level.
    pub fn innermost_group_delim(&self, tokens: &[Token], offset: usize) -> Option<Delim> {
        let mut best = None;
        let mut nodes = &self.roots;
        'descend: loop {
            for node in nodes {
                let Node::Group(g) = node else { continue };
                let start = tokens[g.open].start;
                let end = node_end(node, tokens);
                if offset > start && offset < end {
                    best = Some(g.delim);
                    nodes = &g.children;
                    continue 'descend;
                }
            }
            return best;
        }
    }
}

fn flatten_node(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Leaf(i) => out.push(*i),
        Node::Group(g) => {
            out.push(g.open);
            for c in &g.children {
                flatten_node(c, out);
            }
            if let Some(c) = g.close {
                out.push(c);
            }
        }
    }
}

/// Byte offset of the first token of `node`.
pub fn node_start(node: &Node, tokens: &[Token]) -> usize {
    match node {
        Node::Leaf(i) => tokens[*i].start,
        Node::Group(g) => tokens[g.open].start,
    }
}

/// Byte offset one past the last token of `node` (for unclosed groups:
/// one past the last child).
pub fn node_end(node: &Node, tokens: &[Token]) -> usize {
    match node {
        Node::Leaf(i) => tokens[*i].end,
        Node::Group(g) => match g.close {
            Some(c) => tokens[c].end,
            None => g.children.last().map_or(tokens[g.open].end, |c| node_end(c, tokens)),
        },
    }
}

/// Builds the brace tree of a token stream. Total: any input produces
/// a tree whose flatten equals `0..tokens.len()`; malformed delimiter
/// structure is reported through [`Tree::diags`].
pub fn build(tokens: &[Token]) -> Tree {
    struct OpenGroup {
        delim: Delim,
        open: usize,
        children: Vec<Node>,
    }
    fn attach(stack: &mut [OpenGroup], roots: &mut Vec<Node>, node: Node) {
        match stack.last_mut() {
            Some(g) => g.children.push(node),
            None => roots.push(node),
        }
    }
    let mut stack: Vec<OpenGroup> = Vec::new();
    let mut roots = Vec::new();
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let b = match t.kind {
            TokenKind::Punct(b) => b,
            _ => {
                attach(&mut stack, &mut roots, Node::Leaf(i));
                continue;
            }
        };
        if let Some(d) = Delim::of_open(b) {
            stack.push(OpenGroup { delim: d, open: i, children: Vec::new() });
            continue;
        }
        let Some(d) = Delim::of_close(b) else {
            attach(&mut stack, &mut roots, Node::Leaf(i));
            continue;
        };
        match stack.iter().rposition(|g| g.delim == d) {
            None => {
                // no opener anywhere: keep the token, report it
                diags.push(TreeDiag { kind: TreeDiagKind::StrayClose, token: i });
                attach(&mut stack, &mut roots, Node::Leaf(i));
            }
            Some(pos) => {
                // close intervening mismatched groups as unclosed
                while stack.len() > pos + 1 {
                    let g = stack.pop().expect("len > pos+1 implies nonempty");
                    diags.push(TreeDiag { kind: TreeDiagKind::Unclosed, token: g.open });
                    let node = Node::Group(Group {
                        delim: g.delim,
                        open: g.open,
                        close: None,
                        children: g.children,
                    });
                    attach(&mut stack, &mut roots, node);
                }
                let g = stack.pop().expect("rposition found a match");
                let node = Node::Group(Group {
                    delim: g.delim,
                    open: g.open,
                    close: Some(i),
                    children: g.children,
                });
                attach(&mut stack, &mut roots, node);
            }
        }
    }
    while let Some(g) = stack.pop() {
        diags.push(TreeDiag { kind: TreeDiagKind::Unclosed, token: g.open });
        let node =
            Node::Group(Group { delim: g.delim, open: g.open, close: None, children: g.children });
        attach(&mut stack, &mut roots, node);
    }
    diags.sort_by_key(|d| d.token);
    Tree { roots, diags }
}

/// What kind of item a [`Scope`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// `fn name(…) { … }` (free fns and methods alike).
    Fn,
    /// `struct Name { … }`
    Struct,
    /// `enum Name { … }`
    Enum,
    /// `union Name { … }`
    Union,
    /// `impl … { … }`
    Impl,
    /// `trait Name { … }`
    Trait,
    /// `mod name { … }`
    Mod,
    /// `macro_rules! name { … }` — token soup, but still a scope.
    Macro,
}

/// One braced item detected on the tree. Nested items produce nested
/// byte ranges; "innermost scope containing an offset" queries resolve
/// by narrowest range.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Item kind.
    pub kind: ScopeKind,
    /// Declared name (`None` for `impl` blocks).
    pub name: Option<String>,
    /// Byte offset of the introducing keyword (`fn`, `struct`, …).
    pub keyword: usize,
    /// Byte offset of the first header token (visibility and all).
    pub header_start: usize,
    /// Byte offset of the opening `{`.
    pub body_start: usize,
    /// Byte offset one past the closing `}` (or the recovered end).
    pub body_end: usize,
}

impl Scope {
    /// Whether `offset` falls inside the body block.
    pub fn contains(&self, offset: usize) -> bool {
        offset > self.body_start && offset < self.body_end
    }
}

/// Detects item scopes over the tree, in source order.
pub fn scopes(tree: &Tree, tokens: &[Token], src: &str) -> Vec<Scope> {
    let mut out = Vec::new();
    walk_scopes(&tree.roots, tokens, src, &mut out);
    out.sort_by_key(|s| s.header_start);
    out
}

fn walk_scopes(children: &[Node], tokens: &[Token], src: &str, out: &mut Vec<Scope>) {
    // (kind, keyword token, first header token, name)
    let mut pending: Option<(ScopeKind, usize, usize, Option<String>)> = None;
    let mut stmt_first: Option<usize> = None;
    // `<`/`>` nesting while a header is pending: commas inside generics
    // (`MutexGuard<'_, T>`, `impl<K, V>`) must not end the header the
    // way a field- or variant-separating comma does
    let mut angle = 0usize;
    for node in children {
        match node {
            Node::Leaf(i) => {
                let t = &tokens[*i];
                if matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment(_) | TokenKind::BlockComment(_)
                ) {
                    continue;
                }
                if stmt_first.is_none() {
                    stmt_first = Some(*i);
                }
                match t.kind {
                    TokenKind::Ident => {
                        let text = t.text(src);
                        match &mut pending {
                            None => {
                                let kind = match text {
                                    "fn" => Some(ScopeKind::Fn),
                                    "struct" => Some(ScopeKind::Struct),
                                    "enum" => Some(ScopeKind::Enum),
                                    "union" => Some(ScopeKind::Union),
                                    "impl" => Some(ScopeKind::Impl),
                                    "trait" => Some(ScopeKind::Trait),
                                    "mod" => Some(ScopeKind::Mod),
                                    "macro_rules" => Some(ScopeKind::Macro),
                                    _ => None,
                                };
                                if let Some(k) = kind {
                                    pending = Some((k, *i, stmt_first.unwrap_or(*i), None));
                                }
                            }
                            Some(p) => {
                                // first ident after the keyword is the name
                                // (impl blocks are type paths, not names)
                                if p.3.is_none() && p.0 != ScopeKind::Impl {
                                    p.3 = Some(text.to_string());
                                }
                            }
                        }
                    }
                    TokenKind::Punct(b'<') if pending.is_some() => angle += 1,
                    TokenKind::Punct(b'>') => angle = angle.saturating_sub(1),
                    TokenKind::Punct(b';') => {
                        pending = None;
                        stmt_first = None;
                        angle = 0;
                    }
                    TokenKind::Punct(b',') if angle == 0 => {
                        pending = None;
                        stmt_first = None;
                    }
                    _ => {}
                }
            }
            Node::Group(g) => {
                if stmt_first.is_none() {
                    stmt_first = Some(g.open);
                }
                if g.delim == Delim::Brace {
                    angle = 0;
                    if let Some((kind, kw, first, name)) = pending.take() {
                        out.push(Scope {
                            kind,
                            name,
                            keyword: tokens[kw].start,
                            header_start: tokens[first].start,
                            body_start: tokens[g.open].start,
                            body_end: node_end(node, tokens),
                        });
                    }
                    stmt_first = None;
                }
                walk_scopes(&g.children, tokens, src, out);
            }
        }
    }
}

/// Test-annotated regions computed on the tree: each `#[…test…]` /
/// `#[should_panic]` / `#[bench]` attribute through the end of its
/// item; an inner `#![cfg(test)]` covers the rest of the file. A `not`
/// anywhere in the attribute vetoes the exemption — `#[cfg(not(test))]`
/// guards PRODUCTION code.
pub fn test_regions(tree: &Tree, tokens: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    walk_tests(&tree.roots, tokens, src, src.len(), &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn walk_tests(
    children: &[Node],
    tokens: &[Token],
    src: &str,
    eof: usize,
    out: &mut Vec<(usize, usize)>,
) {
    let is_trivia = |i: usize| {
        matches!(
            tokens[i].kind,
            TokenKind::Whitespace | TokenKind::LineComment(_) | TokenKind::BlockComment(_)
        )
    };
    let mut i = 0;
    while i < children.len() {
        let node = &children[i];
        let hash = match node {
            Node::Group(g) => {
                walk_tests(&g.children, tokens, src, eof, out);
                i += 1;
                continue;
            }
            Node::Leaf(t) if tokens[*t].kind == TokenKind::Punct(b'#') => *t,
            Node::Leaf(_) => {
                i += 1;
                continue;
            }
        };
        // optional `!`, then the `[…]` attribute group, skipping trivia
        let mut j = i + 1;
        while matches!(children.get(j), Some(Node::Leaf(t)) if is_trivia(*t)) {
            j += 1;
        }
        let mut inner = false;
        if matches!(children.get(j), Some(Node::Leaf(t)) if tokens[*t].kind == TokenKind::Punct(b'!'))
        {
            inner = true;
            j += 1;
            while matches!(children.get(j), Some(Node::Leaf(t)) if is_trivia(*t)) {
                j += 1;
            }
        }
        let Some(Node::Group(attr)) = children.get(j) else {
            i += 1;
            continue;
        };
        if attr.delim != Delim::Bracket {
            i += 1;
            continue;
        }
        let mut has_test = false;
        let mut has_not = false;
        attr_idents(&attr.children, tokens, src, &mut has_test, &mut has_not);
        if !has_test || has_not {
            i = j + 1;
            continue;
        }
        let start = tokens[hash].start;
        if inner {
            // #![cfg(test)]: the whole remaining file is test-only
            out.push((start, eof));
            return;
        }
        // the annotated item ends at its first sibling brace block or `;`
        let mut k = j + 1;
        let mut end = eof;
        while let Some(n) = children.get(k) {
            match n {
                Node::Leaf(t) if tokens[*t].kind == TokenKind::Punct(b';') => {
                    end = tokens[*t].end;
                    break;
                }
                Node::Group(g) if g.delim == Delim::Brace => {
                    end = node_end(n, tokens);
                    break;
                }
                _ => k += 1,
            }
        }
        out.push((start, end));
        // the region covers its siblings; resume after the item so
        // nested attributes inside it are not re-processed
        i = k + 1;
    }
}

fn attr_idents(children: &[Node], tokens: &[Token], src: &str, test: &mut bool, not: &mut bool) {
    for node in children {
        match node {
            Node::Leaf(i) if tokens[*i].kind == TokenKind::Ident => match tokens[*i].text(src) {
                "test" | "should_panic" | "bench" => *test = true,
                "not" => *not = true,
                _ => {}
            },
            Node::Group(g) => attr_idents(&g.children, tokens, src, test, not),
            Node::Leaf(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> (Vec<Token>, Tree) {
        let tokens = lex(src);
        let tree = build(&tokens);
        (tokens, tree)
    }

    #[test]
    fn flatten_is_identity_on_well_formed_input() {
        let src = "fn main() { let v = vec![1, (2 + 3)]; }";
        let (tokens, tree) = tree_of(src);
        assert!(tree.diags.is_empty());
        assert_eq!(tree.flatten(), (0..tokens.len()).collect::<Vec<_>>());
    }

    #[test]
    fn recovery_keeps_every_token() {
        for src in ["} fn f() {", "fn f( { )", "({[}", "]]]", "fn f() { ("] {
            let (tokens, tree) = tree_of(src);
            assert!(!tree.diags.is_empty(), "{src:?} must report");
            assert_eq!(tree.flatten(), (0..tokens.len()).collect::<Vec<_>>(), "{src:?}");
        }
    }

    #[test]
    fn stray_close_and_unclosed_are_typed() {
        let (_, tree) = tree_of("}");
        assert_eq!(tree.diags[0].kind, TreeDiagKind::StrayClose);
        let (_, tree) = tree_of("{");
        assert_eq!(tree.diags[0].kind, TreeDiagKind::Unclosed);
    }

    #[test]
    fn scopes_detect_fns_and_nesting() {
        let src = "impl Foo { pub fn bar(&self) { if x { } } }\nstruct Baz { f: u8 }\n";
        let tokens = lex(src);
        let tree = build(&tokens);
        let sc = scopes(&tree, &tokens, src);
        let kinds: Vec<ScopeKind> = sc.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![ScopeKind::Impl, ScopeKind::Fn, ScopeKind::Struct]);
        assert_eq!(sc[1].name.as_deref(), Some("bar"));
        assert_eq!(sc[2].name.as_deref(), Some("Baz"));
        // the fn body nests inside the impl body
        assert!(sc[0].body_start < sc[1].body_start && sc[1].body_end < sc[0].body_end);
        // header_start covers the visibility qualifier
        assert_eq!(&src[sc[1].header_start..sc[1].header_start + 3], "pub");
    }

    #[test]
    fn commas_inside_generics_do_not_end_a_header() {
        // the return type's generic comma must not kill the pending fn
        let src = "fn get<'a>(m: &'a Mutex<u8>) -> MutexGuard<'a, u8> { m.lock().unwrap() }\n";
        let tokens = lex(src);
        let tree = build(&tokens);
        let sc = scopes(&tree, &tokens, src);
        assert_eq!(sc.len(), 1, "{sc:#?}");
        assert_eq!(sc[0].kind, ScopeKind::Fn);
        assert_eq!(sc[0].name.as_deref(), Some("get"));
        // generic impl headers survive their parameter commas too
        let src = "impl<K, V> Map<K, V> { fn len(&self) -> usize { 0 } }\n";
        let tokens = lex(src);
        let tree = build(&tokens);
        let sc = scopes(&tree, &tokens, src);
        let kinds: Vec<ScopeKind> = sc.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![ScopeKind::Impl, ScopeKind::Fn]);
    }

    #[test]
    fn fn_pointer_types_are_not_scopes() {
        let src = "struct S { f: fn(u8) -> u8, g: u8 }\n";
        let tokens = lex(src);
        let tree = build(&tokens);
        let sc = scopes(&tree, &tokens, src);
        assert_eq!(sc.len(), 1);
        assert_eq!(sc[0].kind, ScopeKind::Struct);
    }

    #[test]
    fn enclosing_brace_finds_the_innermost_block() {
        let src = "fn f() { let a = 1; { let b = 2; } }";
        let (tokens, tree) = tree_of(src);
        let b_off = src.find("b =").expect("b");
        let (open, end) = tree.enclosing_brace(&tokens, b_off).expect("block");
        assert_eq!(&src[open..open + 1], "{");
        assert_eq!(open, src.find("{ let b").expect("inner"));
        assert_eq!(end, src.rfind("} }").expect("inner close") + 1);
        let a_off = src.find("a =").expect("a");
        let (outer, _) = tree.enclosing_brace(&tokens, a_off).expect("fn body");
        assert_eq!(outer, src.find("{ let a").expect("outer"));
        assert!(tree.enclosing_brace(&tokens, 1).is_none());
    }

    #[test]
    fn tree_test_regions_match_the_flat_ones() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n#[cfg(not(test))]\nfn prod() {}\n";
        let (tokens, tree) = tree_of(src);
        let regions = test_regions(&tree, &tokens, src);
        assert_eq!(regions.len(), 1);
        let (s, e) = regions[0];
        assert!(src[s..e].contains("unwrap"));
        assert!(!src[s..e].contains("prod"));
    }
}
