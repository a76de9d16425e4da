//! `locap-lint` — the `#[hot]` attribute, which holds L8, the one
//! execution-core contract that rustc, clippy and the workspace's own
//! types cannot check: a hot fn allocates only in its setup prefix.
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
//! Counting a fn's allocations at run time would need a counting global
//! allocator, an `unsafe impl GlobalAlloc`, so L8 checks the fn's
//! tokens instead: [`macro@hot`] reads the token stream rustc hands it
//! and fails the build at each allocating form past the setup prefix.
//! It is built on `proc_macro` alone.

#![warn(missing_docs)]

use proc_macro::{Delimiter, Group, Ident, Literal, Punct, Spacing, Span, TokenStream, TokenTree};

/// Types whose `new` and `with_capacity` allocate (or size a buffer that
/// will).
const ALLOC_TYPES: [&str; 7] =
    ["Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque"];

/// Marks a hot fn: past its setup prefix, the fn may not allocate.
///
/// The setup prefix is every statement of the body before a top-level
/// `hot_setup_end!();` (the whole body is checked when there is none).
/// Past it, each of these forms is a compile error at its own token,
/// inside closures, nested blocks and macro arguments too: `format!`,
/// `vec!`, `.clone()`, `.to_string()`, `.to_owned()`, and `new` or
/// `with_capacity` on `Vec`, `String`, `HashMap`, `HashSet`, `BTreeMap`,
/// `BTreeSet` or `VecDeque`, with or without a turbofish. A statement that must allocate carries
/// `#[hot_allow("reason")]`, which exempts its tokens up to the next `;`
/// at its own level; the reason may not be empty. The attribute strips
/// both markers and re-emits every other token with its own span, so
/// rustc and clippy check the same fn. Nothing else defines
/// `hot_setup_end!` or `hot_allow`, so a marker outside a `#[hot]` fn,
/// or nested below its body's top level, fails to resolve.
///
/// Allocation in the setup prefix, a justified statement, and the forms
/// inside a string or a comment all pass:
///
/// ```
/// use locap_lint::hot;
///
/// #[hot]
/// fn squares(xs: &[u32], out: &mut Vec<u32>) -> usize {
///     let mut seen = Vec::with_capacity(xs.len());
///     hot_setup_end!();
///     for &x in xs {
///         // a comment may say format!("{x}") or .clone()
///         seen.push(x);
///         out.push(x * x);
///     }
///     #[hot_allow("one label per call")]
///     let label = format!("{} squares", seen.len());
///     label.len() + "vec![0; 8].to_string()".len()
/// }
///
/// let mut out = Vec::new();
/// assert_eq!(squares(&[1, 2, 3], &mut out), 9 + 22);
/// assert_eq!(out, [1, 4, 9]);
/// ```
///
/// Each form past the prefix fails the build:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn label(n: usize) -> String {
///     hot_setup_end!();
///     format!("n={n}")
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn zeros(n: usize) -> Vec<u8> {
///     hot_setup_end!();
///     vec![0; n]
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn copy(xs: &Vec<u8>) -> Vec<u8> {
///     hot_setup_end!();
///     xs.clone()
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn show(n: usize) -> String {
///     hot_setup_end!();
///     n.to_string()
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn own(s: &str) -> String {
///     hot_setup_end!();
///     s.to_owned()
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn fresh() -> Vec<u8> {
///     hot_setup_end!();
///     Vec::new()
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn sized(n: usize) -> std::collections::HashMap<u8, u8> {
///     hot_setup_end!();
///     std::collections::HashMap::with_capacity(n)
/// }
/// ```
///
/// So does a constructor behind a turbofish, whose `>` of a `->`
/// closes nothing:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn fresh() -> std::collections::BTreeMap<u8, u8> {
///     hot_setup_end!();
///     std::collections::BTreeMap::<u8, u8>::new()
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn sized(n: usize) -> Vec<u8> {
///     hot_setup_end!();
///     Vec::<u8>::with_capacity(n)
/// }
/// ```
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn hooks() -> Vec<fn() -> u8> {
///     hot_setup_end!();
///     Vec::<fn() -> u8>::new()
/// }
/// ```
///
/// A form inside a closure past the prefix fails too:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn lens(xs: &[&str]) -> usize {
///     hot_setup_end!();
///     xs.iter().map(|x| String::from(*x).to_string().len()).sum()
/// }
/// ```
///
/// An exemption ends at its statement's `;`:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn labels(n: usize) -> usize {
///     hot_setup_end!();
///     #[hot_allow("one label per call")]
///     let label = format!("n={n}");
///     let again = format!("n={n}");
///     label.len() + again.len()
/// }
/// ```
///
/// An empty reason does not exempt:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// fn label(n: usize) -> usize {
///     hot_setup_end!();
///     #[hot_allow("")]
///     let label = format!("n={n}");
///     label.len()
/// }
/// ```
///
/// `#[hot]` applies to fns with a body only:
///
/// ```compile_fail
/// # use locap_lint::hot;
/// #[hot]
/// struct Scratch {
///     buf: Vec<u8>,
/// }
/// ```
///
/// A setup marker outside a `#[hot]` fn does not resolve:
///
/// ```compile_fail
/// fn cold() {
///     hot_setup_end!();
/// }
/// ```
#[proc_macro_attribute]
pub fn hot(args: TokenStream, item: TokenStream) -> TokenStream {
    let mut tokens: Vec<TokenTree> = item.into_iter().collect();
    let name = tokens.windows(2).find_map(|pair| match pair {
        [TokenTree::Ident(kw), TokenTree::Ident(name)] if kw.to_string() == "fn" => {
            Some(name.to_string())
        }
        _ => None,
    });
    let mut walk = Walk { name: name.clone().unwrap_or_default(), errors: Vec::new() };
    if let Some(arg) = args.into_iter().next() {
        walk.errors.push((arg.span(), "`#[hot]` takes no arguments".into()));
    }
    match tokens.pop() {
        Some(TokenTree::Group(body)) if name.is_some() && body.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = body.stream().into_iter().collect();
            let marker = inner.windows(4).position(is_setup_end);
            let (prefix, rest): (&[TokenTree], &[TokenTree]) = match marker {
                Some(at) => (&inner[..at], &inner[at + 4..]),
                None => (&[], &inner),
            };
            let (mut stream, _) = walk.stream(prefix, false);
            let (rest, changed) = walk.stream(rest, true);
            if marker.is_none() && !changed {
                tokens.push(TokenTree::Group(body));
            } else {
                stream.extend(rest);
                let mut new_body = Group::new(Delimiter::Brace, stream);
                new_body.set_span(body.span());
                tokens.push(TokenTree::Group(new_body));
            }
        }
        last => {
            tokens.extend(last);
            walk.errors
                .push((Span::call_site(), "`#[hot]` applies to fns with a body".into()));
        }
    }
    let mut out: TokenStream = tokens.into_iter().collect();
    out.extend(walk.errors.into_iter().map(|(span, msg)| compile_error(span, &msg)));
    out
}

/// One pass over a `#[hot]` fn's body.
struct Walk {
    /// The fn's name, for the messages.
    name: String,
    /// Every violation found so far, at its token.
    errors: Vec<(Span, String)>,
}

impl Walk {
    /// Re-emits `tokens`, one nesting level, without their `#[hot_allow]`
    /// attributes, descending into every group. With `check` set, records
    /// each allocating form outside a `#[hot_allow]` statement. Returns
    /// the stream and whether it differs from `tokens`.
    fn stream(&mut self, tokens: &[TokenTree], check: bool) -> (TokenStream, bool) {
        let mut out = Vec::with_capacity(tokens.len());
        let mut changed = false;
        // inside a `#[hot_allow]` statement, which ends at the next `;`
        let mut allowed = false;
        let mut prev = None;
        let mut i = 0;
        while let Some(rest @ [t, ..]) = tokens.get(i..) {
            i += 1;
            if let Some((span, justified)) = hot_allow(rest) {
                if !justified {
                    self.errors.push((
                        span,
                        "`#[hot_allow]` needs a non-empty reason: `#[hot_allow(\"why\")]`".into(),
                    ));
                }
                allowed = true;
                changed = true;
                i += 1;
                continue;
            }
            if let Some((span, what)) = forbidden(prev, rest).filter(|_| check && !allowed) {
                self.errors.push((
                    span,
                    format!(
                        "`{what}` allocates in hot fn `{}` past its setup prefix: reuse a \
                         scratch buffer, allocate before `hot_setup_end!();`, or justify the \
                         statement with `#[hot_allow(\"reason\")]`",
                        self.name
                    ),
                ));
            }
            match t {
                TokenTree::Group(g) => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    let (stream, inner_changed) = self.stream(&inner, check && !allowed);
                    if inner_changed {
                        let mut group = Group::new(g.delimiter(), stream);
                        group.set_span(g.span());
                        out.push(TokenTree::Group(group));
                        changed = true;
                    } else {
                        out.push(t.clone());
                    }
                }
                TokenTree::Punct(p) if p.as_char() == ';' => {
                    allowed = false;
                    out.push(t.clone());
                }
                _ => out.push(t.clone()),
            }
            prev = Some(t);
        }
        (out.into_iter().collect(), changed)
    }
}

/// Whether `w` is the setup marker statement `hot_setup_end!();`.
fn is_setup_end(w: &[TokenTree]) -> bool {
    w.iter().map(ToString::to_string).eq(["hot_setup_end", "!", "()", ";"])
}

/// If `rest` starts with a `#[hot_allow …]` attribute: its span, and
/// whether its one argument is a string literal, plain or raw, with a
/// non-blank reason between its quotes.
fn hot_allow(rest: &[TokenTree]) -> Option<(Span, bool)> {
    let [TokenTree::Punct(hash), TokenTree::Group(attr), ..] = rest else { return None };
    let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
    let [TokenTree::Ident(name), args @ ..] = inner.as_slice() else { return None };
    if hash.as_char() != '#'
        || attr.delimiter() != Delimiter::Bracket
        || name.to_string() != "hot_allow"
    {
        return None;
    }
    let lit = match args {
        [TokenTree::Group(g)] if g.delimiter() == Delimiter::Parenthesis => {
            match g.stream().into_iter().collect::<Vec<_>>().as_slice() {
                [TokenTree::Literal(lit)] => lit.to_string(),
                _ => String::new(),
            }
        }
        _ => String::new(),
    };
    let quoted = lit.strip_prefix('r').unwrap_or(&lit).trim_matches('#');
    let reason = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
    Some((attr.span(), reason.is_some_and(|r| !r.trim().is_empty())))
}

/// If `rest` starts with an allocating form: the span of its first
/// token and how to name it. `prev` is the token before `rest`.
fn forbidden(prev: Option<&TokenTree>, rest: &[TokenTree]) -> Option<(Span, String)> {
    let [TokenTree::Ident(id), next, ..] = rest else { return None };
    let name = id.to_string();
    let punct =
        |t: Option<&TokenTree>, c: char| matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c);
    let what = match (name.as_str(), next) {
        ("format" | "vec", _)
            if punct(Some(next), '!') && matches!(rest.get(2), Some(TokenTree::Group(_))) =>
        {
            format!("{name}!")
        }
        ("clone" | "to_string" | "to_owned", TokenTree::Group(args))
            if args.delimiter() == Delimiter::Parenthesis && punct(prev, '.') =>
        {
            format!(".{name}()")
        }
        (ty, _)
            if ALLOC_TYPES.contains(&ty) && punct(Some(next), ':') && punct(rest.get(2), ':') =>
        {
            let mut at = 3;
            // a turbofish, `Ty::<…>::ctor`: skip its balanced `<…>` and `::`
            if punct(rest.get(at), '<') {
                let mut depth = 0usize;
                loop {
                    match rest.get(at)? {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        // the `>` of a `->` closes nothing
                        TokenTree::Punct(p) if p.as_char() == '>' && !arrow(&rest[at - 1]) => {
                            depth -= 1;
                        }
                        _ => {}
                    }
                    at += 1;
                    if depth == 0 {
                        break;
                    }
                }
                if !(punct(rest.get(at), ':') && punct(rest.get(at + 1), ':')) {
                    return None;
                }
                at += 2;
            }
            let ctor = rest.get(at)?.to_string();
            if !matches!(ctor.as_str(), "new" | "with_capacity") {
                return None;
            }
            format!("{name}::{ctor}")
        }
        _ => return None,
    };
    Some((id.span(), what))
}

/// Whether `t` is the `-` of a `->`.
fn arrow(t: &TokenTree) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == '-' && p.spacing() == Spacing::Joint)
}

/// `compile_error!("msg");`, every token spanned at `span`.
fn compile_error(span: Span, msg: &str) -> TokenStream {
    let mut lit = Literal::string(msg);
    lit.set_span(span);
    let mut args = Group::new(Delimiter::Parenthesis, TokenTree::Literal(lit).into());
    args.set_span(span);
    let mut bang = Punct::new('!', Spacing::Alone);
    bang.set_span(span);
    let mut semi = Punct::new(';', Spacing::Alone);
    semi.set_span(span);
    [
        TokenTree::Ident(Ident::new("compile_error", span)),
        TokenTree::Punct(bang),
        TokenTree::Group(args),
        TokenTree::Punct(semi),
    ]
    .into_iter()
    .collect()
}
