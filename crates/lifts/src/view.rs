//! Views: the information available to a PO algorithm (paper §2.5, Fig. 4).
//!
//! The view of an L-digraph `G` from `v` is the (possibly infinite) tree
//! `T(G, v)` of non-backtracking walks starting at `v`. A local
//! PO-algorithm with run-time `r` is exactly a function of the radius-`r`
//! truncation τ(T(G, v)) — computed here as a canonical [`ViewTree`].
//!
//! Because the trees are canonical (children sorted by letter, letters
//! distinct), **`ViewTree` equality is view isomorphism**, and the
//! fundamental lift-invariance `T(H, v) = T(G, ϕ(v))` for covering maps ϕ
//! can be checked by `==`.

use std::collections::HashMap;

use locap_graph::budget::TruncationReason;
use locap_graph::{par, KeyInterner, LDigraph, NodeId};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_store::{Lookup, StoreHandle, StoreKey};

use crate::{Letter, Word};

/// A node of a canonical view tree. Children are sorted by [`Letter`];
/// each child letter appears at most once, so structural equality is
/// isomorphism of the rooted, edge-labelled trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewNode {
    /// Children, sorted by letter; a child reached by a positive letter `ℓ`
    /// sits at the far end of an outgoing edge labelled `ℓ`, a child
    /// reached by `ℓ⁻¹` at the far end of an incoming edge.
    pub children: Vec<(Letter, ViewNode)>,
}

impl ViewNode {
    fn leaf() -> ViewNode {
        ViewNode { children: Vec::new() }
    }

    /// Number of nodes in the subtree (including this one).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|(_, c)| c.size()).sum::<usize>()
    }

    /// Depth of the subtree (a leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.children.iter().map(|(_, c)| c.depth() + 1).max().unwrap_or(0)
    }

    /// The child along `letter`, if present.
    pub fn child(&self, letter: Letter) -> Option<&ViewNode> {
        self.children
            .binary_search_by_key(&letter, |&(l, _)| l)
            .ok()
            .map(|i| &self.children[i].1)
    }

    /// All words (walks) in the subtree, each prefixed by `prefix`.
    fn collect_words(&self, prefix: &Word, out: &mut Vec<Word>) {
        out.push(prefix.clone());
        for (l, c) in &self.children {
            let mut w = prefix.clone();
            w.push(*l);
            c.collect_words(&w, out);
        }
    }
}

/// The radius-`r` truncation τ(T(G, v)) of the view of `G` from `v`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewTree {
    /// The root λ.
    pub root: ViewNode,
    /// The truncation radius.
    pub radius: usize,
    /// The alphabet size |L| of the underlying L-digraph.
    pub alphabet: usize,
}

impl ViewTree {
    /// Number of vertices (non-backtracking walks of length ≤ r).
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// The vertex set as sorted reduced words.
    pub fn words(&self) -> Vec<Word> {
        let mut out = Vec::new();
        self.root.collect_words(&Word::empty(), &mut out);
        out.sort();
        out
    }

    /// Whether `self` is a subtree of `other` rooted at the root
    /// (every walk of `self` is a walk of `other`).
    pub fn embeds_in(&self, other: &ViewTree) -> bool {
        fn rec(a: &ViewNode, b: &ViewNode) -> bool {
            a.children.iter().all(|(l, ac)| match b.child(*l) {
                Some(bc) => rec(ac, bc),
                None => false,
            })
        }
        rec(&self.root, &other.root)
    }
}

fn build(d: &LDigraph, node: NodeId, last: Option<Letter>, depth: usize) -> ViewNode {
    if depth == 0 {
        return ViewNode::leaf();
    }
    let mut children = Vec::new();
    for label in 0..d.alphabet_size() {
        if let Some(u) = d.out_neighbor(node, label) {
            let letter = Letter::pos(label);
            // following `letter` backtracks iff it undoes the last letter
            if last != Some(letter.inv()) {
                children.push((letter, build(d, u, Some(letter), depth - 1)));
            }
        }
        if let Some(u) = d.in_neighbor(node, label) {
            let letter = Letter::neg(label);
            if last != Some(letter.inv()) {
                children.push((letter, build(d, u, Some(letter), depth - 1)));
            }
        }
    }
    children.sort_by_key(|&(l, _)| l);
    ViewNode { children }
}

/// Computes the canonical radius-`r` view τ(T(G, v)).
///
/// ```
/// use locap_graph::gen;
/// use locap_lifts::view;
///
/// // In a directed cycle every node has the same view — PO algorithms
/// // cannot break symmetry (Fig. 2, right).
/// let g = gen::directed_cycle(5);
/// let t0 = view(&g, 0, 3);
/// for v in 1..5 {
///     assert_eq!(view(&g, v, 3), t0);
/// }
/// assert_eq!(t0.size(), 1 + 2 * 3); // path of walks: a, aa, aaa, a⁻¹, …
/// ```
pub fn view(d: &LDigraph, v: NodeId, r: usize) -> ViewTree {
    ViewTree { root: build(d, v, None, r), radius: r, alphabet: d.alphabet_size() }
}

/// Counts the distinct radius-`r` views of all nodes; most frequent first.
/// A graph is *PO-symmetric at radius r* when this census has one entry —
/// then every PO algorithm must produce the same output everywhere.
///
/// Backed by a [`ViewCache`]: views are classified by incremental class
/// refinement and each distinct tree is materialised once, so the cost is
/// near-linear in `n · |L| · r` rather than `n · |T*|`. The reference
/// implementation survives as [`view_census_naive`]; the two are asserted
/// bit-identical by the `engine_differential` test suite.
pub fn view_census(d: &LDigraph, r: usize) -> Vec<(ViewTree, usize)> {
    ViewCache::new(d).census(r)
}

/// The reference (per-vertex, no sharing) implementation of
/// [`view_census`]: builds every tree independently with [`view`].
/// Kept as the differential-testing oracle for the engine.
pub fn view_census_naive(d: &LDigraph, r: usize) -> Vec<(ViewTree, usize)> {
    let mut counts: HashMap<ViewTree, usize> = HashMap::new();
    for v in 0..d.node_count() {
        *counts.entry(view(d, v, r)).or_insert(0) += 1;
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Effectiveness counters of a [`ViewCache`].
#[derive(Debug, Clone, Default)]
pub struct ViewCacheStats {
    /// Deepest level built so far (= largest radius seen).
    pub depth: usize,
    /// Number of refinement states per level (`n · (2|L| + 1)`).
    pub states: usize,
    /// Distinct view classes at each built level (`classes[r]` ≤ `states`).
    pub classes: Vec<usize>,
    /// Subtree materialisations answered from the memo.
    pub tree_hits: u64,
    /// Subtrees actually built (once per distinct class).
    pub tree_misses: u64,
}

impl ViewCacheStats {
    /// The interning ratio `states / classes` at the deepest level —
    /// how many vertices share each allocation (≥ 1; higher is better).
    pub fn dedup_ratio(&self) -> f64 {
        match self.classes.last() {
            Some(&c) if c > 0 => self.states as f64 / c as f64,
            _ => 1.0,
        }
    }
}

/// A per-graph view engine: computes the radius-`r` views of **all**
/// vertices at once by incremental class refinement, interning identical
/// subtrees so that fibre-equivalent vertices share one allocation.
///
/// The refinement state space is `V × ({λ} ∪ L ∪ L⁻¹)` — a vertex together
/// with the letter just walked (`λ` = none, for roots). Level `0` puts all
/// states in one class; level `d` refines by the sorted list of
/// `(letter, level-(d−1) class of the state reached)` over the
/// non-backtracking letters available — exactly the recursion of [`view`],
/// so two root states get the same class at level `r` **iff** their
/// radius-`r` views are equal. Deepening to `r` reuses levels `< r`
/// (incremental deepening), and the per-state signature sweep fans out
/// across [`par`] workers on large graphs.
///
/// Trees are materialised lazily, once per distinct class, and cloned out;
/// [`ViewCache::census`] therefore builds one tree per *class* instead of
/// one per vertex.
///
/// ```
/// use locap_graph::gen;
/// use locap_lifts::{view, ViewCache};
///
/// let g = gen::directed_cycle(60);
/// let mut cache = ViewCache::new(&g);
/// assert_eq!(cache.view(7, 3), view(&g, 7, 3));
/// // all 60 vertices share a single root class:
/// let (classes, _) = cache.root_classes(3);
/// assert!(classes.iter().all(|&c| c == classes[0]));
/// ```
pub struct ViewCache<'g> {
    d: &'g LDigraph,
    /// States per vertex: 1 (no incoming letter) + 2|L| (each letter).
    width: usize,
    /// `levels[d][state]` = class of `state` at refinement depth `d`.
    levels: Vec<Vec<u32>>,
    /// `reps[d][class]` = first state of the class (its canonical witness).
    reps: Vec<Vec<u32>>,
    /// Memoized materialisations per (level, class).
    trees: Vec<Vec<Option<ViewNode>>>,
    stats: ViewCacheStats,
    /// Registry handles mirroring `stats` (hoisted: one lookup per cache).
    obs_tree_hits: obs::Counter,
    obs_tree_misses: obs::Counter,
    obs_states: obs::Counter,
    obs_classes: obs::Gauge,
}

/// Threshold below which the refinement sweep stays sequential: the per
/// -state work is tens of nanoseconds, so small graphs lose to spawn cost.
const PARALLEL_MIN_STATES: usize = 1 << 13;

/// Counter of tree-materialisation memo hits.
const VIEW_CACHE_TREE_HITS: &str = "view_cache/tree_hits";
/// Counter of tree-materialisation memo misses.
const VIEW_CACHE_TREE_MISSES: &str = "view_cache/tree_misses";
/// Counter of refinement states allocated.
const VIEW_CACHE_STATES: &str = "view_cache/states";
/// Gauge of distinct view classes at the deepest refined level.
const VIEW_CACHE_CLASSES: &str = "view_cache/classes";

impl<'g> ViewCache<'g> {
    /// Creates an empty cache for `d`; levels are built on demand.
    pub fn new(d: &'g LDigraph) -> ViewCache<'g> {
        let width = 1 + 2 * d.alphabet_size();
        let states = d.node_count() * width;
        ViewCache {
            d,
            width,
            levels: Vec::new(),
            reps: Vec::new(),
            trees: Vec::new(),
            stats: ViewCacheStats { states, ..ViewCacheStats::default() },
            obs_tree_hits: obs::counter(VIEW_CACHE_TREE_HITS),
            obs_tree_misses: obs::counter(VIEW_CACHE_TREE_MISSES),
            obs_states: obs::counter(VIEW_CACHE_STATES),
            obs_classes: obs::gauge(VIEW_CACHE_CLASSES),
        }
    }

    /// The underlying graph.
    pub fn digraph(&self) -> &'g LDigraph {
        self.d
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> &ViewCacheStats {
        &self.stats
    }

    /// Number of distinct radius-`r` view classes over **all** states
    /// (root and non-root); builds levels up to `r` if needed.
    pub fn class_count(&mut self, r: usize) -> usize {
        self.ensure_depth(r);
        self.reps[r].len()
    }

    /// The class of the radius-`r` view of `v`: two vertices get the same
    /// class **iff** `view(d, ·, r)` returns equal trees.
    pub fn root_class(&mut self, v: NodeId, r: usize) -> u32 {
        self.ensure_depth(r);
        self.levels[r][v * self.width]
    }

    /// Per-vertex root classes and the total class count at radius `r`.
    pub fn root_classes(&mut self, r: usize) -> (Vec<u32>, usize) {
        self.ensure_depth(r);
        let classes = (0..self.d.node_count()).map(|v| self.levels[r][v * self.width]).collect();
        (classes, self.reps[r].len())
    }

    /// The radius-`r` view of `v` — bit-identical to [`view`]`(d, v, r)`,
    /// but the subtree for each class is built at most once.
    pub fn view(&mut self, v: NodeId, r: usize) -> ViewTree {
        let class = self.root_class(v, r);
        self.class_view(r, class)
    }

    /// The tree of a class returned by [`ViewCache::root_class`].
    pub fn class_view(&mut self, r: usize, class: u32) -> ViewTree {
        self.ensure_depth(r);
        ViewTree { root: self.materialize(r, class), radius: r, alphabet: self.d.alphabet_size() }
    }

    /// The view census, bit-identical to [`view_census_naive`] but with
    /// one tree materialisation per class instead of per vertex.
    pub fn census(&mut self, r: usize) -> Vec<(ViewTree, usize)> {
        let _span = obs::span("view_cache/census");
        let (classes, k) = self.root_classes(r);
        let mut counts = vec![0usize; k];
        for &c in &classes {
            counts[c as usize] += 1;
        }
        let mut out = Vec::new();
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                out.push((self.class_view(r, c as u32), count));
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Cache entries currently held: refinement classes summed over the
    /// built levels. This is the quantity a budget's cache cap bounds.
    pub fn entry_count(&self) -> usize {
        self.stats.classes.iter().sum()
    }

    /// Cap-aware [`ViewCache::root_classes`]: fails with
    /// [`TruncationReason::CacheCapExceeded`] (unpublished — the caller
    /// acting on the truncation publishes it) when depth `r` needs more
    /// than `cap` entries across levels `0..=r`.
    pub fn try_root_classes(
        &mut self,
        r: usize,
        cap: Option<usize>,
    ) -> Result<(Vec<u32>, usize), TruncationReason> {
        self.try_ensure_depth(r, cap)?;
        Ok(self.root_classes(r))
    }

    /// Cap-aware [`ViewCache::class_view`].
    pub fn try_class_view(
        &mut self,
        r: usize,
        class: u32,
        cap: Option<usize>,
    ) -> Result<ViewTree, TruncationReason> {
        self.try_ensure_depth(r, cap)?;
        Ok(self.class_view(r, class))
    }

    /// Cap-aware [`ViewCache::census`].
    pub fn try_census(
        &mut self,
        r: usize,
        cap: Option<usize>,
    ) -> Result<Vec<(ViewTree, usize)>, TruncationReason> {
        self.try_ensure_depth(r, cap)?;
        Ok(self.census(r))
    }

    /// Store-backed [`ViewCache::try_census`]: consults `store` under the
    /// content key [`census_key`]`(d, r)` before computing, and writes the
    /// census back on a miss. A checksum-valid entry whose body fails the
    /// census decode counts as corrupt and falls through to a recompute;
    /// a failed write-back is recorded (`store/write_failed`) but never
    /// fails the census — the store is an accelerator, not a dependency.
    pub fn try_census_stored(
        &mut self,
        r: usize,
        cap: Option<usize>,
        store: &StoreHandle,
    ) -> Result<Vec<(ViewTree, usize)>, TruncationReason> {
        let key = census_key(self.d, r);
        if let Lookup::Hit(doc) = store.lookup(CENSUS_STORE_NS, &key) {
            match census_from_json(&doc, r, self.d.alphabet_size()) {
                Some(census) => return Ok(census),
                None => store.note_corrupt(),
            }
        }
        let census = self.try_census(r, cap)?;
        store
            .put(CENSUS_STORE_NS, &key, &census_to_json(&census, r, self.d.alphabet_size()))
            .ok();
        Ok(census)
    }

    /// Builds levels up to `r` unless the classes held across levels
    /// `0..=r` would exceed `cap`. Levels are built one at a time with
    /// the running total checked after each, so the cache never holds
    /// more than one level past the cap; the check only counts levels
    /// `0..=r`, making the outcome independent of what deeper levels a
    /// previous uncapped call may have built.
    fn try_ensure_depth(&mut self, r: usize, cap: Option<usize>) -> Result<(), TruncationReason> {
        let Some(cap) = cap else {
            self.ensure_depth(r);
            return Ok(());
        };
        loop {
            let built = self.levels.len();
            let needed = self.stats.classes.iter().take(r + 1).sum::<usize>();
            if needed > cap {
                return Err(TruncationReason::CacheCapExceeded { cap, needed });
            }
            if built > r {
                return Ok(());
            }
            self.ensure_depth(built);
        }
    }

    /// Letter encoding matching `Letter`'s derived order:
    /// `pos(l) ↦ 2l`, `neg(l) ↦ 2l + 1`, so ascending codes are ascending
    /// letters and a letter's inverse is `code ^ 1`.
    fn letter_of(code: usize) -> Letter {
        if code % 2 == 0 {
            Letter::pos(code / 2)
        } else {
            Letter::neg(code / 2)
        }
    }

    /// The signature of a state at the level being built: the sorted
    /// `(letter code, previous-level class of the reached state)` list over
    /// the non-backtracking letters available — the labels loop emits codes
    /// in increasing order, so no sort is needed.
    fn signature(&self, state: usize, prev: &[u32], sig: &mut Vec<u64>) {
        sig.clear();
        self.signature_append(state, prev, sig);
    }

    /// [`ViewCache::signature`] appending to `out` without clearing, so
    /// the refinement sweep can pack all signatures of a level into one
    /// flat buffer with no per-state allocation.
    // lint: hot
    fn signature_append(&self, state: usize, prev: &[u32], out: &mut Vec<u64>) {
        let (v, code) = (state / self.width, state % self.width);
        for label in 0..self.d.alphabet_size() {
            let out_u = self.d.out_raw(v, label);
            if out_u != LDigraph::NONE {
                let enc = 2 * label;
                // walking `letter` backtracks iff the state's incoming
                // letter (code − 1) is `letter`'s inverse (enc ^ 1)
                if code == 0 || code - 1 != enc ^ 1 {
                    out.push(
                        ((enc as u64) << 32) | prev[out_u as usize * self.width + 1 + enc] as u64,
                    );
                }
            }
            let in_u = self.d.in_raw(v, label);
            if in_u != LDigraph::NONE {
                let enc = 2 * label + 1;
                if code == 0 || code - 1 != enc ^ 1 {
                    out.push(
                        ((enc as u64) << 32) | prev[in_u as usize * self.width + 1 + enc] as u64,
                    );
                }
            }
        }
    }

    /// Builds refinement levels up to depth `r` (no-op if already built).
    fn ensure_depth(&mut self, r: usize) {
        let n_states = self.d.node_count() * self.width;
        let _span =
            if self.levels.len() <= r { Some(obs::span("view_cache/refine")) } else { None };
        while self.levels.len() <= r {
            let depth = self.levels.len();
            // one refinement round = one radius step of the paper's
            // r-round view collection; the round number is the depth
            let mut round_span = obs::span_with("round", &[("round", depth as i64)]);
            if depth == 0 {
                // one class: every radius-0 view is the bare root
                self.levels.push(vec![0; n_states]);
                self.reps.push(if n_states == 0 { Vec::new() } else { vec![0] });
            } else {
                // class = interned signature id: dense ids in first-seen
                // order reproduce the historical HashMap numbering exactly;
                // `classes.len()` is the state being interned
                let mut interner = KeyInterner::new();
                let mut classes = Vec::with_capacity(n_states);
                let mut reps = Vec::new();
                for (flat, lens) in self.signatures_for_level(depth) {
                    let mut lo = 0usize;
                    for len in lens {
                        let hi = lo + len as usize;
                        let id = interner.intern(&flat[lo..hi]);
                        if id as usize == reps.len() {
                            reps.push(classes.len() as u32);
                        }
                        classes.push(id);
                        lo = hi;
                    }
                }
                interner.publish_obs();
                self.levels.push(classes);
                self.reps.push(reps);
            }
            let k = self.reps[depth].len();
            self.trees.push(vec![None; k]);
            self.stats.classes.push(k);
            self.stats.depth = depth;
            self.obs_states.add(n_states as u64);
            self.obs_classes.set(k as i64);
            round_span.arg("classes", k as i64);
            round_span.arg("states", n_states as i64);
        }
    }

    /// One refinement sweep: the signatures of all states at `depth`, as
    /// one `(flat, lens)` pair per [`par::map_chunks`] chunk in state
    /// order (`lens[i]` words of `flat` belong to the chunk's `i`-th state).
    // lint: hot
    fn signatures_for_level(&self, depth: usize) -> Vec<(Vec<u64>, Vec<u32>)> {
        let prev = &self.levels[depth - 1];
        par::map_chunks(self.d.node_count() * self.width, PARALLEL_MIN_STATES, |states| {
            let mut flat = Vec::new(); // lint: hot-allow(per-chunk output buffer, one per chunk per refinement round)
            let mut lens = Vec::with_capacity(states.len()); // lint: hot-allow(per-chunk output buffer, one per chunk per refinement round)
            for s in states {
                let before = flat.len();
                self.signature_append(s, prev, &mut flat);
                lens.push((flat.len() - before) as u32);
            }
            (flat, lens)
        })
    }

    /// The tree of a class, memoized: equal to the naive [`view`] recursion
    /// applied to the class's witness state (and hence, by the refinement
    /// invariant, to every state of the class).
    fn materialize(&mut self, depth: usize, class: u32) -> ViewNode {
        if let Some(t) = &self.trees[depth][class as usize] {
            self.stats.tree_hits += 1;
            self.obs_tree_hits.inc();
            if obs::trace::enabled() {
                obs::trace::instant(
                    "view_cache/tree_hit",
                    &[("depth", depth as i64), ("class", class as i64)],
                );
            }
            return t.clone();
        }
        self.stats.tree_misses += 1;
        self.obs_tree_misses.inc();
        if obs::trace::enabled() {
            obs::trace::instant(
                "view_cache/tree_miss",
                &[("depth", depth as i64), ("class", class as i64)],
            );
        }
        let node = if depth == 0 {
            ViewNode::leaf()
        } else {
            let rep = self.reps[depth][class as usize] as usize;
            // re-derive the witness's child list (letter, previous-level
            // class), then materialise each child class recursively
            let mut sig = Vec::new();
            self.signature(rep, &self.levels[depth - 1], &mut sig);
            let children = sig
                .iter()
                .map(|&packed| {
                    let letter = Self::letter_of((packed >> 32) as usize);
                    let child_class = packed as u32;
                    (letter, self.materialize(depth - 1, child_class))
                })
                .collect();
            ViewNode { children }
        };
        self.trees[depth][class as usize] = Some(node.clone());
        node
    }
}

/// Store namespace holding persisted view censuses.
pub const CENSUS_STORE_NS: &str = "view-census";

/// Version of the persisted census document body.
const CENSUS_DOC_SCHEMA: u64 = 1;

/// The content key of the radius-`r` census of `d`: a digest of the full
/// adjacency function `(v, ℓ) ↦ out_neighbor(v, ℓ)` plus `n`, `|L|` and
/// `r`, so any structural change to the graph — or a different radius —
/// addresses a different store entry.
pub fn census_key(d: &LDigraph, r: usize) -> StoreKey {
    let n = d.node_count();
    let alphabet = d.alphabet_size();
    let mut words = Vec::with_capacity(3 + n * alphabet);
    words.push(n as u64);
    words.push(alphabet as u64);
    words.push(r as u64);
    for v in 0..n {
        for label in 0..alphabet {
            words.push(d.out_neighbor(v, label).map_or(u64::MAX, |u| u as u64));
        }
    }
    StoreKey::of_words(&words)
}

/// Encodes a census as a store document body: each class's count plus
/// its tree as nested `[code, children]` arrays (letter code `2ℓ` for
/// `ℓ`, `2ℓ + 1` for `ℓ⁻¹` — the `letter_of` encoding).
pub fn census_to_json(census: &[(ViewTree, usize)], radius: usize, alphabet: usize) -> Json {
    fn node_to_json(node: &ViewNode) -> Json {
        Json::Arr(
            node.children
                .iter()
                .map(|(l, c)| {
                    let code = 2 * l.label + usize::from(l.inverse);
                    Json::Arr(vec![Json::Num(code as f64), node_to_json(c)])
                })
                .collect(),
        )
    }
    Json::Obj(vec![
        ("schema".into(), Json::Num(CENSUS_DOC_SCHEMA as f64)),
        ("radius".into(), Json::Num(radius as f64)),
        ("alphabet".into(), Json::Num(alphabet as f64)),
        (
            "classes".into(),
            Json::Arr(
                census
                    .iter()
                    .map(|(tree, count)| {
                        Json::Obj(vec![
                            ("count".into(), Json::Num(*count as f64)),
                            ("tree".into(), node_to_json(&tree.root)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a census document written by [`census_to_json`], checking the
/// schema and that `radius`/`alphabet` match the expected values.
/// Returns `None` on any mismatch or malformed tree (a child list that
/// is not strictly letter-sorted is rejected — trees must stay
/// canonical so `ViewTree` equality remains view isomorphism).
pub fn census_from_json(
    doc: &Json,
    radius: usize,
    alphabet: usize,
) -> Option<Vec<(ViewTree, usize)>> {
    fn node_from_json(j: &Json) -> Option<ViewNode> {
        let entries = j.as_array()?;
        let mut children = Vec::with_capacity(entries.len());
        for entry in entries {
            let pair = entry.as_array()?;
            let (code_json, child_json) = match pair {
                [code, child] => (code, child),
                _ => return None,
            };
            let code = usize::try_from(code_json.as_u64()?).ok()?;
            let letter = if code % 2 == 0 { Letter::pos(code / 2) } else { Letter::neg(code / 2) };
            children.push((letter, node_from_json(child_json)?));
        }
        if children.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        Some(ViewNode { children })
    }
    if doc.get("schema")?.as_u64()? != CENSUS_DOC_SCHEMA {
        return None;
    }
    if doc.get("radius")?.as_u64()? != radius as u64 {
        return None;
    }
    if doc.get("alphabet")?.as_u64()? != alphabet as u64 {
        return None;
    }
    let mut out = Vec::new();
    for class in doc.get("classes")?.as_array()? {
        let count = usize::try_from(class.get("count")?.as_u64()?).ok()?;
        let root = node_from_json(class.get("tree")?)?;
        out.push((ViewTree { root, radius, alphabet }, count));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::gen;
    use locap_graph::product::toroidal;

    #[test]
    fn capped_cache_truncates_and_uncapped_call_still_succeeds() {
        let g = gen::directed_cycle(6);
        let mut cache = ViewCache::new(&g);
        // depth 2 on a cycle: 1 + k1 + k2 classes; a cap of 1 only fits
        // depth 0, so asking for depth 2 must truncate...
        let err = cache.try_census(2, Some(1)).unwrap_err();
        assert!(matches!(err, TruncationReason::CacheCapExceeded { cap: 1, .. }));
        // ...the cache stays usable, an uncapped call finishes the build
        let census = cache.try_census(2, None).unwrap();
        assert_eq!(census, view_census_naive(&g, 2));
        // and with the levels now built, a generous cap passes while the
        // tight cap still fails deterministically (build-order independent)
        assert!(cache.try_root_classes(2, Some(cache.entry_count())).is_ok());
        assert!(cache.try_root_classes(2, Some(1)).is_err());
        assert!(cache.try_class_view(1, 0, Some(1)).is_err());
    }

    #[test]
    fn directed_cycle_views_identical() {
        let g = gen::directed_cycle(7);
        let census = view_census(&g, 3);
        assert_eq!(census.len(), 1, "all views identical");
        assert_eq!(census[0].1, 7);
    }

    #[test]
    fn view_of_directed_cycle_is_path() {
        let g = gen::directed_cycle(7);
        let t = view(&g, 0, 2);
        // walks: λ, a, aa, a⁻¹, a⁻¹a⁻¹
        assert_eq!(t.size(), 5);
        assert_eq!(t.root.depth(), 2);
        let words: Vec<String> = t.words().iter().map(|w| w.to_string()).collect();
        assert!(words.contains(&"aa".to_string()));
        assert!(words.contains(&"a\u{207b}\u{00b9}a\u{207b}\u{00b9}".to_string()));
    }

    #[test]
    fn view_detects_asymmetry() {
        // A directed path 0 -> 1 -> 2: endpoints see different views.
        let mut d = LDigraph::new(3, 1);
        d.add_edge(0, 1, 0).unwrap();
        d.add_edge(1, 2, 0).unwrap();
        let v0 = view(&d, 0, 2);
        let v1 = view(&d, 1, 2);
        let v2 = view(&d, 2, 2);
        assert_ne!(v0, v1);
        assert_ne!(v0, v2);
        assert_ne!(v1, v2);
    }

    #[test]
    fn toroidal_views_identical() {
        // Cayley graphs are vertex-transitive with consistent labels:
        // one view class even though girth is 4 < 2r+1.
        let t = toroidal(2, 4);
        let census = view_census(&t, 2);
        assert_eq!(census.len(), 1);
        assert_eq!(census[0].1, 16);
    }

    #[test]
    fn view_size_on_label_complete_graph() {
        // In a label-complete L-digraph with girth > 2r+1, the view is the
        // complete tree: every non-root node has 2|L| - 1 children.
        let g = gen::directed_cycle(9); // |L| = 1
        let t = view(&g, 0, 4);
        assert_eq!(t.size(), 9); // 1 + 2*4 walks
        let t2 = toroidal(2, 5); // |L| = 2, girth 4: not a tree at r >= 2
        let v = view(&t2, 0, 1);
        assert_eq!(v.size(), 5); // 1 + 2*|L| at radius 1 regardless of girth
    }

    #[test]
    fn embeds_in_relation() {
        let g = gen::directed_cycle(9);
        let small = view(&g, 0, 2);
        let big = view(&g, 0, 4);
        assert!(small.embeds_in(&big));
        assert!(!big.embeds_in(&small));
        assert!(small.embeds_in(&small));
    }

    #[test]
    fn child_lookup() {
        let g = gen::directed_cycle(5);
        let t = view(&g, 0, 2);
        let fwd = t.root.child(Letter::pos(0)).unwrap();
        assert_eq!(fwd.children.len(), 1, "non-backtracking: only forward");
        assert!(t.root.child(Letter::pos(1)).is_none());
    }

    #[test]
    fn census_separates_degrees() {
        // A star with PO structure: centre vs leaves have different views.
        let s = gen::star(3);
        let po = locap_graph::PoGraph::canonical(&s);
        let census = view_census(po.digraph(), 1);
        // centre type (1 node) + leaf types; leaves differ by which port of
        // the centre they hang off, so views differ in the incoming label.
        let total: usize = census.iter().map(|x| x.1).sum();
        assert_eq!(total, 4);
        assert!(census.len() >= 2);
    }

    #[test]
    fn census_json_codec_round_trips() {
        let t = toroidal(3, 4);
        for r in 0..3 {
            let census = view_census(&t, r);
            let doc = census_to_json(&census, r, t.alphabet_size());
            // through the compact text form, as the store serialises it
            let parsed = Json::parse(&doc.to_string()).unwrap();
            let back = census_from_json(&parsed, r, t.alphabet_size()).unwrap();
            assert_eq!(back, census, "radius {r}");
            // mismatched expectations are rejected, not misdecoded
            assert!(census_from_json(&parsed, r + 1, t.alphabet_size()).is_none());
            assert!(census_from_json(&parsed, r, t.alphabet_size() + 1).is_none());
        }
    }

    #[test]
    fn census_key_separates_graphs_and_radii() {
        let a = gen::directed_cycle(8);
        let b = gen::directed_cycle(9);
        assert_eq!(census_key(&a, 2), census_key(&a, 2));
        assert_ne!(census_key(&a, 2), census_key(&a, 3));
        assert_ne!(census_key(&a, 2), census_key(&b, 2));
    }

    #[test]
    fn stored_census_hits_warm_and_recovers_from_corruption() {
        let dir = std::env::temp_dir().join(format!("locap-lifts-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = StoreHandle::open(&dir).unwrap();
        let g = gen::directed_cycle(10);
        let expected = view_census(&g, 2);

        // cold: computed and written back
        let mut cache = ViewCache::new(&g);
        assert_eq!(cache.try_census_stored(2, None, &store).unwrap(), expected);
        assert_eq!((store.stats().cold_miss, store.stats().write), (1, 1));

        // warm: a fresh cache answers from disk
        let mut cache = ViewCache::new(&g);
        assert_eq!(cache.try_census_stored(2, None, &store).unwrap(), expected);
        assert_eq!(store.stats().warm_hit, 1);

        // corrupt the entry on disk: typed miss, recompute, repair
        let path = store.entry_path(CENSUS_STORE_NS, &census_key(&g, 2));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut cache = ViewCache::new(&g);
        assert_eq!(cache.try_census_stored(2, None, &store).unwrap(), expected);
        assert!(store.stats().corrupt >= 1);
        assert_eq!(store.stats().write, 2, "repaired entry rewritten");
        assert_eq!(
            store.lookup(CENSUS_STORE_NS, &census_key(&g, 2)),
            Lookup::Hit(census_to_json(&expected, 2, g.alphabet_size()),)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
