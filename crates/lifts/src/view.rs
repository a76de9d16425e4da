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
//!
//! [`ViewCache`] classifies the views of all vertices at once. It refines
//! classes of *walk states* (a vertex plus the letter just walked to
//! reach it, `n · 2|L|` of them per level) and classifies the `n` roots
//! in one pass per radius over the walk level below; its
//! [`ViewCacheStats`] count both.

use std::collections::HashMap;
use std::fmt;

use locap_graph::budget::TruncationReason;
use locap_graph::{par, KeyInterner, LDigraph, NodeId};
use locap_lint::hot;
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
    /// Walk states per level, `n · 2|L|`: a vertex together with the
    /// letter just walked to reach it.
    pub states: usize,
    /// Distinct walk classes at each built level (`classes[d]` ≤
    /// `states`). Radius `r` reads levels `0..r`, so a radius-1 query
    /// builds level 0 only.
    pub classes: Vec<usize>,
    /// Root states per radius pass, `n`: one per vertex.
    pub root_states: usize,
    /// `root_classes[r]` = the distinct radius-`r` views, `None` for a
    /// radius not asked for yet.
    pub root_classes: Vec<Option<usize>>,
    /// Subtree materialisations answered from the memo.
    pub tree_hits: u64,
    /// Subtrees actually built (once per distinct class).
    pub tree_misses: u64,
}

impl ViewCacheStats {
    /// Vertices per distinct view at the largest radius passed,
    /// `root_states / root_classes[r]` — how many vertices share each
    /// root tree (≥ 1; higher is better).
    pub fn dedup_ratio(&self) -> f64 {
        match self.root_classes.iter().flatten().last() {
            Some(&k) if k > 0 => self.root_states as f64 / k as f64,
            _ => 1.0,
        }
    }
}

/// The counters on one line.
///
/// ```
/// use locap_graph::gen;
/// use locap_lifts::ViewCache;
///
/// let g = gen::directed_cycle(5);
/// let mut cache = ViewCache::new(&g);
/// cache.census(2);
/// assert_eq!(
///     cache.stats().to_string(),
///     "10 walk states per level, classes by level [1, 2]; 5 roots, \
///      views by radius [r2: 1]; tree memo 1 hits / 4 misses, dedup 5.0x"
/// );
/// ```
impl fmt::Display for ViewCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} walk states per level, classes by level {:?}; {} roots, views by radius [",
            self.states, self.classes, self.root_states
        )?;
        let passed = self.root_classes.iter().enumerate().filter_map(|(r, k)| Some((r, (*k)?)));
        for (i, (r, k)) in passed.enumerate() {
            write!(f, "{}r{r}: {k}", if i == 0 { "" } else { ", " })?;
        }
        write!(
            f,
            "]; tree memo {} hits / {} misses, dedup {:.1}x",
            self.tree_hits,
            self.tree_misses,
            self.dedup_ratio()
        )
    }
}

/// A partition of refinement states into classes, numbered densely in
/// first-seen state order.
#[derive(Debug, Clone, Default)]
struct Partition {
    /// `class[s]` = the class of state `s`; empty for walk level 0,
    /// whose one class is implicit.
    class: Vec<u32>,
    /// `reps[c]` = the first state of class `c` (its canonical witness).
    reps: Vec<u32>,
    /// Memoized tree of each class.
    trees: Vec<Option<ViewNode>>,
}

impl Partition {
    /// All `n` states in one class (none when `n` is 0), with no
    /// per-state entry: walk level 0 as it is stored, where every tree is
    /// a leaf.
    fn one_class(n: usize) -> Partition {
        let reps = if n == 0 { Vec::new() } else { vec![0] };
        Partition { class: Vec::new(), trees: vec![None; reps.len()], reps }
    }

    /// Gives the next state the class of its signature `sig`: the
    /// interned id, so equal signatures share a class.
    fn push(&mut self, interner: &mut KeyInterner, sig: &[u64]) {
        let id = interner.intern(sig);
        if id as usize == self.reps.len() {
            self.reps.push(self.class.len() as u32);
            self.trees.push(None);
        }
        self.class.push(id);
    }
}

/// Which partition a class belongs to.
#[derive(Debug, Clone, Copy)]
enum Level {
    /// Walk states at this depth.
    Walk(usize),
    /// Vertices at this radius.
    Root(usize),
}

/// A per-graph view engine: computes the radius-`r` views of **all**
/// vertices at once by incremental class refinement, interning identical
/// subtrees so that fibre-equivalent vertices share one allocation.
///
/// The refinement runs over the *walk states* `V × (L ∪ L⁻¹)`: a vertex
/// together with the letter just walked to reach it. Level `0` puts all
/// walk states in one class; level `d` refines by the sorted list of
/// `(letter, level-(d−1) class of the state reached)` over the
/// non-backtracking letters available, so two walk states share a
/// level-`d` class **iff** the depth-`d` subtrees below them in the view
/// are equal. The per-state sweep fans out across [`par`] workers on
/// large graphs. A radius-`r` view reads walk states only below its
/// root, at levels `0..r`, so the *root classes* of radius `r` come from
/// one sequential pass, memoised per radius, that interns each vertex's
/// signature over all its letters at walk level `r − 1` — exactly the
/// recursion of [`view`], so two vertices share a root class **iff**
/// their radius-`r` views are equal. Any radius reuses the walk levels
/// an earlier query built. A radius-1 query builds walk level 0 alone,
/// one implicit class that stores and interns nothing per state, and
/// interns the `n` roots.
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
    /// Walk states per vertex, `2|L|`: one per letter code (`letter_of`).
    width: usize,
    /// `walks[d]` = the walk states' classes at depth `d`; depth 0 is
    /// one implicit class ([`Partition::one_class`]).
    walks: Vec<Partition>,
    /// `roots[r]` = the vertices' classes at radius `r`, once passed.
    roots: Vec<Option<Partition>>,
    /// Subtree materialisations answered from the memo.
    tree_hits: u64,
    /// Subtrees built, once per distinct class.
    tree_misses: u64,
    /// Registry handles for the two tallies and the states swept
    /// (hoisted: one lookup per cache).
    obs_tree_hits: obs::Counter,
    obs_tree_misses: obs::Counter,
    obs_states: obs::Counter,
}

/// Threshold below which the refinement sweep stays sequential: the per
/// -state work is tens of nanoseconds, so small graphs lose to spawn cost.
const PARALLEL_MIN_STATES: usize = 1 << 13;

/// The `back` code of a root in [`ViewCache::signature_append`]: a root
/// was reached by no letter, so no letter walks back.
const ROOT: usize = usize::MAX;

/// Counter of tree-materialisation memo hits.
const VIEW_CACHE_TREE_HITS: &str = "view_cache/tree_hits";
/// Counter of tree-materialisation memo misses.
const VIEW_CACHE_TREE_MISSES: &str = "view_cache/tree_misses";
/// Counter of refinement states swept: walk states per level, vertices
/// per root pass.
const VIEW_CACHE_STATES: &str = "view_cache/states";

impl<'g> ViewCache<'g> {
    /// Creates an empty cache for `d`; levels are built on demand.
    pub fn new(d: &'g LDigraph) -> ViewCache<'g> {
        ViewCache {
            d,
            width: 2 * d.alphabet_size(),
            walks: Vec::new(),
            roots: Vec::new(),
            tree_hits: 0,
            tree_misses: 0,
            obs_tree_hits: obs::counter(VIEW_CACHE_TREE_HITS),
            obs_tree_misses: obs::counter(VIEW_CACHE_TREE_MISSES),
            obs_states: obs::counter(VIEW_CACHE_STATES),
        }
    }

    /// The underlying graph.
    pub fn digraph(&self) -> &'g LDigraph {
        self.d
    }

    /// Effectiveness counters, read off the partitions built so far.
    pub fn stats(&self) -> ViewCacheStats {
        ViewCacheStats {
            states: self.states(),
            classes: self.walks.iter().map(|level| level.reps.len()).collect(),
            root_states: self.d.node_count(),
            root_classes: self.roots.iter().map(|r| Some(r.as_ref()?.reps.len())).collect(),
            tree_hits: self.tree_hits,
            tree_misses: self.tree_misses,
        }
    }

    /// Walk states per level, `n · 2|L|`.
    fn states(&self) -> usize {
        self.d.node_count() * self.width
    }

    /// The number of root classes at radius `r`, once passed.
    fn root_count(&self, r: usize) -> Option<usize> {
        Some(self.roots.get(r)?.as_ref()?.reps.len())
    }

    /// The class of the radius-`r` view of `v`, read in place: two
    /// vertices get the same class **iff** `view(d, ·, r)` returns equal
    /// trees. `None` until a call has passed radius `r`, and for `v` out
    /// of range.
    pub fn root_class(&self, v: NodeId, r: usize) -> Option<u32> {
        self.roots.get(r)?.as_ref()?.class.get(v).copied()
    }

    /// Per-vertex root classes, read in place, and the class count at
    /// radius `r`.
    pub fn root_classes(&mut self, r: usize) -> (&[u32], usize) {
        self.ensure(r);
        let roots = self.partition(Level::Root(r));
        (&roots.class, roots.reps.len())
    }

    /// The radius-`r` view of `v` — bit-identical to [`view`]`(d, v, r)`,
    /// but the subtree for each class is built at most once.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn view(&mut self, v: NodeId, r: usize) -> ViewTree {
        let class = self.root_classes(r).0[v];
        self.class_view(r, class)
    }

    /// The tree of a class returned by [`ViewCache::root_classes`].
    pub fn class_view(&mut self, r: usize, class: u32) -> ViewTree {
        self.ensure(r);
        ViewTree {
            root: self.materialize(Level::Root(r), class),
            radius: r,
            alphabet: self.d.alphabet_size(),
        }
    }

    /// The view census, bit-identical to [`view_census_naive`] but with
    /// one tree materialisation per class instead of per vertex.
    pub fn census(&mut self, r: usize) -> Vec<(ViewTree, usize)> {
        let _span = obs::span("view_cache/census");
        let (classes, k) = self.root_classes(r);
        let mut counts = vec![0usize; k];
        for &c in classes {
            counts[c as usize] += 1;
        }
        let mut out: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(c, &count)| (self.class_view(r, c as u32), count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Cache entries currently held: walk classes summed over the built
    /// levels plus root classes summed over the radii passed.
    pub fn entry_count(&self) -> usize {
        self.walks.iter().chain(self.roots.iter().flatten()).map(|p| p.reps.len()).sum()
    }

    /// Cap-aware [`ViewCache::root_classes`]: fails with
    /// [`TruncationReason::CacheCapExceeded`] (unpublished — the caller
    /// acting on the truncation publishes it) when radius `r` needs more
    /// than `cap` entries: the walk classes of levels `0..r` plus the
    /// root classes at `r`.
    pub fn try_root_classes(
        &mut self,
        r: usize,
        cap: Option<usize>,
    ) -> Result<(&[u32], usize), TruncationReason> {
        self.try_ensure(r, cap)?;
        Ok(self.root_classes(r))
    }

    /// Cap-aware [`ViewCache::census`].
    pub fn try_census(
        &mut self,
        r: usize,
        cap: Option<usize>,
    ) -> Result<Vec<(ViewTree, usize)>, TruncationReason> {
        self.try_ensure(r, cap)?;
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

    /// [`ViewCache::try_ensure`] with no cap, which cannot fail.
    fn ensure(&mut self, r: usize) {
        if self.try_ensure(r, None).is_err() {
            unreachable!("only a cap truncates the refinement");
        }
    }

    /// Builds what radius `r` reads — walk levels `0..r`, then the root
    /// pass at `r` — unless the entries they hold would exceed `cap`:
    /// the walk classes of levels `0..r` plus the root classes at `r`.
    /// Steps run one at a time with the running total checked before
    /// each and after the last, so the cache never holds more than one
    /// step past the cap; the check counts only what radius `r` reads,
    /// making the outcome independent of what other radii a previous
    /// uncapped call may have built.
    fn try_ensure(&mut self, r: usize, cap: Option<usize>) -> Result<(), TruncationReason> {
        let _span = self.root_count(r).is_none().then(|| obs::span("view_cache/refine"));
        loop {
            let walks = self.walks.iter().take(r).map(|level| level.reps.len()).sum::<usize>();
            let roots = self.root_count(r);
            let needed = walks + roots.unwrap_or(0);
            if let Some(cap) = cap.filter(|&cap| needed > cap) {
                return Err(TruncationReason::CacheCapExceeded { cap, needed });
            }
            if self.walks.len() < r {
                self.refine_walks();
            } else if roots.is_none() {
                self.pass_roots(r);
            } else {
                return Ok(());
            }
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

    /// Appends to `out`, without clearing it, the signature of vertex `v`
    /// entered by the inverse of letter code `back` ([`ROOT`] for a
    /// root): the sorted `(letter code, class in walk level `prev` of
    /// the walk state reached)` list over the letters available at `v`
    /// other than `back`, where `prev` is [`ViewCache::walk_classes`] of
    /// that level (`None`, class 0 throughout, for level 0). The labels
    /// loop emits codes in increasing order, so no sort is needed, and
    /// appending lets the refinement sweep pack all signatures of a level
    /// into one flat buffer with no per-state allocation.
    #[hot]
    fn signature_append(&self, v: usize, back: usize, prev: Option<&[u32]>, out: &mut Vec<u64>) {
        for label in 0..self.d.alphabet_size() {
            for (enc, u) in
                [(2 * label, self.d.out_raw(v, label)), (2 * label + 1, self.d.in_raw(v, label))]
            {
                if u != LDigraph::NONE && enc != back {
                    let class = match prev {
                        Some(prev) => prev[u as usize * self.width + enc],
                        None => 0,
                    };
                    out.push(((enc as u64) << 32) | class as u64);
                }
            }
        }
    }

    /// The per-state classes of walk level `depth`, which must be built:
    /// `None` for level 0, whose one class is implicit.
    fn walk_classes(&self, depth: usize) -> Option<&[u32]> {
        (depth > 0).then(|| self.walks[depth].class.as_slice())
    }

    /// Builds the next walk level: level 0 is one implicit class that
    /// stores nothing per state, level `d` interns every walk state's
    /// signature over level `d − 1`. Either way the level counts its
    /// `n · 2|L|` states.
    fn refine_walks(&mut self) {
        let depth = self.walks.len();
        // one refinement round = one radius step of the paper's r-round
        // view collection
        let _round_span = obs::span("round");
        let level = if depth == 0 {
            Partition::one_class(self.states())
        } else {
            // dense ids in first-seen state order
            let mut interner = KeyInterner::new();
            let mut level = Partition::default();
            level.class.reserve(self.states());
            for (flat, lens) in self.walk_signatures(depth) {
                let mut lo = 0usize;
                for len in lens {
                    let hi = lo + len as usize;
                    level.push(&mut interner, &flat[lo..hi]);
                    lo = hi;
                }
            }
            interner.publish_obs();
            level
        };
        self.walks.push(level);
        self.obs_states.add(self.states() as u64);
    }

    /// One refinement sweep: the signatures of all walk states at
    /// `depth`, as one `(flat, lens)` pair per [`par::map_chunks`] chunk
    /// in state order (`lens[i]` words of `flat` belong to the chunk's
    /// `i`-th state).
    #[hot]
    fn walk_signatures(&self, depth: usize) -> Vec<(Vec<u64>, Vec<u32>)> {
        let prev = self.walk_classes(depth - 1);
        par::map_chunks(self.states(), PARALLEL_MIN_STATES, |states| {
            #[hot_allow("per-chunk output buffer, one per chunk per refinement round")]
            let mut flat = Vec::new();
            #[hot_allow("per-chunk output buffer, one per chunk per refinement round")]
            let mut lens = Vec::with_capacity(states.len());
            for s in states {
                let before = flat.len();
                let (v, code) = (s / self.width, s % self.width);
                self.signature_append(v, code ^ 1, prev, &mut flat);
                lens.push((flat.len() - before) as u32);
            }
            (flat, lens)
        })
    }

    /// The root pass at radius `r`, recorded as a refinement `round`:
    /// radius 0 is one class, radius `r ≥ 1` interns each vertex's
    /// signature over walk level `r − 1`.
    fn pass_roots(&mut self, r: usize) {
        let _round_span = obs::span("round");
        let n = self.d.node_count();
        let roots = match r.checked_sub(1) {
            None => Partition { class: vec![0; n], ..Partition::one_class(n) },
            Some(below) => self.intern_roots(self.walk_classes(below)),
        };
        if self.roots.len() <= r {
            self.roots.resize(r + 1, None);
        }
        self.roots[r] = Some(roots);
        self.obs_states.add(n as u64);
    }

    /// Interns every vertex's signature over the walk classes `prev` (as
    /// [`ViewCache::signature_append`] takes them) in vertex order,
    /// through one reused scratch buffer: a sequential pass, since it
    /// sweeps `n` states where a walk level sweeps `n · 2|L|`.
    #[hot]
    fn intern_roots(&self, prev: Option<&[u32]>) -> Partition {
        let n = self.d.node_count();
        let mut interner = KeyInterner::new();
        let mut roots = Partition::default();
        roots.class.reserve(n);
        let mut sig = Vec::new();
        hot_setup_end!();
        for v in 0..n {
            sig.clear();
            self.signature_append(v, ROOT, prev, &mut sig);
            roots.push(&mut interner, &sig);
        }
        interner.publish_obs();
        roots
    }

    /// The partition `level` names; [`ViewCache::ensure`] must have
    /// passed a root level.
    fn partition(&mut self, level: Level) -> &mut Partition {
        match level {
            Level::Walk(d) => &mut self.walks[d],
            Level::Root(r) => self.roots[r].as_mut().expect("ensure(r) passes radius r"),
        }
    }

    /// The tree of a class, memoized: equal to the naive [`view`] recursion
    /// applied to the class's witness (and hence, by the refinement
    /// invariant, to every state of the class).
    fn materialize(&mut self, level: Level, class: u32) -> ViewNode {
        let (Level::Walk(depth) | Level::Root(depth)) = level;
        if let Some(t) = self.partition(level).trees[class as usize].clone() {
            self.tree_hits += 1;
            self.obs_tree_hits.inc();
            return t;
        }
        self.tree_misses += 1;
        self.obs_tree_misses.inc();
        let node = match depth.checked_sub(1) {
            None => ViewNode::leaf(),
            Some(below) => {
                let rep = self.partition(level).reps[class as usize] as usize;
                let (v, back) = match level {
                    Level::Walk(_) => (rep / self.width, (rep % self.width) ^ 1),
                    Level::Root(_) => (rep, ROOT),
                };
                // re-derive the witness's child list (letter, class one
                // walk level down), then materialise each child class
                let mut sig = Vec::new();
                self.signature_append(v, back, self.walk_classes(below), &mut sig);
                let children = sig
                    .iter()
                    .map(|&packed| {
                        let letter = Self::letter_of((packed >> 32) as usize);
                        (letter, self.materialize(Level::Walk(below), packed as u32))
                    })
                    .collect();
                ViewNode { children }
            }
        };
        self.partition(level).trees[class as usize] = Some(node.clone());
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
        assert!(cache.try_root_classes(1, Some(1)).is_err());
    }

    /// Walk level 0 is one implicit class that stores nothing per state,
    /// and what callers read stays what the explicit level gave. Pinned
    /// for radii 1–3, asked in turn of one cache, on directed cycles, a
    /// torus and a lift of the Petersen graph: the census as (tree size,
    /// count) pairs, the entry count, the entries a cap of 1 reports as
    /// needed, the counters, and the root classes.
    #[test]
    fn implicit_level_zero_keeps_what_callers_read() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let petersen = locap_graph::PoGraph::canonical(&gen::petersen()).digraph().clone();
        let (petersen_lift, _) =
            crate::random_lift(&petersen, 2, &mut StdRng::seed_from_u64(0x9E7E));
        /// Per radius: census, entry count, entries needed, counters.
        type Pinned = (Vec<(usize, usize)>, usize, usize, &'static str);
        /// A graph, the root class of each vertex, and radii 1–3.
        type Case = (LDigraph, fn(NodeId) -> u32, [Pinned; 3]);
        let cases: [Case; 4] = [
            (
                gen::directed_cycle(5),
                |_| 0,
                [
                    (vec![(3, 5)], 2, 2, "10 walk states per level, classes by level [1]; 5 roots, views by radius [r1: 1]; tree memo 1 hits / 2 misses, dedup 5.0x"),
                    (vec![(5, 5)], 5, 4, "10 walk states per level, classes by level [1, 2]; 5 roots, views by radius [r1: 1, r2: 1]; tree memo 3 hits / 5 misses, dedup 5.0x"),
                    (vec![(7, 5)], 8, 6, "10 walk states per level, classes by level [1, 2, 2]; 5 roots, views by radius [r1: 1, r2: 1, r3: 1]; tree memo 5 hits / 8 misses, dedup 5.0x"),
                ],
            ),
            (
                gen::directed_cycle(8),
                |_| 0,
                [
                    (vec![(3, 8)], 2, 2, "16 walk states per level, classes by level [1]; 8 roots, views by radius [r1: 1]; tree memo 1 hits / 2 misses, dedup 8.0x"),
                    (vec![(5, 8)], 5, 4, "16 walk states per level, classes by level [1, 2]; 8 roots, views by radius [r1: 1, r2: 1]; tree memo 3 hits / 5 misses, dedup 8.0x"),
                    (vec![(7, 8)], 8, 6, "16 walk states per level, classes by level [1, 2, 2]; 8 roots, views by radius [r1: 1, r2: 1, r3: 1]; tree memo 5 hits / 8 misses, dedup 8.0x"),
                ],
            ),
            (
                toroidal(2, 4),
                |_| 0,
                [
                    (vec![(5, 16)], 2, 2, "64 walk states per level, classes by level [1]; 16 roots, views by radius [r1: 1]; tree memo 3 hits / 2 misses, dedup 16.0x"),
                    (vec![(17, 16)], 7, 6, "64 walk states per level, classes by level [1, 4]; 16 roots, views by radius [r1: 1, r2: 1]; tree memo 15 hits / 7 misses, dedup 16.0x"),
                    (vec![(53, 16)], 12, 10, "64 walk states per level, classes by level [1, 4, 4]; 16 roots, views by radius [r1: 1, r2: 1, r3: 1]; tree memo 27 hits / 12 misses, dedup 16.0x"),
                ],
            ),
            (
                petersen_lift,
                // views are lift-invariant: both copies of base vertex b
                // (lift vertices b and b + 10) share its class
                |v| (v % 10) as u32,
                [
                    (vec![(4, 2); 10], 11, 11, "360 walk states per level, classes by level [1]; 20 roots, views by radius [r1: 10]; tree memo 29 hits / 11 misses, dedup 2.0x"),
                    (vec![(10, 2); 10], 55, 45, "360 walk states per level, classes by level [1, 34]; 20 roots, views by radius [r1: 10, r2: 10]; tree memo 83 hits / 45 misses, dedup 2.0x"),
                    (vec![(22, 2); 10], 105, 85, "360 walk states per level, classes by level [1, 34, 40]; 20 roots, views by radius [r1: 10, r2: 10, r3: 10]; tree memo 143 hits / 85 misses, dedup 2.0x"),
                ],
            ),
        ];
        for (d, root_class, radii) in &cases {
            let mut cache = ViewCache::new(d);
            let roots: Vec<u32> = (0..d.node_count()).map(root_class).collect();
            for (r, (census, entries, needed, stats)) in (1..).zip(radii) {
                let got = cache.census(r);
                assert_eq!(got, view_census_naive(d, r), "census at radius {r}");
                let sizes: Vec<(usize, usize)> = got.iter().map(|(t, c)| (t.size(), *c)).collect();
                assert_eq!(&sizes, census, "census at radius {r}");
                assert_eq!(cache.root_classes(r), (&roots[..], census.len()), "radius {r}");
                assert_eq!(cache.entry_count(), *entries, "entries at radius {r}");
                assert_eq!(cache.stats().to_string(), *stats, "radius {r}");
                assert_eq!(
                    cache.try_root_classes(r, Some(1)).unwrap_err(),
                    TruncationReason::CacheCapExceeded { cap: 1, needed: *needed },
                    "radius {r}"
                );
                let fits = cache.try_root_classes(r, Some(*needed)).map(|(_, k)| k);
                assert_eq!(fits, Ok(census.len()), "radius {r}");
            }
        }
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
