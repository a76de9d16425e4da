//! The shared memoized view/neighbourhood engine.
//!
//! Every experiment in the workspace bottoms out in the same inner loop:
//! extract the radius-`r` neighbourhood of every vertex (a [`ViewTree`]
//! in PO, an [`OrderedNbhd`]/[`IdNbhd`] in OI/ID) and evaluate an
//! algorithm on it. Done naively that work is repeated per vertex, per
//! call, with no sharing — and the paper's constructions (iterated
//! wreath-product Cayley graphs, `l`-lifts) are exactly the ones that
//! multiply vertex counts while *collapsing* the number of distinct
//! neighbourhoods.
//!
//! This module exploits the collapse with one memo-and-broadcast loop
//! shared by all six runs: each vertex is mapped to its class, the
//! algorithm is **evaluated once per class**, and the class's output is
//! handed to every member through a per-vertex sink (a bit for vertex
//! algorithms, an edge assembly for edge algorithms). The models differ
//! only in how a vertex finds its class:
//!
//! * [`ViewEngine`] (PO) wraps [`locap_lifts::ViewCache`] — incremental
//!   class refinement over walk states computes the view classes of
//!   **all** vertices at once (radius `r` reuses the walk levels of
//!   earlier radii, and one pass over the vertices reads off the root
//!   classes), identical subtrees are interned, and the per-state sweep
//!   fans across [`locap_graph::par`] workers.
//! * [`NbhdEngine`] (OI as [`OiEngine`], ID as [`IdEngine`]) extracts each
//!   vertex's canonical form as a packed `u64` key
//!   ([`locap_graph::canon`]'s `*_key_into`, `O(|ball|)` with no per-call
//!   allocation) straight from the [`Graph`]'s flat rows and interns it
//!   into a per-engine [`KeyInterner`] — type equality is id equality, so
//!   the hot loop never hashes an owned struct. The two models differ
//!   only in their [`NbhdKey`].
//!
//! Everything is bit-identical to the naive paths in [`crate::run`]
//! (asserted by the `engine_differential` test suite). Every run
//! publishes its cache effectiveness into the global [`locap_obs`]
//! registry (`engine/{po,oi,id}/…` counters, one
//! `engine/<model>/run_vertex|run_edge` span per call), so binaries and
//! the bench gate export unified metrics without threading state.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use std::collections::BTreeSet;

use locap_obs as obs;

use locap_graph::budget::{Budgeted, RunBudget, TruncationReason};
use locap_graph::canon::{id_key_into, ordered_key_into, IdNbhd, NbhdScratch, OrderedNbhd};
use locap_graph::{Edge, Graph, KeyInterner, LDigraph, NodeId};
use locap_lifts::{Letter, ViewCache, ViewTree};

use crate::error::RunError;
use crate::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm,
};

/// Registry handles and trace names of one model's engine: one counter
/// family per model under `engine/<model>/…`, hoisted at engine
/// construction so run loops pay only atomic adds.
#[derive(Debug, Clone)]
struct EngineObs {
    runs: obs::Counter,
    vertices: obs::Counter,
    evals: obs::Counter,
    hits: obs::Counter,
    classes: obs::Gauge,
    run_vertex: String,
    run_edge: String,
    miss: String,
    dedup: String,
}

impl EngineObs {
    fn new(model: &str) -> EngineObs {
        EngineObs {
            runs: obs::counter(&format!("engine/{model}/runs")),
            vertices: obs::counter(&format!("engine/{model}/vertices")),
            evals: obs::counter(&format!("engine/{model}/evals")),
            hits: obs::counter(&format!("engine/{model}/hits")),
            classes: obs::gauge(&format!("engine/{model}/classes")),
            run_vertex: format!("engine/{model}/run_vertex"),
            run_edge: format!("engine/{model}/run_edge"),
            miss: format!("engine/{model}/miss"),
            dedup: format!("engine/{model}/dedup"),
        }
    }

    /// Publishes the deltas of one run (classes is a level, not a total:
    /// the distinct classes this run evaluated) and one trace instant
    /// summarising it — individual misses are traced inline by
    /// [`memo_broadcast`]; hits are too frequent to trace per vertex and
    /// appear here in aggregate.
    fn publish(&self, vertices: usize, evals: u64, hits: u64) {
        self.runs.inc();
        self.vertices.add(vertices as u64);
        self.evals.add(evals);
        self.hits.add(hits);
        self.classes.set(evals as i64);
        if obs::trace::enabled() {
            obs::trace::instant(
                &self.dedup,
                &[
                    ("vertices", vertices as i64),
                    ("classes", evals as i64),
                    ("evals", evals as i64),
                    ("hits", hits as i64),
                ],
            );
        }
    }
}

/// How a model maps vertices to classes for [`memo_broadcast`]: vertices
/// of one class have equal radius-`r` neighbourhoods, so one evaluation
/// answers them all.
trait Classes {
    /// The neighbourhood an algorithm evaluates.
    type Nbhd;
    /// The radius-`r` class of `v`.
    fn class_of(&mut self, v: NodeId, r: usize) -> usize;
    /// The radius-`r` neighbourhood of `class`, the class
    /// [`Classes::class_of`] just returned.
    fn nbhd(&mut self, class: usize, r: usize) -> Self::Nbhd;
}

/// The one memo-and-broadcast loop behind all six engine runs. It walks
/// the `n` vertices in order, evaluates `eval` once per class, hands
/// every vertex its class's output through `sink`, and publishes the
/// run's counters. Each classified vertex polls the interrupts
/// ([`RunBudget::poll_interrupt`]: cancellation per vertex, the deadline
/// clock per [`POLL_STRIDE`](locap_graph::budget::POLL_STRIDE) vertices
/// and before every evaluation), and each new class checks the cache
/// cap; on truncation the run stops with the prefix answered so far.
/// (For PO the class refinement has already checked the cap on the walk
/// classes and the root classes it evaluates, so the per-class check
/// never trips there.)
///
/// # Errors
///
/// The first error `sink` reports; nothing is published then.
#[expect(
    clippy::indexing_slicing,
    reason = "the memo is resized to cover the class id just returned before it is indexed"
)]
// lint: hot
fn memo_broadcast<C: Classes, O: Clone>(
    classes: &mut C,
    n: usize,
    r: usize,
    budget: &RunBudget,
    engine: &EngineObs,
    eval: impl Fn(&C::Nbhd) -> O,
    mut sink: impl FnMut(NodeId, &O) -> Result<(), RunError>,
) -> Result<Option<TruncationReason>, RunError> {
    let mut memo: Vec<Option<O>> = Vec::new();
    let (mut vertices, mut evals, mut hits) = (0usize, 0u64, 0u64);
    let mut truncation = None;
    // lint: hot-setup-end
    for v in 0..n {
        let c = classes.class_of(v, r);
        if c >= memo.len() {
            memo.resize(c + 1, None);
        }
        let slot = &mut memo[c];
        if let Some(t) = budget.poll_interrupt(v, slot.is_none()) {
            truncation = Some(t.publish());
            break;
        }
        let out = match slot {
            Some(out) => {
                hits += 1;
                out
            }
            None => {
                if let Some(t) = budget.check_cache(evals as usize + 1) {
                    truncation = Some(t.publish());
                    break;
                }
                evals += 1;
                if obs::trace::enabled() {
                    obs::trace::instant(&engine.miss, &[("node", v as i64), ("class", c as i64)]);
                }
                slot.insert(eval(&classes.nbhd(c, r)))
            }
        };
        vertices += 1;
        sink(v, out)?;
    }
    engine.publish(vertices, evals, hits);
    Ok(truncation)
}

/// PO classes: the view classes of one class-refinement pass.
struct ViewClasses<'a, 'g> {
    roots: Vec<u32>,
    cache: &'a mut ViewCache<'g>,
}

impl Classes for ViewClasses<'_, '_> {
    type Nbhd = ViewTree;

    #[expect(
        clippy::indexing_slicing,
        reason = "roots holds one class per vertex and the loop passes v < n"
    )]
    fn class_of(&mut self, v: NodeId, _r: usize) -> usize {
        self.roots[v] as usize
    }

    fn nbhd(&mut self, class: usize, r: usize) -> ViewTree {
        self.cache.class_view(r, class as u32)
    }
}

/// The PO-model engine: a per-graph cache of view classes with
/// evaluate-once-per-class algorithm runs. See the module docs.
pub struct ViewEngine<'g> {
    cache: ViewCache<'g>,
    obs: EngineObs,
}

impl<'g> ViewEngine<'g> {
    /// Creates an engine for `d`; all state is built lazily.
    pub fn new(d: &'g LDigraph) -> ViewEngine<'g> {
        ViewEngine { cache: ViewCache::new(d), obs: EngineObs::new("po") }
    }

    /// The radius-`r` view of `v` — bit-identical to
    /// [`locap_lifts::view`]`(d, v, r)`.
    pub fn view(&mut self, v: NodeId, r: usize) -> ViewTree {
        self.cache.view(v, r)
    }

    /// The view census — bit-identical to
    /// [`locap_lifts::view_census_naive`], one tree per class.
    pub fn census(&mut self, r: usize) -> Vec<(ViewTree, usize)> {
        self.cache.census(r)
    }

    /// Runs a PO vertex algorithm: one evaluation per view class,
    /// broadcast to all vertices of the class. Bit-identical to
    /// [`crate::run::po_vertex_naive`] under an unlimited budget.
    ///
    /// The cache cap bounds the view-cache entries, and interrupts are
    /// polled per vertex through [`RunBudget::poll_interrupt`]. On
    /// truncation the value is the per-vertex prefix computed so far
    /// (empty when the cache cap stops the class refinement itself).
    ///
    /// # Errors
    ///
    /// Currently infallible (PO vertex runs have no input
    /// preconditions); `Result` for uniformity with the other engines.
    pub fn run_vertex_budgeted<A: PoVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        let _span = obs::span(&self.obs.run_vertex);
        let mut out = Vec::with_capacity(self.cache.digraph().node_count());
        let truncation = self.run(
            algo.radius(),
            budget,
            |t| algo.evaluate(t),
            |_, &bit| {
                out.push(bit);
                Ok(())
            },
        )?;
        Ok(Budgeted { value: out, truncation })
    }

    /// Runs a PO edge algorithm: one evaluation per view class, then the
    /// same per-vertex letter-to-edge assembly as
    /// [`crate::run::po_edge_naive`]. On truncation the value holds the
    /// edges selected by the vertices processed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::AbsentLetter`] when the algorithm selects a letter
    /// the node does not have.
    pub fn run_edge_budgeted<A: PoEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        let _span = obs::span(&self.obs.run_edge);
        let d = self.cache.digraph();
        let mut out = BTreeSet::new();
        let sink = |v: NodeId, letters: &Vec<(Letter, bool)>| {
            for &(letter, selected) in letters {
                if !selected {
                    continue;
                }
                let target = if letter.inverse {
                    d.in_neighbor(v, letter.label)
                } else {
                    d.out_neighbor(v, letter.label)
                };
                let Some(u) = target else {
                    return Err(
                        RunError::AbsentLetter { node: v, letter: letter.to_string() }.publish()
                    );
                };
                out.insert(Edge::new(v, u));
            }
            Ok(())
        };
        let truncation = self.run(algo.radius(), budget, |t| algo.evaluate(t), sink)?;
        Ok(Budgeted { value: out, truncation })
    }

    /// Refines the radius-`r` view classes under the budget's cache cap
    /// (a tripped cap ends the run before any vertex, unpublished), then
    /// runs [`memo_broadcast`] over them.
    fn run<O: Clone>(
        &mut self,
        r: usize,
        budget: &RunBudget,
        eval: impl Fn(&ViewTree) -> O,
        sink: impl FnMut(NodeId, &O) -> Result<(), RunError>,
    ) -> Result<Option<TruncationReason>, RunError> {
        let roots = match self.cache.try_root_classes(r, budget.cache_cap()) {
            Ok((roots, _)) => roots,
            Err(t) => return Ok(Some(t.publish())),
        };
        let n = roots.len();
        let mut classes = ViewClasses { roots, cache: &mut self.cache };
        memo_broadcast(&mut classes, n, r, budget, &self.obs, eval, sink)
    }
}

/// What an OI or ID neighbourhood carries besides the graph, and how it
/// is keyed: the only differences between the two models' engines.
pub trait NbhdKey {
    /// The per-node input: a rank (OI) or an identifier (ID).
    type Input: Copy;
    /// The decoded neighbourhood an algorithm evaluates.
    type Nbhd;
    /// The model's name in obs metrics (`engine/<MODEL>/…`).
    const MODEL: &'static str;
    /// The input's name in [`RunError::InputLengthMismatch`].
    const INPUT: &'static str;
    /// The neighbour order of edge outputs: bit `i` of a node's output
    /// selects its neighbour with the `i`-th smallest key.
    fn sort_key(input: Self::Input) -> u64;
    /// Writes the packed key of `v`'s radius-`r` neighbourhood to `key`.
    fn key_into(
        g: &Graph,
        input: &[Self::Input],
        v: NodeId,
        r: usize,
        scratch: &mut NbhdScratch,
        key: &mut Vec<u64>,
    );
    /// Decodes a key written by [`NbhdKey::key_into`].
    fn decode(key: &[u64]) -> Self::Nbhd;
}

/// OI keys: neighbourhoods up to order-isomorphism under a rank.
#[derive(Debug)]
pub enum OrderedKey {}

impl NbhdKey for OrderedKey {
    type Input = usize;
    type Nbhd = OrderedNbhd;
    const MODEL: &'static str = "oi";
    const INPUT: &'static str = "rank";

    fn sort_key(rank: usize) -> u64 {
        rank as u64
    }

    fn key_into(
        g: &Graph,
        rank: &[usize],
        v: NodeId,
        r: usize,
        scratch: &mut NbhdScratch,
        key: &mut Vec<u64>,
    ) {
        ordered_key_into(g, rank, v, r, scratch, key);
    }

    fn decode(key: &[u64]) -> OrderedNbhd {
        OrderedNbhd::from_key(key)
    }
}

/// ID keys: neighbourhoods carrying unique identifiers.
#[derive(Debug)]
pub enum IdKey {}

impl NbhdKey for IdKey {
    type Input = u64;
    type Nbhd = IdNbhd;
    const MODEL: &'static str = "id";
    const INPUT: &'static str = "ids";

    fn sort_key(id: u64) -> u64 {
        id
    }

    fn key_into(
        g: &Graph,
        ids: &[u64],
        v: NodeId,
        r: usize,
        scratch: &mut NbhdScratch,
        key: &mut Vec<u64>,
    ) {
        id_key_into(g, ids, v, r, scratch, key);
    }

    fn decode(key: &[u64]) -> IdNbhd {
        IdNbhd::from_key(key)
    }
}

/// OI/ID classes: interned packed keys. The interner persists across
/// runs (same type, same id), and the key buffer holds the key of the
/// vertex just classified.
struct KeyClasses<'g, K: NbhdKey> {
    g: &'g Graph,
    input: &'g [K::Input],
    scratch: NbhdScratch,
    key: Vec<u64>,
    interner: KeyInterner,
}

impl<K: NbhdKey> Classes for KeyClasses<'_, K> {
    type Nbhd = K::Nbhd;

    fn class_of(&mut self, v: NodeId, r: usize) -> usize {
        K::key_into(self.g, self.input, v, r, &mut self.scratch, &mut self.key);
        self.interner.intern(&self.key) as usize
    }

    fn nbhd(&mut self, _class: usize, _r: usize) -> K::Nbhd {
        K::decode(&self.key)
    }
}

/// The OI-model engine (ranks).
pub type OiEngine<'g> = NbhdEngine<'g, OrderedKey>;

/// The ID-model engine (identifiers). Identifiers being globally unique,
/// the dedup ratio is usually 1 on connected graphs with `r ≥ 1` — the
/// win here is the extraction fast path, and radius-0 / disconnected
/// corner cases still dedup.
pub type IdEngine<'g> = NbhdEngine<'g, IdKey>;

/// The OI/ID engine: `O(|ball|)` packed-key extraction over the
/// [`Graph`]'s flat rows, with keys interned so each distinct
/// neighbourhood type is evaluated once and memo lookups are dense-id
/// indexing.
pub struct NbhdEngine<'g, K: NbhdKey> {
    keys: KeyClasses<'g, K>,
    obs: EngineObs,
}

impl<'g, K: NbhdKey> NbhdEngine<'g, K> {
    /// Creates an engine for `(g, input)`. An input that does not cover
    /// the graph still builds an engine; its runs report
    /// [`RunError::InputLengthMismatch`].
    pub fn new(g: &'g Graph, input: &'g [K::Input]) -> NbhdEngine<'g, K> {
        NbhdEngine {
            keys: KeyClasses {
                g,
                input,
                scratch: NbhdScratch::new(),
                key: Vec::new(),
                interner: KeyInterner::new(),
            },
            obs: EngineObs::new(K::MODEL),
        }
    }

    /// The neighbourhood of `v` — bit-identical to
    /// [`locap_graph::canon::ordered_nbhd`] (OI) or
    /// [`locap_graph::canon::id_nbhd`] (ID).
    pub fn nbhd(&mut self, v: NodeId, r: usize) -> K::Nbhd {
        let keys = &mut self.keys;
        K::key_into(keys.g, keys.input, v, r, &mut keys.scratch, &mut keys.key);
        K::decode(&keys.key)
    }

    /// The input length precondition, shared by both run paths.
    fn validate(&self) -> Result<(), RunError> {
        let n = self.keys.g.node_count();
        if self.keys.input.len() != n {
            return Err(RunError::InputLengthMismatch {
                what: K::INPUT,
                expected: n,
                actual: self.keys.input.len(),
            }
            .publish());
        }
        Ok(())
    }

    /// The shared body of the OI/ID vertex runs.
    fn vertex_run(
        &mut self,
        r: usize,
        budget: &RunBudget,
        eval: impl Fn(&K::Nbhd) -> bool,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        self.validate()?;
        let _span = obs::span(&self.obs.run_vertex);
        let n = self.keys.g.node_count();
        let mut out = Vec::with_capacity(n);
        let sink = |_, &bit: &bool| {
            out.push(bit);
            Ok(())
        };
        let truncation = memo_broadcast(&mut self.keys, n, r, budget, &self.obs, eval, sink)?;
        self.keys.interner.publish_obs();
        Ok(Budgeted { value: out, truncation })
    }

    /// The shared body of the OI/ID edge runs: bit `i` of a node's output
    /// selects its neighbour with the `i`-th smallest key (a stable sort
    /// of the neighbour list, so equal keys keep node order).
    #[expect(
        clippy::indexing_slicing,
        reason = "validate() has checked that input covers every node of g"
    )]
    fn edge_run(
        &mut self,
        r: usize,
        budget: &RunBudget,
        eval: impl Fn(&K::Nbhd) -> Vec<bool>,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        self.validate()?;
        let _span = obs::span(&self.obs.run_edge);
        let (g, input) = (self.keys.g, self.keys.input);
        let mut by_key: Vec<NodeId> = Vec::new();
        let mut out = BTreeSet::new();
        let sink = |v: NodeId, bits: &Vec<bool>| {
            if bits.len() != g.degree(v) {
                return Err(RunError::OutputLengthMismatch {
                    node: v,
                    expected: g.degree(v),
                    actual: bits.len(),
                }
                .publish());
            }
            by_key.clear();
            by_key.extend_from_slice(g.neighbors(v));
            by_key.sort_by_key(|&u| K::sort_key(input[u]));
            for (&u, _) in by_key.iter().zip(bits).filter(|(_, &bit)| bit) {
                out.insert(Edge::new(v, u));
            }
            Ok(())
        };
        let n = g.node_count();
        let truncation = memo_broadcast(&mut self.keys, n, r, budget, &self.obs, eval, sink)?;
        self.keys.interner.publish_obs();
        Ok(Budgeted { value: out, truncation })
    }
}

impl OiEngine<'_> {
    /// Runs an OI vertex algorithm, evaluating once per distinct type.
    /// Bit-identical to [`crate::run::oi_vertex_naive`] under an
    /// unlimited budget.
    ///
    /// The cache cap bounds the distinct types of this run, and
    /// interrupts are polled per vertex through
    /// [`RunBudget::poll_interrupt`]; on truncation the value is the
    /// per-vertex prefix computed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] when `rank` does not cover
    /// every node.
    pub fn run_vertex_budgeted<A: OiVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        self.vertex_run(algo.radius(), budget, |t| algo.evaluate(t))
    }

    /// Runs an OI edge algorithm, evaluating once per distinct type; the
    /// per-vertex assembly (degree check included) matches
    /// [`crate::run::oi_edge_naive`]. On truncation the value holds the
    /// edges selected by the vertices processed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] for a short `rank`,
    /// [`RunError::OutputLengthMismatch`] when the algorithm's output
    /// does not match a node's degree.
    pub fn run_edge_budgeted<A: OiEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        self.edge_run(algo.radius(), budget, |t| algo.evaluate(t))
    }
}

impl IdEngine<'_> {
    /// Runs an ID vertex algorithm, evaluating once per distinct
    /// neighbourhood. Bit-identical to [`crate::run::id_vertex_naive`]
    /// under an unlimited budget; on truncation the value is the
    /// per-vertex prefix computed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] when `ids` does not cover
    /// every node.
    pub fn run_vertex_budgeted<A: IdVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        self.vertex_run(algo.radius(), budget, |t| algo.evaluate(t))
    }

    /// Runs an ID edge algorithm; assembly matches
    /// [`crate::run::id_edge_naive`]. On truncation the value holds the
    /// edges selected by the vertices processed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] for short `ids`,
    /// [`RunError::OutputLengthMismatch`] when the algorithm's output
    /// does not match a node's degree.
    pub fn run_edge_budgeted<A: IdEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        self.edge_run(algo.radius(), budget, |t| algo.evaluate(t))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use locap_graph::budget::{CancelToken, ManualClock, MonotonicClock, POLL_STRIDE};
    use locap_graph::gen;

    fn unlimited() -> RunBudget {
        RunBudget::unlimited()
    }

    /// OI: the centre is a local minimum; counts its evaluations.
    #[derive(Default)]
    struct LocalMin {
        evals: Cell<usize>,
    }
    impl OiVertexAlgorithm for LocalMin {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &OrderedNbhd) -> bool {
            self.evals.set(self.evals.get() + 1);
            t.root == 0
        }
    }

    struct OutZero;
    impl PoEdgeAlgorithm for OutZero {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &ViewTree) -> Vec<(Letter, bool)> {
            t.root.children.iter().map(|&(l, _)| (l, l == Letter::pos(0))).collect()
        }
    }

    #[test]
    fn po_engine_broadcasts_on_symmetric_graph() {
        #[derive(Default)]
        struct JoinAll {
            evals: Cell<usize>,
        }
        impl PoVertexAlgorithm for JoinAll {
            fn radius(&self) -> usize {
                2
            }
            fn evaluate(&self, _: &ViewTree) -> bool {
                self.evals.set(self.evals.get() + 1);
                true
            }
        }
        let d = gen::directed_cycle(50);
        let algo = JoinAll::default();
        let bits = ViewEngine::new(&d).run_vertex_budgeted(&algo, &unlimited()).unwrap().value;
        assert_eq!(bits.len(), 50);
        assert!(bits.iter().all(|&b| b));
        assert_eq!(algo.evals.get(), 1, "one view class: a single evaluation broadcast to all 50");
    }

    #[test]
    fn po_edge_engine_matches_naive() {
        let d = gen::directed_cycle(5);
        let set = ViewEngine::new(&d).run_edge_budgeted(&OutZero, &unlimited()).unwrap().value;
        assert_eq!(set, crate::run::po_edge_naive(&d, &OutZero).unwrap());
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn oi_engine_dedups_interior_types() {
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let algo = LocalMin::default();
        let bits = OiEngine::new(&g, &rank).run_vertex_budgeted(&algo, &unlimited()).unwrap();
        assert!(bits.is_complete());
        assert_eq!(algo.evals.get(), 3, "interior + two seam types");
        assert_eq!(
            bits.value,
            crate::run::oi_vertex_naive(&g, &rank, &LocalMin::default()).unwrap()
        );
    }

    #[test]
    fn id_engine_matches_naive() {
        #[derive(Default)]
        struct LocalMaxId {
            evals: Cell<usize>,
        }
        impl IdVertexAlgorithm for LocalMaxId {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, t: &IdNbhd) -> bool {
                self.evals.set(self.evals.get() + 1);
                t.root as usize == t.ids.len() - 1
            }
        }
        let g = gen::cycle(6);
        let ids = vec![10, 60, 20, 50, 30, 40];
        let algo = LocalMaxId::default();
        let bits = IdEngine::new(&g, &ids).run_vertex_budgeted(&algo, &unlimited()).unwrap();
        assert_eq!(
            bits.value,
            crate::run::id_vertex_naive(&g, &ids, &LocalMaxId::default()).unwrap()
        );
        // every ball carries distinct ids: no dedup expected
        assert_eq!(algo.evals.get(), 6);
    }

    /// A deadline clock that counts its reads and reads past the
    /// deadline from read `trip_at` on.
    struct CountingClock {
        reads: AtomicUsize,
        trip_at: usize,
    }
    impl MonotonicClock for CountingClock {
        fn elapsed(&self) -> Duration {
            let read = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
            if read >= self.trip_at {
                Duration::from_secs(2)
            } else {
                Duration::ZERO
            }
        }
    }

    /// OI at radius 0: every vertex has the same neighbourhood.
    struct Constant;
    impl OiVertexAlgorithm for Constant {
        fn radius(&self) -> usize {
            0
        }
        fn evaluate(&self, _: &OrderedNbhd) -> bool {
            true
        }
    }

    /// Runs [`Constant`] over `n` vertices under a one-second deadline
    /// on a [`CountingClock`]; returns the prefix length, whether the
    /// deadline truncated the run, and the clock reads.
    fn one_class_run(n: usize, trip_at: usize) -> (usize, bool, usize) {
        let g = gen::cycle(n);
        let rank: Vec<usize> = (0..n).collect();
        let clock = Arc::new(CountingClock { reads: AtomicUsize::new(0), trip_at });
        let budget = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(1), Arc::clone(&clock) as Arc<dyn MonotonicClock>);
        let run = OiEngine::new(&g, &rank).run_vertex_budgeted(&Constant, &budget).unwrap();
        let tripped = matches!(run.truncation, Some(TruncationReason::DeadlineExceeded { .. }));
        (run.value.len(), tripped, clock.reads.load(Ordering::SeqCst))
    }

    #[test]
    fn the_clock_is_read_once_per_stride_of_vertices() {
        let n = 5_000;
        let (prefix, tripped, reads) = one_class_run(n, usize::MAX);
        assert_eq!((prefix, tripped), (n, false));
        assert_eq!(reads, n.div_ceil(POLL_STRIDE), "vertices 0, S, 2S, 3S and 4S");
        for k in 1..=n.div_ceil(POLL_STRIDE) {
            let (prefix, tripped, reads) = one_class_run(n, k);
            assert!(tripped, "read {k} is past the deadline");
            assert_eq!(prefix, (k - 1) * POLL_STRIDE, "tripped at read {k}");
            assert_eq!(reads, k);
        }
    }

    #[test]
    fn cancellation_is_noticed_at_the_next_vertex() {
        /// Cancels the run's own token in its first evaluation.
        struct CancelFirst(CancelToken);
        impl OiVertexAlgorithm for CancelFirst {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, _: &OrderedNbhd) -> bool {
                self.0.cancel();
                true
            }
        }
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let token = CancelToken::new();
        let budget = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(60), Arc::new(ManualClock::new()))
            .with_cancel(token.clone());
        let algo = CancelFirst(token);
        let run = OiEngine::new(&g, &rank).run_vertex_budgeted(&algo, &budget).unwrap();
        assert_eq!(run.truncation, Some(TruncationReason::Cancelled));
        assert_eq!(run.value.len(), 1);
    }

    #[test]
    fn memo_is_per_run_on_a_reused_engine() {
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let mut engine = OiEngine::new(&g, &rank);
        let (first, second) = (LocalMin::default(), LocalMin::default());
        let a = engine.run_vertex_budgeted(&first, &unlimited()).unwrap().value;
        let b = engine.run_vertex_budgeted(&second, &unlimited()).unwrap().value;
        assert_eq!(a, b);
        // the memo is per run: each run evaluates each type once
        assert_eq!((first.evals.get(), second.evals.get()), (3, 3));
    }
}
