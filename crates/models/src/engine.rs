//! The memoized engine behind the six `run::*_budgeted` runs, which are
//! its only callers.
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
//! * PO ([`run_po`]) reads the root classes of a [`ViewCache`] —
//!   incremental class refinement over walk states computes the view
//!   classes of **all** vertices at once, identical subtrees are
//!   interned, and the per-state sweep fans across
//!   [`locap_graph::par`] workers.
//! * OI and ID ([`run_keyed`], generic over an [`NbhdKey`]) extract each
//!   vertex's canonical form as a packed `u64` key
//!   ([`locap_graph::canon`]'s `*_key_into`, `O(|ball|)` with no per-call
//!   allocation) straight from the rows of any [`Adjacency`], a
//!   [`Graph`](locap_graph::Graph)'s or an [`LDigraph`]'s, and intern it
//!   into the run's [`KeyInterner`] — type equality is id equality, so
//!   the hot loop never hashes an owned struct.
//!
//! Everything is bit-identical to the naive paths in [`crate::run`]
//! (asserted by the `engine_differential` test suite). Every run
//! publishes its cache effectiveness into the global [`locap_obs`]
//! registry (`engine/{po,oi,id}/…` counters), so binaries and the bench
//! gate export unified metrics without threading state; its time is the
//! caller's `run/<model>_<kind>` span.

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

use locap_obs as obs;

use locap_graph::budget::{Budgeted, RunBudget};
use locap_graph::canon::{id_key_into, ordered_key_into, IdNbhd, NbhdScratch, OrderedNbhd};
use locap_graph::{Adjacency, KeyInterner, LDigraph, NodeId};
use locap_lifts::{ViewCache, ViewTree};
use locap_lint::hot;

use crate::error::RunError;
use crate::run::check_input;

/// Registry handles of one model's runs: one counter family per model
/// under `engine/<model>/…`, hoisted before the run loop so it pays only
/// atomic adds.
#[derive(Debug, Clone)]
struct EngineObs {
    runs: obs::Counter,
    vertices: obs::Counter,
    evals: obs::Counter,
    hits: obs::Counter,
}

impl EngineObs {
    fn new(model: &str) -> EngineObs {
        EngineObs {
            runs: obs::counter(&format!("engine/{model}/runs")),
            vertices: obs::counter(&format!("engine/{model}/vertices")),
            evals: obs::counter(&format!("engine/{model}/evals")),
            hits: obs::counter(&format!("engine/{model}/hits")),
        }
    }

    /// Publishes the deltas of one run.
    fn publish(&self, vertices: usize, evals: u64, hits: u64) {
        self.runs.inc();
        self.vertices.add(vertices as u64);
        self.evals.add(evals);
        self.hits.add(hits);
    }
}

/// How a model maps the vertices of one radius-`r` run to classes for
/// [`memo_broadcast`]: vertices of one class have equal radius-`r`
/// neighbourhoods, so one evaluation answers them all. Class ids are
/// dense in first-seen vertex order: a vertex's class is either one an
/// earlier vertex had, or the number of classes seen before it.
trait Classes {
    /// The neighbourhood an algorithm evaluates.
    type Nbhd;
    /// The class of `v`.
    fn class_of(&mut self, v: NodeId) -> usize;
    /// The neighbourhood of `class`, the class [`Classes::class_of`]
    /// just returned.
    fn nbhd(&mut self, class: usize) -> Self::Nbhd;
}

/// The one memo-and-broadcast loop behind all six runs. It walks the `n`
/// vertices in order, evaluates `eval` once per class, hands every
/// vertex its class's output through `sink` into `value`, and publishes
/// the run's counters. Each classified vertex polls the interrupts
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
#[hot]
fn memo_broadcast<C: Classes, O, T>(
    classes: &mut C,
    n: usize,
    budget: &RunBudget,
    engine: &EngineObs,
    eval: impl Fn(&C::Nbhd) -> O,
    mut value: T,
    mut sink: impl FnMut(&mut T, NodeId, &O) -> Result<(), RunError>,
) -> Result<Budgeted<T>, RunError> {
    // memo[c] is the output of class c: classes are dense, so a new
    // class is pushed at its own index
    let mut memo: Vec<O> = Vec::new();
    let mut hits = 0u64;
    let mut truncation = None;
    hot_setup_end!();
    for v in 0..n {
        let c = classes.class_of(v);
        let hit = memo.get(c);
        if let Some(t) = budget.poll_interrupt(v, hit.is_none()) {
            truncation = Some(t.publish());
            break;
        }
        if let Some(out) = hit {
            hits += 1;
            sink(&mut value, v, out)?;
            continue;
        }
        if let Some(t) = budget.check_cache(memo.len() + 1) {
            truncation = Some(t.publish());
            break;
        }
        debug_assert_eq!(c, memo.len(), "class ids are dense in first-seen order");
        let out = eval(&classes.nbhd(c));
        sink(&mut value, v, &out)?;
        memo.push(out);
    }
    engine.publish(hits as usize + memo.len(), memo.len() as u64, hits);
    Ok(Budgeted { value, truncation })
}

/// PO classes: the radius-`r` view classes of one class-refinement pass,
/// read in place from the cache that passed radius `r`.
struct ViewClasses<'g> {
    cache: ViewCache<'g>,
    r: usize,
}

impl Classes for ViewClasses<'_> {
    type Nbhd = ViewTree;

    fn class_of(&mut self, v: NodeId) -> usize {
        // radius r is passed and memo_broadcast passes v < n
        self.cache.root_class(v, self.r).map_or(0, |c| c as usize)
    }

    fn nbhd(&mut self, class: usize) -> ViewTree {
        self.cache.class_view(self.r, class as u32)
    }
}

/// Runs a radius-`r` PO algorithm over `d`: refines the view classes
/// under the budget's cache cap (a tripped cap ends the run before any
/// vertex, with `value` as given and nothing published but the
/// truncation), then runs [`memo_broadcast`] over them.
///
/// # Errors
///
/// The first error `sink` reports.
pub(crate) fn run_po<O, T>(
    d: &LDigraph,
    r: usize,
    budget: &RunBudget,
    eval: impl Fn(&ViewTree) -> O,
    value: T,
    sink: impl FnMut(&mut T, NodeId, &O) -> Result<(), RunError>,
) -> Result<Budgeted<T>, RunError> {
    let mut cache = ViewCache::new(d);
    let engine = EngineObs::new("po");
    match cache.try_root_classes(r, budget.cache_cap()) {
        Ok(_) => {
            let mut classes = ViewClasses { cache, r };
            memo_broadcast(&mut classes, d.node_count(), budget, &engine, eval, value, sink)
        }
        Err(t) => Ok(Budgeted { value, truncation: Some(t.publish()) }),
    }
}

/// What an OI or ID neighbourhood carries besides the graph, and how it
/// is keyed: the only differences between the two models' runs.
pub(crate) trait NbhdKey {
    /// The per-node input: a rank (OI) or an identifier (ID).
    type Input;
    /// The decoded neighbourhood an algorithm evaluates.
    type Nbhd;
    /// The model's name in obs metrics (`engine/<MODEL>/…`).
    const MODEL: &'static str;
    /// The input's name in [`RunError::InputLengthMismatch`].
    const INPUT: &'static str;
    /// Writes the packed key of `v`'s radius-`r` neighbourhood to `key`.
    fn key_into(
        g: &impl Adjacency,
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
pub(crate) enum OrderedKey {}

impl NbhdKey for OrderedKey {
    type Input = usize;
    type Nbhd = OrderedNbhd;
    const MODEL: &'static str = "oi";
    const INPUT: &'static str = "rank";

    fn key_into(
        g: &impl Adjacency,
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

/// ID keys: neighbourhoods carrying unique identifiers. Identifiers being
/// globally unique, a run usually evaluates every vertex on connected
/// graphs with `r ≥ 1` — the win is the extraction fast path, and
/// radius-0 / disconnected corner cases still dedup.
pub(crate) enum IdKey {}

impl NbhdKey for IdKey {
    type Input = u64;
    type Nbhd = IdNbhd;
    const MODEL: &'static str = "id";
    const INPUT: &'static str = "ids";

    fn key_into(
        g: &impl Adjacency,
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

/// OI/ID classes: interned packed keys; the key buffer holds the key of
/// the vertex just classified.
struct KeyClasses<'g, K: NbhdKey, G> {
    g: &'g G,
    input: &'g [K::Input],
    r: usize,
    scratch: NbhdScratch,
    key: Vec<u64>,
    interner: KeyInterner,
}

impl<K: NbhdKey, G: Adjacency> Classes for KeyClasses<'_, K, G> {
    type Nbhd = K::Nbhd;

    fn class_of(&mut self, v: NodeId) -> usize {
        K::key_into(self.g, self.input, v, self.r, &mut self.scratch, &mut self.key);
        self.interner.intern(&self.key) as usize
    }

    fn nbhd(&mut self, _class: usize) -> K::Nbhd {
        K::decode(&self.key)
    }
}

/// Runs a radius-`r` OI or ID algorithm over `(g, input)`, reading `g`'s
/// rows in place: each vertex's packed key is interned, so each distinct
/// neighbourhood type is evaluated once and memo lookups are dense-id
/// indexing.
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `input` does not cover every
/// node, and the first error `sink` reports.
pub(crate) fn run_keyed<K: NbhdKey, G: Adjacency, O, T>(
    g: &G,
    input: &[K::Input],
    r: usize,
    budget: &RunBudget,
    eval: impl Fn(&K::Nbhd) -> O,
    value: T,
    sink: impl FnMut(&mut T, NodeId, &O) -> Result<(), RunError>,
) -> Result<Budgeted<T>, RunError> {
    let engine = EngineObs::new(K::MODEL);
    check_input(g, input.len(), K::INPUT)?;
    let mut classes = KeyClasses::<K, G> {
        g,
        input,
        r,
        scratch: NbhdScratch::new(),
        key: Vec::new(),
        interner: KeyInterner::new(),
    };
    let run = memo_broadcast(&mut classes, g.node_count(), budget, &engine, eval, value, sink)?;
    classes.interner.publish_obs();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use crate::run;
    use crate::{IdVertexAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm, PoVertexAlgorithm};
    use locap_graph::budget::{
        CancelToken, ManualClock, MonotonicClock, TruncationReason, POLL_STRIDE,
    };
    use locap_graph::gen;
    use locap_lifts::Letter;

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
        let bits = run::po_vertex_budgeted(&d, &algo, &unlimited()).unwrap().value;
        assert_eq!(bits.len(), 50);
        assert!(bits.iter().all(|&b| b));
        assert_eq!(algo.evals.get(), 1, "one view class: a single evaluation broadcast to all 50");
    }

    #[test]
    fn po_edge_engine_matches_naive() {
        let d = gen::directed_cycle(5);
        let set = run::po_edge_budgeted(&d, &OutZero, &unlimited()).unwrap().value;
        assert_eq!(set, run::po_edge_naive(&d, &OutZero).unwrap());
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn oi_engine_dedups_interior_types() {
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let algo = LocalMin::default();
        let bits = run::oi_vertex_budgeted(&g, &rank, &algo, &unlimited()).unwrap();
        assert!(bits.is_complete());
        assert_eq!(algo.evals.get(), 3, "interior + two seam types");
        assert_eq!(bits.value, run::oi_vertex_naive(&g, &rank, &LocalMin::default()).unwrap());
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
        let bits = run::id_vertex_budgeted(&g, &ids, &algo, &unlimited()).unwrap();
        assert_eq!(bits.value, run::id_vertex_naive(&g, &ids, &LocalMaxId::default()).unwrap());
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
        let run = run::oi_vertex_budgeted(&g, &rank, &Constant, &budget).unwrap();
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
        let run = run::oi_vertex_budgeted(&g, &rank, &algo, &budget).unwrap();
        assert_eq!(run.truncation, Some(TruncationReason::Cancelled));
        assert_eq!(run.value.len(), 1);
    }

    #[test]
    fn memo_is_per_run() {
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let (first, second) = (LocalMin::default(), LocalMin::default());
        let a = run::oi_vertex_budgeted(&g, &rank, &first, &unlimited()).unwrap().value;
        let b = run::oi_vertex_budgeted(&g, &rank, &second, &unlimited()).unwrap().value;
        assert_eq!(a, b);
        // each run of the same instance evaluates each type once
        assert_eq!((first.evals.get(), second.evals.get()), (3, 3));
    }
}
