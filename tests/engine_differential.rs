//! Differential lock-down of the memoized view/neighbourhood engine.
//!
//! Every engine-backed path (`ViewCache`, the `*_key_into` neighbourhood
//! extractors, the parallel censuses, and the `run::*_budgeted` runs)
//! must be **bit-identical** to its naive reference
//! (`view`, `view_census_naive`, `ordered_*_census_naive`, `run::*_naive`)
//! — same trees, same censuses including sort order, same output bits,
//! same edge sets. This file drives both paths over five graph families
//! (cycles, Petersen, random regular graphs, random lifts, homogeneous
//! constructions and a homogeneous lift whose rows the OI and ID runs
//! read in place — plus the label-complete EDS instances for good
//! measure) with fixed seeds, and adds proptest generators on top.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use locap_core::eds_lower::eds_instance;
use locap_core::hom_lift::homogeneous_lift_budgeted;
use locap_core::homogeneous::construct_budgeted;
use locap_graph::budget::{Budgeted, RunBudget};
use locap_graph::canon::{
    self, ordered_ltype_census, ordered_ltype_census_naive, ordered_type_census,
    ordered_type_census_naive, IdNbhd, OrderedNbhd,
};
use locap_graph::{gen, random, Edge, Graph, LDigraph, NodeId, PoGraph};
use locap_lifts::{random_lift, view, view_census, view_census_naive, Letter, ViewCache, ViewTree};
use locap_models::run;
use locap_models::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm,
};

// ---------------------------------------------------------------- algorithms

/// PO vertex: join iff the view has an even number of walks.
struct ViewParity(usize);
impl PoVertexAlgorithm for ViewParity {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, v: &ViewTree) -> bool {
        v.size() % 2 == 0
    }
}

/// PO edge: select each root letter whose subtree has odd size.
struct OddSubtrees(usize);
impl PoEdgeAlgorithm for OddSubtrees {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, v: &ViewTree) -> Vec<(Letter, bool)> {
        v.root.children.iter().map(|(l, c)| (*l, c.size() % 2 == 1)).collect()
    }
}

/// OI vertex: join iff the centre is the order-minimum of its ball.
struct LocalMin(usize);
impl OiVertexAlgorithm for LocalMin {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        t.root == 0
    }
}

/// OI edge: select the edge to the order-smallest neighbour.
struct FirstEdge(usize);
impl OiEdgeAlgorithm for FirstEdge {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, t: &OrderedNbhd) -> Vec<bool> {
        let deg = t.edges.iter().filter(|&&(i, j)| i == t.root || j == t.root).count();
        let mut bits = vec![false; deg];
        if deg > 0 {
            bits[0] = true;
        }
        bits
    }
}

/// ID vertex: join iff the centre holds the maximum identifier of its ball.
struct LocalMaxId(usize);
impl IdVertexAlgorithm for LocalMaxId {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, n: &IdNbhd) -> bool {
        n.root as usize == n.ids.len() - 1
    }
}

/// ID edge: select edges by the parity of the ball's identifier sum.
struct ParityEdges(usize);
impl IdEdgeAlgorithm for ParityEdges {
    fn radius(&self) -> usize {
        self.0
    }
    fn evaluate(&self, n: &IdNbhd) -> Vec<bool> {
        let deg = n.edges.iter().filter(|&&(i, j)| i == n.root || j == n.root).count();
        let bit = n.ids.iter().sum::<u64>() % 2 == 0;
        vec![bit; deg]
    }
}

// ----------------------------------------------------------- the batteries

/// Asserts every engine-backed PO path agrees with its naive oracle on `d`.
fn assert_po_identical(d: &LDigraph, r_max: usize) {
    let mut cache = ViewCache::new(d);
    for r in 0..=r_max {
        for v in 0..d.node_count() {
            assert_eq!(cache.view(v, r), view(d, v, r), "view of {v} at radius {r}");
        }
        assert_eq!(view_census(d, r), view_census_naive(d, r), "view census at radius {r}");
    }
    let rank: Vec<usize> = (0..d.node_count()).collect();
    for r in 1..=r_max {
        assert_eq!(
            ordered_ltype_census(d, &rank, r),
            ordered_ltype_census_naive(d, &rank, r),
            "labelled type census at radius {r}"
        );
        let a = ViewParity(r);
        assert_eq!(
            run::po_vertex_budgeted(d, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::po_vertex_naive(d, &a),
            "po_vertex at {r}"
        );
        let e = OddSubtrees(r);
        assert_eq!(
            run::po_edge_budgeted(d, &e, &RunBudget::unlimited()).map(|b| b.value),
            run::po_edge_naive(d, &e),
            "po_edge at {r}"
        );
    }
}

/// Asserts the OI and ID engine paths agree with their oracles on `g`.
fn assert_oi_id_identical(g: &Graph, rank: &[usize], ids: &[u64], r_max: usize) {
    for r in 1..=r_max {
        assert_eq!(
            ordered_type_census(g, rank, r),
            ordered_type_census_naive(g, rank, r),
            "ordered type census at radius {r}"
        );
        let a = LocalMin(r);
        assert_eq!(
            run::oi_vertex_budgeted(g, rank, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::oi_vertex_naive(g, rank, &a)
        );
        let e = FirstEdge(r);
        assert_eq!(
            run::oi_edge_budgeted(g, rank, &e, &RunBudget::unlimited()).map(|b| b.value),
            run::oi_edge_naive(g, rank, &e)
        );
        let a = LocalMaxId(r);
        assert_eq!(
            run::id_vertex_budgeted(g, ids, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::id_vertex_naive(g, ids, &a)
        );
        let e = ParityEdges(r);
        assert_eq!(
            run::id_edge_budgeted(g, ids, &e, &RunBudget::unlimited()).map(|b| b.value),
            run::id_edge_naive(g, ids, &e)
        );
    }
}

/// Full battery on an undirected graph: canonical PO structure + OI/ID
/// with both the identity order and a seeded random order/id assignment.
fn assert_all_models(g: &Graph, seed: u64, r_max: usize) {
    let po = PoGraph::canonical(g);
    assert_po_identical(po.digraph(), r_max);
    let n = g.node_count();
    let identity: Vec<usize> = (0..n).collect();
    let ids: Vec<u64> = (0..n as u64).map(|v| 10 * v + 7).collect();
    assert_oi_id_identical(g, &identity, &ids, r_max);
    let mut rng = StdRng::seed_from_u64(seed);
    let rank = random::random_rank(n, &mut rng);
    let ids = random::random_ids(n, 1 << 20, &mut rng);
    assert_oi_id_identical(g, &rank, &ids, r_max);
}

// ---------------------------------------------------- family 1: cycles

#[test]
fn family_cycles() {
    for n in [3usize, 5, 8, 13] {
        assert_po_identical(&gen::directed_cycle(n), 3);
        assert_all_models(&gen::cycle(n), 0xC0FFEE + n as u64, 2);
    }
}

// --------------------------------------------------- family 2: Petersen

#[test]
fn family_petersen() {
    assert_all_models(&gen::petersen(), 0xBEEF, 2);
}

// -------------------------------------------- family 3: random regular

#[test]
fn family_random_regular() {
    for (seed, n, d) in [(1u64, 10usize, 3usize), (2, 12, 3), (3, 16, 4)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random::random_regular(n, d, 200, &mut rng).expect("feasible parameters");
        assert_all_models(&g, seed ^ 0xABCD, 2);
    }
}

// ----------------------------------------------- family 4: random lifts

#[test]
fn family_random_lifts() {
    let bases = [gen::directed_cycle(5), PoGraph::canonical(&gen::petersen()).digraph().clone()];
    for (i, base) in bases.iter().enumerate() {
        for l in [2usize, 3] {
            let mut rng = StdRng::seed_from_u64(0x11F7 + (i * 10 + l) as u64);
            let (lift, _phi) = random_lift(base, l, &mut rng);
            assert_po_identical(&lift, 2);
        }
    }
}

// --------------------------------------- family 5: homogeneous graphs

#[test]
fn family_homogeneous() {
    for (k, r, m) in [(1usize, 1usize, 6u64), (2, 1, 6)] {
        let h =
            construct_budgeted(k, r, m, &RunBudget::unlimited()).expect("constructible parameters");
        assert_po_identical(&h.digraph, 2);
        let und = h.digraph.underlying_simple();
        let ids: Vec<u64> = h.rank.iter().map(|&p| p as u64).collect();
        assert_oi_id_identical(&und, &h.rank, &ids, 1);
    }
}

// ------------------------------ family 5b: homogeneous lifts, read in place

/// The index of the first vertex whose neighbourhood class is the
/// `cap + 1`-th distinct one, where a run under cache cap `cap` stops
/// (`n` when there are at most `cap` classes).
fn capped_prefix<T: Eq + std::hash::Hash>(
    n: usize,
    cap: usize,
    class: impl Fn(NodeId) -> T,
) -> usize {
    let mut seen = HashSet::new();
    (0..n).find(|&v| seen.insert(class(v)) && seen.len() > cap).unwrap_or(n)
}

/// The edges the first `prefix` vertices of `g` select, as the naive
/// edge runs assemble them: bit `i` of `bits(v)` selects `v`'s neighbour
/// with the `i`-th smallest `key`.
fn selected_edges<K: Ord + Copy>(
    g: &Graph,
    key: &[K],
    prefix: usize,
    bits: impl Fn(NodeId) -> Vec<bool>,
) -> BTreeSet<Edge> {
    let mut out = BTreeSet::new();
    for v in 0..prefix {
        let mut by_key = g.neighbors(v).to_vec();
        by_key.sort_by_key(|&u| key[u]);
        out.extend(
            by_key
                .iter()
                .zip(bits(v))
                .filter(|(_, bit)| *bit)
                .map(|(&u, _)| Edge::new(v, u)),
        );
    }
    out
}

/// Asserts that a capped run stopped on its cache cap when `prefix` is
/// short of `n`, and completed otherwise.
fn assert_stops_at<T>(run: &Budgeted<T>, n: usize, prefix: usize, what: &str) {
    match &run.truncation {
        None => assert_eq!(prefix, n, "{what}: the run completed"),
        Some(reason) => {
            assert!(prefix < n, "{what}: the run stopped");
            assert_eq!(reason.kind(), "cache_cap", "{what}");
        }
    }
}

/// The OI and ID runs read a homogeneous lift's rows in place, with no
/// graph of the lift built: on `&lift.lift` they equal the naive runs on
/// its underlying simple graph, complete and as the prefixes that cache
/// caps 1 and 2 leave. C9 at m = 6 (1,944 nodes) in debug builds, C30 at
/// m = 12 (51,840 nodes) in release.
#[test]
fn family_homogeneous_lift_rows() {
    let (cycle, m) = if cfg!(debug_assertions) { (9, 6) } else { (30, 12) };
    let unlimited = RunBudget::unlimited();
    let h = construct_budgeted(1, 1, m, &unlimited).expect("constructible parameters");
    let lift = homogeneous_lift_budgeted(&gen::directed_cycle(cycle), &h, &unlimited)
        .expect("cycles lift");
    let (d, rank) = (&lift.lift, &lift.rank[..]);
    let n = d.node_count();
    assert_eq!(n, cycle * (m * m * m) as usize);
    let und = d.underlying_simple();
    let ids = random::random_ids(n, 1 << 40, &mut StdRng::seed_from_u64(0x11F7));
    for r in 1..=2 {
        let (a, e, ia, ie) = (LocalMin(r), FirstEdge(r), LocalMaxId(r), ParityEdges(r));
        let oi_bits = run::oi_vertex_naive(&und, rank, &a).expect("rank covers the lift");
        let id_bits = run::id_vertex_naive(&und, &ids, &ia).expect("ids cover the lift");
        let ordered = |v| canon::ordered_nbhd(&und, rank, v, r);
        let identified = |v| canon::id_nbhd(&und, &ids, v, r);
        assert_eq!(run::oi_vertex_budgeted(d, rank, &a, &unlimited).unwrap().value, oi_bits);
        assert_eq!(
            run::oi_edge_budgeted(d, rank, &e, &unlimited).map(|b| b.value),
            run::oi_edge_naive(&und, rank, &e),
            "oi_edge at radius {r}"
        );
        assert_eq!(run::id_vertex_budgeted(d, &ids, &ia, &unlimited).unwrap().value, id_bits);
        assert_eq!(
            run::id_edge_budgeted(d, &ids, &ie, &unlimited).map(|b| b.value),
            run::id_edge_naive(&und, &ids, &ie),
            "id_edge at radius {r}"
        );
        for cap in [1, 2] {
            let budget = RunBudget::unlimited().with_cache_cap(cap);
            let what = |run: &str| format!("{run} at radius {r}, cap {cap}");
            let p = capped_prefix(n, cap, ordered);
            let run = run::oi_vertex_budgeted(d, rank, &a, &budget).unwrap();
            assert_stops_at(&run, n, p, &what("oi_vertex"));
            assert_eq!(run.value, oi_bits[..p], "{}", what("oi_vertex"));
            let run = run::oi_edge_budgeted(d, rank, &e, &budget).unwrap();
            assert_stops_at(&run, n, p, &what("oi_edge"));
            let want = selected_edges(&und, rank, p, |v| e.evaluate(&ordered(v)));
            assert_eq!(run.value, want, "{}", what("oi_edge"));
            let p = capped_prefix(n, cap, identified);
            let run = run::id_vertex_budgeted(d, &ids, &ia, &budget).unwrap();
            assert_stops_at(&run, n, p, &what("id_vertex"));
            assert_eq!(run.value, id_bits[..p], "{}", what("id_vertex"));
            let run = run::id_edge_budgeted(d, &ids, &ie, &budget).unwrap();
            assert_stops_at(&run, n, p, &what("id_edge"));
            let want = selected_edges(&und, &ids, p, |v| ie.evaluate(&identified(v)));
            assert_eq!(run.value, want, "{}", what("id_edge"));
        }
    }
}

// ------------------------- family 6 (bonus): label-complete instances

#[test]
fn family_label_complete_eds() {
    for (dp, n) in [(2usize, 9usize), (4, 14)] {
        let inst = eds_instance(dp, n).expect("valid EDS parameters");
        assert_po_identical(&inst.digraph, 3);
    }
}

// -------------------------------------------------- engine invariants

#[test]
fn census_class_count_matches_cache() {
    let g = gen::petersen();
    let po = PoGraph::canonical(&g);
    let d = po.digraph();
    let mut cache = ViewCache::new(d);
    for r in 0..=3 {
        let (classes, _) = cache.root_classes(r);
        let mut distinct: Vec<u32> = classes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), view_census_naive(d, r).len(), "radius {r}");
    }
    // interning pays: the memo must have been hit at least once per reuse
    let _ = cache.census(3);
    let stats = cache.stats();
    assert!(stats.tree_misses > 0, "some tree must be materialised");
    assert!(stats.dedup_ratio() >= 1.0);

    // deepening in any order: radius 3 first builds walk levels 0..3,
    // then radii 1 and 2 reuse them and only add their root passes
    let mut deepened = ViewCache::new(d);
    for r in [3, 1, 2] {
        let census = deepened.census(r);
        let mut fresh = ViewCache::new(d);
        assert_eq!(census, fresh.census(r), "census at radius {r}");
        assert_eq!(census, view_census_naive(d, r), "naive census at radius {r}");
        assert_eq!(deepened.root_classes(r), fresh.root_classes(r), "root partition at radius {r}");
    }
    assert_eq!(deepened.stats().classes.len(), 3, "radius 3 built walk levels 0, 1 and 2");
}

/// A radius-1 view reads walk states only at level 0 and root states
/// only at level 1, so a radius-1 query on the 648-node lift of C3 by
/// H(1, 1, 6) fills level 0 with its `n · 2|L|` walk states, passes the
/// `n` roots once, and builds no level-1 walk state.
#[test]
fn radius_one_refines_walk_states_only() {
    let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).expect("constructible parameters");
    let lift = homogeneous_lift_budgeted(&gen::directed_cycle(3), &h, &RunBudget::unlimited())
        .expect("C3 lifts")
        .lift;
    let (n, letters) = (lift.node_count(), lift.alphabet_size());
    assert_eq!((n, letters), (648, 1));
    let mut cache = ViewCache::new(&lift);
    let (roots, k) = cache.root_classes(1);
    assert_eq!(roots.len(), n);
    let stats = cache.stats();
    assert_eq!(stats.states, n * 2 * letters, "walk states per level");
    assert_eq!(stats.classes, vec![1], "level 0 only: one class, and no level-1 state");
    assert_eq!(stats.root_states, n, "one root state per vertex");
    assert_eq!(stats.root_classes, vec![None, Some(k)], "radius 1 passed once");
    assert_eq!(k, view_census_naive(&lift, 1).len());
}

// ---------------------------------------------- proptest generators

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..10, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand::Rng::gen_bool(&mut rng, 0.4) {
                        g.add_edge(u, v).unwrap();
                    }
                }
            }
            if g.edge_count() > 0 {
                return g;
            }
        }
    })
}

fn arb_lift() -> impl Strategy<Value = LDigraph> {
    (3usize..7, 2usize..4, any::<u64>()).prop_map(|(n, l, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_lift(&gen::directed_cycle(n), l, &mut rng).0
    })
}

/// Random L-digraphs: each label a random permutation of the nodes, with
/// its fixed points and about a quarter of its edges left out. At small
/// `n`, antiparallel pairs and parallel edges of distinct labels, which
/// name a neighbour twice in a node's rows, are common.
fn arb_ldigraph() -> impl Strategy<Value = LDigraph> {
    (3usize..9, 1usize..4, any::<u64>()).prop_map(|(n, labels, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = LDigraph::new(n, labels);
        let mut perm: Vec<NodeId> = (0..n).collect();
        for label in 0..labels {
            perm.shuffle(&mut rng);
            for (v, &u) in perm.iter().enumerate() {
                if v != u && rand::Rng::gen_range(&mut rng, 0..4) != 0 {
                    d.add_edge(v, u, label).expect("a permutation labels properly");
                }
            }
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The OI and ID runs on an L-digraph's rows, repeats included,
    /// match the naive runs on its underlying simple graph: the edge runs
    /// give each distinct neighbour one output bit.
    #[test]
    fn prop_oi_id_runs_read_ldigraph_rows(d in arb_ldigraph(), seed in any::<u64>()) {
        let und = d.underlying_simple();
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = random::random_rank(d.node_count(), &mut rng);
        let ids = random::random_ids(d.node_count(), 1 << 16, &mut rng);
        let unlimited = RunBudget::unlimited();
        for r in 1..=2 {
            prop_assert_eq!(
                run::oi_vertex_budgeted(&d, &rank, &LocalMin(r), &unlimited).map(|b| b.value),
                run::oi_vertex_naive(&und, &rank, &LocalMin(r))
            );
            prop_assert_eq!(
                run::oi_edge_budgeted(&d, &rank, &FirstEdge(r), &unlimited).map(|b| b.value),
                run::oi_edge_naive(&und, &rank, &FirstEdge(r))
            );
            prop_assert_eq!(
                run::id_vertex_budgeted(&d, &ids, &LocalMaxId(r), &unlimited).map(|b| b.value),
                run::id_vertex_naive(&und, &ids, &LocalMaxId(r))
            );
            prop_assert_eq!(
                run::id_edge_budgeted(&d, &ids, &ParityEdges(r), &unlimited).map(|b| b.value),
                run::id_edge_naive(&und, &ids, &ParityEdges(r))
            );
        }
    }

    /// Arbitrary graphs: all three model engines match their oracles.
    #[test]
    fn prop_engine_matches_naive_on_random_graphs(g in arb_graph(), seed in any::<u64>()) {
        let po = PoGraph::canonical(&g);
        let d = po.digraph();
        prop_assert_eq!(view_census(d, 2), view_census_naive(d, 2));
        let mut cache = ViewCache::new(d);
        for v in 0..d.node_count() {
            prop_assert_eq!(cache.view(v, 2), view(d, v, 2));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = random::random_rank(g.node_count(), &mut rng);
        let ids = random::random_ids(g.node_count(), 1 << 16, &mut rng);
        let a = LocalMin(1);
        prop_assert_eq!(
            run::oi_vertex_budgeted(&g, &rank, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::oi_vertex_naive(&g, &rank, &a)
        );
        let a = LocalMaxId(1);
        prop_assert_eq!(
            run::id_vertex_budgeted(&g, &ids, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::id_vertex_naive(&g, &ids, &a)
        );
    }

    /// Arbitrary random lifts: cached views and censuses match.
    #[test]
    fn prop_engine_matches_naive_on_random_lifts(d in arb_lift()) {
        let mut cache = ViewCache::new(&d);
        for r in 0..=3 {
            prop_assert_eq!(view_census(&d, r), view_census_naive(&d, r));
            for v in 0..d.node_count() {
                prop_assert_eq!(cache.view(v, r), view(&d, v, r));
            }
        }
        let a = ViewParity(2);
        prop_assert_eq!(
            run::po_vertex_budgeted(&d, &a, &RunBudget::unlimited()).map(|b| b.value),
            run::po_vertex_naive(&d, &a)
        );
        let e = OddSubtrees(2);
        prop_assert_eq!(
            run::po_edge_budgeted(&d, &e, &RunBudget::unlimited()).map(|b| b.value),
            run::po_edge_naive(&d, &e)
        );
    }
}
