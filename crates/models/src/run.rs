//! Whole-instance execution of local algorithms.
//!
//! Vertex algorithms return one bit per node ([`Vec<bool>`]); edge
//! algorithms return per-node incidence selections that are assembled into
//! a global edge set — an edge belongs to the solution when **either**
//! endpoint selects it (the union convention; consistent with the paper's
//! `Ω = {0,1}^Δ` encoding where the solution is the set of selected
//! edges).
//!
//! Each operation has one entry point, `*_budgeted`, which takes a
//! [`RunBudget`] ([`RunBudget::unlimited`] never truncates) and returns
//! a [`Budgeted`] value whose `truncation` field records why a run
//! stopped early. It is the only way into the crate's memoized engine,
//! which evaluates the algorithm once per class of equal neighbourhoods
//! and broadcasts the output to the class, and it records one
//! `run/<model>_<kind>` span. Its `*_naive` twin is the per-vertex
//! reference implementation the differential tests compare against.
//! Both return a typed [`RunError`] instead of panicking on malformed
//! input (short `ids`/`rank`, wrong-length edge outputs, absent
//! letters).
//!
//! The OI and ID runs take any [`Adjacency`]: a [`Graph`], or an
//! [`LDigraph`] whose rows they read in place as its underlying simple
//! graph, with no copy built. The OI runs take a rank of any `Copy +
//! Ord` type, such as a homogeneous lift's `u32` rank. Their `*_naive`
//! twins take a [`Graph`] and a `usize` rank.

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

use locap_graph::budget::{Budgeted, RunBudget};
use locap_graph::canon::{id_nbhd, ordered_nbhd};
use locap_graph::{Adjacency, Edge, Graph, LDigraph, NodeId};
use locap_lifts::{view, Letter};
use locap_obs as obs;

use crate::engine::{self, IdKey, OrderedKey};
use crate::error::RunError;
use crate::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm,
};

/// Shared precondition of the runs: `what`, a per-node input of `len`
/// entries, must cover every node.
pub(crate) fn check_input(
    g: &impl Adjacency,
    len: usize,
    what: &'static str,
) -> Result<(), RunError> {
    if len != g.node_count() {
        return Err(
            RunError::InputLengthMismatch { what, expected: g.node_count(), actual: len }.publish()
        );
    }
    Ok(())
}

/// The sink of the engine's vertex runs: one bit per vertex, in vertex
/// order.
fn push_bit(bits: &mut Vec<bool>, _: NodeId, &bit: &bool) -> Result<(), RunError> {
    bits.push(bit);
    Ok(())
}

/// Adds to `out` the edges that `bits` selects at `v`: bit `i` selects
/// `v`'s distinct neighbour with the `i`-th smallest `input` value (node
/// order first, then a stable sort, so equal values keep node order).
/// `by_input` is reused scratch.
///
/// # Errors
///
/// [`RunError::OutputLengthMismatch`] when `bits` does not hold one
/// entry per distinct neighbour.
fn select_neighbours<T: Copy + Ord>(
    g: &impl Adjacency,
    v: NodeId,
    bits: &[bool],
    input: &[T],
    by_input: &mut Vec<NodeId>,
    out: &mut BTreeSet<Edge>,
) -> Result<(), RunError> {
    by_input.clear();
    g.for_each_neighbor(v, |u| by_input.push(u));
    by_input.sort_unstable();
    by_input.dedup();
    if bits.len() != by_input.len() {
        return Err(RunError::OutputLengthMismatch {
            node: v,
            expected: by_input.len(),
            actual: bits.len(),
        }
        .publish());
    }
    // `input` covers every node, so every key is `Some`
    by_input.sort_by_key(|&u| input.get(u).copied());
    for (&u, _) in by_input.iter().zip(bits).filter(|(_, &bit)| bit) {
        out.insert(Edge::new(v, u));
    }
    Ok(())
}

/// Adds to `out` the edge along each letter that `letters` selects at
/// `v`: a positive letter `ℓ` is the outgoing edge labelled `ℓ`, an
/// inverse letter the incoming one.
///
/// # Errors
///
/// [`RunError::AbsentLetter`] when `v` has no edge along a selected
/// letter.
fn select_letters(
    d: &LDigraph,
    v: NodeId,
    letters: &[(Letter, bool)],
    out: &mut BTreeSet<Edge>,
) -> Result<(), RunError> {
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
            return Err(RunError::AbsentLetter { node: v, letter: letter.to_string() }.publish());
        };
        out.insert(Edge::new(v, u));
    }
    Ok(())
}

/// Runs an ID vertex algorithm on `(g, ids)`; returns one bit per node.
///
/// Neighbourhood extraction is `O(|ball|)` and each distinct
/// neighbourhood is evaluated once. On truncation the value is the
/// per-vertex prefix computed before the budget tripped. The reference
/// path survives as [`id_vertex_naive`].
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `ids` does not cover every node.
pub fn id_vertex_budgeted<A: IdVertexAlgorithm>(
    g: &impl Adjacency,
    ids: &[u64],
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<Vec<bool>>, RunError> {
    let _s = obs::span("run/id_vertex");
    let bits = Vec::with_capacity(g.node_count());
    engine::run_keyed::<IdKey, _, _, _>(
        g,
        ids,
        algo.radius(),
        budget,
        |t| algo.evaluate(t),
        bits,
        push_bit,
    )
}

/// The reference (per-vertex, no sharing) implementation of
/// [`id_vertex_budgeted`]; kept as the differential-testing oracle.
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `ids` does not cover every node.
pub fn id_vertex_naive<A: IdVertexAlgorithm>(
    g: &Graph,
    ids: &[u64],
    algo: &A,
) -> Result<Vec<bool>, RunError> {
    check_input(g, ids.len(), "ids")?;
    Ok(g.nodes().map(|v| algo.evaluate(&id_nbhd(g, ids, v, algo.radius()))).collect())
}

/// Runs an OI vertex algorithm on `(g, rank)`; returns one bit per node.
///
/// Each distinct ordered type is evaluated once and broadcast. On
/// truncation the value is the per-vertex prefix computed before the
/// budget tripped. The reference path survives as [`oi_vertex_naive`].
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `rank` does not cover every
/// node.
pub fn oi_vertex_budgeted<A: OiVertexAlgorithm, R: Copy + Ord>(
    g: &impl Adjacency,
    rank: &[R],
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<Vec<bool>>, RunError> {
    let _s = obs::span("run/oi_vertex");
    let bits = Vec::with_capacity(g.node_count());
    engine::run_keyed::<OrderedKey<R>, _, _, _>(
        g,
        rank,
        algo.radius(),
        budget,
        |t| algo.evaluate(t),
        bits,
        push_bit,
    )
}

/// The reference (per-vertex, no sharing) implementation of
/// [`oi_vertex_budgeted`]; kept as the differential-testing oracle.
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `rank` does not cover every
/// node.
pub fn oi_vertex_naive<A: OiVertexAlgorithm>(
    g: &Graph,
    rank: &[usize],
    algo: &A,
) -> Result<Vec<bool>, RunError> {
    check_input(g, rank.len(), "rank")?;
    Ok(g.nodes()
        .map(|v| algo.evaluate(&ordered_nbhd(g, rank, v, algo.radius())))
        .collect())
}

/// Runs a PO vertex algorithm on an L-digraph; returns one bit per node.
///
/// View classes are computed for all vertices at once by incremental
/// class refinement and the algorithm is evaluated once per class. On
/// truncation the value is the per-vertex prefix computed before the
/// budget tripped (empty when the view-cache cap stopped the class
/// refinement itself). The reference path survives as
/// [`po_vertex_naive`].
///
/// # Errors
///
/// Currently infallible (PO vertex runs carry no auxiliary input);
/// `Result` for uniformity with the ID/OI entry points.
pub fn po_vertex_budgeted<A: PoVertexAlgorithm>(
    d: &LDigraph,
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<Vec<bool>>, RunError> {
    let _s = obs::span("run/po_vertex");
    let bits = Vec::with_capacity(d.node_count());
    engine::run_po(d, algo.radius(), budget, |t| algo.evaluate(t), bits, push_bit)
}

/// The reference (per-vertex, no sharing) implementation of
/// [`po_vertex_budgeted`]; kept as the differential-testing oracle.
///
/// # Errors
///
/// Currently infallible; `Result` for uniformity with
/// [`po_vertex_budgeted`].
pub fn po_vertex_naive<A: PoVertexAlgorithm>(
    d: &LDigraph,
    algo: &A,
) -> Result<Vec<bool>, RunError> {
    Ok((0..d.node_count()).map(|v| algo.evaluate(&view(d, v, algo.radius()))).collect())
}

/// Converts a per-node bit vector into the selected vertex set.
pub fn to_vertex_set(bits: &[bool]) -> BTreeSet<usize> {
    bits.iter().enumerate().filter_map(|(v, &b)| b.then_some(v)).collect()
}

/// The fraction of positions on which two output vectors agree.
pub fn agreement(a: &[bool], b: &[bool]) -> f64 {
    assert_eq!(a.len(), b.len(), "output vectors must have equal length");
    if a.is_empty() {
        return 1.0;
    }
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

/// Runs an ID edge algorithm; assembles the union edge set.
///
/// The algorithm's output for node `v` must have one entry per distinct
/// neighbour of `v`, in increasing identifier order. Each
/// distinct neighbourhood is evaluated once. On truncation the value
/// holds the edges selected by the vertices processed before the budget
/// tripped. [`id_edge_naive`] is the reference path.
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] for a short `ids`,
/// [`RunError::OutputLengthMismatch`] when an output vector has the wrong
/// length.
pub fn id_edge_budgeted<A: IdEdgeAlgorithm>(
    g: &impl Adjacency,
    ids: &[u64],
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
    let _s = obs::span("run/id_edge");
    let mut by_id = Vec::new();
    let sink =
        |out: &mut _, v, bits: &Vec<bool>| select_neighbours(g, v, bits, ids, &mut by_id, out);
    engine::run_keyed::<IdKey, _, _, _>(
        g,
        ids,
        algo.radius(),
        budget,
        |t| algo.evaluate(t),
        BTreeSet::new(),
        sink,
    )
}

/// The reference implementation of [`id_edge_budgeted`]; kept as the
/// differential-testing oracle.
///
/// # Errors
///
/// Same conditions as [`id_edge_budgeted`].
pub fn id_edge_naive<A: IdEdgeAlgorithm>(
    g: &Graph,
    ids: &[u64],
    algo: &A,
) -> Result<BTreeSet<Edge>, RunError> {
    check_input(g, ids.len(), "ids")?;
    let (mut by_id, mut out) = (Vec::new(), BTreeSet::new());
    for v in g.nodes() {
        let bits = algo.evaluate(&id_nbhd(g, ids, v, algo.radius()));
        select_neighbours(g, v, &bits, ids, &mut by_id, &mut out)?;
    }
    Ok(out)
}

/// Runs an OI edge algorithm; assembles the union edge set. Output bits are
/// indexed by distinct neighbours in increasing rank order. Each distinct ordered
/// type is evaluated once. On truncation the value holds the edges
/// selected by the vertices processed before the budget tripped.
/// [`oi_edge_naive`] is the reference path.
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] for a short `rank`,
/// [`RunError::OutputLengthMismatch`] when an output vector has the wrong
/// length.
pub fn oi_edge_budgeted<A: OiEdgeAlgorithm, R: Copy + Ord>(
    g: &impl Adjacency,
    rank: &[R],
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
    let _s = obs::span("run/oi_edge");
    let mut by_rank = Vec::new();
    let sink =
        |out: &mut _, v, bits: &Vec<bool>| select_neighbours(g, v, bits, rank, &mut by_rank, out);
    engine::run_keyed::<OrderedKey<R>, _, _, _>(
        g,
        rank,
        algo.radius(),
        budget,
        |t| algo.evaluate(t),
        BTreeSet::new(),
        sink,
    )
}

/// The reference implementation of [`oi_edge_budgeted`]; kept as the
/// differential-testing oracle.
///
/// # Errors
///
/// Same conditions as [`oi_edge_budgeted`].
pub fn oi_edge_naive<A: OiEdgeAlgorithm>(
    g: &Graph,
    rank: &[usize],
    algo: &A,
) -> Result<BTreeSet<Edge>, RunError> {
    check_input(g, rank.len(), "rank")?;
    let (mut by_rank, mut out) = (Vec::new(), BTreeSet::new());
    for v in g.nodes() {
        let bits = algo.evaluate(&ordered_nbhd(g, rank, v, algo.radius()));
        select_neighbours(g, v, &bits, rank, &mut by_rank, &mut out)?;
    }
    Ok(out)
}

/// Runs a PO edge algorithm on an L-digraph; assembles the union edge set
/// over the underlying simple graph. A positive letter `ℓ` selects the
/// outgoing edge labelled `ℓ`; an inverse letter selects the incoming one.
/// Each view class is evaluated once. On truncation the value holds the
/// edges selected by the vertices processed before the budget tripped.
/// [`po_edge_naive`] is the reference path.
///
/// # Errors
///
/// [`RunError::AbsentLetter`] when the algorithm selects a letter the node
/// does not have.
pub fn po_edge_budgeted<A: PoEdgeAlgorithm>(
    d: &LDigraph,
    algo: &A,
    budget: &RunBudget,
) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
    let _s = obs::span("run/po_edge");
    let sink = |out: &mut _, v, letters: &Vec<_>| select_letters(d, v, letters, out);
    engine::run_po(d, algo.radius(), budget, |t| algo.evaluate(t), BTreeSet::new(), sink)
}

/// The reference implementation of [`po_edge_budgeted`]; kept as the
/// differential-testing oracle.
///
/// # Errors
///
/// Same conditions as [`po_edge_budgeted`].
pub fn po_edge_naive<A: PoEdgeAlgorithm>(
    d: &LDigraph,
    algo: &A,
) -> Result<BTreeSet<Edge>, RunError> {
    let mut out = BTreeSet::new();
    for v in 0..d.node_count() {
        select_letters(d, v, &algo.evaluate(&view(d, v, algo.radius())), &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::canon::{IdNbhd, OrderedNbhd};
    use locap_graph::gen;
    use locap_lifts::ViewTree;

    fn unlimited() -> RunBudget {
        RunBudget::unlimited()
    }

    #[test]
    fn to_vertex_set_edge_cases() {
        assert!(to_vertex_set(&[]).is_empty());
        assert!(to_vertex_set(&[false, false, false]).is_empty());
        assert_eq!(to_vertex_set(&[true, true]), BTreeSet::from([0, 1]));
        assert_eq!(to_vertex_set(&[false, true, false, true]), BTreeSet::from([1, 3]));
    }

    #[test]
    fn agreement_edge_cases() {
        // empty vectors agree vacuously
        assert_eq!(agreement(&[], &[]), 1.0);
        assert_eq!(agreement(&[true, true], &[true, true]), 1.0);
        assert_eq!(agreement(&[true, false], &[false, true]), 0.0);
        assert_eq!(agreement(&[true, false, true, false], &[true, true, true, true]), 0.5);
        // false/false positions count as agreement too
        assert_eq!(agreement(&[false, false], &[false, false]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn agreement_rejects_mismatched_lengths() {
        let _ = agreement(&[true], &[true, false]);
    }

    /// OI: join the solution iff the centre is a local minimum in order.
    struct LocalMin;
    impl OiVertexAlgorithm for LocalMin {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &OrderedNbhd) -> bool {
            t.root == 0
        }
    }

    /// ID: join iff the centre has the largest identifier in its ball.
    struct LocalMaxId;
    impl IdVertexAlgorithm for LocalMaxId {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.root as usize == t.ids.len() - 1
        }
    }

    /// PO: select every incident edge (vertex algorithm returning all).
    struct AllEdges;
    impl PoEdgeAlgorithm for AllEdges {
        fn radius(&self) -> usize {
            0
        }
        fn evaluate(&self, _: &ViewTree) -> Vec<(Letter, bool)> {
            // radius 0 view has no children; selecting requires radius >= 1
            vec![]
        }
    }

    /// PO edge algorithm: select the outgoing edge with label 0.
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
    fn oi_local_min_is_independent_set() {
        let g = gen::cycle(9);
        let rank: Vec<usize> = (0..9).collect();
        let bits = oi_vertex_budgeted(&g, &rank, &LocalMin, &unlimited()).unwrap().value;
        let set = to_vertex_set(&bits);
        // local minima under identity order on a cycle: node 0 only? No:
        // v is a local min iff v < v-1 and v < v+1; for identity order on
        // C_9 that's node 0 alone.
        assert_eq!(set, [0].into_iter().collect());
        // independence: no two adjacent
        for &u in &set {
            for &v in &set {
                if u != v {
                    assert!(!g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn id_local_max_matches_oi_behaviour() {
        let g = gen::cycle(6);
        let ids = vec![10, 60, 20, 50, 30, 40];
        let bits = id_vertex_budgeted(&g, &ids, &LocalMaxId, &unlimited()).unwrap().value;
        let set = to_vertex_set(&bits);
        // local maxima of (10,60,20,50,30,40) on the cycle: 60 at node 1,
        // 50 at node 3, 40 at node 5.
        assert_eq!(set, [1, 3, 5].into_iter().collect());
    }

    #[test]
    fn short_ids_are_a_typed_error_on_both_paths() {
        let g = gen::cycle(6);
        let ids = vec![10, 60, 20]; // three short
        let want = RunError::InputLengthMismatch { what: "ids", expected: 6, actual: 3 };
        assert_eq!(id_vertex_budgeted(&g, &ids, &LocalMaxId, &unlimited()).unwrap_err(), want);
        assert_eq!(id_vertex_naive(&g, &ids, &LocalMaxId).unwrap_err(), want);
    }

    #[test]
    fn short_rank_is_a_typed_error_on_both_paths() {
        let g = gen::cycle(9);
        let rank: Vec<usize> = (0..4).collect();
        let want = RunError::InputLengthMismatch { what: "rank", expected: 9, actual: 4 };
        assert_eq!(oi_vertex_budgeted(&g, &rank, &LocalMin, &unlimited()).unwrap_err(), want);
        assert_eq!(oi_vertex_naive(&g, &rank, &LocalMin).unwrap_err(), want);
    }

    #[test]
    fn po_out_zero_selects_every_edge_once() {
        let d = gen::directed_cycle(5);
        let set = po_edge_budgeted(&d, &OutZero, &unlimited()).unwrap().value;
        assert_eq!(set.len(), 5, "every node selects its outgoing edge");
    }

    #[test]
    fn po_edge_radius_zero_selects_nothing() {
        let d = gen::directed_cycle(5);
        let set = po_edge_budgeted(&d, &AllEdges, &unlimited()).unwrap().value;
        assert!(set.is_empty());
    }

    #[test]
    fn po_absent_letter_is_a_typed_error_on_both_paths() {
        /// Selects an inverse letter the directed cycle lacks.
        struct SelectMissing;
        impl PoEdgeAlgorithm for SelectMissing {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, _: &ViewTree) -> Vec<(Letter, bool)> {
                vec![(Letter::neg(7), true)]
            }
        }
        let d = gen::directed_cycle(4);
        assert!(matches!(
            po_edge_budgeted(&d, &SelectMissing, &unlimited()).unwrap_err(),
            RunError::AbsentLetter { .. }
        ));
        assert!(matches!(
            po_edge_naive(&d, &SelectMissing).unwrap_err(),
            RunError::AbsentLetter { .. }
        ));
    }

    #[test]
    fn wrong_edge_output_length_is_a_typed_error_on_both_paths() {
        /// Always emits a single bit regardless of degree.
        struct OneBit;
        impl OiEdgeAlgorithm for OneBit {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, _: &OrderedNbhd) -> Vec<bool> {
                vec![true]
            }
        }
        let g = gen::cycle(5); // every node has degree 2
        let rank: Vec<usize> = (0..5).collect();
        let want = RunError::OutputLengthMismatch { node: 0, expected: 2, actual: 1 };
        assert_eq!(oi_edge_budgeted(&g, &rank, &OneBit, &unlimited()).unwrap_err(), want);
        assert_eq!(oi_edge_naive(&g, &rank, &OneBit).unwrap_err(), want);
    }

    #[test]
    fn agreement_measures_fraction() {
        let a = vec![true, false, true, true];
        let b = vec![true, true, true, false];
        assert!((agreement(&a, &b) - 0.5).abs() < 1e-12);
        assert!((agreement(&a, &a) - 1.0).abs() < 1e-12);
        assert!((agreement(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oi_edge_union_convention() {
        // Algorithm: every node selects its smallest-rank incident edge.
        struct SmallestEdge;
        impl OiEdgeAlgorithm for SmallestEdge {
            fn radius(&self) -> usize {
                1
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
        let g = gen::path(3);
        let rank: Vec<usize> = (0..3).collect();
        let set = oi_edge_budgeted(&g, &rank, &SmallestEdge, &unlimited()).unwrap().value;
        // node 0 selects {0,1}; node 1 selects {0,1}; node 2 selects {1,2}
        assert_eq!(set.len(), 2);
        assert!(set.contains(&Edge::new(0, 1)));
        assert!(set.contains(&Edge::new(1, 2)));
    }

    #[test]
    fn budgeted_vertex_run_truncates_on_cache_cap() {
        let g = gen::cycle(12);
        let ids: Vec<u64> = (0..12).map(|i| 100 + i as u64).collect();
        // every ball has distinct ids => 12 classes; cap at 2
        let budget = RunBudget::unlimited().with_cache_cap(2);
        let b = id_vertex_budgeted(&g, &ids, &LocalMaxId, &budget).unwrap();
        assert!(!b.is_complete());
        assert!(b.value.len() < 12, "prefix only");
        // the unlimited run still succeeds
        let full = id_vertex_budgeted(&g, &ids, &LocalMaxId, &unlimited()).unwrap().value;
        assert_eq!(full.len(), 12);
        assert_eq!(b.value[..], full[..b.value.len()], "prefix agrees with full run");
    }
}
