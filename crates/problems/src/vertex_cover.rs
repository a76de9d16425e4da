//! Minimum vertex cover.
//!
//! Locally 2-approximable in all three models (paper §1.4); the PO
//! algorithm lives in `locap-algos`. This module provides the problem
//! definition, an exact branch-and-bound solver and a greedy baseline.

use locap_graph::Graph;

use crate::{search, Goal, VertexSet};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether `x` covers every edge of `g`.
pub fn feasible(g: &Graph, x: &VertexSet) -> bool {
    g.edges().all(|e| x.contains(&e.u) || x.contains(&e.v))
}

/// Greedy baseline: repeatedly add the vertex covering the most
/// uncovered edges, the lowest id on ties. Each vertex keeps its count of
/// uncovered edges, so a step costs `O(n + deg)` and the whole run
/// `O(n²)`.
pub fn greedy(g: &Graph) -> VertexSet {
    // uncovered[v]: v's edges to non-members; 0 once v is a member
    let mut uncovered: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mut x = VertexSet::new();
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (v, &gain) in uncovered.iter().enumerate() {
            if gain > 0 && best.is_none_or(|(b, _)| gain > b) {
                best = Some((gain, v));
            }
        }
        let Some((_, v)) = best else { break };
        x.insert(v);
        uncovered[v] = 0;
        // each edge {v, u} to a non-member u is covered now; a member u
        // already reads 0
        for &u in g.neighbors(v) {
            uncovered[u] = uncovered[u].saturating_sub(1);
        }
    }
    x
}

/// Exact minimum vertex cover: the crate's branch and bound picks
/// vertices until every edge is covered, starting from [`greedy`] and
/// pruning with `⌈uncovered edges / Δ⌉`. On a cycle that bound is
/// `⌈n/2⌉`, which the greedy cover meets, so cycles need no search.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> VertexSet {
    cover_from(g, greedy(g)).0
}

/// A minimum vertex cover of `g`, searched from the cover `start`, and
/// the number of search nodes it took.
pub(crate) fn cover_from(g: &Graph, start: VertexSet) -> (VertexSet, u64) {
    let found = search::min_picks(
        &search::masks(g, g.nodes(), |v| [v]),
        &search::masks(g, g.edges(), |e| [e.u, e.v]),
        g.max_degree(),
        start.len(),
    );
    (found.picks.map_or(start, |p| p.into_iter().collect()), found.nodes)
}

/// The exact optimum value τ(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{suite, vertex_verifier_matches_feasible};
    use locap_graph::gen;
    use locap_models::checkable::verifiers::VertexCoverVerifier;
    use locap_models::checkable::verify_vertex;

    #[test]
    fn known_optima() {
        assert_eq!(opt_value(&gen::cycle(5)), 3);
        assert_eq!(opt_value(&gen::cycle(6)), 3);
        assert_eq!(opt_value(&gen::path(4)), 2); // wait: P4 edges 0-1,1-2,2-3 -> {1,2}
        assert_eq!(opt_value(&gen::complete(4)), 3);
        assert_eq!(opt_value(&gen::complete_bipartite(2, 3)), 2);
        assert_eq!(opt_value(&gen::star(6)), 1);
        assert_eq!(opt_value(&gen::petersen()), 6);
    }

    #[test]
    fn exact_is_feasible_and_greedy_no_better() {
        for (name, g) in suite() {
            let opt = solve_exact(&g);
            assert!(feasible(&g, &opt), "{name}");
            let gr = greedy(&g);
            assert!(feasible(&g, &gr), "{name}");
            assert!(gr.len() >= opt.len(), "{name}");
        }
    }

    #[test]
    fn local_check_conjunction_is_feasibility() {
        for (name, g) in suite() {
            // exact solution: all accept
            let opt = solve_exact(&g);
            assert!(verify_vertex(&g, &opt, &VertexCoverVerifier), "{name}");
            // empty solution on a graph with edges: some node rejects
            if g.edge_count() > 0 {
                let empty = VertexSet::new();
                assert!(!feasible(&g, &empty));
                assert!(!verify_vertex(&g, &empty, &VertexCoverVerifier), "{name}");
            }
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        vertex_verifier_matches_feasible(17, 0.4, &VertexCoverVerifier, feasible);
    }

    #[test]
    fn greedy_picks_are_pinned_on_the_suite() {
        // the most uncovered edges first, the lowest id on ties
        let want: [(&str, &[usize]); 8] = [
            ("C5", &[0, 2, 3]),
            ("C6", &[0, 2, 4]),
            ("P4", &[1, 2]),
            ("K4", &[0, 1, 2]),
            ("K23", &[0, 1]),
            ("petersen", &[0, 2, 3, 5, 6, 9]),
            ("star6", &[0]),
            ("Q3", &[0, 3, 5, 6]),
        ];
        for ((name, g), (want_name, picks)) in suite().into_iter().zip(want) {
            assert_eq!(name, want_name);
            assert_eq!(greedy(&g), picks.iter().copied().collect(), "{name}");
        }
    }

    #[test]
    fn every_cycle_is_answered_at_the_root() {
        for n in 3..=128 {
            let g = gen::cycle(n);
            let (cover, nodes) = cover_from(&g, greedy(&g));
            assert_eq!((cover.len(), nodes), (n.div_ceil(2), 1), "C{n}");
        }
    }

    #[test]
    fn branching_instances_take_pinned_node_counts() {
        // the bound leaves a gap on these, and a branch that left in its
        // earlier siblings' picks would take 7 and 15 nodes
        for (name, g, tau, nodes) in
            [("K4", gen::complete(4), 3, 6), ("petersen", gen::petersen(), 6, 12)]
        {
            let (cover, found) = cover_from(&g, greedy(&g));
            assert_eq!((cover.len(), found), (tau, nodes), "{name}");
        }
    }

    #[test]
    fn infeasible_detected() {
        let g = gen::cycle(4);
        let x: VertexSet = [0].into_iter().collect();
        assert!(!feasible(&g, &x));
        assert!(!verify_vertex(&g, &x, &VertexCoverVerifier));
    }
}
