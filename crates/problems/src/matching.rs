//! Matchings: maximum matching (the optimisation problem of §1.4, not
//! constant-factor approximable locally) and maximal matching (the
//! classical Ω(log* n) barrier, Fig. 2 discussion).

use locap_graph::{Edge, Graph};

use crate::{edge_cover, EdgeSet, Goal};

/// Optimisation direction (maximum matching).
pub const GOAL: Goal = Goal::Maximize;

/// Whether `x` is a matching (no two members share an endpoint).
pub fn feasible(g: &Graph, x: &EdgeSet) -> bool {
    if !x.iter().all(|e| g.has_edge(e.u, e.v)) {
        return false;
    }
    let mut used = vec![false; g.node_count()];
    for e in x {
        if used[e.u] || used[e.v] {
            return false;
        }
        used[e.u] = true;
        used[e.v] = true;
    }
    true
}

/// Whether a matching is *maximal* (no edge can be added).
pub fn is_maximal(g: &Graph, x: &EdgeSet) -> bool {
    feasible(g, x) && g.edges().all(|e| x.iter().any(|m| m.adjacent(&e)))
}

/// Greedy maximal matching (scan edges in sorted order).
pub fn greedy_maximal(g: &Graph) -> EdgeSet {
    first_fit(g, g.edges())
}

/// Exact maximum matching: one edge from each star of a minimum edge
/// cover of the non-isolated nodes. A minimum edge cover is a star forest
/// (an edge whose two ends other edges of it touch could be dropped), so
/// on the `n′` non-isolated nodes it has `n′ − ρ` stars, which is ν by
/// Gallai's identity ν + ρ = n′.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> EdgeSet {
    first_fit(g, edge_cover::cover_non_isolated(g))
}

/// The edges of `edges`, in order, that share no endpoint with an earlier
/// choice. Within a star forest that is one edge per star.
fn first_fit(g: &Graph, edges: impl IntoIterator<Item = Edge>) -> EdgeSet {
    let mut used = vec![false; g.node_count()];
    let mut m = EdgeSet::new();
    for e in edges {
        if !used[e.u] && !used[e.v] {
            used[e.u] = true;
            used[e.v] = true;
            m.insert(e);
        }
    }
    m
}

/// The exact maximum matching size ν(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{edge_verifier_matches_feasible, suite};
    use locap_graph::gen;
    use locap_models::checkable::verifiers::MatchingVerifier;

    #[test]
    fn known_optima() {
        assert_eq!(opt_value(&gen::cycle(5)), 2);
        assert_eq!(opt_value(&gen::cycle(6)), 3);
        assert_eq!(opt_value(&gen::path(4)), 2);
        assert_eq!(opt_value(&gen::complete(4)), 2);
        assert_eq!(opt_value(&gen::complete_bipartite(2, 3)), 2);
        assert_eq!(opt_value(&gen::star(6)), 1);
        assert_eq!(opt_value(&gen::petersen()), 5);
        assert_eq!(opt_value(&gen::hypercube(3)), 4);
    }

    #[test]
    fn koenig_on_bipartite_instances() {
        // König: in bipartite graphs ν = τ.
        for g in [gen::complete_bipartite(2, 3), gen::path(4), gen::cycle(6), gen::hypercube(3)] {
            assert_eq!(opt_value(&g), crate::vertex_cover::opt_value(&g));
        }
    }

    #[test]
    fn exact_feasible_greedy_maximal() {
        for (name, g) in suite() {
            let opt = solve_exact(&g);
            assert!(feasible(&g, &opt), "{name}");
            let gm = greedy_maximal(&g);
            assert!(is_maximal(&g, &gm), "{name}");
            assert!(gm.len() <= opt.len(), "{name}");
            // maximal matching is at least half of maximum
            assert!(2 * gm.len() >= opt.len(), "{name}");
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        edge_verifier_matches_feasible(31, 0.3, &MatchingVerifier, feasible);
    }

    #[test]
    fn non_edges_rejected() {
        let g = gen::path(3);
        let x: EdgeSet = [Edge::new(0, 2)].into_iter().collect();
        assert!(!feasible(&g, &x));
    }

    #[test]
    fn maximality_detection() {
        let g = gen::path(4); // edges 01, 12, 23
        let x: EdgeSet = [Edge::new(1, 2)].into_iter().collect();
        assert!(is_maximal(&g, &x));
        let y: EdgeSet = [Edge::new(0, 1)].into_iter().collect();
        assert!(!is_maximal(&g, &y), "edge 23 could be added");
    }
}
