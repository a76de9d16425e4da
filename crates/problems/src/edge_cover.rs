//! Minimum edge cover.
//!
//! Locally 2-approximable, and no better, in all three models (paper §1.4).
//! The exact solver also serves [`matching`]: by Gallai's identity
//! ρ(G) = n − ν(G), a maximum matching takes one edge from each star of a
//! minimum edge cover.

use locap_graph::{Edge, Graph};

use crate::{matching, search, EdgeSet, Goal};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether every node is incident to some member of `x` (and members are
/// real edges). Graphs with isolated nodes have no edge cover.
pub fn feasible(g: &Graph, x: &EdgeSet) -> bool {
    x.iter().all(|e| g.has_edge(e.u, e.v)) && g.nodes().all(|v| x.iter().any(|e| e.touches(v)))
}

/// Exact minimum edge cover: the crate's branch and bound picks edges
/// until every node is touched, starting from [`greedy`] and pruning with
/// `⌈untouched nodes / 2⌉`. Returns `None` if the graph has an isolated
/// node (no edge cover exists).
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> Option<EdgeSet> {
    (!has_isolated(g)).then(|| cover_non_isolated(g))
}

/// The exact optimum value ρ(G) = n − ν(G); `None` for graphs with
/// isolated nodes.
pub fn opt_value(g: &Graph) -> Option<usize> {
    solve_exact(g).map(|c| c.len())
}

/// Greedy baseline: a greedy maximal matching extended by one edge per
/// uncovered vertex (the classical 2-approximation, also how the local
/// algorithm works).
pub fn greedy(g: &Graph) -> Option<EdgeSet> {
    (!has_isolated(g)).then(|| greedy_non_isolated(g))
}

fn has_isolated(g: &Graph) -> bool {
    g.nodes().any(|v| g.degree(v) == 0)
}

/// A minimum set of edges touching every non-isolated node of `g`.
pub(crate) fn cover_non_isolated(g: &Graph) -> EdgeSet {
    let start = greedy_non_isolated(g);
    let edges = g.edge_vec();
    let found = search::min_picks(
        &search::masks(g, &edges, |e| [e.u, e.v]),
        &search::masks(g, g.nodes().filter(|&v| g.degree(v) > 0), |v| [v]),
        2,
        start.len(),
    );
    found.picks.map_or(start, |p| p.into_iter().map(|i| edges[i]).collect())
}

/// [`greedy`] over the non-isolated nodes only.
fn greedy_non_isolated(g: &Graph) -> EdgeSet {
    let mut cover = matching::greedy_maximal(g);
    let mut covered = vec![false; g.node_count()];
    for e in &cover {
        covered[e.u] = true;
        covered[e.v] = true;
    }
    for v in g.nodes() {
        if let (false, Some(&u)) = (covered[v], g.neighbors(v).first()) {
            cover.insert(Edge::new(v, u));
            covered[v] = true;
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{edge_verifier_matches_feasible, suite};
    use locap_graph::gen;
    use locap_models::checkable::verifiers::EdgeCoverVerifier;

    #[test]
    fn known_optima_gallai() {
        assert_eq!(opt_value(&gen::cycle(5)), Some(3));
        assert_eq!(opt_value(&gen::cycle(6)), Some(3));
        assert_eq!(opt_value(&gen::path(4)), Some(2));
        assert_eq!(opt_value(&gen::complete(4)), Some(2));
        assert_eq!(opt_value(&gen::star(6)), Some(6));
        assert_eq!(opt_value(&gen::petersen()), Some(5));
        for (name, g) in suite() {
            if let Some(rho) = opt_value(&g) {
                assert_eq!(rho, g.node_count() - matching::opt_value(&g), "{name}: ρ = n − ν");
            }
        }
    }

    #[test]
    fn isolated_nodes_infeasible() {
        let g = Graph::new(3); // no edges at all
        assert_eq!(solve_exact(&g), None);
        assert_eq!(greedy(&g), None);
        assert!(!feasible(&g, &EdgeSet::new()));
    }

    #[test]
    fn solutions_feasible_and_greedy_at_most_twice_opt() {
        for (name, g) in suite() {
            let opt = solve_exact(&g).unwrap();
            assert!(feasible(&g, &opt), "{name}");
            let gr = greedy(&g).unwrap();
            assert!(feasible(&g, &gr), "{name}");
            assert!(gr.len() <= 2 * opt.len(), "{name}: greedy within factor 2");
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        edge_verifier_matches_feasible(37, 0.5, &EdgeCoverVerifier, feasible);
    }
}
