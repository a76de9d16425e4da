//! Minimum dominating set.
//!
//! Locally (Δ′+1)-approximable, and no better, in all three models
//! (paper §1.4, Δ′ = 2⌊Δ/2⌋).

use locap_graph::{Graph, NodeId};

use crate::{search, Goal, VertexSet};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether every node is in `x` or adjacent to a member of `x`.
pub fn feasible(g: &Graph, x: &VertexSet) -> bool {
    g.nodes()
        .all(|v| x.contains(&v) || g.neighbors(v).iter().any(|u| x.contains(u)))
}

/// Greedy baseline: repeatedly add the vertex dominating the most
/// yet-undominated vertices (the classical ln-n greedy).
pub fn greedy(g: &Graph) -> VertexSet {
    let n = g.node_count();
    let mut dominated = vec![false; n];
    let mut x = VertexSet::new();
    while dominated.iter().any(|&d| !d) {
        let mut best: Option<(usize, NodeId)> = None;
        for v in 0..n {
            let gain = std::iter::once(v)
                .chain(g.neighbors(v).iter().copied())
                .filter(|&u| !dominated[u])
                .count();
            if gain > 0 && best.is_none_or(|(b, _)| gain > b) {
                best = Some((gain, v));
            }
        }
        let (_, v) = best.expect("undominated vertices imply positive gain somewhere");
        x.insert(v);
        dominated[v] = true;
        for &u in g.neighbors(v) {
            dominated[u] = true;
        }
    }
    x
}

/// Exact minimum dominating set: the crate's branch and bound picks
/// vertices until every closed neighbourhood holds one, starting from
/// [`greedy`] and pruning with `⌈undominated vertices / (Δ + 1)⌉`.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> VertexSet {
    let start = greedy(g);
    let closed = |v: NodeId| std::iter::once(v).chain(g.neighbors(v).iter().copied());
    let found = search::min_picks(
        &search::masks(g, g.nodes(), |v| [v]),
        &search::masks(g, g.nodes(), closed),
        g.max_degree() + 1,
        start.len(),
    );
    found.picks.map_or(start, |p| p.into_iter().collect())
}

/// The exact optimum value γ(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{suite, vertex_verifier_matches_feasible};
    use locap_graph::gen;
    use locap_models::checkable::verifiers::DominatingSetVerifier;

    #[test]
    fn known_optima() {
        assert_eq!(opt_value(&gen::cycle(5)), 2);
        assert_eq!(opt_value(&gen::cycle(6)), 2);
        assert_eq!(opt_value(&gen::cycle(9)), 3);
        assert_eq!(opt_value(&gen::path(4)), 2);
        assert_eq!(opt_value(&gen::complete(4)), 1);
        assert_eq!(opt_value(&gen::star(6)), 1);
        assert_eq!(opt_value(&gen::petersen()), 3);
        assert_eq!(opt_value(&gen::hypercube(3)), 2);
    }

    #[test]
    fn exact_is_feasible_and_dominates_greedy() {
        for (name, g) in suite() {
            let opt = solve_exact(&g);
            assert!(feasible(&g, &opt), "{name}");
            let gr = greedy(&g);
            assert!(feasible(&g, &gr), "{name}");
            assert!(gr.len() >= opt.len(), "{name}");
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        vertex_verifier_matches_feasible(29, 0.3, &DominatingSetVerifier, feasible);
    }

    #[test]
    fn domination_bound_n_over_delta_plus_one() {
        for (name, g) in suite() {
            if g.node_count() == 0 {
                continue;
            }
            let opt = opt_value(&g);
            let bound = g.node_count() as f64 / (g.max_degree() as f64 + 1.0);
            assert!(opt as f64 >= bound - 1e-9, "{name}: γ >= n/(Δ+1)");
        }
    }

    #[test]
    fn whole_vertex_set_dominates() {
        let g = gen::petersen();
        let all: VertexSet = g.nodes().collect();
        assert!(feasible(&g, &all));
    }
}
