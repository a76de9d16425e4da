//! Maximum independent set.
//!
//! Not approximable to within any constant factor by deterministic local
//! algorithms in any of ID/OI/PO (paper §1.4); the symmetric-instance
//! argument is exercised in `locap-core`/E12.

use locap_graph::{Graph, NodeId};

use crate::{vertex_cover, Goal, VertexSet};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Maximize;

/// Whether `x` is independent (no two adjacent members).
pub fn feasible(g: &Graph, x: &VertexSet) -> bool {
    x.iter().all(|&v| g.neighbors(v).iter().all(|u| !x.contains(u)))
}

/// Greedy baseline: repeatedly add a minimum-degree vertex of the
/// remaining graph and delete its closed neighbourhood.
pub fn greedy(g: &Graph) -> VertexSet {
    let n = g.node_count();
    let mut alive = vec![true; n];
    let mut x = VertexSet::new();
    loop {
        let mut best: Option<(usize, NodeId)> = None;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let deg = g.neighbors(v).iter().filter(|&&u| alive[u]).count();
            if best.is_none_or(|(b, _)| deg < b) {
                best = Some((deg, v));
            }
        }
        match best {
            None => break,
            Some((_, v)) => {
                x.insert(v);
                alive[v] = false;
                for &u in g.neighbors(v) {
                    alive[u] = false;
                }
            }
        }
    }
    x
}

/// Exact maximum independent set: the complement of a minimum vertex
/// cover (α + τ = n, Gallai), which the crate's branch and bound finds
/// from the complement of [`greedy`].
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> VertexSet {
    exact(g).0
}

/// [`solve_exact`] and the number of search nodes it took.
fn exact(g: &Graph) -> (VertexSet, u64) {
    let complement =
        |x: &VertexSet| -> VertexSet { g.nodes().filter(|v| !x.contains(v)).collect() };
    let (cover, nodes) = vertex_cover::cover_from(g, complement(&greedy(g)));
    (complement(&cover), nodes)
}

/// The exact optimum value α(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{suite, vertex_verifier_matches_feasible};
    use locap_graph::gen;
    use locap_models::checkable::verifiers::IndependentSetVerifier;

    #[test]
    fn known_optima() {
        assert_eq!(opt_value(&gen::cycle(5)), 2);
        assert_eq!(opt_value(&gen::cycle(6)), 3);
        assert_eq!(opt_value(&gen::path(4)), 2);
        assert_eq!(opt_value(&gen::complete(4)), 1);
        assert_eq!(opt_value(&gen::complete_bipartite(2, 3)), 3);
        assert_eq!(opt_value(&gen::star(6)), 6);
        assert_eq!(opt_value(&gen::petersen()), 4);
        assert_eq!(opt_value(&gen::hypercube(3)), 4);
    }

    #[test]
    fn gallai_identity_alpha_plus_tau_is_n() {
        for (name, g) in suite() {
            let alpha = opt_value(&g);
            let tau = crate::vertex_cover::opt_value(&g);
            assert_eq!(alpha + tau, g.node_count(), "{name}: α + τ = n");
        }
    }

    #[test]
    fn exact_is_feasible_and_dominates_greedy() {
        for (name, g) in suite() {
            let opt = solve_exact(&g);
            assert!(feasible(&g, &opt), "{name}");
            let gr = greedy(&g);
            assert!(feasible(&g, &gr), "{name}");
            assert!(gr.len() <= opt.len(), "{name}");
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        vertex_verifier_matches_feasible(23, 0.4, &IndependentSetVerifier, feasible);
    }

    #[test]
    fn every_cycle_is_answered_at_the_root() {
        for n in 3..=128 {
            let (set, nodes) = exact(&gen::cycle(n));
            assert_eq!((set.len(), nodes), (n / 2, 1), "C{n}");
        }
    }

    #[test]
    fn empty_set_is_independent() {
        let g = gen::complete(5);
        assert!(feasible(&g, &VertexSet::new()));
    }
}
