//! Minimum edge dominating set — the paper's headline application
//! (Thm 1.6): locally approximable to exactly 4 − 2/Δ′ in all three
//! models, where Δ′ = 2⌊Δ/2⌋.
//!
//! An edge set `D` is an EDS when every edge of `G` is in `D` or shares an
//! endpoint with a member of `D`; equivalently, the endpoints of `D` form a
//! vertex cover.

use locap_graph::Graph;

use crate::{matching, search, touched, EdgeSet, Goal};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether every edge is dominated by `x` (and members are real edges).
pub fn feasible(g: &Graph, x: &EdgeSet) -> bool {
    x.iter().all(|e| g.has_edge(e.u, e.v)) && g.edges().all(|e| touched(x, e.u) || touched(x, e.v))
}

/// Greedy baseline: any maximal matching is an EDS within factor 2 of
/// optimum (classical; also the non-local distributed baseline).
pub fn greedy(g: &Graph) -> EdgeSet {
    matching::greedy_maximal(g)
}

/// Exact minimum edge dominating set: the crate's branch and bound picks
/// edges until every edge shares an endpoint with one, starting from
/// [`greedy`] and pruning with `⌈undominated edges / (2Δ − 1)⌉`.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`](crate::MAX_EXACT_NODES)
/// nodes.
pub fn solve_exact(g: &Graph) -> EdgeSet {
    exact(g).0
}

/// [`solve_exact`] and the number of search nodes it took.
fn exact(g: &Graph) -> (EdgeSet, u64) {
    let start = greedy(g);
    let edges = g.edge_vec();
    let ends = search::masks(g, &edges, |e| [e.u, e.v]);
    let found =
        search::min_picks(&ends, &ends, (2 * g.max_degree()).saturating_sub(1), start.len());
    (found.picks.map_or(start, |p| p.into_iter().map(|i| edges[i]).collect()), found.nodes)
}

/// The exact optimum value γ_e(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{edge_verifier_matches_feasible, suite};
    use locap_graph::factor::two_factor_labeling;
    use locap_graph::gen;
    use locap_lifts::connect_copies;
    use locap_models::checkable::verifiers::EdsVerifier;

    #[test]
    fn known_optima() {
        assert_eq!(opt_value(&gen::cycle(5)), 2);
        assert_eq!(opt_value(&gen::cycle(6)), 2);
        assert_eq!(opt_value(&gen::cycle(9)), 3);
        assert_eq!(opt_value(&gen::path(4)), 1);
        assert_eq!(opt_value(&gen::complete(4)), 2);
        assert_eq!(opt_value(&gen::complete_bipartite(2, 3)), 2);
        assert_eq!(opt_value(&gen::star(6)), 1);
        assert_eq!(opt_value(&gen::petersen()), 3);
    }

    #[test]
    fn eds_equals_minimum_maximal_matching_size() {
        // A minimum maximal matching is a minimum EDS (paper §1.7); verify
        // the values agree by checking our exact EDS is no larger than any
        // maximal matching and is itself dominated by *some* maximal
        // matching of equal size (classical equivalence).
        for (name, g) in suite() {
            let eds = opt_value(&g);
            let mm = matching::greedy_maximal(&g).len();
            assert!(eds <= mm, "{name}: γ_e <= any maximal matching");
            // classical bound: maximal matching is a 2-approx of EDS
            assert!(mm <= 2 * eds, "{name}");
        }
    }

    #[test]
    fn exact_feasible_and_below_greedy() {
        for (name, g) in suite() {
            let opt = solve_exact(&g);
            assert!(feasible(&g, &opt), "{name}");
            let gr = greedy(&g);
            assert!(feasible(&g, &gr), "{name}: maximal matching is an EDS");
            assert!(opt.len() <= gr.len(), "{name}");
        }
    }

    #[test]
    fn local_check_matches_feasible_on_random_subsets() {
        edge_verifier_matches_feasible(41, 0.25, &EdsVerifier, feasible);
    }

    /// A connected `n / (4k − 1)`-lift of the gadget `K_{2k, 2k−1}` plus a
    /// perfect matching on its `2k` side, for `Δ′ = 2k`: the `eds-lower`
    /// instance, built as `locap-core`'s `eds_instance` builds it.
    fn gadget_lift(delta_prime: usize, n: usize) -> Graph {
        let k = delta_prime / 2;
        let (t, u) = (2 * k, 2 * k - 1);
        let bipartite = (0..t).flat_map(|a| (0..u).map(move |b| (a, t + b)));
        let edges: Vec<_> = bipartite.chain((0..k).map(|i| (2 * i, 2 * i + 1))).collect();
        let base = Graph::from_edges(t + u, &edges).unwrap();
        let labeled = two_factor_labeling(&base).unwrap();
        let lift = match n / (t + u) {
            1 => labeled,
            l => connect_copies(&labeled, l).unwrap().0,
        };
        lift.underlying().unwrap()
    }

    #[test]
    fn paper_sweep_gadgets_take_pinned_node_counts() {
        // (Δ′, n, perfect EDS size n·Δ′ / (2(2Δ′ − 1)), search nodes)
        for (dp, n, opt, nodes) in [
            (2, 3, 1, 1),
            (2, 9, 3, 6),
            (2, 21, 7, 10),
            (2, 30, 10, 13),
            (4, 7, 2, 1),
            (4, 14, 4, 9),
            (4, 28, 8, 13),
            (6, 11, 3, 1),
            (6, 22, 6, 13),
        ] {
            let g = gadget_lift(dp, n);
            assert_eq!(g.node_count(), n);
            let (eds, found) = exact(&g);
            assert!(feasible(&g, &eds), "Δ′ = {dp}, n = {n}");
            assert_eq!((eds.len(), found), (opt, nodes), "Δ′ = {dp}, n = {n}");
        }
    }

    #[test]
    fn empty_solution_infeasible_with_edges() {
        let g = gen::cycle(4);
        assert!(!feasible(&g, &EdgeSet::new()));
        let g0 = Graph::new(3);
        assert!(feasible(&g0, &EdgeSet::new()), "edgeless graph: empty EDS ok");
    }
}
