//! Minimum dominating set.
//!
//! Locally (Δ′+1)-approximable, and no better, in all three models
//! (paper §1.4, Δ′ = 2⌊Δ/2⌋).

use locap_graph::{Graph, NodeId};

use crate::{Goal, VertexSet, MAX_EXACT_NODES};

/// Optimisation direction.
pub const GOAL: Goal = Goal::Minimize;

/// Whether every node is in `x` or adjacent to a member of `x`.
pub fn feasible(g: &Graph, x: &VertexSet) -> bool {
    g.nodes()
        .all(|v| x.contains(&v) || g.neighbors(v).iter().any(|u| x.contains(u)))
}

/// Radius-1 local verifier: `v` accepts iff `v` itself is dominated.
pub fn local_check(g: &Graph, x: &VertexSet, v: NodeId) -> bool {
    x.contains(&v) || g.neighbors(v).iter().any(|u| x.contains(u))
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

/// Exact minimum dominating set by branch and bound: branch over the closed
/// neighbourhood of the first undominated vertex.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_EXACT_NODES`] nodes.
pub fn solve_exact(g: &Graph) -> VertexSet {
    assert!(
        g.node_count() <= MAX_EXACT_NODES,
        "exact solver supports at most {MAX_EXACT_NODES} nodes"
    );
    let n = g.node_count();
    let closed: Vec<u128> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(1u128 << v, |m, &u| m | (1 << u)))
        .collect();
    let full: u128 = if n == 128 { u128::MAX } else { (1u128 << n) - 1 };
    let max_cover = closed.iter().map(|m| m.count_ones()).max().unwrap_or(1);

    let mut best: Vec<NodeId> = greedy(g).into_iter().collect();
    let mut current: Vec<NodeId> = Vec::new();

    fn rec(
        dominated: u128,
        full: u128,
        closed: &[u128],
        max_cover: u32,
        current: &mut Vec<NodeId>,
        best: &mut Vec<NodeId>,
    ) {
        let undominated = full & !dominated;
        if undominated == 0 {
            if current.len() < best.len() {
                *best = current.clone();
            }
            return;
        }
        // lower bound: each added vertex dominates at most max_cover nodes
        let lb = undominated.count_ones().div_ceil(max_cover);
        if current.len() + lb as usize >= best.len() {
            return;
        }
        let v = undominated.trailing_zeros() as usize;
        // some member of N[v] must be chosen
        let mut candidates: Vec<NodeId> =
            (0..closed.len()).filter(|&c| closed[c] & (1 << v) != 0).collect();
        // try high-coverage candidates first
        candidates.sort_by_key(|&c| std::cmp::Reverse((closed[c] & !dominated).count_ones()));
        for c in candidates {
            current.push(c);
            rec(dominated | closed[c], full, closed, max_cover, current, best);
            current.pop();
        }
    }

    rec(0, full, &closed, max_cover, &mut current, &mut best);
    best.into_iter().collect()
}

/// The exact optimum value γ(G).
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
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for (name, g) in suite() {
            for _ in 0..30 {
                let x: VertexSet = g.nodes().filter(|_| rng.gen_bool(0.3)).collect();
                let all_accept = g.nodes().all(|v| local_check(&g, &x, v));
                assert_eq!(all_accept, feasible(&g, &x), "{name}");
            }
        }
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
