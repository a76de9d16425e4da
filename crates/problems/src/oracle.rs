//! Brute-force oracle for the exact solvers: on every small graph, each
//! problem's optimum is the best size over all subsets its own `feasible`
//! accepts. `feasible` shares no code with the mask search, so the oracle
//! checks the search against the problem definitions alone.

use std::collections::BTreeSet;

use locap_graph::{Edge, Graph, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::testing::suite;
use crate::{
    dominating_set, edge_cover, edge_dominating_set, independent_set, matching, vertex_cover, Goal,
};

/// Most edges a checked graph may have: every subset of up to 2^14 is
/// enumerated, in a debug build too.
const MAX_EDGES: usize = 14;

/// The best size among the subsets of `items` that `feasible` accepts,
/// or `None` when it accepts none.
fn best_size<T: Ord + Copy>(
    items: &[T],
    goal: Goal,
    feasible: impl Fn(&BTreeSet<T>) -> bool,
) -> Option<usize> {
    let sizes = (0u32..1 << items.len()).filter_map(|bits| {
        let x: BTreeSet<T> = items
            .iter()
            .enumerate()
            .filter(|&(i, _)| bits >> i & 1 == 1)
            .map(|(_, &t)| t)
            .collect();
        feasible(&x).then_some(x.len())
    });
    match goal {
        Goal::Minimize => sizes.min(),
        Goal::Maximize => sizes.max(),
    }
}

/// Checks one problem's `solve_exact` result and `opt_value` on one graph
/// against the oracle over `items`.
fn agree<T: Ord + Copy>(
    what: &str,
    items: &[T],
    goal: Goal,
    feasible: impl Fn(&BTreeSet<T>) -> bool,
    solved: Option<BTreeSet<T>>,
    opt: Option<usize>,
) {
    let want = best_size(items, goal, &feasible);
    assert_eq!(opt, want, "{what}: opt_value");
    assert_eq!(solved.as_ref().map(BTreeSet::len), want, "{what}: solve_exact size");
    if let Some(x) = solved {
        assert!(feasible(&x), "{what}: solve_exact is infeasible");
    }
}

/// Checks all six solvers on `g` against the oracle.
fn check(name: &str, g: &Graph) {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let edges: Vec<Edge> = g.edge_vec();
    assert!(edges.len() <= MAX_EDGES, "{name}: too many edges to enumerate");
    agree(
        &format!("{name}: vertex cover"),
        &nodes,
        vertex_cover::GOAL,
        |x| vertex_cover::feasible(g, x),
        Some(vertex_cover::solve_exact(g)),
        Some(vertex_cover::opt_value(g)),
    );
    agree(
        &format!("{name}: independent set"),
        &nodes,
        independent_set::GOAL,
        |x| independent_set::feasible(g, x),
        Some(independent_set::solve_exact(g)),
        Some(independent_set::opt_value(g)),
    );
    agree(
        &format!("{name}: dominating set"),
        &nodes,
        dominating_set::GOAL,
        |x| dominating_set::feasible(g, x),
        Some(dominating_set::solve_exact(g)),
        Some(dominating_set::opt_value(g)),
    );
    agree(
        &format!("{name}: matching"),
        &edges,
        matching::GOAL,
        |x| matching::feasible(g, x),
        Some(matching::solve_exact(g)),
        Some(matching::opt_value(g)),
    );
    // with an isolated node no edge cover exists, and both sides say None
    agree(
        &format!("{name}: edge cover"),
        &edges,
        edge_cover::GOAL,
        |x| edge_cover::feasible(g, x),
        edge_cover::solve_exact(g),
        edge_cover::opt_value(g),
    );
    agree(
        &format!("{name}: edge dominating set"),
        &edges,
        edge_dominating_set::GOAL,
        |x| edge_dominating_set::feasible(g, x),
        Some(edge_dominating_set::solve_exact(g)),
        Some(edge_dominating_set::opt_value(g)),
    );
}

#[test]
fn exact_solvers_match_the_oracle_on_the_suite() {
    for (name, g) in suite().into_iter().filter(|(_, g)| g.edge_count() <= MAX_EDGES) {
        check(name, &g);
    }
}

#[test]
fn exact_solvers_match_the_oracle_on_random_small_graphs() {
    let mut rng = StdRng::seed_from_u64(59);
    for trial in 0..120 {
        let n = 1 + trial % 7;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let chosen: Vec<(NodeId, NodeId)> =
            pairs.into_iter().filter(|_| rng.gen_bool(0.45)).collect();
        let g = Graph::from_edges(n, &chosen).unwrap();
        check(&format!("trial {trial} (n = {n})"), &g);
    }
}
