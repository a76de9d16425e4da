//! Simple PO-checkable graph problems (paper §1.6, Example 1.1).
//!
//! A *simple graph problem* asks for a subset of nodes or edges minimising
//! or maximising its size; it is *PO-checkable* when a constant-radius
//! anonymous local verifier accepts exactly the feasible solutions (all
//! nodes accept ⟺ feasible). This crate implements the six problems the
//! paper names, each with three faces:
//!
//! 1. **global feasibility** (`feasible`), the ground truth for the
//!    radius-1 PO verifiers in `locap_models::checkable::verifiers`,
//!    which witness PO-checkability on decorated views (each module's
//!    unit tests, on this crate's instance suite, and the workspace's
//!    property tests, on random graphs, check that each accepts
//!    everywhere exactly when `feasible` holds),
//! 2. **an exact solver** (one branch and bound over `u128` vertex masks,
//!    instances up to [`MAX_EXACT_NODES`] nodes) providing ground-truth
//!    OPT for measured approximation ratios, and
//! 3. **a greedy centralised baseline**.
//!
//! Every exact solver is an instance of the same search: pick the fewest
//! vertices or edges so that every vertex or edge the problem *needs* is
//! met, pruned by the most needs one pick can meet. The two maximisation
//! problems are complements of minimum ones.
//!
//! | problem | goal | kind | exact solver |
//! |---|---|---|---|
//! | [`vertex_cover`] | min | vertices | vertices meeting every edge; bound Δ per pick |
//! | [`independent_set`] | max | vertices | `V ∖` a minimum vertex cover (α + τ = n) |
//! | [`dominating_set`] | min | vertices | vertices meeting every closed neighbourhood; bound Δ + 1 |
//! | [`matching`] | max | edges | one edge per star of a minimum edge cover (ν + ρ = n′) |
//! | [`edge_cover`] | min | edges | edges meeting every vertex; bound 2 |
//! | [`edge_dominating_set`] | min | edges | edges meeting every edge; bound 2Δ − 1 |
//!
//! # Example
//!
//! ```
//! use locap_graph::gen;
//! use locap_problems::{vertex_cover, Goal};
//!
//! let g = gen::cycle(5);
//! let opt = vertex_cover::solve_exact(&g);
//! assert_eq!(opt.len(), 3); // τ(C₅) = ⌈5/2⌉
//! assert!(vertex_cover::feasible(&g, &opt));
//! ```

#![warn(missing_docs)]

pub mod dominating_set;
pub mod edge_cover;
pub mod edge_dominating_set;
pub mod independent_set;
pub mod matching;
#[cfg(test)]
mod oracle;
mod ratio;
mod search;
pub mod vertex_cover;

pub use ratio::{approx_ratio, Goal};

use std::collections::BTreeSet;

use locap_graph::{Edge, NodeId};

/// The largest instance (node count) the exact solvers accept: they
/// search over `u128` vertex masks. Callers taking sizes from outside
/// (the `locap` CLI, `locapd`) reject larger sizes before solving.
pub const MAX_EXACT_NODES: usize = 128;

/// A vertex-subset solution.
pub type VertexSet = BTreeSet<NodeId>;
/// An edge-subset solution.
pub type EdgeSet = BTreeSet<Edge>;

/// Whether node `v` is *touched* by the edge set (incident to some edge).
pub fn touched(x: &EdgeSet, v: NodeId) -> bool {
    x.iter().any(|e| e.touches(v))
}

#[cfg(test)]
pub(crate) mod testing {
    use locap_graph::{gen, Graph};
    use locap_models::checkable::{verify_edge, verify_vertex, EdgeVerifier, VertexVerifier};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use crate::{EdgeSet, VertexSet};

    /// PO-checkability on the [`suite`]: on 30 random subsets per instance,
    /// each node drawn with probability `p`, the radius-1 PO verifier
    /// accepts at every node exactly when `feasible` holds.
    pub fn vertex_verifier_matches_feasible(
        seed: u64,
        p: f64,
        verifier: &impl VertexVerifier,
        feasible: fn(&Graph, &VertexSet) -> bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, g) in suite() {
            for _ in 0..30 {
                let x: VertexSet = g.nodes().filter(|_| rng.gen_bool(p)).collect();
                assert_eq!(verify_vertex(&g, &x, verifier), feasible(&g, &x), "{name} {x:?}");
            }
        }
    }

    /// [`vertex_verifier_matches_feasible`] for an edge problem: each edge
    /// of the instance is drawn with probability `p`.
    pub fn edge_verifier_matches_feasible(
        seed: u64,
        p: f64,
        verifier: &impl EdgeVerifier,
        feasible: fn(&Graph, &EdgeSet) -> bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, g) in suite() {
            for _ in 0..30 {
                let x: EdgeSet = g.edges().filter(|_| rng.gen_bool(p)).collect();
                assert_eq!(verify_edge(&g, &x, verifier), feasible(&g, &x), "{name} {x:?}");
            }
        }
    }

    /// A small suite of named instances exercised by every problem module.
    pub fn suite() -> Vec<(&'static str, Graph)> {
        vec![
            ("C5", gen::cycle(5)),
            ("C6", gen::cycle(6)),
            ("P4", gen::path(4)),
            ("K4", gen::complete(4)),
            ("K23", gen::complete_bipartite(2, 3)),
            ("petersen", gen::petersen()),
            ("star6", gen::star(6)),
            ("Q3", gen::hypercube(3)),
        ]
    }
}
