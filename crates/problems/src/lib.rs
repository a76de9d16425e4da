//! Simple PO-checkable graph problems (paper §1.6, Example 1.1).
//!
//! A *simple graph problem* asks for a subset of nodes or edges minimising
//! or maximising its size; it is *PO-checkable* when a constant-radius
//! anonymous local verifier accepts exactly the feasible solutions (all
//! nodes accept ⟺ feasible). This crate implements the six problems the
//! paper names, each with four faces:
//!
//! 1. **global feasibility** (`feasible`),
//! 2. **a radius-1 local verifier** (`local_check`) whose conjunction over
//!    all nodes equals feasibility — witnessing PO-checkability (the
//!    verifier consumes only the ball of `v` and the solution bits stored
//!    on it, never identifiers or orders),
//! 3. **an exact solver** (branch and bound over `u128` vertex masks,
//!    instances up to [`MAX_EXACT_NODES`] nodes) providing ground-truth
//!    OPT for measured approximation ratios, and
//! 4. **a greedy centralised baseline**.
//!
//! | problem | goal | kind | exact solver |
//! |---|---|---|---|
//! | [`vertex_cover`] | min | vertices | B&B on uncovered edges |
//! | [`independent_set`] | max | vertices | B&B with remaining-count bound |
//! | [`dominating_set`] | min | vertices | B&B on undominated vertices |
//! | [`matching`] | max | edges | B&B over edges |
//! | [`edge_cover`] | min | edges | Gallai: `n − ν(G)` with witness |
//! | [`edge_dominating_set`] | min | edges | B&B on undominated edges |
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
mod ratio;
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
