//! Graph substrate for the `locap` workspace.
//!
//! This crate provides the combinatorial objects of Göös, Hirvonen and
//! Suomela, *Lower Bounds for Local Approximation* (PODC 2012), §2:
//!
//! * [`Graph`] — finite simple undirected graphs of bounded degree;
//! * [`PortNumbering`] and [`Orientation`] — the structure available in the
//!   **PO** model (anonymous networks with port numbers and an orientation);
//! * [`LDigraph`] — properly edge-labelled digraphs (*L-digraphs*, §2.5),
//!   the formal carrier of PO structure;
//! * [`OrderedGraph`] — graphs with a linear order on the vertices, the
//!   structure available in the **OI** (order-invariant) model;
//! * canonical encodings of radius-`r` neighbourhoods ([`canon`]) used to
//!   decide neighbourhood isomorphism exactly (an ordered neighbourhood has
//!   at most one order-preserving isomorphism candidate, so canonical-form
//!   equality *is* isomorphism);
//! * standard families and products ([`gen`], [`product`]) including the
//!   toroidal grids of Fig. 6b;
//! * BFS balls, distances, girth and connectivity ([`Graph::ball`],
//!   [`Graph::girth`], …);
//! * the one chunked fan-out ([`par`]) that every census sweep runs on.
//!
//! # Example
//!
//! ```
//! use locap_graph::{gen, Graph};
//!
//! let g: Graph = gen::cycle(6);
//! assert_eq!(g.node_count(), 6);
//! assert_eq!(g.girth(), Some(6));
//! assert!(g.is_connected());
//! assert_eq!(g.max_degree(), 2);
//! ```

#![warn(missing_docs)]

mod ball;
pub mod budget;
pub mod canon;
mod csr;
mod digraph;
mod dot;
mod error;
pub mod factor;
pub mod gen;
mod intern;
mod order;
pub mod par;
mod ports;
pub mod product;
pub mod random;
mod simple;

pub use budget::{Budgeted, ManualClock, MonotonicClock, RunBudget, StdClock, TruncationReason};
pub use csr::{CsrGraph, NodeBitset};
pub use digraph::{DirEdge, LDigraph, Label};
pub use dot::{digraph_to_dot, graph_to_dot};
pub use error::GraphError;
pub use intern::{digest_words_seeded, KeyInterner};
pub use order::OrderedGraph;
pub use ports::{PoGraph, PortNumbering};
pub use simple::{Edge, Graph, NodeId};

/// Orientation of the edges of a [`Graph`]: for every undirected edge
/// `{u, v}` exactly one of the directed pairs `(u, v)`, `(v, u)`.
pub use ports::Orientation;
