//! The three models of distributed computing (paper §2) as executable
//! algorithm interfaces.
//!
//! A deterministic local algorithm with run-time `r` is a *function of the
//! radius-`r` neighbourhood* (paper Eq. (1)); the three models differ only
//! in what that neighbourhood contains:
//!
//! | model | neighbourhood | trait |
//! |-------|---------------|-------|
//! | **ID** (§2.3) | τ(G, v) with unique identifiers — [`locap_graph::canon::IdNbhd`] | [`IdVertexAlgorithm`] / [`IdEdgeAlgorithm`] |
//! | **OI** (§2.4) | τ(G, <, v) up to order-isomorphism — [`locap_graph::canon::OrderedNbhd`] | [`OiVertexAlgorithm`] / [`OiEdgeAlgorithm`] |
//! | **PO** (§2.5) | the view τ(T(G, v)) — [`locap_lifts::ViewTree`] | [`PoVertexAlgorithm`] / [`PoEdgeAlgorithm`] |
//!
//! [`run`] executes an algorithm over a whole instance and assembles the
//! global solution (a vertex set or an edge set); an edge belongs to the
//! solution when *either* endpoint selects it. Its six `*_budgeted`
//! functions are the only way into the crate's private memoized engine,
//! which evaluates an algorithm once per class of equal neighbourhoods.
//!
//! The crate also provides:
//!
//! * a synchronous message-passing simulator ([`sim`]) for the round-based
//!   algorithms of `locap-algos` (Cole–Vishkin, proposal matching, edge
//!   packing), with measured round counts;
//! * order-invariance testing ([`invariance`]): checks whether an
//!   ID algorithm's output survives order-preserving relabelling — the
//!   property that the Ramsey step of §4.2 forces;
//! * PO-checkability ([`checkable`]): one anonymous radius-1 verifier
//!   per Example 1.1 problem, over solution-decorated views.

#![warn(missing_docs)]

pub mod checkable;
mod engine;
pub mod error;
pub mod invariance;
pub mod run;
pub mod sim;
mod traits;

pub use error::RunError;
pub use traits::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoTableAlgorithm, PoVertexAlgorithm,
};
