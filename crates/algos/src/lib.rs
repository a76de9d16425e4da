//! Distributed local algorithms cited by the paper (§1.4–§1.5, §6.2).
//!
//! These are the *upper bounds* that the lower-bound machinery of
//! `locap-core` is measured against:
//!
//! * [`cole_vishkin`] — deterministic colour reduction on directed cycles
//!   (Cole–Vishkin 1986): 3-colouring and maximal independent set in
//!   O(log* n) rounds in the **ID** model. This is the algorithm that
//!   separates O(1) from O(log* n) time (paper §1.1, Fig. 2).
//! * [`proposal`] — maximal matching in 2-coloured graphs by port-ordered
//!   proposals, O(Δ) rounds, anonymous (**PN/PO**).
//! * [`double_cover`] — the bipartite-double-cover technique: every graph
//!   is simulated as its inherently 2-coloured double cover, a maximal
//!   matching is computed there and projected down. Yields the
//!   (4 − 2/Δ′)-approximation of minimum edge dominating set
//!   (Suomela 2010; tight by Thm 1.6) and a 3-approximation of minimum
//!   vertex cover.
//! * [`edge_packing`] — maximal fractional edge packing by simultaneous
//!   offers (Åstrand et al. 2009): the saturated vertices are a
//!   2-approximation of minimum vertex cover, anonymous, O(Δ)-ish rounds,
//!   exact rational arithmetic.
//! * [`edge_cover_local`] — the trivial radius-1 2-approximation of
//!   minimum edge cover (every node picks its first port).
//! * [`weak_coloring`] + [`dominating`] — weak 2-colouring from the
//!   orientation (odd-degree graphs) and the dominating-set upper bounds
//!   built on it (see DESIGN.md, substitution #4).

#![warn(missing_docs)]

pub mod bipartite;
pub mod cole_vishkin;
pub mod dominating;
pub mod double_cover;
pub mod edge_cover_local;
pub mod edge_packing;
pub mod proposal;
pub mod weak_coloring;
