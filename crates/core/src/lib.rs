//! The main results of Göös, Hirvonen & Suomela, *Lower Bounds for Local
//! Approximation* (PODC 2012) — executable.
//!
//! The paper proves **ID = OI = PO for local approximation**: for simple
//! PO-checkable optimisation problems on lift-closed bounded-degree graph
//! families, constant-time algorithms with unique identifiers are no more
//! powerful than constant-time algorithms on anonymous port-numbered,
//! oriented networks. This crate implements every construction in the
//! proof, each with a machine-checkable witness:
//!
//! * [`homogeneous`] — **Theorem 3.2**: finite 2k-regular
//!   `(1−ε, r)`-homogeneous graphs of girth > 2r + 1, built as Cayley
//!   graphs of the iterated semidirect products `H_i = H_{i-1}² ⋊ Z_m`
//!   with the left-invariant positive-cone order of the infinite `U_i`.
//!   Girth and the homogeneity census are *verified*, not assumed.
//! * [`hom_lift`] — **Theorem 3.3**: for any L-digraph `G`, the
//!   label-matching product `G_ε = H_ε × G` is a lift of `G` whose order
//!   structure is useless to OI algorithms on a `1−ε` fraction of nodes.
//! * [`oi_to_po`] — **Theorem 4.1**: the PO algorithm
//!   `B(W) := A((T*, <*, λ) ↾ W)` simulating any OI algorithm `A`; the
//!   agreement fraction and approximation accounting of Facts 4.2/4.3 are
//!   measured by [`transfer`].
//! * [`ramsey`] — **§4.2**: the colouring `c(S)(W)` of t-subsets of the
//!   identifier space and the search for monochromatic subsets that force
//!   an ID algorithm to behave order-invariantly.
//! * [`eds_lower`] — **Theorem 1.6**: the tight `4 − 2/Δ′` lower bound for
//!   local approximation of minimum edge dominating set, via
//!   vertex-transitive instances on which every PO algorithm's output is a
//!   union of generator classes; both the minimum symmetric solution and
//!   the true optimum are computed exactly.
//!
//! # Quickstart
//!
//! ```
//! use locap_core::eds_lower;
//! use locap_graph::budget::RunBudget;
//! use locap_num::Ratio;
//!
//! // Δ′ = 2: on the directed 9-cycle every PO algorithm is forced to take
//! // all 9 edges or none, while OPT = 3 — ratio 3 = 4 − 2/2 (Thm 1.6).
//! let inst = eds_lower::eds_instance(2, 9).unwrap();
//! let report = eds_lower::lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
//! assert_eq!(report.ratio, Ratio::from_int(3));
//! assert_eq!(report.ratio, eds_lower::eds_bound(2));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]
#![warn(missing_docs)]

pub mod eds_lower;
mod error;
pub mod hom_lift;
pub mod homogeneous;
pub mod oi_to_po;
pub mod ramsey;
pub mod request;
pub mod transfer;

pub use error::CoreError;
