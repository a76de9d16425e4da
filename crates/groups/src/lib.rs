//! Group-theoretic substrate for the `locap` workspace.
//!
//! Section 5 of Göös–Hirvonen–Suomela constructs *homogeneous graphs of
//! large girth* as Cayley graphs of iterated semidirect products:
//!
//! ```text
//! H₁ := Z_m,   W₁ := Z₂,   U₁ := Z,
//! H_{i+1} := H_i² ⋊ Z_m,   W_{i+1} := W_i² ⋊ Z₂,   U_{i+1} := U_i² ⋊ Z,
//! ```
//!
//! where the cyclic factor acts by swapping the two coordinates (odd
//! elements swap, even elements act trivially). Elements of all three
//! families are `d(i)`-tuples of integers, `d(i) = 2^i − 1`, and the
//! reduction maps ψ (mod `m`) and ϕ (mod 2) are onto homomorphisms.
//!
//! This crate implements:
//!
//! * the [`Group`] trait and the concrete [`Cyclic`] and [`IterGroup`]
//!   families (finite `H_i`/`W_i` and the infinite `U_i`, with exact `i64`
//!   coordinates);
//! * the left-invariant linear order on `U` given by the positive cone
//!   `P = {(u₁,…,u_i,0,…,0) : u_i > 0}` ([`IterGroup::cone_positive`],
//!   [`IterGroup::cmp_order`]);
//! * Cayley graphs as properly labelled digraphs ([`cayley`],
//!   [`cayley_indexed`]), with generator `s_ℓ` giving every vertex an
//!   outgoing edge with label `ℓ`;
//! * tuple/index codecs for enumerating finite `H_i`/`W_i`
//!   ([`IterGroup::index_of`], [`IterGroup::elem_of`]).
//!
//! # Example
//!
//! ```
//! use locap_groups::{Group, IterGroup};
//!
//! // W₂ = Z₂² ⋊ Z₂, the dihedral group of order 8.
//! let w2 = IterGroup::finite(2, 2).unwrap();
//! assert_eq!(w2.order(), Some(8));
//! let a = vec![1, 0, 1];
//! let b = vec![0, 1, 0];
//! let ab = w2.op(&a, &b);
//! let ba = w2.op(&b, &a);
//! assert_ne!(ab, ba, "W₂ is non-abelian");
//! ```

#![warn(missing_docs)]

mod cayley;
mod cyclic;
mod error;
pub mod growth;
mod iter;
mod traits;

pub use cayley::{cayley, cayley_indexed};
pub use cyclic::Cyclic;
pub use error::GroupError;
pub use iter::IterGroup;
pub use traits::Group;
