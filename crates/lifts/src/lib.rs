//! Graph lifts, covering maps and views for the `locap` workspace.
//!
//! The transfer theorems of Göös–Hirvonen–Suomela rest on three pieces of
//! machinery implemented here:
//!
//! * **Covering maps and lifts** (paper §1.6, Fig. 3): a degree- and
//!   label-preserving onto homomorphism `ϕ : V(H) → V(G)` makes `H` a lift
//!   of `G`. [`CoveringMap`] verifies the property exactly; [`trivial_lift`]
//!   and [`random_lift`] construct `l`-lifts; [`connect_copies`] is the
//!   cyclic rewiring of Prop. 4.5 that turns a disjoint union of copies into
//!   a connected lift.
//! * **Views** (paper §2.5, Fig. 4): the view `T(G, v)` is the tree of
//!   non-backtracking walks from `v`, the exact information available to a
//!   PO algorithm. [`view`] computes the radius-`r` truncation
//!   τ(T(G, v)) as a canonical tree; equality of [`ViewTree`]s *is*
//!   isomorphism. The key invariance `B(H, v) = B(G, ϕ(v))` for lifts is
//!   checked in tests and exploited throughout `locap-core`.
//! * **Complete trees** (paper §2.5, Fig. 5): `(T*, λ)` is the view of the
//!   "free" 2|L|-regular structure; every concrete view embeds into it.
//!   [`complete_tree`] builds it, [`reduced_words`] enumerates its vertices
//!   (reduced words over `L ∪ L⁻¹`).
//!
//! # Example
//!
//! ```
//! use locap_graph::gen;
//! use locap_lifts::{random_lift, view};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = gen::directed_cycle(3);
//! let mut rng = StdRng::seed_from_u64(1);
//! let (h, phi) = random_lift(&g, 4, &mut rng);
//! phi.verify(&h, &g).unwrap();
//! // Views are invariant under lifts:
//! for v in 0..h.node_count() {
//!     assert_eq!(view(&h, v, 2), view(&g, phi.image(v), 2));
//! }
//! ```

#![warn(missing_docs)]

mod complete;
mod cover;
mod error;
pub mod pn;
mod view;
mod word;

pub use complete::{complete_tree, reduced_words, t_star_size};
pub use cover::{
    bipartite_double_cover, connect_copies, find_redundant_edge, random_lift, trivial_lift,
    CoveringMap,
};
pub use error::LiftError;
pub use view::{
    census_from_json, census_key, census_to_json, view, view_census, view_census_naive, ViewCache,
    ViewCacheStats, ViewNode, ViewTree, CENSUS_STORE_NS,
};
pub use word::{Letter, Word};
