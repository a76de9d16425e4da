//! Homogeneous lifts — **Theorem 3.3** (paper §3.3, Fig. 7).
//!
//! Given any L-digraph `G` and a homogeneous graph `H = H_ε` over the same
//! alphabet (Theorem 3.2), the label-matching product `G_ε = H × G`:
//!
//! * is a lift of `G` (projection onto the `G` factor is a covering map);
//! * inherits `H`'s girth > 2r + 1 (projection onto `H` is a graph
//!   homomorphism);
//! * carries a linear order (any completion of the pullback of `H`'s
//!   order) under which a `1 − ε` fraction of vertices have ordered
//!   `r`-neighbourhoods isomorphic to *ordered subtrees of τ*** — exactly
//!   the property the OI→PO simulation (Thm 4.1) feeds on.
//!
//! [`homogeneous_lift_budgeted`] verifies all three properties
//! computationally before it returns a lift.

use locap_graph::budget::RunBudget;
use locap_graph::product::label_matching_product;
use locap_graph::{Graph, LDigraph};
use locap_groups::{Group, IterGroup};
use locap_lifts::{view, CoveringMap, Letter, Word};
use locap_num::Ratio;
use locap_obs as obs;

use crate::homogeneous::{HomogeneousGraph, MAX_NODES};
use crate::CoreError;

/// The lift `G_ε = H_ε × G` of Theorem 3.3, with its order and covering
/// map.
#[derive(Debug, Clone)]
pub struct HomogeneousLift {
    /// The lifted graph `G_ε`.
    pub lift: LDigraph,
    /// The underlying simple graph of `lift`, built once for verification
    /// and for the OI runs of the transfer.
    pub und: Graph,
    /// The covering map ϕ : V(G_ε) → V(G).
    pub phi: CoveringMap,
    /// Rank of each lift vertex in the completed order `<_C`.
    pub rank: Vec<usize>,
    /// Vertices in fibres of τ*-typed `H` vertices (the `U_C` of the
    /// proof) — on these the ordered neighbourhood embeds in τ*.
    pub good: Vec<bool>,
    /// The radius the construction targets.
    pub radius: usize,
}

impl HomogeneousLift {
    /// The fraction of good vertices (≥ 1 − ε by construction). Total:
    /// an empty lift reports fraction `0`.
    pub fn good_fraction(&self) -> Ratio {
        let good = self.good.iter().filter(|&&b| b).count();
        Ratio::new(good as i128, self.good.len() as i128).unwrap_or(Ratio::ZERO)
    }

    /// Number of lift vertices.
    pub fn node_count(&self) -> usize {
        self.lift.node_count()
    }
}

/// Evaluates a walk (reduced word) in the group `U`, mapping letter `ℓ` to
/// `gens[ℓ]` and `ℓ⁻¹` to its inverse.
#[expect(
    clippy::indexing_slicing,
    reason = "gens holds one generator per letter of the alphabet the word is spelled in"
)]
pub fn eval_word(u: &IterGroup, gens: &[Vec<i64>], w: &Word) -> Vec<i64> {
    let mut acc = u.identity();
    for l in w.letters() {
        let g = if l.inverse { u.inv(&gens[l.label]) } else { gens[l.label].clone() };
        acc = u.op(&acc, &g);
    }
    acc
}

/// Builds the homogeneous lift `G_ε = H × G`.
///
/// A lift of more than 3,000,000 nodes (the cap [`crate::homogeneous`]
/// puts on `|H|`) is [`CoreError::TooLarge`] before anything is
/// allocated. The deadline is checked after the product, after its
/// underlying graph, and between the samples of the verification sweep
/// (girth spot-checks and the per-sample τ*-order audit). An unverified
/// lift is useless to the transfer, so a tripped budget is
/// [`CoreError::Truncated`], not a partial lift.
///
/// # Errors
///
/// Fails if the alphabets disagree, the lift is too large or the verified
/// properties do not hold, and with [`CoreError::Truncated`] when the
/// budget trips.
pub fn homogeneous_lift_budgeted(
    g: &LDigraph,
    h: &HomogeneousGraph,
    budget: &RunBudget,
) -> Result<HomogeneousLift, CoreError> {
    let mut lift_span = obs::span("hom_lift/lift");
    if g.alphabet_size() != h.digraph.alphabet_size() {
        return Err(CoreError::BadParameters {
            reason: format!(
                "alphabet mismatch: G has {}, H has {}",
                g.alphabet_size(),
                h.digraph.alphabet_size()
            ),
        });
    }
    let ng = g.node_count();
    let nh = h.node_count();
    lift_span.arg("fibre", ng as i64);
    lift_span.arg("fibres", nh as i64);
    let n = match nh.checked_mul(ng) {
        Some(n) if n <= MAX_NODES => n,
        _ => {
            return Err(CoreError::TooLarge {
                reason: format!("lift |H| x |G| = {nh} x {ng} exceeds {MAX_NODES} nodes"),
            })
        }
    };
    let lift = label_matching_product(&h.digraph, g);
    if let Some(t) = budget.check_interrupt() {
        return Err(CoreError::Truncated { stage: "lift product", reason: t.publish() });
    }

    // ϕ_G((a, b)) = b; a covering map because H is label-complete.
    let phi = CoveringMap::new((0..n).map(|x| x % ng).collect());
    phi.verify(&lift, g)
        .map_err(|e| CoreError::VerificationFailed { property: format!("covering map: {e}") })?;

    // order: pull back H's order along ϕ_H((a, b)) = a and complete by the
    // G index (fibres of ϕ_H are incomparable in <_p; any completion works
    // because no r-ball contains two vertices of a common ϕ_H-fibre).
    // h.rank is a permutation of 0..nh, so (a, b) sits at h.rank[a]·ng + b.
    let mut rank = Vec::with_capacity(n);
    for &ra in &h.rank {
        rank.extend((0..ng).map(|b| ra * ng + b));
    }

    // good vertices: fibres (under ϕ_H) of τ*-typed H vertices; a flag
    // missing from a doctored H reads as untyped
    let mut good = Vec::with_capacity(n);
    for a in 0..nh {
        good.extend(std::iter::repeat_n(h.typed.get(a) == Some(&true), ng));
    }

    let und = lift.underlying_simple();
    if let Some(t) = budget.check_interrupt() {
        return Err(CoreError::Truncated { stage: "lift underlying graph", reason: t.publish() });
    }
    let out = HomogeneousLift { lift, und, phi, rank, good, radius: h.radius };
    verify_lift(&out, h, budget)?;
    Ok(out)
}

#[expect(
    clippy::indexing_slicing,
    reason = "good/rank are dense over the lift's nodes; endpoints has one entry per walk in words"
)]
fn verify_lift(
    c: &HomogeneousLift,
    h: &HomogeneousGraph,
    budget: &RunBudget,
) -> Result<(), CoreError> {
    let _span = obs::span("verify");
    // girth inherited from H (check near one good vertex and node 0; the
    // product need not be vertex-transitive, so spot-check a sample)
    let und = &c.und;
    let bound = 2 * h.radius + 1;
    let n = c.lift.node_count();
    let stride = (n / 97).max(1);
    for v in (0..n).step_by(stride) {
        if let Some(t) = budget.check_interrupt() {
            return Err(CoreError::Truncated { stage: "lift girth check", reason: t.publish() });
        }
        if und.cycle_near_root(v, bound) {
            return Err(CoreError::VerificationFailed {
                property: format!("lift girth > {bound} (cycle near {v})"),
            });
        }
    }
    // good fraction ≥ H's homogeneous fraction
    if c.good_fraction() < h.fraction() {
        return Err(CoreError::VerificationFailed {
            property: "good fraction below H's homogeneous fraction".into(),
        });
    }
    // on good vertices the ordered neighbourhood is an ordered subtree of
    // τ*: operationally, the view is a tree and the order of any two ball
    // vertices (walk endpoints) agrees with the U-order of the walks.
    let u = IterGroup::infinite(h.level)
        .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;
    let mut checked = 0usize;
    for v in (0..n).step_by(stride) {
        if let Some(t) = budget.check_interrupt() {
            return Err(CoreError::Truncated { stage: "lift order audit", reason: t.publish() });
        }
        if !c.good[v] {
            continue;
        }
        let tree = view(&c.lift, v, h.radius);
        let words = tree.words();
        // endpoints of the walks in the lift
        let mut endpoints = Vec::with_capacity(words.len());
        for w in &words {
            let mut x = v;
            for l in w.letters() {
                x = follow(&c.lift, x, *l).ok_or_else(|| CoreError::VerificationFailed {
                    property: "walk leaves the lift".into(),
                })?;
            }
            endpoints.push(x);
        }
        // distinct endpoints (tree-ness) and order agreement
        for i in 0..words.len() {
            for j in (i + 1)..words.len() {
                if endpoints[i] == endpoints[j] {
                    return Err(CoreError::VerificationFailed {
                        property: format!("walks {} and {} collide", words[i], words[j]),
                    });
                }
                let lift_order = c.rank[endpoints[i]] < c.rank[endpoints[j]];
                let u_i = eval_word(&u, &h.gens, &words[i]);
                let u_j = eval_word(&u, &h.gens, &words[j]);
                let u_order = u.cmp_order(&u_i, &u_j) == std::cmp::Ordering::Less;
                if lift_order != u_order {
                    return Err(CoreError::VerificationFailed {
                        property: format!(
                            "order of walks {} and {} disagrees with τ*",
                            words[i], words[j]
                        ),
                    });
                }
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(CoreError::VerificationFailed { property: "no good vertex sampled".into() });
    }
    Ok(())
}

fn follow(d: &LDigraph, v: usize, l: Letter) -> Option<usize> {
    if l.inverse {
        d.in_neighbor(v, l.label)
    } else {
        d.out_neighbor(v, l.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homogeneous::construct_budgeted;
    use locap_graph::gen;
    use locap_lifts::view_census;

    #[test]
    fn lift_of_directed_triangle() {
        // G = directed triangle (|L| = 1), H = Thm 3.2 graph with k = 1.
        let g = gen::directed_cycle(3);
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let c = homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()).unwrap();
        assert_eq!(c.node_count(), 216 * 3);
        assert!(c.good_fraction() >= h.fraction());
        // every lift vertex has the same view as its ϕ-image
        for v in (0..c.node_count()).step_by(37) {
            assert_eq!(view(&c.lift, v, 1), view(&g, c.phi.image(v), 1));
        }
    }

    #[test]
    fn lift_alphabet_mismatch_rejected() {
        let g = locap_graph::product::toroidal(2, 4); // |L| = 2
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap(); // |L| = 1
        assert!(matches!(
            homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()),
            Err(CoreError::BadParameters { .. })
        ));
    }

    #[test]
    fn lift_of_toroidal_grid_k2() {
        let g = locap_graph::product::toroidal(2, 3); // 9 nodes, |L| = 2, girth 3
        let h = construct_budgeted(2, 1, 6, &RunBudget::unlimited()).unwrap();
        let c = homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()).unwrap();
        // the lift has girth > 3 even though G has girth 3
        let und = c.lift.underlying_simple();
        assert!(!und.cycle_near_root(0, 3));
        // PO-invariance: the view census of the lift matches G's (one class)
        assert_eq!(view_census(&g, 1).len(), 1);
        let census = view_census(&c.lift, 1);
        assert_eq!(census.len(), 1, "lift views collapse to G's single view class");
    }

    /// The rank the lift used to get by sorting its vertices by
    /// `(h.rank[a], b)`: the differential oracle of the closed form.
    fn sorted_lift_rank(h: &HomogeneousGraph, ng: usize) -> Vec<usize> {
        let n = h.node_count() * ng;
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&x| (h.rank[x / ng], x % ng));
        let mut rank = vec![0usize; n];
        for (pos, &x) in perm.iter().enumerate() {
            rank[x] = pos;
        }
        rank
    }

    #[test]
    fn lift_rank_matches_the_sorted_rank_on_the_e08_instances() {
        let bases = [
            (gen::directed_cycle(3), 1),
            (crate::eds_lower::eds_instance(2, 9).unwrap().digraph, 1),
            (locap_graph::product::toroidal(2, 3), 2),
        ];
        for (g, k) in bases {
            for m in [6, 12] {
                let h = construct_budgeted(k, 1, m, &RunBudget::unlimited()).unwrap();
                let c = homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()).unwrap();
                let ng = g.node_count();
                assert_eq!(c.rank, sorted_lift_rank(&h, ng), "k = {k}, m = {m}, |G| = {ng}");
                assert_eq!(c.und, c.lift.underlying_simple());
            }
        }
    }

    #[test]
    fn oversized_lift_is_too_large_before_it_is_built() {
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        // 216 · 13,889 = 3,000,024 nodes: one fibre row past the cap
        let g = gen::directed_cycle(13_889);
        assert!(matches!(
            homogeneous_lift_budgeted(&g, &h, &RunBudget::unlimited()),
            Err(CoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn eval_word_basics() {
        let u = IterGroup::infinite(2).unwrap();
        let gens = vec![vec![1i64, 0, 0]];
        let w = Word::from_letters([Letter::pos(0), Letter::pos(0)]);
        assert_eq!(eval_word(&u, &gens, &w), vec![2, 0, 0]);
        let w_inv = Word::from_letters([Letter::neg(0)]);
        assert_eq!(eval_word(&u, &gens, &w_inv), vec![-1, 0, 0]);
        assert_eq!(eval_word(&u, &gens, &Word::empty()), vec![0, 0, 0]);
    }
}
