//! The tight edge-dominating-set lower bound — **Theorem 1.6**.
//!
//! The theorem: no local ID algorithm approximates minimum edge dominating
//! set on connected graphs of maximum degree Δ better than
//! `α₀ = 4 − 2/Δ′`, `Δ′ = 2⌊Δ/2⌋`. The engine is a Δ′-regular instance
//! `G₀` on which *every* PO algorithm is badly stuck, amplified to ID by
//! the main theorem.
//!
//! Our reconstruction of `G₀` (DESIGN.md substitution #5):
//!
//! * **The gadget.** For `Δ′ = 2k`, take `K_{2k, 2k−1}` plus a perfect
//!   matching `D` on the `2k`-side: a `2k`-regular graph on `4k − 1`
//!   nodes whose minimum EDS is the matching `D` itself, of size `k` —
//!   *perfect*, i.e. meeting the counting bound `nΔ′/(2(2Δ′−1))` (each EDS
//!   edge dominates at most `2Δ′ − 1` edges). [`gadget`] builds it;
//!   branch-and-bound certifies optimality. Arbitrarily large instances
//!   are connected lifts of the gadget ([`eds_instance`]); fibre-preimages
//!   keep the optimum perfect.
//! * **The symmetry.** A `2k`-regular graph 2-factorises (Petersen;
//!   [`locap_graph::factor::two_factor_labeling`]) into a *label-complete*
//!   L-digraph, in which **every radius-r view is the complete tree
//!   `(T*, λ)` — identical at every node, for every `r`.** Hence any PO
//!   algorithm outputs the same per-letter mask everywhere and its
//!   solution is a union of label classes; each class is a 2-factor with
//!   `n` edges and any single class is already feasible, so the best
//!   PO-attainable solution has exactly `n` edges.
//! * **The ratio.** `n / (nΔ′/(2(2Δ′−1))) = 2(2Δ′−1)/Δ′ = 4 − 2/Δ′`,
//!   matched exactly; both quantities are computed, not assumed.

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::factor::two_factor_labeling;
use locap_graph::{Edge, Graph, LDigraph};
use locap_lifts::{connect_copies, ViewCache};
use locap_num::Ratio;
use locap_obs as obs;
use locap_problems::edge_dominating_set;

use crate::{next_combination, CoreError};

/// A reconstructed lower-bound instance `G₀` (possibly a connected lift of
/// the base gadget).
#[derive(Debug, Clone)]
pub struct EdsInstance {
    /// The label-complete 2-factorised L-digraph.
    pub digraph: LDigraph,
    /// The degree Δ′ = 2k.
    pub delta_prime: usize,
    /// Lift degree over the base gadget (1 = the gadget itself).
    pub lift_degree: usize,
}

impl EdsInstance {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.digraph.node_count()
    }
}

/// The tight bound `4 − 2/Δ′` as an exact rational. Total: `Δ′ = 0`
/// (outside the theorem's range) yields `0`.
pub fn eds_bound(delta_prime: usize) -> Ratio {
    let dp = delta_prime as i128;
    Ratio::new(4 * dp - 2, dp).unwrap_or(Ratio::ZERO)
}

/// The perfect-EDS size `nΔ′/(2(2Δ′−1))`, when integral.
pub fn perfect_eds_size(n: usize, delta_prime: usize) -> Option<usize> {
    let num = n * delta_prime;
    let den = 2 * (2 * delta_prime - 1);
    (num % den == 0).then(|| num / den)
}

/// The base gadget for `Δ′ = 2k`: `K_{2k, 2k−1}` plus a perfect matching
/// on the `2k`-side. Nodes `0..2k` are the matched side (`2i ~ 2i+1`),
/// nodes `2k..4k−1` the independent side.
///
/// # Panics
///
/// Panics if `k == 0`.
#[expect(
    clippy::expect_used,
    reason = "every endpoint is < t + u, and no edge in this list is a loop or a repeat"
)]
pub fn gadget(k: usize) -> Graph {
    assert!(k >= 1, "k must be positive");
    let t = 2 * k; // matched side
    let u = 2 * k - 1; // independent side
    let bipartite = (0..t).flat_map(|a| (0..u).map(move |b| (a, t + b)));
    let matching = (0..k).map(|i| (2 * i, 2 * i + 1));
    let edges: Vec<_> = bipartite.chain(matching).collect();
    Graph::from_edges(t + u, &edges).expect("gadget edges are simple")
}

/// Builds the lower-bound instance for `Δ′ = delta_prime` on `n` nodes
/// (`n` must be a multiple of `4k − 1`; the instance is a connected
/// `n/(4k−1)`-lift of the gadget).
///
/// Returns `None` for odd/too-small Δ′ or incompatible `n`.
pub fn eds_instance(delta_prime: usize, n: usize) -> Option<EdsInstance> {
    if delta_prime % 2 != 0 || delta_prime < 2 {
        return None;
    }
    let k = delta_prime / 2;
    let base_n = 4 * k - 1;
    if n == 0 || n % base_n != 0 {
        return None;
    }
    let l = n / base_n;
    let base = gadget(k);
    let labeled = two_factor_labeling(&base).ok()?;
    let (digraph, lift_degree) = if l == 1 {
        (labeled, 1)
    } else {
        let (lift, _phi) = connect_copies(&labeled, l).ok()?;
        (lift, l)
    };
    Some(EdsInstance { digraph, delta_prime, lift_degree })
}

/// The report certifying the PO lower bound on an instance.
#[derive(Debug, Clone)]
pub struct LowerBoundReport {
    /// Number of nodes.
    pub n: usize,
    /// The exact optimum (must equal the perfect size).
    pub opt: usize,
    /// An optimal solution (witness).
    pub opt_set: BTreeSet<Edge>,
    /// The minimum size of a feasible symmetric (PO-attainable) solution.
    pub min_symmetric: usize,
    /// Number of distinct radius-2 views (must be 1).
    pub view_classes: usize,
    /// The certified ratio `min_symmetric / opt`.
    pub ratio: Ratio,
}

/// Certifies the lower bound on an instance: checks view symmetry (all
/// views identical — guaranteed by label-completeness, re-checked by
/// census), enumerates all symmetric solutions (unions of label classes),
/// computes the exact optimum, and returns the ratio.
///
/// The census respects the budget's cache cap, and the symmetric
/// enumeration and exact solve check the deadline. The report certifies
/// an exact minimum, so a tripped budget is [`CoreError::Truncated`]
/// naming the stage, not a partial report.
///
/// # Errors
///
/// Fails if the instance is not PO-symmetric or no symmetric solution is
/// feasible, and with [`CoreError::Truncated`] when the budget trips.
pub fn lower_bound_report_budgeted(
    inst: &EdsInstance,
    budget: &RunBudget,
) -> Result<LowerBoundReport, CoreError> {
    let d = &inst.digraph;
    let n = d.node_count();
    let _span = obs::span("eds_lower/report");
    if !d.is_label_complete() {
        return Err(CoreError::VerificationFailed {
            property: "instance is not label-complete".into(),
        });
    }
    // symmetry: all views isomorphic (label-completeness forces this at
    // every radius; we re-check r = 1, 2 by exact census). One shared
    // ViewCache: the radius-2 refinement reuses the radius-1 levels.
    {
        let _span = obs::span("census");
        let mut cache = ViewCache::new(d);
        for r in 1..=2 {
            let census = match cache.try_census(r, budget.cache_cap()) {
                Ok(c) => c,
                Err(t) => {
                    return Err(CoreError::Truncated { stage: "view census", reason: t.publish() })
                }
            };
            if census.len() != 1 {
                return Err(CoreError::VerificationFailed {
                    property: format!("{} view classes at radius {r}", census.len()),
                });
            }
        }
    }
    let und = d.underlying().map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;

    // symmetric solutions: unions of label classes. Label-completeness
    // gives every class n edges and `underlying` has made the classes
    // disjoint, so a union of j classes has j·n edges: the first size j
    // with a feasible union is the minimum (j = 1 on every gadget).
    let min_symmetric = {
        let k = d.alphabet_size();
        let _span = obs::span("symmetric_enum");
        let mut found = None;
        'sizes: for j in 1..=k {
            let mut classes: Vec<usize> = (0..j).collect();
            loop {
                if let Some(t) = budget.check_interrupt() {
                    return Err(CoreError::Truncated {
                        stage: "symmetric enumeration",
                        reason: t.publish(),
                    });
                }
                let chosen: BTreeSet<Edge> = d
                    .edges()
                    .filter(|e| classes.contains(&e.label))
                    .map(|e| Edge::new(e.from, e.to))
                    .collect();
                if edge_dominating_set::feasible(&und, &chosen) {
                    found = Some(chosen.len());
                    break 'sizes;
                }
                if !next_combination(&mut classes, k) {
                    break;
                }
            }
        }
        found.ok_or(CoreError::VerificationFailed {
            property: "no symmetric solution is feasible".into(),
        })?
    };

    if let Some(t) = budget.check_interrupt() {
        return Err(CoreError::Truncated { stage: "exact optimum", reason: t.publish() });
    }
    let opt_span = obs::span("opt_solve");
    let opt_set = edge_dominating_set::solve_exact(&und);
    let opt = opt_set.len();
    drop(opt_span);
    let ratio = Ratio::new(min_symmetric as i128, opt as i128)
        .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;

    Ok(LowerBoundReport { n, opt, opt_set, min_symmetric, view_classes: 1, ratio })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_values() {
        assert_eq!(eds_bound(2), Ratio::from_int(3));
        assert_eq!(eds_bound(4), Ratio::new(7, 2).unwrap());
        assert_eq!(eds_bound(6), Ratio::new(11, 3).unwrap());
        assert_eq!(perfect_eds_size(9, 2), Some(3));
        assert_eq!(perfect_eds_size(10, 2), None);
        assert_eq!(perfect_eds_size(14, 4), Some(4));
        assert_eq!(perfect_eds_size(28, 4), Some(8));
    }

    #[test]
    fn gadget_structure() {
        // k = 1: the triangle
        let g1 = gadget(1);
        assert_eq!(g1.node_count(), 3);
        assert!(g1.is_regular(2));
        assert_eq!(edge_dominating_set::opt_value(&g1), 1);

        // k = 2: K_{4,3} + matching, 7 nodes, 4-regular, perfect EDS = 2
        let g2 = gadget(2);
        assert_eq!(g2.node_count(), 7);
        assert!(g2.is_regular(4));
        assert!(g2.is_connected());
        assert_eq!(edge_dominating_set::opt_value(&g2), 2);
        assert_eq!(perfect_eds_size(7, 4), Some(2));

        // k = 3: 11 nodes, 6-regular, perfect EDS = 3
        let g3 = gadget(3);
        assert_eq!(g3.node_count(), 11);
        assert!(g3.is_regular(6));
        assert_eq!(edge_dominating_set::opt_value(&g3), 3);
    }

    #[test]
    fn delta_prime_2_base_is_triangle() {
        let inst = eds_instance(2, 3).unwrap();
        assert_eq!(inst.lift_degree, 1);
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.opt, 1);
        assert_eq!(report.min_symmetric, 3);
        assert_eq!(report.ratio, eds_bound(2));
    }

    #[test]
    fn delta_prime_2_lifts_scale() {
        for n in [9usize, 12, 21] {
            let inst = eds_instance(2, n).unwrap();
            assert_eq!(inst.n(), n);
            assert!(inst.digraph.underlying_simple().is_connected());
            let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
            assert_eq!(report.ratio, eds_bound(2), "n = {n}");
            assert_eq!(report.opt, perfect_eds_size(n, 2).unwrap());
        }
        // n not divisible by 3: no instance
        assert!(eds_instance(2, 10).is_none());
    }

    #[test]
    fn delta_prime_4_gadget_and_lift() {
        let inst = eds_instance(4, 7).unwrap();
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.ratio, eds_bound(4), "ratio must be 7/2");
        assert_eq!(report.min_symmetric, 7);
        assert_eq!(report.opt, 2);

        let inst = eds_instance(4, 14).unwrap();
        assert_eq!(inst.lift_degree, 2);
        assert!(inst.digraph.underlying_simple().is_connected());
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.ratio, eds_bound(4));
        assert_eq!(report.opt, 4);
    }

    #[test]
    fn delta_prime_6_gadget() {
        let inst = eds_instance(6, 11).unwrap();
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.ratio, eds_bound(6), "ratio must be 11/3");
        assert_eq!(report.opt, 3);
        assert_eq!(report.min_symmetric, 11);
    }

    #[test]
    fn symmetric_minimum_is_one_class() {
        let inst = eds_instance(2, 12).unwrap();
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.min_symmetric, 12);
    }

    /// Δ′ = 64 has k = 32 label classes, one past what a `u32` mask of
    /// classes can shift through.
    #[test]
    fn thirty_two_label_classes_answer_with_one_class() {
        let inst = eds_instance(64, 127).unwrap();
        assert_eq!(inst.digraph.alphabet_size(), 32);
        let report = lower_bound_report_budgeted(&inst, &RunBudget::unlimited()).unwrap();
        assert_eq!(report.min_symmetric, 127);
        assert_eq!(report.opt, perfect_eds_size(127, 64).unwrap());
        assert_eq!(report.ratio, eds_bound(64));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(eds_instance(3, 12).is_none());
        assert!(eds_instance(1, 12).is_none());
        assert!(eds_instance(4, 12).is_none(), "12 not a multiple of 7");
        assert!(eds_instance(2, 0).is_none());
    }
}
