//! Order-invariance testing (the ID = OI boundary, paper §4.2).
//!
//! An ID algorithm is *order-invariant* on an instance when its output does
//! not change under order-preserving relabelling of the identifiers. The
//! Ramsey argument of §4.2 shows that on identifier sets chosen inside a
//! monochromatic subset, *every* ID algorithm behaves order-invariantly;
//! these helpers measure that property empirically.

use rand::Rng;

use locap_graph::budget::RunBudget;
use locap_graph::Graph;

use crate::error::RunError;
use crate::run;
use crate::IdVertexAlgorithm;

/// Applies an order-preserving random re-spacing to an identifier
/// assignment: identifiers keep their relative order but receive fresh
/// values (random gaps).
pub fn respace_ids<R: Rng>(ids: &[u64], rng: &mut R) -> Vec<u64> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&v| ids[v]);
    let mut out = vec![0u64; ids.len()];
    let mut current: u64 = rng.gen_range(0..1000);
    for &v in &order {
        out[v] = current;
        current += 1 + rng.gen_range(0..1000u64);
    }
    out
}

/// Outcome of an order-invariance test.
#[derive(Debug, Clone, PartialEq)]
pub struct InvarianceReport {
    /// Number of relabellings tried.
    pub trials: usize,
    /// Number of relabellings on which the output changed.
    pub violations: usize,
    /// Smallest per-node agreement fraction observed across trials.
    pub min_agreement: f64,
}

impl InvarianceReport {
    /// Whether the algorithm looked order-invariant on every trial.
    pub fn is_invariant(&self) -> bool {
        self.violations == 0
    }
}

/// Tests whether an ID vertex algorithm's output on `(g, ids)` is stable
/// under `trials` random order-preserving relabellings.
///
/// # Errors
///
/// Propagates any [`RunError`] of the underlying runs (in practice only
/// [`RunError::InputLengthMismatch`] for short `ids`; relabelling
/// preserves length, so the first run decides).
pub fn test_order_invariance<A: IdVertexAlgorithm, R: Rng>(
    g: &Graph,
    ids: &[u64],
    algo: &A,
    trials: usize,
    rng: &mut R,
) -> Result<InvarianceReport, RunError> {
    let unlimited = RunBudget::unlimited();
    let baseline = run::id_vertex_budgeted(g, ids, algo, &unlimited)?.value;
    let mut violations = 0;
    let mut min_agreement = 1.0f64;
    for _ in 0..trials {
        let relabelled = respace_ids(ids, rng);
        let out = run::id_vertex_budgeted(g, &relabelled, algo, &unlimited)?.value;
        let agree = run::agreement(&baseline, &out);
        if agree < 1.0 {
            violations += 1;
        }
        min_agreement = min_agreement.min(agree);
    }
    Ok(InvarianceReport { trials, violations, min_agreement })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::canon::IdNbhd;
    use locap_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Order-invariant by construction: joins iff the centre is the local
    /// id-maximum (depends only on relative order).
    struct LocalMax;
    impl IdVertexAlgorithm for LocalMax {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.root as usize == t.ids.len() - 1
        }
    }

    /// NOT order-invariant: joins iff the centre's identifier is even.
    struct EvenId;
    impl IdVertexAlgorithm for EvenId {
        fn radius(&self) -> usize {
            0
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.ids[t.root as usize] % 2 == 0
        }
    }

    #[test]
    fn respace_preserves_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let ids = vec![30, 10, 70, 50];
        for _ in 0..20 {
            let out = respace_ids(&ids, &mut rng);
            // pairwise order preserved
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(ids[i] < ids[j], out[i] < out[j]);
                }
            }
        }
    }

    #[test]
    fn local_max_is_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::cycle(8);
        let ids = vec![5, 81, 12, 44, 90, 3, 27, 66];
        let rep = test_order_invariance(&g, &ids, &LocalMax, 30, &mut rng).unwrap();
        assert!(rep.is_invariant());
        assert_eq!(rep.violations, 0);
        assert!((rep.min_agreement - 1.0).abs() < 1e-12);
    }

    #[test]
    fn even_id_is_not_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::cycle(8);
        let ids = vec![5, 81, 12, 44, 90, 3, 27, 66];
        let rep = test_order_invariance(&g, &ids, &EvenId, 30, &mut rng).unwrap();
        assert!(!rep.is_invariant());
        assert!(rep.min_agreement < 1.0);
    }
}
