//! The OI → PO simulation — **Theorem 4.1** (paper §4.1).
//!
//! Given an OI algorithm `A`, define the PO algorithm
//!
//! ```text
//! B(W) := A((T*, <*, λ) ↾ W)
//! ```
//!
//! Operationally: a view `W` is a tree of reduced words; each word
//! evaluates to an element of the infinite ordered group `U` (map letter
//! `ℓ` to the `ℓ`-th generator); the positive-cone order on those elements
//! orders the tree; the ordered tree is handed to `A` as an ordered
//! neighbourhood. On the `1 − ε` good vertices of a homogeneous lift
//! (Thm 3.3) this ordered tree *equals* the ordered neighbourhood `A`
//! would see, so `A` and `B` agree there (Fact 4.2); the approximation
//! accounting is done in [`crate::transfer`].
//!
//! `B` is total: on views whose walks collide in `U` (possible only for
//! graphs of girth ≤ 2r + 1, where the paper never needs the simulation to
//! be faithful), ties are broken by the word itself, so `B` is still a
//! well-defined PO algorithm.

use locap_graph::canon::OrderedNbhd;
use locap_groups::IterGroup;
use locap_lifts::{Letter, ViewTree, Word};
use locap_models::{OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm, PoVertexAlgorithm};
use locap_obs as obs;

use crate::hom_lift::eval_word;
use crate::homogeneous::HomogeneousGraph;
use crate::CoreError;

/// Counter of ordered restrictions computed by the OI→PO simulation.
const RESTRICTIONS: &str = "oi_to_po/restrictions";

/// The simulation `B` of an OI vertex algorithm as a PO algorithm.
#[derive(Debug, Clone)]
pub struct PoFromOi<A> {
    oi: A,
    u: IterGroup,
    gens: Vec<Vec<i64>>,
}

impl<A> PoFromOi<A> {
    /// Wraps `oi` using the group level and generators of a Theorem 3.2
    /// graph (which fix the order `<*` on `T*`).
    ///
    /// # Errors
    ///
    /// Fails if the generator tuples do not match the level's dimension.
    pub fn new(oi: A, level: usize, gens: Vec<Vec<i64>>) -> Result<PoFromOi<A>, CoreError> {
        let u = IterGroup::infinite(level)
            .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;
        if gens.iter().any(|g| g.len() != u.dim()) {
            return Err(CoreError::BadParameters {
                reason: "generator dimension does not match level".into(),
            });
        }
        Ok(PoFromOi { oi, u, gens })
    }

    /// Wraps `oi` using the structure of a constructed homogeneous graph.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoFromOi::new`] — impossible for a graph
    /// built by [`crate::homogeneous::construct_budgeted`], reachable for a
    /// hand-assembled [`HomogeneousGraph`] with mismatched fields.
    pub fn from_homogeneous(oi: A, h: &HomogeneousGraph) -> Result<PoFromOi<A>, CoreError> {
        PoFromOi::new(oi, h.level, h.gens.clone())
    }

    /// Orders the walks of a view by `<*` and returns
    /// `(sorted words, the ordered neighbourhood (T*, <*, λ) ↾ W)`.
    pub fn ordered_restriction(&self, view: &ViewTree) -> (Vec<Word>, OrderedNbhd) {
        let mut span = obs::span("oi_to_po/simulate");
        obs::counter(RESTRICTIONS).inc();
        let mut words = view.words();
        span.arg("words", words.len() as i64);
        // order by (U element under the cone order, then the word itself)
        words.sort_by(|a, b| {
            let ua = eval_word(&self.u, &self.gens, a);
            let ub = eval_word(&self.u, &self.gens, b);
            self.u.cmp_order(&ua, &ub).then_with(|| a.cmp(b))
        });
        let pos: std::collections::HashMap<&Word, u32> =
            words.iter().enumerate().map(|(i, w)| (w, i as u32)).collect();
        // a view always contains the empty walk at its root; position 0
        // is a harmless fallback should that invariant ever break
        let root = pos.get(&Word::empty()).copied().unwrap_or(0);
        let mut edges = Vec::new();
        for w in &words {
            if let Some(p) = w.parent() {
                // the parent of a word in a view is also in the view;
                // a missing one would mean a malformed tree — drop the
                // edge rather than panic
                let (Some(&a), Some(&b)) = (pos.get(w), pos.get(&p)) else {
                    continue;
                };
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        (words.clone(), OrderedNbhd { n: words.len() as u32, root, edges })
    }
}

impl<A: OiVertexAlgorithm> PoVertexAlgorithm for PoFromOi<A> {
    fn radius(&self) -> usize {
        self.oi.radius()
    }

    fn evaluate(&self, view: &ViewTree) -> bool {
        let (_, nbhd) = self.ordered_restriction(view);
        self.oi.evaluate(&nbhd)
    }
}

/// The simulation of an OI *edge* algorithm as a PO edge algorithm: the
/// root's incident edges (one-letter walks) are ranked by `<*`, `A`'s
/// output bits are read off in that order and mapped back to letters.
#[derive(Debug, Clone)]
pub struct PoFromOiEdge<A> {
    inner: PoFromOi<A>,
}

impl<A> PoFromOiEdge<A> {
    /// Wraps `oi` using the structure of a constructed homogeneous graph.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoFromOi::from_homogeneous`].
    pub fn from_homogeneous(oi: A, h: &HomogeneousGraph) -> Result<PoFromOiEdge<A>, CoreError> {
        Ok(PoFromOiEdge { inner: PoFromOi::from_homogeneous(oi, h)? })
    }
}

impl<A: OiEdgeAlgorithm> PoEdgeAlgorithm for PoFromOiEdge<A> {
    fn radius(&self) -> usize {
        self.inner.oi.radius()
    }

    /// # Panics
    ///
    /// Panics when the wrapped OI algorithm emits an output vector whose
    /// length is not the root degree — a contract violation of the OI
    /// algorithm itself (the trait is infallible, so this cannot be a
    /// typed error).
    #[expect(clippy::indexing_slicing, reason = "the filter keeps only one-letter words")]
    fn evaluate(&self, view: &ViewTree) -> Vec<(Letter, bool)> {
        let (words, nbhd) = self.inner.ordered_restriction(view);
        let bits = self.inner.oi.evaluate(&nbhd);
        // root's neighbours in rank order are the one-letter words in
        // sorted position order
        let mut letter_positions: Vec<(usize, Letter)> = words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.len() == 1)
            .map(|(i, w)| (i, w.letters()[0]))
            .collect();
        letter_positions.sort_by_key(|&(i, _)| i);
        assert_eq!(bits.len(), letter_positions.len(), "OI edge output must match the root degree");
        letter_positions
            .into_iter()
            .zip(bits)
            .map(|((_, letter), bit)| (letter, bit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homogeneous::construct_budgeted;
    use locap_graph::budget::RunBudget;
    use locap_graph::canon::OrderedNbhd;
    use locap_graph::gen;
    use locap_lifts::view;

    /// OI algorithm: join iff the centre is the order-minimum of its ball.
    struct LocalMin;
    impl OiVertexAlgorithm for LocalMin {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &OrderedNbhd) -> bool {
            t.root == 0
        }
    }

    #[test]
    fn b_is_constant_on_symmetric_cycles() {
        // On a directed cycle all views coincide, so B outputs the same bit
        // everywhere — and under <* (cone order) the root of τ* is never
        // the minimum (s⁻¹ < λ), so B never selects.
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let b = PoFromOi::from_homogeneous(LocalMin, &h).unwrap();
        let g = gen::directed_cycle(9);
        for v in 0..9 {
            assert!(!b.evaluate(&view(&g, v, 1)));
        }
    }

    #[test]
    fn ordered_restriction_of_cycle_view_is_path() {
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let b = PoFromOi::from_homogeneous(LocalMin, &h).unwrap();
        let g = gen::directed_cycle(9);
        let (words, nbhd) = b.ordered_restriction(&view(&g, 0, 2));
        assert_eq!(nbhd.n, 5);
        // path a⁻²  < a⁻¹ < λ < a < a²  — root in the middle
        assert_eq!(nbhd.root, 2);
        assert_eq!(nbhd.edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(words[2], Word::empty());
    }

    #[test]
    fn b_total_on_low_girth_views() {
        // Girth 3 < 2r+1: walks collide in the graph but B still runs.
        let h = construct_budgeted(1, 2, 8, &RunBudget::unlimited()).unwrap();
        let b = PoFromOi::from_homogeneous(LocalMin, &h).unwrap();
        let g = gen::directed_cycle(3);
        for v in 0..3 {
            let _ = b.evaluate(&view(&g, v, 2)); // must not panic
        }
    }

    #[test]
    fn edge_simulation_letter_mapping() {
        /// Select the edge to the order-smallest neighbour.
        struct SmallestNbr;
        impl OiEdgeAlgorithm for SmallestNbr {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, t: &OrderedNbhd) -> Vec<bool> {
                let deg = t.edges.iter().filter(|&&(i, j)| i == t.root || j == t.root).count();
                let mut bits = vec![false; deg];
                if deg > 0 {
                    bits[0] = true;
                }
                bits
            }
        }
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let b = PoFromOiEdge::from_homogeneous(SmallestNbr, &h).unwrap();
        let g = gen::directed_cycle(7);
        let out = b.evaluate(&view(&g, 0, 1));
        // neighbours: a (successor, cone-positive) and a⁻¹ (predecessor,
        // cone-negative): smallest is a⁻¹ — the incoming edge.
        assert_eq!(out.len(), 2);
        let selected: Vec<Letter> = out.iter().filter(|(_, b)| *b).map(|(l, _)| *l).collect();
        assert_eq!(selected, vec![Letter::neg(0)]);
    }
}
