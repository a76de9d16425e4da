//! The Ramsey ID → OI step — **§4.2** of the paper.
//!
//! The paper colours every t-subset `S` of the identifier space by the
//! *behaviour* of the ID algorithm `A` when the identifiers of the
//! order-homogeneous tree `(T*, <*, λ)` are drawn from `S` in order:
//! `c(S)(W) := A(f_{W,S}((T*, λ) ↾ W))`. Ramsey's theorem gives arbitrarily
//! large monochromatic sets `J`; *inside `J`, `A` cannot react to the
//! numeric values of the identifiers at all* — it behaves like an OI
//! algorithm, and the OI → PO machinery applies.
//!
//! The paper's Ramsey numbers are astronomically large, but the
//! construction itself is finite and exact: [`monochromatic_subset_budgeted`]
//! searches a concrete identifier universe for a `J` on which a concrete
//! colouring is monochromatic, and [`OiFromId`] is the induced OI
//! algorithm `B` (evaluate `A` with identifiers drawn from `J` in order).
//! DESIGN.md substitution #2 records the scope: for toy parameters (paths
//! and cycles: `t = 2r + 1`, one relevant `W`) the search is fast and the
//! resulting `B` provably agrees with `A` on every neighbourhood whose
//! identifiers come from `J`.

use std::collections::BTreeSet;

use locap_graph::budget::RunBudget;
use locap_graph::canon::{IdNbhd, OrderedNbhd};
use locap_models::{IdVertexAlgorithm, OiVertexAlgorithm};
use locap_obs as obs;

use crate::CoreError;

/// Searches `universe` for an `m`-subset `J` all of whose `t`-subsets have
/// the same colour. Returns `(J, colour)` on success.
///
/// The search is exact (DFS with incremental consistency checks); its cost
/// grows quickly with `t` and `m`, matching the combinatorial reality the
/// paper leans on. The DFS checks the deadline at every node expansion. A
/// truncated search proves nothing about the universe (the subset may
/// exist further along), so it reports [`CoreError::Truncated`] instead
/// of `Ok(None)`.
///
/// # Errors
///
/// [`CoreError::Truncated`] when the budget trips mid-search.
#[expect(
    clippy::indexing_slicing,
    reason = "a successful search has filled partial with m >= t elements"
)]
pub fn monochromatic_subset_budgeted<C, F>(
    color: &mut F,
    universe: &[u64],
    t: usize,
    m: usize,
    budget: &RunBudget,
) -> Result<Option<(Vec<u64>, C)>, CoreError>
where
    C: Eq + Clone,
    F: FnMut(&[u64]) -> C,
{
    let _span = obs::span_with(
        "ramsey/monochromatic_subset",
        &[("universe", universe.len() as i64), ("t", t as i64), ("m", m as i64)],
    );
    if m < t || universe.len() < m {
        return Ok(None);
    }
    let mut sorted: Vec<u64> = universe.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    // DFS state bundled so the recursion stays readable: `sorted`, `t`,
    // `m`, `budget` are fixed for the whole search, `partial`/`expected`
    // are the backtracking state.
    struct Search<'a, C, F> {
        sorted: &'a [u64],
        t: usize,
        m: usize,
        budget: &'a RunBudget,
        color: &'a mut F,
        partial: Vec<u64>,
        expected: Option<C>,
    }

    impl<C: Eq + Clone, F: FnMut(&[u64]) -> C> Search<'_, C, F> {
        #[expect(clippy::indexing_slicing, reason = "i ranges over start..sorted.len()")]
        fn extend(&mut self, start: usize) -> Result<bool, CoreError> {
            if self.partial.len() == self.m {
                return Ok(true);
            }
            if let Some(tr) = self.budget.check_interrupt() {
                return Err(CoreError::Truncated { stage: "Ramsey search", reason: tr.publish() });
            }
            for i in start..self.sorted.len() {
                if self.sorted.len() - i < self.m - self.partial.len() {
                    break;
                }
                let saved = self.expected.clone();
                self.partial.push(self.sorted[i]);
                // check every new t-subset (those containing the new element)
                let ok = if self.partial.len() < self.t {
                    true
                } else {
                    let (color, expected) = (&mut self.color, &mut self.expected);
                    all_t_subsets_with_last(&self.partial, self.t, |s| {
                        let c = color(s);
                        match expected {
                            None => {
                                *expected = Some(c);
                                true
                            }
                            Some(e) => *e == c,
                        }
                    })
                };
                if ok && self.extend(i + 1)? {
                    return Ok(true);
                }
                self.partial.pop();
                self.expected = saved;
            }
            Ok(false)
        }
    }

    let mut search =
        Search { sorted: &sorted, t, m, budget, color, partial: Vec::new(), expected: None };
    if search.extend(0)? {
        let Search { partial, expected, color, .. } = search;
        let c = expected.unwrap_or_else(|| color(&partial[..t]));
        Ok(Some((partial, c)))
    } else {
        Ok(None)
    }
}

/// Calls `f` on every `t`-subset of `set` that contains the last element;
/// returns whether all calls returned `true`.
#[expect(
    clippy::indexing_slicing,
    reason = "set is non-empty here, and idx is a combination cursor kept < rest.len()"
)]
fn all_t_subsets_with_last(set: &[u64], t: usize, mut f: impl FnMut(&[u64]) -> bool) -> bool {
    let Some(&last) = set.last() else {
        return true; // an empty set has no t-subsets
    };
    let rest = &set[..set.len() - 1];
    let mut idx: Vec<usize> = (0..t - 1).collect();
    if rest.len() < t - 1 {
        return true;
    }
    loop {
        let mut subset: Vec<u64> = idx.iter().map(|&i| rest[i]).collect();
        subset.push(last);
        subset.sort_unstable();
        if !f(&subset) {
            return false;
        }
        // advance combination
        let mut i = t - 1;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if idx[i] < rest.len() - (t - 1 - i) {
                idx[i] += 1;
                for j in i + 1..t - 1 {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The OI algorithm `B` induced by an ID algorithm `A` and an identifier
/// pool `J`: evaluate `A` with the `|ball|` smallest members of `J`
/// assigned to the ball in order (the paper's `f_{W,S}` with `S ⊆ J`).
///
/// `evaluate` panics if a ball exceeds the pool — the pool size is a
/// construction-time contract (`|J| ≥` the largest ball the run can
/// produce), not a per-input condition.
#[derive(Debug, Clone)]
pub struct OiFromId<A> {
    id_algo: A,
    pool: Vec<u64>,
}

impl<A> OiFromId<A> {
    /// Wraps `id_algo` with the identifier pool `j` (sorted, deduplicated).
    ///
    /// # Errors
    ///
    /// Fails if the pool is empty.
    pub fn new(id_algo: A, j: &[u64]) -> Result<OiFromId<A>, CoreError> {
        let mut pool: Vec<u64> = j.to_vec();
        pool.sort_unstable();
        pool.dedup();
        if pool.is_empty() {
            return Err(CoreError::BadParameters { reason: "empty identifier pool".into() });
        }
        Ok(OiFromId { id_algo, pool })
    }

    /// The pool `J`.
    pub fn pool(&self) -> &[u64] {
        &self.pool
    }
}

impl<A: IdVertexAlgorithm> OiVertexAlgorithm for OiFromId<A> {
    fn radius(&self) -> usize {
        self.id_algo.radius()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the assert above bounds n by the pool size, a construction-time contract"
    )]
    fn evaluate(&self, t: &OrderedNbhd) -> bool {
        let n = t.n as usize;
        assert!(
            n <= self.pool.len(),
            "identifier pool too small: ball has {n} nodes, pool {}",
            self.pool.len()
        );
        let nbhd = IdNbhd { ids: self.pool[..n].to_vec(), root: t.root, edges: t.edges.clone() };
        self.id_algo.evaluate(&nbhd)
    }
}

/// The colouring of §4.2 specialised to cycles: for a t-subset `S`
/// (`t = 2r + 1`), run `A` at the centre of a path ball whose identifiers
/// are `S` in increasing order along the path — that is `f_{W,S}` applied
/// to the homogeneity type of the ordered cycle.
///
/// # Panics
///
/// Panics if `s.len()` is even — the window of a radius-`r` cycle ball
/// always has odd size `2r + 1`, so an even `t` is a caller bug.
pub fn cycle_tstar_color<A: IdVertexAlgorithm>(algo: &A, s: &[u64]) -> bool {
    let t = s.len();
    assert!(t % 2 == 1, "t = 2r + 1 must be odd");
    let mut ids = s.to_vec();
    ids.sort_unstable();
    let edges: Vec<(u32, u32)> = (0..t - 1).map(|i| (i as u32, i as u32 + 1)).collect();
    let nbhd = IdNbhd { ids, root: (t / 2) as u32, edges };
    algo.evaluate(&nbhd)
}

/// A successful §4.2 transfer: the induced OI algorithm, the
/// monochromatic identifier set `J`, and the forced output bit.
pub type CycleTransfer<A> = (OiFromId<A>, Vec<u64>, bool);

/// End-to-end §4.2 for cycles: find a monochromatic `J ⊆ universe` for the
/// colouring of `algo` at radius `r`, and return the induced OI algorithm
/// together with `J` and the forced output bit. The underlying Ramsey
/// search checks the deadline at every DFS node.
///
/// # Errors
///
/// [`CoreError::Truncated`] when the budget trips mid-search.
pub fn ramsey_cycle_transfer_budgeted<A>(
    algo: A,
    universe: &[u64],
    r: usize,
    m: usize,
    budget: &RunBudget,
) -> Result<Option<CycleTransfer<A>>, CoreError>
where
    A: IdVertexAlgorithm + Clone,
{
    let _span = obs::span_with("ramsey/cycle_transfer", &[("r", r as i64), ("m", m as i64)]);
    let t = 2 * r + 1;
    let algo_ref = algo.clone();
    let mut color = move |s: &[u64]| cycle_tstar_color(&algo_ref, s);
    let Some((j, bit)) = monochromatic_subset_budgeted(&mut color, universe, t, m, budget)? else {
        return Ok(None);
    };
    match OiFromId::new(algo, &j) {
        Ok(oi) => Ok(Some((oi, j, bit))),
        Err(_) => Ok(None), // unreachable: J has m ≥ t ≥ 1 members
    }
}

/// Checks that `A` behaves order-invariantly on identifier assignments
/// drawn from `J`: for every `t`-subset used as a window, the colour is
/// the monochromatic one.
pub fn verify_monochromatic<A: IdVertexAlgorithm>(
    algo: &A,
    j: &[u64],
    r: usize,
    expected: bool,
) -> bool {
    let t = 2 * r + 1;
    let sorted: BTreeSet<u64> = j.iter().copied().collect();
    let v: Vec<u64> = sorted.into_iter().collect();
    // exhaustively test all t-subsets
    #[expect(clippy::indexing_slicing, reason = "i ranges over start..v.len()")]
    fn rec<A: IdVertexAlgorithm>(
        v: &[u64],
        start: usize,
        cur: &mut Vec<u64>,
        t: usize,
        algo: &A,
        expected: bool,
    ) -> bool {
        if cur.len() == t {
            return cycle_tstar_color(algo, cur) == expected;
        }
        for i in start..v.len() {
            cur.push(v[i]);
            if !rec(v, i + 1, cur, t, algo, expected) {
                return false;
            }
            cur.pop();
        }
        true
    }
    rec(&v, 0, &mut Vec::new(), t, algo, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Order-invariant: joins iff the centre is the ball's id-maximum.
    #[derive(Clone)]
    struct LocalMax;
    impl IdVertexAlgorithm for LocalMax {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.root as usize == t.ids.len() - 1
        }
    }

    /// Value-sensitive: joins iff the centre's identifier is even.
    #[derive(Clone)]
    struct EvenId;
    impl IdVertexAlgorithm for EvenId {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &IdNbhd) -> bool {
            t.ids[t.root as usize] % 2 == 0
        }
    }

    #[test]
    fn invariant_algorithm_everything_monochromatic() {
        let universe: Vec<u64> = (1..=30).collect();
        let (oi, j, bit) =
            ramsey_cycle_transfer_budgeted(LocalMax, &universe, 1, 10, &RunBudget::unlimited())
                .unwrap()
                .unwrap();
        assert_eq!(j.len(), 10);
        // centre of an increasing path is never the maximum
        assert!(!bit);
        assert!(verify_monochromatic(&LocalMax, &j, 1, bit));
        assert_eq!(oi.pool().len(), 10);
    }

    #[test]
    fn value_sensitive_algorithm_forced_invariant_inside_j() {
        // EvenId's colour is the parity of the middle element; Ramsey finds
        // a J whose middles all share parity (e.g. all-even J works).
        let universe: Vec<u64> = (1..=40).collect();
        let (_, j, bit) =
            ramsey_cycle_transfer_budgeted(EvenId, &universe, 1, 8, &RunBudget::unlimited())
                .unwrap()
                .unwrap();
        assert!(verify_monochromatic(&EvenId, &j, 1, bit));
        // inside J the algorithm *is* order-invariant even though it is not
        // globally: every t-window gives the same output
    }

    #[test]
    fn monochromatic_subset_simple_coloring() {
        // colour = sum mod 2; J of all-even numbers is monochromatic
        let mut color = |s: &[u64]| s.iter().sum::<u64>() % 2;
        let universe: Vec<u64> = (1..=20).collect();
        let (j, c) =
            monochromatic_subset_budgeted(&mut color, &universe, 2, 6, &RunBudget::unlimited())
                .unwrap()
                .unwrap();
        assert_eq!(j.len(), 6);
        // verify by hand
        for i in 0..6 {
            for k in (i + 1)..6 {
                assert_eq!((j[i] + j[k]) % 2, c);
            }
        }
    }

    #[test]
    fn no_subset_when_universe_too_small() {
        let mut color = |s: &[u64]| s.iter().sum::<u64>() % 2;
        assert!(monochromatic_subset_budgeted(
            &mut color,
            &[1, 2, 3],
            2,
            5,
            &RunBudget::unlimited()
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn constant_coloring_takes_prefix() {
        let mut color = |_: &[u64]| 0u8;
        let universe: Vec<u64> = (1..=10).collect();
        let (j, _) =
            monochromatic_subset_budgeted(&mut color, &universe, 3, 7, &RunBudget::unlimited())
                .unwrap()
                .unwrap();
        assert_eq!(j, (1..=7).collect::<Vec<u64>>());
    }

    #[test]
    fn oi_from_id_matches_id_on_pool_windows() {
        let j: Vec<u64> = vec![2, 4, 6, 8, 10];
        let oi = OiFromId::new(LocalMax, &j).unwrap();
        // an ordered path ball of 3 nodes with root at position 2
        let nbhd = OrderedNbhd { n: 3, root: 2, edges: vec![(0, 1), (1, 2)] };
        assert!(oi.evaluate(&nbhd), "root is order-max so LocalMax joins");
        let nbhd = OrderedNbhd { n: 3, root: 1, edges: vec![(0, 1), (1, 2)] };
        assert!(!oi.evaluate(&nbhd));
    }

    #[test]
    #[should_panic(expected = "pool too small")]
    fn pool_too_small_panics() {
        let oi = OiFromId::new(LocalMax, &[5]).unwrap();
        let nbhd = OrderedNbhd { n: 3, root: 1, edges: vec![(0, 1), (1, 2)] };
        let _ = oi.evaluate(&nbhd);
    }
}
