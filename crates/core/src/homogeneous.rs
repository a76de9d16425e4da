//! Homogeneous graphs of large girth — **Theorem 3.2** (paper §3.2, §5).
//!
//! For any `k`, `r` and `ε > 0` the theorem promises a finite 2k-regular
//! `(1−ε, r)`-homogeneous connected graph of girth > 2r + 1, whose
//! homogeneity type τ* is independent of ε. The construction:
//!
//! 1. take the iterated semidirect product `H = H_j(m)` (a `d`-tuple group,
//!    `d = 2^j − 1`, `m` even — see `locap_groups::IterGroup`);
//! 2. pick `k` generators with coordinates in `{0, 1}` whose Cayley graph
//!    `H = C(H, S)` has girth > 2r + 1;
//! 3. order `V(H) = Z_m^d` by restricting the left-invariant positive-cone
//!    order of the infinite group `U_j` (tuples over `Z`), ranked in closed
//!    form by `IterGroup::order_index`;
//! 4. every vertex in the *inner box* `[r, m−1−r]^d` then has ordered
//!    `r`-neighbourhood isomorphic to the ball of `U` around the identity —
//!    the type τ* — so the homogeneous fraction is at least
//!    `((m−2r)/m)^d → 1` as `m → ∞`.
//!
//! Differences from the paper (DESIGN.md substitution #1): the paper
//! obtains girth from an existential theorem of Gamburd et al. about
//! random generators in the 2-groups `W_j` for large `j`; since `|H_j(m)| =
//! m^(2^j −1)` explodes, we instead *search* the `{0,1}`-coordinate
//! generator sets at small `j` and **verify girth directly on `H`** (one
//! truncated BFS suffices — Cayley graphs are vertex-transitive). The
//! generator coordinates must stay in `{0, 1}` so that
//! `S ∪ S⁻¹ ⊆ [−1, 1]^d` and the inner-box argument applies verbatim.
//!
//! Everything the theorem claims is checked by [`HomogeneousGraph::verify`]:
//! 2k-regularity, girth, the exact homogeneity census, and agreement of the
//! census winner with the ε-independent τ* computed in `U`.

use locap_graph::budget::RunBudget;
use locap_graph::canon::{ordered_lnbhd_fast, NbhdScratch, OrderedLNbhd};
use locap_graph::{par, LDigraph};
use locap_groups::{cayley, Group, IterGroup};
use locap_num::Ratio;
use locap_obs as obs;

use crate::CoreError;

/// Hard cap on the nodes a construction materialises: the group order
/// `|H|` here, and the lift's `|H| · |G|` in [`crate::hom_lift`].
pub(crate) const MAX_NODES: usize = 3_000_000;

/// Counter of generator subsets tried across all constructions.
const GENERATOR_ATTEMPTS: &str = "homogeneous/generator_attempts";

/// A verified instance of Theorem 3.2.
#[derive(Debug, Clone)]
pub struct HomogeneousGraph {
    /// The Cayley graph `H = C(H_j(m), S)`; label ℓ = generator `S[ℓ]`.
    pub digraph: LDigraph,
    /// Rank of each vertex in the restricted `U`-order.
    pub rank: Vec<usize>,
    /// The generators (coordinates in `{0, 1}`).
    pub gens: Vec<Vec<i64>>,
    /// Nesting level `j`.
    pub level: usize,
    /// Modulus `m` (even).
    pub modulus: u64,
    /// Radius `r` the construction targets.
    pub radius: usize,
    /// The homogeneity type τ* (computed in `U`, independent of `m`).
    pub tau_star: OrderedLNbhd,
    /// Exact number of vertices whose ordered `r`-neighbourhood is τ*.
    pub homogeneous_count: usize,
    /// `typed[v]`: whether vertex `v`'s ordered `r`-neighbourhood is τ*;
    /// `homogeneous_count` flags are set.
    pub typed: Vec<bool>,
}

impl HomogeneousGraph {
    /// Number of vertices `m^d`.
    pub fn node_count(&self) -> usize {
        self.digraph.node_count()
    }

    /// The exact homogeneous fraction α (the graph is `(α, r)`-homogeneous).
    /// Total: an empty graph reports fraction `0`.
    pub fn fraction(&self) -> Ratio {
        Ratio::new(self.homogeneous_count as i128, self.node_count() as i128).unwrap_or(Ratio::ZERO)
    }

    /// The inner-box lower bound `((m−2r)/m)^d` of §5.2.
    pub fn inner_bound(&self) -> Ratio {
        let d = (1u32 << self.level) - 1;
        let m = self.modulus as i128;
        let inner = (m - 2 * self.radius as i128).max(0);
        let mut num: i128 = 1;
        let mut den: i128 = 1;
        for _ in 0..d {
            num *= inner;
            den *= m;
        }
        Ratio::new(num, den).unwrap_or(Ratio::ZERO)
    }

    /// Re-checks every property Theorem 3.2 promises.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VerificationFailed`] naming the violated
    /// property.
    pub fn verify(&self) -> Result<(), CoreError> {
        if !self.digraph.is_label_complete() {
            return Err(CoreError::VerificationFailed { property: "2k-regularity".into() });
        }
        let und = self.digraph.underlying_simple();
        if und.cycle_near_root(0, 2 * self.radius + 1) {
            return Err(CoreError::VerificationFailed {
                property: format!("girth > {}", 2 * self.radius + 1),
            });
        }
        if self.fraction() < self.inner_bound() {
            return Err(CoreError::VerificationFailed {
                property: "homogeneous fraction below inner-box bound".into(),
            });
        }
        // τ* must occur exactly at the flagged vertices, homogeneous_count
        // of them.
        let recount = census_count(&self.digraph, &und, &self.rank, self.radius, &self.tau_star);
        if recount != self.typed || count_set(&recount) != self.homogeneous_count {
            return Err(CoreError::VerificationFailed { property: "census recount".into() });
        }
        Ok(())
    }
}

/// All `{0,1}`-coordinate candidate generators of the level-`j` group
/// (excluding the identity).
pub fn candidate_generators(level: usize) -> Vec<Vec<i64>> {
    let d = (1usize << level) - 1;
    (1..(1usize << d))
        .map(|bits| (0..d).map(|i| ((bits >> i) & 1) as i64).collect())
        .collect()
}

/// The ball of radius `r` around the identity of `U_level` under the
/// generators, as an ordered labelled neighbourhood — the type τ*.
///
/// Vertices are the distinct group elements reachable by ≤ r steps along
/// `S ∪ S⁻¹`, ordered by the positive cone; edges are `(x, x·s_ℓ, ℓ)`.
pub fn tau_star(level: usize, gens: &[Vec<i64>], r: usize) -> Result<OrderedLNbhd, CoreError> {
    let u = IterGroup::infinite(level)
        .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;
    // BFS in U
    let mut ball: Vec<Vec<i64>> = vec![u.identity()];
    let mut frontier = vec![u.identity()];
    for _ in 0..r {
        let mut next = Vec::new();
        for x in &frontier {
            for s in gens {
                for y in [u.op(x, s), u.op(x, &u.inv(s))] {
                    if !ball.contains(&y) {
                        ball.push(y.clone());
                        next.push(y);
                    }
                }
            }
        }
        frontier = next;
    }
    // order by the cone
    ball.sort_by(|a, b| u.cmp_order(a, b));
    let pos = |x: &Vec<i64>| ball.iter().position(|y| y == x);
    // the identity seeds the ball, so the lookup always succeeds
    let root = pos(&u.identity()).unwrap_or(0) as u32;
    let mut edges = Vec::new();
    for (i, x) in ball.iter().enumerate() {
        for (l, s) in gens.iter().enumerate() {
            if let Some(j) = pos(&u.op(x, s)) {
                edges.push((i as u32, j as u32, l as u32));
            }
        }
    }
    edges.sort_unstable();
    Ok(OrderedLNbhd { n: ball.len() as u32, root, edges })
}

/// Vertex count below which the census stays on the calling thread.
const PARALLEL_MIN_NODES: usize = 1 << 10;

/// Flags the vertices whose ordered radius-`r` neighbourhood is `tau`,
/// concatenating per-chunk flags over [`par::map_chunks`].
fn census_count(
    d: &LDigraph,
    und: &locap_graph::Graph,
    rank: &[usize],
    r: usize,
    tau: &OrderedLNbhd,
) -> Vec<bool> {
    let _span = obs::span("census_count");
    par::map_chunks(d.node_count(), PARALLEL_MIN_NODES, |vertices| {
        let mut scratch = NbhdScratch::new();
        vertices
            .map(|v| &ordered_lnbhd_fast(d, und, rank, v, r, &mut scratch) == tau)
            .collect::<Vec<bool>>()
    })
    .concat()
}

/// The number of set flags.
fn count_set(flags: &[bool]) -> usize {
    flags.iter().filter(|&&t| t).count()
}

/// Searches the `{0,1}`-coordinate `k`-subsets for a generator set whose
/// Cayley graph over `H_level(m)` has girth > `2r + 1`.
///
/// The subset sweep checks the deadline before each candidate, so a
/// runaway search returns [`CoreError::Truncated`] instead of spinning
/// until the attempt cap.
///
/// # Errors
///
/// Fails when the group is too large to materialise or no subset passes
/// the girth check, and with [`CoreError::Truncated`] when the budget
/// trips.
#[expect(
    clippy::indexing_slicing,
    reason = "idx is a k-subset cursor that its own advance loop keeps < candidates.len()"
)]
pub fn find_generators_budgeted(
    level: usize,
    m: u64,
    k: usize,
    r: usize,
    budget: &RunBudget,
) -> Result<(IterGroup, Vec<Vec<i64>>, LDigraph), CoreError> {
    let _span = obs::span("find_generators");
    let h = IterGroup::finite(level, m)
        .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;
    let order = h
        .order()
        .ok_or_else(|| CoreError::BadParameters { reason: "group order unavailable".into() })?;
    if order > MAX_NODES as u128 {
        return Err(CoreError::TooLarge { reason: format!("|H_{level}({m})| = {order}") });
    }
    if k > 8 {
        return Err(CoreError::BadParameters {
            reason: format!("k = {k} exceeds the supported generator count (8)"),
        });
    }
    let candidates = candidate_generators(level);
    let bound = 2 * r + 1;
    let mut attempts = 0usize;
    const MAX_ATTEMPTS: usize = 5000;
    #[allow(unused_assignments)] // first loop iteration always overwrites
    let mut best_err: Option<String> = None;

    // enumerate k-subsets in lexicographic order
    let mut idx: Vec<usize> = (0..k).collect();
    if k > candidates.len() {
        return Err(CoreError::BadParameters {
            reason: format!("k = {k} exceeds {} candidates", candidates.len()),
        });
    }
    loop {
        if let Some(t) = budget.check_interrupt() {
            return Err(CoreError::Truncated { stage: "generator search", reason: t.publish() });
        }
        attempts += 1;
        if attempts > MAX_ATTEMPTS {
            return Err(CoreError::GeneratorSearchFailed {
                k,
                girth_bound: bound,
                detail: format!("level {level}, m {m}: budget of {MAX_ATTEMPTS} subsets exhausted"),
            });
        }
        obs::counter(GENERATOR_ATTEMPTS).inc();
        let gens: Vec<Vec<i64>> = idx.iter().map(|&i| candidates[i].clone()).collect();
        match cayley(&h, &gens) {
            Ok(d) => {
                let und = d.underlying_simple();
                // Cayley graphs are vertex-transitive: one root suffices.
                if !und.cycle_near_root(0, bound) {
                    return Ok((h, gens, d));
                }
                best_err = Some(format!("all girth checks failed (bound {bound})"));
            }
            Err(e) => {
                best_err = Some(e.to_string());
            }
        }
        // advance the k-subset
        let mut i = k;
        loop {
            if i == 0 {
                return Err(CoreError::GeneratorSearchFailed {
                    k,
                    girth_bound: bound,
                    detail: format!(
                        "level {level}, m {m}: {}",
                        best_err.unwrap_or_else(|| "no candidate subsets".into())
                    ),
                });
            }
            i -= 1;
            if idx[i] < candidates.len() - (k - i) {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Builds the Theorem 3.2 graph for `k` labels, radius `r`, modulus `m`
/// (level is chosen as small as possible; currently 2, then 3). The
/// budget applies as in [`construct_at_level_budgeted`].
///
/// # Errors
///
/// Fails if no generator set is found or the group would be too large,
/// and with [`CoreError::Truncated`] when the budget trips.
pub fn construct_budgeted(
    k: usize,
    r: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<HomogeneousGraph, CoreError> {
    let mut last = CoreError::BadParameters { reason: "no nesting level attempted".into() };
    for level in 2..=3 {
        match construct_at_level_budgeted(level, k, r, m, budget) {
            Ok(h) => return Ok(h),
            // a tripped budget at one level will trip at the next too
            Err(e @ CoreError::Truncated { .. }) => return Err(e),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Builds the Theorem 3.2 graph at an explicit nesting level.
///
/// The generator search checks the deadline per candidate subset, and
/// the closing census checks it once before starting. A
/// [`HomogeneousGraph`] is only valid fully verified, so a tripped budget
/// is [`CoreError::Truncated`], never a partial graph.
///
/// # Errors
///
/// Fails if no generator set is found or the group would be too large,
/// and with [`CoreError::Truncated`] when the budget trips.
pub fn construct_at_level_budgeted(
    level: usize,
    k: usize,
    r: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<HomogeneousGraph, CoreError> {
    let _span = obs::span("homogeneous/construct");
    let (h, gens, digraph) = find_generators_budgeted(level, m, k, r, budget)?;
    let n = digraph.node_count();

    // order: restrict U's left-invariant order to Z_m^d, in closed form
    let mut tuple = vec![0i64; h.dim()];
    let rank: Vec<usize> = (0..n)
        .map(|v| {
            h.elem_into(v, &mut tuple);
            h.order_index(&tuple)
        })
        .collect();

    let tau = tau_star(level, &gens, r)?;
    if let Some(t) = budget.check_interrupt() {
        return Err(CoreError::Truncated { stage: "homogeneity census", reason: t.publish() });
    }
    let und = digraph.underlying_simple();
    let typed = census_count(&digraph, &und, &rank, r, &tau);

    let out = HomogeneousGraph {
        digraph,
        rank,
        gens,
        level,
        modulus: m,
        radius: r,
        tau_star: tau,
        homogeneous_count: count_set(&typed),
        typed,
    };
    out.verify()?;
    Ok(out)
}

/// Chooses the smallest even `m` with inner-box bound ≥ `1 − eps` at
/// level 2 and builds the graph: the "for every ε" form of Theorem 3.2.
///
/// # Errors
///
/// Fails when the required `m` makes the group too large.
pub fn construct_for_epsilon(
    k: usize,
    r: usize,
    eps: Ratio,
) -> Result<HomogeneousGraph, CoreError> {
    if eps <= Ratio::ZERO || eps > Ratio::ONE {
        return Err(CoreError::BadParameters { reason: format!("eps {eps} out of (0, 1]") });
    }
    let target = Ratio::ONE
        .sub(eps)
        .map_err(|e| CoreError::BadParameters { reason: e.to_string() })?;
    let mut m = (2 * r as u64 + 2).max(4);
    loop {
        if m % 2 == 1 {
            m += 1;
        }
        // inner bound at level 2: ((m-2r)/m)^3
        let inner = {
            let mm = m as i128;
            let i = mm - 2 * r as i128;
            Ratio::new(i * i * i, mm * mm * mm).unwrap_or(Ratio::ZERO)
        };
        if inner >= target {
            return construct_at_level_budgeted(2, k, r, m, &RunBudget::unlimited());
        }
        m += 2;
        if m > 400 {
            return Err(CoreError::TooLarge {
                reason: format!("eps {eps} needs m > 400 at level 2 (n = m³ too large)"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_enumerated() {
        let c2 = candidate_generators(2);
        assert_eq!(c2.len(), 7); // 2^3 - 1
        assert!(c2.iter().all(|g| g.len() == 3));
        assert!(!c2.contains(&vec![0, 0, 0]));
        let c3 = candidate_generators(3);
        assert_eq!(c3.len(), 127);
    }

    #[test]
    fn construct_k1_r1() {
        let h = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        assert_eq!(h.node_count(), 216);
        assert!(h.digraph.is_label_complete());
        assert!(h.fraction() >= h.inner_bound());
        // inner bound at m=6, r=1, d=3: (4/6)^3 = 8/27
        assert_eq!(h.inner_bound(), Ratio::new(8, 27).unwrap());
        h.verify().unwrap();
    }

    #[test]
    fn construct_k2_r1() {
        let h = construct_budgeted(2, 1, 8, &RunBudget::unlimited()).unwrap();
        assert_eq!(h.node_count(), 512);
        assert_eq!(h.gens.len(), 2);
        // 4-regular
        let und = h.digraph.underlying_simple();
        assert!(und.is_regular(4));
        assert!(!und.cycle_near_root(0, 3), "girth > 3");
        h.verify().unwrap();
    }

    #[test]
    fn construct_k2_r2_needs_girth_6() {
        let h = construct_budgeted(2, 2, 12, &RunBudget::unlimited()).unwrap();
        let und = h.digraph.underlying_simple();
        assert!(!und.cycle_near_root(0, 5), "girth > 5");
        assert!(h.fraction() >= h.inner_bound());
        h.verify().unwrap();
    }

    /// The closed-form rank against the sort it replaced: every vertex
    /// tuple ordered by `cmp_order` in `U`.
    #[test]
    fn rank_matches_the_cmp_order_sort() {
        for (k, m) in [(1, 6), (2, 8)] {
            let h = construct_budgeted(k, 1, m, &RunBudget::unlimited()).unwrap();
            let g = IterGroup::finite(h.level, m).unwrap();
            let u = IterGroup::infinite(h.level).unwrap();
            let mut perm: Vec<usize> = (0..h.node_count()).collect();
            perm.sort_by(|&a, &b| u.cmp_order(&g.elem_of(a), &g.elem_of(b)));
            let mut rank = vec![0usize; perm.len()];
            for (pos, &v) in perm.iter().enumerate() {
                rank[v] = pos;
            }
            assert_eq!(h.rank, rank, "k = {k}, m = {m}");
        }
    }

    #[test]
    fn tau_star_independent_of_m() {
        // The census winner for two different moduli is the same τ*.
        let h1 = construct_budgeted(1, 1, 6, &RunBudget::unlimited()).unwrap();
        let h2 = construct_budgeted(1, 1, 10, &RunBudget::unlimited()).unwrap();
        assert_eq!(h1.tau_star, h2.tau_star, "τ* does not depend on ε (i.e. on m)");
        assert!(h2.fraction() > h1.fraction(), "larger m is more homogeneous");
    }

    #[test]
    fn tau_star_structure_k1_r1() {
        // k=1, r=1: the ball is {s⁻¹, 1, s}; τ* is a directed path of 3
        // nodes ordered by the cone.
        let gens = vec![vec![1i64, 0, 0]];
        let t = tau_star(2, &gens, 1).unwrap();
        assert_eq!(t.n, 3);
        assert_eq!(t.edges.len(), 2);
        // the generator (1,0,0) is cone-positive, so 1 < s and s⁻¹ < 1:
        // sorted ball = [s⁻¹, 1, s], root in the middle.
        assert_eq!(t.root, 1);
    }

    #[test]
    fn fraction_grows_with_m() {
        let f: Vec<Ratio> = [6u64, 8, 12]
            .iter()
            .map(|&m| construct_budgeted(1, 1, m, &RunBudget::unlimited()).unwrap().fraction())
            .collect();
        assert!(f[0] < f[1] && f[1] < f[2]);
    }

    #[test]
    fn construct_for_epsilon_quarter() {
        let eps = Ratio::new(1, 4).unwrap();
        let h = construct_for_epsilon(1, 1, eps).unwrap();
        let one_minus = Ratio::new(3, 4).unwrap();
        assert!(h.fraction() >= one_minus, "fraction {} >= 3/4", h.fraction());
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(construct_for_epsilon(1, 1, Ratio::ZERO).is_err());
        assert!(
            construct_budgeted(40, 1, 6, &RunBudget::unlimited()).is_err(),
            "k exceeds candidate count at level 2..3"
        );
    }

    #[test]
    fn too_large_detected() {
        // level 3 (d = 7) with m = 44 would be 44^7 ≈ 3·10^11 nodes
        assert!(matches!(
            find_generators_budgeted(3, 44, 1, 1, &RunBudget::unlimited()),
            Err(CoreError::TooLarge { .. })
        ));
    }
}
