//! Property tests for the interned hot path: over random degree-bounded
//! graphs, **intern-id equality coincides exactly with structural
//! canonical-form equality** — `intern(key(u)) == intern(key(v))` iff the
//! naive extractors produce equal [`OrderedNbhd`] / [`IdNbhd`] structs.
//! This is the invariant that lets the engines replace hash-map memo
//! tables keyed by owned canonical forms with dense `Vec` lookups.

use locap_graph::canon::{
    id_key_into, id_nbhd, ordered_key_into, ordered_nbhd, ordered_type_census, IdNbhd, NbhdScratch,
    OrderedNbhd,
};
use locap_graph::{gen, Graph, KeyInterner};
use locap_obs as obs;
use proptest::prelude::*;

/// Builds a random simple graph on `n` nodes with maximum degree `dmax`
/// by sampling `tries` candidate edges and keeping the feasible ones.
fn random_bounded_graph(n: usize, dmax: usize, tries: usize, rng: &mut TestRng) -> Graph {
    let mut g = Graph::new(n);
    for _ in 0..tries {
        let u = (rng.next_u64() % n as u64) as usize;
        let v = (rng.next_u64() % n as u64) as usize;
        if u != v && !g.has_edge(u, v) && g.degree(u) < dmax && g.degree(v) < dmax {
            g.add_edge(u, v).expect("endpoints checked distinct and fresh");
        }
    }
    g
}

/// A uniform permutation of `0..n` (Fisher–Yates over the shim RNG).
fn shuffled(n: usize, rng: &mut TestRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Census over a cycle exercises the interner's memo discipline with
/// exactly known counts: a radius-1 identity-rank census of `cycle(n)`
/// sees 3 distinct ordered types (the two rank boundary vertices' views
/// plus the bulk type), so the interner must report exactly 3 misses
/// and n − 3 hits. Counter assertions use snapshot deltas — the obs
/// registry is process-global, so absolute values would race with the
/// other tests in this binary.
#[test]
fn cycle_census_interns_each_type_once() {
    let n = 1 << 12;
    let g = gen::cycle(n);
    let rank: Vec<usize> = (0..n).collect();
    let before = obs::snapshot();
    let census = ordered_type_census(&g, &rank, 1);
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(census.len(), 3);
    let hits = delta.counters.get("intern/hits").copied().unwrap_or(0);
    let misses = delta.counters.get("intern/misses").copied().unwrap_or(0);
    assert_eq!(misses, 3, "one miss per distinct type");
    assert_eq!(hits, (n - 3) as u64, "every other vertex hits the arena");
}

proptest! {
    /// Ordered neighbourhoods: one shared interner across *two* radii, so
    /// ids must separate both vertices of different type at the same
    /// radius and the same vertex across radii when the types differ.
    #[test]
    fn intern_ids_match_ordered_type_equality(
        params in (4usize..24, 1usize..5, 0usize..3, any::<u64>()),
    ) {
        let (n, dmax, r, seed) = params;
        let mut rng = TestRng::from_name(&format!("intern-ordered-{seed}"));
        let g = random_bounded_graph(n, dmax, 4 * n, &mut rng);
        let rank = shuffled(n, &mut rng);
        let mut scratch = NbhdScratch::new();
        let mut interner = KeyInterner::new();
        let mut key = Vec::new();
        let mut types: Vec<OrderedNbhd> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for radius in [r, r + 1] {
            for v in 0..n {
                types.push(ordered_nbhd(&g, &rank, v, radius));
                ordered_key_into(&g, &rank, v, radius, &mut scratch, &mut key);
                ids.push(interner.intern(&key));
            }
        }
        for a in 0..types.len() {
            for b in a..types.len() {
                prop_assert_eq!(
                    ids[a] == ids[b],
                    types[a] == types[b],
                    "entries {} and {} disagree (n = {}, dmax = {}, r = {})",
                    a, b, n, dmax, r
                );
            }
        }
    }

    /// ID neighbourhoods: same equivalence under a random injective
    /// identifier assignment.
    #[test]
    fn intern_ids_match_id_type_equality(
        params in (4usize..20, 1usize..4, 0usize..3, any::<u64>()),
    ) {
        let (n, dmax, r, seed) = params;
        let mut rng = TestRng::from_name(&format!("intern-id-{seed}"));
        let g = random_bounded_graph(n, dmax, 4 * n, &mut rng);
        // distinct, non-contiguous identifiers from a shuffled base
        let node_ids: Vec<u64> =
            shuffled(n, &mut rng).into_iter().map(|p| (p as u64) * 3 + 7).collect();
        let mut scratch = NbhdScratch::new();
        let mut interner = KeyInterner::new();
        let mut key = Vec::new();
        let mut types: Vec<IdNbhd> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for v in 0..n {
            types.push(id_nbhd(&g, &node_ids, v, r));
            id_key_into(&g, &node_ids, v, r, &mut scratch, &mut key);
            ids.push(interner.intern(&key));
        }
        for a in 0..n {
            for b in a..n {
                prop_assert_eq!(
                    ids[a] == ids[b],
                    types[a] == types[b],
                    "vertices {} and {} disagree (n = {}, dmax = {}, r = {})",
                    a, b, n, dmax, r
                );
            }
        }
        // the arena stores the exact key: decoding it recovers the struct
        for (v, t) in types.iter().enumerate() {
            prop_assert_eq!(&IdNbhd::from_key(interner.get(ids[v])), t);
        }
    }
}
