//! Random structures: random regular graphs (configuration model), random
//! port numberings, orientations, orders and identifier assignments.
//!
//! These supply the randomised test harness: the paper's statements are
//! worst-case over PO structures, orders and identifiers, so experiments
//! sample them.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphError, Orientation, PortNumbering};

/// Samples a random `d`-regular simple graph on `n` nodes via the
/// configuration model with rejection (retry on loops/multi-edges).
///
/// # Errors
///
/// Returns [`GraphError::BadParameters`] if `n * d` is odd or `d >= n`,
/// or if no simple matching is found within `max_tries` attempts (for
/// feasible parameters this is vanishingly unlikely).
pub fn random_regular<R: Rng>(
    n: usize,
    d: usize,
    max_tries: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n * d % 2 != 0 {
        return Err(GraphError::BadParameters { reason: format!("n*d = {} is odd", n * d) });
    }
    if d >= n {
        return Err(GraphError::BadParameters { reason: format!("degree {d} >= n = {n}") });
    }
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    let mut edges = Vec::with_capacity(n * d / 2);
    for _ in 0..max_tries {
        stubs.shuffle(rng);
        edges.clear();
        edges.extend(stubs.chunks(2).map(|pair| (pair[0], pair[1])));
        // a self-loop or a repeated pair rejects the pairing
        if let Ok(g) = Graph::from_edges(n, &edges) {
            return Ok(g);
        }
    }
    Err(GraphError::BadParameters {
        reason: format!("no simple {d}-regular graph found in {max_tries} tries"),
    })
}

/// Samples a uniformly random port numbering of `g`.
pub fn random_ports<R: Rng>(g: &Graph, rng: &mut R) -> PortNumbering {
    let lists = g
        .nodes()
        .map(|v| {
            let mut l = g.neighbors(v).to_vec();
            l.shuffle(rng);
            l
        })
        .collect();
    PortNumbering::from_lists(g, lists).expect("a shuffled neighbour list is a permutation")
}

/// Samples a uniformly random orientation of `g`.
pub fn random_orientation<R: Rng>(g: &Graph, rng: &mut R) -> Orientation {
    Orientation::from_fn(g, |_| rng.gen_bool(0.5))
}

/// Samples a uniformly random rank vector (vertex order) for `n` nodes.
pub fn random_rank<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(rng);
    rank
}

/// Samples `n` distinct identifiers from `0..universe`.
///
/// # Panics
///
/// Panics if `universe < n as u64`.
pub fn random_ids<R: Rng>(n: usize, universe: u64, rng: &mut R) -> Vec<u64> {
    assert!(universe >= n as u64, "identifier universe too small");
    let mut chosen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x = rng.gen_range(0..universe);
        if chosen.insert(x) {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(n, d) in &[(10, 3), (12, 4), (8, 2), (20, 5)] {
            let g = random_regular(n, d, 1000, &mut rng).unwrap();
            assert!(g.is_regular(d), "({n}, {d})");
            assert_eq!(g.node_count(), n);
        }
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_regular(5, 3, 10, &mut rng).is_err()); // odd sum
        assert!(random_regular(4, 4, 10, &mut rng).is_err()); // d >= n
    }

    #[test]
    fn random_ports_is_valid_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = crate::gen::petersen();
        let p = random_ports(&g, &mut rng);
        for v in g.nodes() {
            let mut seen: Vec<_> = (0..g.degree(v)).map(|i| p.neighbor(v, i).unwrap()).collect();
            seen.sort_unstable();
            assert_eq!(seen, g.neighbors(v));
        }
    }

    #[test]
    fn random_orientation_covers_all_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = crate::gen::complete(5);
        let o = random_orientation(&g, &mut rng);
        assert_eq!(o.edge_count(), 10);
        let dirs: Vec<_> = o.directed_edges().collect();
        assert_eq!(dirs.len(), 10);
        for (t, h) in dirs {
            assert!(g.has_edge(t, h));
        }
    }

    #[test]
    fn random_rank_is_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = random_rank(50, &mut rng);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn random_ids_distinct() {
        let mut rng = StdRng::seed_from_u64(11);
        let ids = random_ids(100, 10_000, &mut rng);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(ids.iter().all(|&x| x < 10_000));
    }

    #[test]
    #[should_panic(expected = "universe too small")]
    fn random_ids_universe_too_small() {
        let mut rng = StdRng::seed_from_u64(13);
        let _ = random_ids(10, 5, &mut rng);
    }
}
