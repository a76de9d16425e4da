//! Covering maps and lift constructions (paper §1.6, Fig. 3; Prop. 4.5).

use rand::seq::SliceRandom;
use rand::Rng;

use locap_graph::{Graph, LDigraph, NodeId};

use crate::LiftError;

/// A candidate covering map `ϕ : V(H) → V(G)` between L-digraphs.
///
/// A covering map is an onto, label-preserving graph homomorphism that is a
/// *local bijection*: at every `v ∈ V(H)` and every label `ℓ`, `v` has an
/// outgoing (incoming) edge labelled `ℓ` iff `ϕ(v)` does, and the edges
/// correspond. When ϕ is a covering map, `H` is a **lift** of `G` and PO
/// algorithms cannot distinguish `v` from `ϕ(v)` (their views coincide).
///
/// # Examples
///
/// ```
/// use locap_graph::gen;
/// use locap_lifts::{trivial_lift, CoveringMap};
///
/// let g = gen::directed_cycle(3);
/// let (h, phi) = trivial_lift(&g, 2);
/// phi.verify(&h, &g).unwrap();
/// assert_eq!(phi.fibre(0, &g), vec![0, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveringMap {
    map: Vec<NodeId>,
}

impl CoveringMap {
    /// Wraps an explicit image vector (`map[v]` = ϕ(v)); validate with
    /// [`CoveringMap::verify`].
    pub fn new(map: Vec<NodeId>) -> CoveringMap {
        CoveringMap { map }
    }

    /// The image ϕ(v).
    pub fn image(&self, v: NodeId) -> NodeId {
        self.map[v]
    }

    /// The image vector.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.map
    }

    /// The fibre ϕ⁻¹(u) for `u ∈ V(G)`, sorted.
    pub fn fibre(&self, u: NodeId, _g: &LDigraph) -> Vec<NodeId> {
        (0..self.map.len()).filter(|&v| self.map[v] == u).collect()
    }

    /// Checks that this map is a covering map from `h` onto `g`: its
    /// domain is `V(h)`, then [`verify_covering`].
    ///
    /// # Errors
    ///
    /// Returns the first defect found (wrong domain, out-of-range image,
    /// not onto, or not a local bijection at some node/label).
    pub fn verify(&self, h: &LDigraph, g: &LDigraph) -> Result<(), LiftError> {
        if self.map.len() != h.node_count() {
            return Err(LiftError::WrongDomain {
                expected: h.node_count(),
                actual: self.map.len(),
            });
        }
        verify_covering(h, g, |v| self.map[v])
    }

    /// If every fibre has the same size `l`, returns `Some(l)` — the map is
    /// then an `l`-lift.
    pub fn uniform_fibre_size(&self, g: &LDigraph) -> Option<usize> {
        let mut sizes = vec![0usize; g.node_count()];
        for &img in &self.map {
            sizes[img] += 1;
        }
        let l = *sizes.first()?;
        sizes.iter().all(|&s| s == l).then_some(l)
    }
}

/// Checks that `phi`, given as a function on `V(h)`, is a covering map
/// from `h` onto `g`. A lift whose map has a closed form (the homogeneous
/// lift's ϕ(x) = x mod |G|) is checked without storing its image vector.
///
/// # Errors
///
/// Returns the first defect found: an out-of-range image, a node of `g`
/// with an empty fibre, differing alphabets, or a node/label at which
/// `phi` is not a local bijection.
pub fn verify_covering(
    h: &LDigraph,
    g: &LDigraph,
    phi: impl Fn(NodeId) -> NodeId,
) -> Result<(), LiftError> {
    let mut covered = vec![false; g.node_count()];
    for v in 0..h.node_count() {
        match covered.get_mut(phi(v)) {
            Some(c) => *c = true,
            None => return Err(LiftError::ImageOutOfRange { node: v }),
        }
    }
    if let Some(u) = covered.iter().position(|&c| !c) {
        return Err(LiftError::NotOnto { uncovered: u });
    }
    if h.alphabet_size() != g.alphabet_size() {
        return Err(LiftError::BadParameters {
            reason: format!("alphabet mismatch: {} vs {}", h.alphabet_size(), g.alphabet_size()),
        });
    }
    for v in 0..h.node_count() {
        let img = phi(v);
        for label in 0..h.alphabet_size() {
            let out = (h.out_neighbor(v, label), g.out_neighbor(img, label));
            let inn = (h.in_neighbor(v, label), g.in_neighbor(img, label));
            for (ends, outgoing) in [(out, true), (inn, false)] {
                match ends {
                    (None, None) => {}
                    (Some(hv), Some(gu)) if phi(hv) == gu => {}
                    _ => return Err(not_local_bijection(v, label, ends, &phi, outgoing)),
                }
            }
        }
    }
    Ok(())
}

/// The error for the direction of the local-bijection check that failed
/// at `node`: `ends` holds the `label` neighbours of `node` in `h` and of
/// ϕ(`node`) in `g`. Kept out of line, so that the check's loop stays
/// small.
#[cold]
fn not_local_bijection(
    node: NodeId,
    label: usize,
    ends: (Option<NodeId>, Option<NodeId>),
    phi: impl Fn(NodeId) -> NodeId,
    outgoing: bool,
) -> LiftError {
    let (edge, end, side) = if outgoing {
        ("out-edge", "target", "outgoing")
    } else {
        ("in-edge", "source", "incoming")
    };
    let detail = match ends {
        (Some(hv), Some(gu)) => format!("{edge} maps to {gu} but ϕ({end}) = {}", phi(hv)),
        (Some(_), None) => format!("extra {side} edge in H"),
        _ => format!("missing {side} edge in H"),
    };
    LiftError::NotLocalBijection { node, label, detail }
}

/// The `l`-fold disjoint-copy lift: `H = l · G`, with copy `c` of node `v`
/// indexed `c * n + v` and ϕ(x) = x mod n.
///
/// # Panics
///
/// Panics if `l == 0`.
pub fn trivial_lift(g: &LDigraph, l: usize) -> (LDigraph, CoveringMap) {
    assert!(l > 0, "lift degree must be positive");
    let n = g.node_count();
    let mut h = LDigraph::new(n * l, g.alphabet_size());
    for c in 0..l {
        for e in g.edges() {
            h.add_edge(c * n + e.from, c * n + e.to, e.label)
                .expect("copies of a proper labelling are proper");
        }
    }
    let map = (0..n * l).map(|x| x % n).collect();
    (h, CoveringMap::new(map))
}

/// A uniformly random `l`-lift: for each edge of `G` an independent random
/// permutation π ∈ S_l matches the fibres, giving edges
/// `(c, v) --ℓ--> (π(c), u)`.
///
/// # Panics
///
/// Panics if `l == 0`.
pub fn random_lift<R: Rng>(g: &LDigraph, l: usize, rng: &mut R) -> (LDigraph, CoveringMap) {
    assert!(l > 0, "lift degree must be positive");
    let n = g.node_count();
    let mut h = LDigraph::new(n * l, g.alphabet_size());
    for e in g.edges() {
        let mut perm: Vec<usize> = (0..l).collect();
        perm.shuffle(rng);
        for (c, &p) in perm.iter().enumerate() {
            h.add_edge(c * n + e.from, p * n + e.to, e.label)
                .expect("permutation matching preserves properness");
        }
    }
    let map = (0..n * l).map(|x| x % n).collect();
    (h, CoveringMap::new(map))
}

/// Finds a directed edge whose removal keeps the underlying graph
/// connected (i.e. an edge lying on a cycle), if one exists. Such an edge
/// exists precisely when the (connected) graph is not a tree — the
/// hypothesis of the connected main theorem (Thm 1.4, Remark 1.5).
pub fn find_redundant_edge(g: &LDigraph) -> Option<locap_graph::DirEdge> {
    let und = g.underlying_simple();
    for e in g.edges() {
        let mut trimmed = g.clone();
        trimmed.remove_edge(e.from, e.to, e.label);
        let tu = trimmed.underlying_simple();
        if tu.is_connected() && und.is_connected() {
            return Some(e);
        }
    }
    None
}

/// The connected `l`-lift of Prop. 4.5: take `l` disjoint copies of `G` and
/// rewire the fibre of one redundant edge `e = (v, u)` by the cyclic
/// permutation `v_i -> u_{i+1 (mod l)}`. If `G` is connected and not a
/// tree, the result is a *connected* `l`-lift.
///
/// # Errors
///
/// Fails if `l == 0` or no redundant edge exists (G is a tree or
/// disconnected).
pub fn connect_copies(g: &LDigraph, l: usize) -> Result<(LDigraph, CoveringMap), LiftError> {
    if l == 0 {
        return Err(LiftError::BadParameters { reason: "lift degree must be positive".into() });
    }
    let e = find_redundant_edge(g).ok_or_else(|| LiftError::BadParameters {
        reason: "graph has no redundant edge (tree or disconnected)".into(),
    })?;
    let n = g.node_count();
    let (mut h, phi) = trivial_lift(g, l);
    for c in 0..l {
        assert!(h.remove_edge(c * n + e.from, c * n + e.to, e.label));
    }
    for c in 0..l {
        h.add_edge(c * n + e.from, ((c + 1) % l) * n + e.to, e.label)
            .expect("cyclic rewiring preserves properness");
    }
    Ok((h, phi))
}

/// The bipartite double cover of an undirected graph: vertex set
/// `V × {0, 1}` (copy 1 of `v` is `n + v`), with `{u, v} ∈ E` giving edges
/// `{u, n+v}` and `{v, n+u}`. Always bipartite and inherently 2-coloured;
/// used by the matching-based PO algorithms (`locap-algos`).
pub fn bipartite_double_cover(g: &Graph) -> Graph {
    let n = g.node_count();
    let edges: Vec<_> = g.edges().flat_map(|e| [(e.u, n + e.v), (e.v, n + e.u)]).collect();
    Graph::from_edges(2 * n, &edges).expect("double cover edges are simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view;
    use locap_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fig. 3 base graph: a 4-cycle a-b-c-d with PO structure.
    fn fig3_base() -> LDigraph {
        let g = gen::cycle(4);
        locap_graph::PoGraph::canonical(&g).digraph().clone()
    }

    #[test]
    fn trivial_lift_verifies() {
        let g = fig3_base();
        let (h, phi) = trivial_lift(&g, 2);
        phi.verify(&h, &g).unwrap();
        assert_eq!(phi.uniform_fibre_size(&g), Some(2));
        assert_eq!(phi.fibre(1, &g), vec![1, 5]);
        assert_eq!(h.node_count(), 8);
    }

    #[test]
    fn random_lift_verifies_and_preserves_views() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = fig3_base();
        for l in [1usize, 2, 3, 5] {
            let (h, phi) = random_lift(&g, l, &mut rng);
            phi.verify(&h, &g).unwrap();
            assert_eq!(phi.uniform_fibre_size(&g), Some(l));
            for v in 0..h.node_count() {
                for r in 0..3 {
                    assert_eq!(
                        view(&h, v, r),
                        view(&g, phi.image(v), r),
                        "view invariance at l={l}, v={v}, r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn verify_catches_defects() {
        let g = fig3_base();
        let (h, _) = trivial_lift(&g, 2);

        // wrong domain
        assert!(matches!(
            CoveringMap::new(vec![0; 3]).verify(&h, &g),
            Err(LiftError::WrongDomain { .. })
        ));
        // out of range
        assert!(matches!(
            CoveringMap::new(vec![99; 8]).verify(&h, &g),
            Err(LiftError::ImageOutOfRange { .. })
        ));
        // not onto
        assert!(matches!(
            CoveringMap::new(vec![0; 8]).verify(&h, &g),
            Err(LiftError::NotOnto { .. }) | Err(LiftError::NotLocalBijection { .. })
        ));
        // scrambled map: not a local bijection
        let mut bad: Vec<usize> = (0..8).map(|x| x % 4).collect();
        bad.swap(0, 1);
        assert!(CoveringMap::new(bad).verify(&h, &g).is_err());
    }

    /// `verify_covering` has no domain to get wrong; on every other
    /// doctored map above, and on the true map, it answers exactly what
    /// `CoveringMap::verify` answers.
    #[test]
    fn verify_covering_matches_covering_map_verify() {
        let g = fig3_base();
        let (h, phi) = trivial_lift(&g, 2);
        let mut scrambled: Vec<usize> = (0..8).map(|x| x % 4).collect();
        scrambled.swap(0, 1);
        for map in [phi.as_slice().to_vec(), vec![99; 8], vec![0; 8], scrambled] {
            let want = CoveringMap::new(map.clone()).verify(&h, &g);
            assert_eq!(verify_covering(&h, &g, |v| map[v]), want, "{map:?}");
        }
        assert_eq!(verify_covering(&h, &g, |v| v % 4), Ok(()), "the closed form x mod |G|");
        let wider = LDigraph::new(4, g.alphabet_size() + 1);
        assert_eq!(verify_covering(&h, &wider, |v| v % 4), phi.verify(&h, &wider));
        // a lift missing an edge of its base, and a base missing an edge
        // of its lift
        let e = h.edges().next().unwrap();
        let mut h_less = h.clone();
        assert!(h_less.remove_edge(e.from, e.to, e.label));
        let mut g_less = g.clone();
        assert!(g_less.remove_edge(phi.image(e.from), phi.image(e.to), e.label));
        for (hh, gg, side) in [(&h_less, &g, "missing"), (&h, &g_less, "extra")] {
            let want = phi.verify(hh, gg);
            let detail = format!("{side} outgoing edge in H");
            assert!(
                matches!(&want, Err(LiftError::NotLocalBijection { detail: d, .. }) if *d == detail),
                "{want:?}"
            );
            assert_eq!(verify_covering(hh, gg, |v| phi.image(v)), want);
        }
    }

    #[test]
    fn connect_copies_is_connected_lift() {
        let g = fig3_base(); // a 4-cycle: connected, not a tree
        for l in [2usize, 3, 7] {
            let (h, phi) = connect_copies(&g, l).unwrap();
            phi.verify(&h, &g).unwrap();
            assert!(h.underlying_simple().is_connected(), "l = {l}");
            assert_eq!(phi.uniform_fibre_size(&g), Some(l));
        }
    }

    #[test]
    fn connect_copies_fails_on_trees() {
        let path = gen::path(4);
        let d = locap_graph::PoGraph::canonical(&path).digraph().clone();
        assert!(connect_copies(&d, 3).is_err());
        assert!(connect_copies(&d, 0).is_err());
    }

    #[test]
    fn lifted_girth_never_decreases() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = fig3_base();
        let g_girth = g.underlying_simple().girth().unwrap();
        for l in [2usize, 4] {
            let (h, _) = random_lift(&g, l, &mut rng);
            let hu = h.underlying_simple();
            if let Some(girth) = hu.girth() {
                assert!(girth >= g_girth, "lift girth {girth} >= base girth {g_girth}");
            }
        }
    }

    #[test]
    fn double_cover_is_bipartite_2n() {
        let g = gen::petersen();
        let h = bipartite_double_cover(&g);
        assert_eq!(h.node_count(), 20);
        assert_eq!(h.edge_count(), 30);
        // bipartite: no edge within {0..10} or {10..20}
        for e in h.edges() {
            assert!(e.u < 10 && e.v >= 10);
        }
        assert!(h.is_regular(3));
    }

    #[test]
    fn double_cover_of_odd_cycle_is_big_cycle() {
        // The double cover of C_5 is C_10.
        let h = bipartite_double_cover(&gen::cycle(5));
        assert!(h.is_regular(2));
        assert!(h.is_connected());
        assert_eq!(h.girth(), Some(10));
    }

    #[test]
    fn double_cover_of_bipartite_graph_disconnects() {
        // The double cover of C_4 is two disjoint C_4's.
        let h = bipartite_double_cover(&gen::cycle(4));
        assert_eq!(h.components().len(), 2);
    }

    #[test]
    fn find_redundant_edge_on_cycle_vs_tree() {
        let c = fig3_base();
        assert!(find_redundant_edge(&c).is_some());
        let p = locap_graph::PoGraph::canonical(&gen::path(5)).digraph().clone();
        assert!(find_redundant_edge(&p).is_none());
    }
}
