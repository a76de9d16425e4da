//! Graph products.
//!
//! * [`cartesian`] — the cartesian product of undirected graphs;
//! * [`toroidal`] — the `k`-dimensional toroidal grid: the cartesian product
//!   of `k` directed `m`-cycles, i.e. the Cayley graph of `Z_m^k` with the
//!   `k` unit generators. This is the (P1, P2, P4) example of §3.2 and
//!   Fig. 6b: with the lexicographic order it is homogeneous but has
//!   girth 4 for `k >= 2`.
//! * [`label_matching_product`] — the edge-label–matching product used to
//!   build homogeneous lifts (Thm 3.3, Fig. 7): vertex set
//!   `V(H) × V(G)`, with an edge `((h,g), (h',g'))` labelled `ℓ` exactly
//!   when `h --ℓ--> h'` in `H` and `g --ℓ--> g'` in `G`.

use crate::{Graph, LDigraph};

/// The cartesian product `g □ h`: vertex `(a, b)` is indexed `a * h.n + b`;
/// `(a,b) ~ (a',b')` iff (`a = a'` and `b ~ b'`) or (`b = b'` and `a ~ a'`).
pub fn cartesian(g: &Graph, h: &Graph) -> Graph {
    let (ng, nh) = (g.node_count(), h.node_count());
    let idx = |a: usize, b: usize| a * nh + b;
    let mut edges = Vec::with_capacity(ng * h.edge_count() + g.edge_count() * nh);
    for a in 0..ng {
        edges.extend(h.edges().map(|e| (idx(a, e.u), idx(a, e.v))));
    }
    for e in g.edges() {
        edges.extend((0..nh).map(|b| (idx(e.u, b), idx(e.v, b))));
    }
    Graph::from_edges(ng * nh, &edges).expect("product edges are simple")
}

/// The `k`-dimensional toroidal grid over `Z_m`: an L-digraph with alphabet
/// `{0, …, k-1}` where label `i` is the step `+1` in coordinate `i`.
/// Vertex `(c_0, …, c_{k-1})` is indexed `c_0 * m^{k-1} + … + c_{k-1}`.
///
/// # Panics
///
/// Panics if `m < 3` (steps would create loops or parallel pairs), if
/// `k == 0`, or if the node count `m^k` overflows `usize`.
///
/// # Examples
///
/// ```
/// use locap_graph::product::toroidal;
///
/// let t = toroidal(2, 6); // Fig. 6b
/// assert_eq!(t.node_count(), 36);
/// assert!(t.is_label_complete()); // 2k-regular
/// assert_eq!(t.underlying().unwrap().girth(), Some(4));
/// ```
pub fn toroidal(k: usize, m: usize) -> LDigraph {
    assert!(k >= 1, "dimension must be positive");
    assert!(m >= 3, "cycle length must be at least 3");
    let n = u32::try_from(k)
        .ok()
        .and_then(|e| m.checked_pow(e))
        .unwrap_or_else(|| panic!("toroidal grid of {m}^{k} nodes overflows usize"));
    let mut d = LDigraph::new(n, k);
    for v in 0..n {
        for i in 0..k {
            let stride = m.pow((k - 1 - i) as u32);
            let coord = (v / stride) % m;
            let u = v - coord * stride + ((coord + 1) % m) * stride;
            d.add_edge(v, u, i).expect("toroidal edges are proper");
        }
    }
    d
}

/// Decodes the coordinates of a [`toroidal`] vertex.
pub fn toroidal_coords(v: usize, k: usize, m: usize) -> Vec<usize> {
    let mut out = vec![0; k];
    let mut x = v;
    for i in (0..k).rev() {
        out[i] = x % m;
        x /= m;
    }
    out
}

/// The label-matching product `H ⊗_L G` of two L-digraphs over the same
/// alphabet (Thm 3.3): vertex `(h, g)` is indexed `h * g.node_count() + g`;
/// the out-neighbour under label `ℓ` exists iff both factors have one.
///
/// The projection onto `G` is a covering map whenever `H` is label-complete
/// (every node of `H` has an out- and in-edge for every label); the
/// projection onto `H` is a graph homomorphism, so the product inherits
/// `H`'s girth lower bounds.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn label_matching_product(h: &LDigraph, g: &LDigraph) -> LDigraph {
    assert_eq!(h.alphabet_size(), g.alphabet_size(), "alphabets must agree");
    let (nh, ng) = (h.node_count(), g.node_count());
    let idx = |a: usize, b: usize| a * ng + b;
    let mut out = LDigraph::new(nh * ng, h.alphabet_size());
    for a in 0..nh {
        for e in h.out_edges(a) {
            for b in 0..ng {
                if let Some(b2) = g.out_neighbor(b, e.label) {
                    out.add_edge(idx(a, b), idx(e.to, b2), e.label)
                        .expect("product of proper labellings is proper");
                }
            }
        }
    }
    out
}

/// Projections for [`label_matching_product`] vertices: maps a product
/// vertex index to its `(h, g)` factor pair given `g`'s node count.
pub fn product_factors(v: usize, right_n: usize) -> (usize, usize) {
    (v / right_n, v % right_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn cartesian_of_paths_is_grid() {
        let p3 = gen::path(3);
        let p2 = gen::path(2);
        let g = cartesian(&p3, &p2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 3 + 4); // 3 vertical pairs + 2*2 horizontal
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn cartesian_of_cycles_is_4_regular() {
        let c = gen::cycle(5);
        let g = cartesian(&c, &c);
        assert!(g.is_regular(4));
        assert_eq!(g.node_count(), 25);
    }

    #[test]
    fn toroidal_structure() {
        let t = toroidal(2, 6);
        assert_eq!(t.node_count(), 36);
        assert_eq!(t.alphabet_size(), 2);
        assert!(t.is_label_complete());
        // (0,0) steps: label 0 -> (1,0) = 6; label 1 -> (0,1) = 1
        assert_eq!(t.out_neighbor(0, 0), Some(6));
        assert_eq!(t.out_neighbor(0, 1), Some(1));
        // wraparound
        assert_eq!(t.out_neighbor(35, 0), Some(5)); // (5,5) -> (0,5)
        assert_eq!(t.out_neighbor(35, 1), Some(30)); // (5,5) -> (5,0)
        assert_eq!(t.underlying().unwrap().girth(), Some(4));
    }

    #[test]
    fn toroidal_1d_is_directed_cycle() {
        let t = toroidal(1, 7);
        let c = gen::directed_cycle(7);
        assert_eq!(t, c);
    }

    #[test]
    #[should_panic(expected = "256^8 nodes overflows usize")]
    fn toroidal_node_count_overflow_panics_instead_of_wrapping() {
        toroidal(8, 256);
    }

    #[test]
    fn toroidal_coords_roundtrip() {
        let (k, m) = (3, 5);
        for v in [0, 1, 24, 124, 67] {
            let c = toroidal_coords(v, k, m);
            let back = c.iter().fold(0, |acc, &x| acc * m + x);
            assert_eq!(back, v);
        }
        assert_eq!(toroidal_coords(35, 2, 6), vec![5, 5]);
    }

    #[test]
    fn label_matching_product_covers_right_factor() {
        // H = directed 6-cycle (label-complete, 1 label),
        // G = directed triangle. Product = directed 18-cycle? No: it is a
        // disjoint union of directed cycles of length lcm(6,3) = 6, three of
        // them, each a lift of G.
        let h = gen::directed_cycle(6);
        let g = gen::directed_cycle(3);
        let p = label_matching_product(&h, &g);
        assert_eq!(p.node_count(), 18);
        assert!(p.is_label_complete());
        // every product vertex has exactly one out-edge whose G-projection
        // follows G's edge
        for v in 0..18 {
            let u = p.out_neighbor(v, 0).unwrap();
            let (_, gv) = product_factors(v, 3);
            let (_, gu) = product_factors(u, 3);
            assert_eq!(g.out_neighbor(gv, 0), Some(gu));
        }
    }

    #[test]
    fn label_matching_product_girth_from_left() {
        // H = directed 9-cycle, G = directed triangle: product components
        // are 9-cycles, girth 9 > girth(G) = 3.
        let h = gen::directed_cycle(9);
        let g = gen::directed_cycle(3);
        let p = label_matching_product(&h, &g);
        assert_eq!(p.underlying().unwrap().girth(), Some(9));
    }

    #[test]
    #[should_panic(expected = "alphabets must agree")]
    fn label_matching_product_alphabet_mismatch() {
        let h = toroidal(2, 4);
        let g = gen::directed_cycle(3);
        let _ = label_matching_product(&h, &g);
    }
}
