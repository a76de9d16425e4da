//! Standard graph families.
//!
//! These are the worst-case and illustration instances used throughout the
//! paper: cycles (Fig. 2), toroidal grids (Fig. 6b, see [`crate::product`]),
//! complete and complete bipartite graphs, hypercubes, and the Petersen
//! graph as a small 3-regular test instance.

use crate::{Graph, LDigraph};

/// The cycle `C_n` (`n >= 3`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    Graph::from_edges(n, &edges).expect("cycle edges are simple")
}

/// The path `P_n` on `n` nodes (`n - 1` edges).
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    Graph::from_edges(n, &edges).expect("path edges are simple")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges: Vec<_> = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
    Graph::from_edges(n, &edges).expect("complete graph edges are simple")
}

/// The complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges: Vec<_> = (0..a).flat_map(|u| (0..b).map(move |v| (u, a + v))).collect();
    Graph::from_edges(a + b, &edges).expect("bipartite edges are simple")
}

/// The star `K_{1,n}`; node 0 is the centre.
pub fn star(n: usize) -> Graph {
    complete_bipartite(1, n)
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: usize) -> Graph {
    let n = 1usize << d;
    let edges: Vec<_> = (0..n)
        .flat_map(|v| (0..d).map(move |b| (v, v ^ (1 << b))))
        .filter(|(v, u)| v < u)
        .collect();
    Graph::from_edges(n, &edges).expect("hypercube edges are simple")
}

/// The `w × h` grid graph (no wraparound).
pub fn grid(w: usize, h: usize) -> Graph {
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, &edges).expect("grid edges are simple")
}

/// The circulant graph `C(Z_n, steps)`: node `v` adjacent to `v ± s` for
/// each step `s`.
///
/// # Panics
///
/// Panics if a step is `0` or `≥ n`. A step that names an edge twice (a
/// half step `2s = n`, or both `s` and `n − s` listed) contributes it
/// once.
pub fn circulant(n: usize, steps: &[usize]) -> Graph {
    let mut edges = Vec::with_capacity(n * steps.len());
    for &s in steps {
        assert!(s > 0 && s < n, "step {s} out of range");
        edges.extend((0..n).map(|v| (v.min((v + s) % n), v.max((v + s) % n))));
    }
    // a half step, or steps s and n − s, name an edge twice: keep one
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n, &edges).expect("circulant edges are simple")
}

/// The prism over `C_n` (the cartesian product `C_n × K_2`): 3-regular on
/// `2n` nodes.
pub fn prism(n: usize) -> Graph {
    let edges: Vec<_> = (0..n)
        .flat_map(|v| [(v, (v + 1) % n), (n + v, n + (v + 1) % n), (v, n + v)])
        .collect();
    Graph::from_edges(2 * n, &edges).expect("prism edges are simple")
}

/// Whether the graph is a forest with a single component (a tree) —
/// relevant to the connected main theorem's "no trees" hypothesis
/// (Thm 1.4, Remark 1.5).
pub fn is_tree(g: &Graph) -> bool {
    g.node_count() > 0 && g.is_connected() && g.edge_count() == g.node_count() - 1
}

/// The Petersen graph: 3-regular, girth 5, 10 nodes.
pub fn petersen() -> Graph {
    let edges: Vec<_> = (0..5)
        .flat_map(|v| [(v, (v + 1) % 5), (5 + v, 5 + (v + 2) % 5), (v, 5 + v)])
        .collect();
    Graph::from_edges(10, &edges).expect("Petersen edges are simple")
}

/// The directed cycle on `n` nodes as a 1-label L-digraph: edges
/// `v -> v+1 (mod n)` all carrying label 0. This is the PO-symmetric cycle
/// of Fig. 2 (rightmost): every view is isomorphic.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn directed_cycle(n: usize) -> LDigraph {
    assert!(n >= 3, "a directed cycle needs at least 3 nodes");
    let mut g = LDigraph::new(n, 1);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, 0).expect("directed cycle is properly labelled");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_properties() {
        let g = cycle(7);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.is_regular(2));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_too_small() {
        let _ = cycle(2);
    }

    #[test]
    fn path_and_star() {
        let p = path(5);
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
        let s = star(4);
        assert_eq!(s.degree(0), 4);
        assert_eq!(s.max_degree(), 4);
        assert_eq!(s.min_degree(), 1);
    }

    #[test]
    fn complete_graphs() {
        let k5 = complete(5);
        assert_eq!(k5.edge_count(), 10);
        assert!(k5.is_regular(4));
        let k23 = complete_bipartite(2, 3);
        assert_eq!(k23.edge_count(), 6);
        assert_eq!(k23.degree(0), 3);
        assert_eq!(k23.degree(2), 2);
    }

    #[test]
    fn hypercube_properties() {
        let q3 = hypercube(3);
        assert_eq!(q3.node_count(), 8);
        assert_eq!(q3.edge_count(), 12);
        assert!(q3.is_regular(3));
        assert!(q3.is_connected());
        assert_eq!(q3.diameter(), Some(3));
    }

    #[test]
    fn grid_properties() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn petersen_properties() {
        let g = petersen();
        assert!(g.is_regular(3));
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.girth(), Some(5));
        assert!(g.is_connected());
    }

    #[test]
    fn circulant_properties() {
        let g = circulant(8, &[1, 2]);
        assert!(g.is_regular(4));
        assert_eq!(g.edge_count(), 16);
        assert!(g.is_connected());
        // half-step contributes one edge per pair
        let h = circulant(6, &[3]);
        assert!(h.is_regular(1));
        assert_eq!(h.edge_count(), 3);
        // circulant with step 1 is the cycle
        assert_eq!(circulant(7, &[1]), cycle(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn circulant_bad_step() {
        let _ = circulant(5, &[5]);
    }

    #[test]
    fn prism_properties() {
        let g = prism(5);
        assert!(g.is_regular(3));
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.is_connected());
        assert_eq!(g.girth(), Some(4));
    }

    #[test]
    fn tree_detection() {
        assert!(is_tree(&path(6)));
        assert!(is_tree(&star(4)));
        assert!(!is_tree(&cycle(5)));
        assert!(!is_tree(&Graph::new(0)));
        let two_comp = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_tree(&two_comp));
    }

    #[test]
    fn directed_cycle_properties() {
        let g = directed_cycle(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.alphabet_size(), 1);
        assert!(g.is_label_complete());
        assert_eq!(g.out_neighbor(2, 0), Some(3));
        assert_eq!(g.in_neighbor(0, 0), Some(5));
    }
}
