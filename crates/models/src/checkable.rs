//! PO-checkability — the formal side of "simple PO-checkable graph
//! problem" (paper §1.6).
//!
//! A problem Π is PO-checkable when there is a local PO algorithm `A` that
//! *recognises* feasible solutions: `A(G, X, v) = 1` for all `v` iff `X`
//! is feasible. The verifier is anonymous and constant-radius: it sees the
//! radius-`r` ball with the solution bits as local inputs — never
//! identifiers or orders.
//!
//! [`DecoratedView`] is the exact information such a verifier consumes: a
//! view tree in which every walk also carries the solution bits of its
//! endpoint (membership bit for vertex problems; per-letter incidence bits
//! for edge problems). [`VertexVerifier`]/[`EdgeVerifier`] are verifier
//! traits over it, and [`verify_vertex`]/[`verify_edge`] run them over an
//! instance. The six verifiers for the paper's Example 1.1 problems live
//! in [`verifiers`], the workspace's one PO-checkability witness per
//! problem: the property test `prop_verifiers_accept_iff_feasible` in
//! `tests/properties.rs` checks `all accept ⟺ feasible` against
//! `locap-problems` ground truth on random graphs and subsets, and each
//! `locap-problems` module's unit tests check it on that crate's suite.

use std::collections::BTreeSet;

use locap_graph::{Edge, Graph, LDigraph, NodeId, PoGraph};
use locap_lifts::Letter;

/// A node of a solution-decorated view: the walk structure of the plain
/// view plus the solution bits visible at each walk's endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecoratedNode {
    /// Membership bit of the endpoint (vertex problems), if supplied.
    pub vertex_bit: Option<bool>,
    /// Per-incident-letter selection bits of the endpoint (edge problems),
    /// sorted by letter, if supplied.
    pub edge_bits: Option<Vec<(Letter, bool)>>,
    /// Children, sorted by letter.
    pub children: Vec<(Letter, DecoratedNode)>,
}

/// A solution-decorated radius-`r` view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecoratedView {
    /// The decorated root.
    pub root: DecoratedNode,
    /// Truncation radius.
    pub radius: usize,
}

fn decorate(
    d: &LDigraph,
    node: NodeId,
    last: Option<Letter>,
    depth: usize,
    vertex_bits: Option<&[bool]>,
    edge_sel: Option<&dyn Fn(NodeId, Letter) -> bool>,
) -> DecoratedNode {
    let vertex_bit = vertex_bits.map(|b| b[node]);
    let edge_bits = edge_sel.map(|sel| {
        let mut bits = Vec::new();
        for label in 0..d.alphabet_size() {
            if d.out_neighbor(node, label).is_some() {
                bits.push((Letter::pos(label), sel(node, Letter::pos(label))));
            }
            if d.in_neighbor(node, label).is_some() {
                bits.push((Letter::neg(label), sel(node, Letter::neg(label))));
            }
        }
        bits
    });
    let mut children = Vec::new();
    if depth > 0 {
        for label in 0..d.alphabet_size() {
            if let Some(u) = d.out_neighbor(node, label) {
                let letter = Letter::pos(label);
                if last != Some(letter.inv()) {
                    children.push((
                        letter,
                        decorate(d, u, Some(letter), depth - 1, vertex_bits, edge_sel),
                    ));
                }
            }
            if let Some(u) = d.in_neighbor(node, label) {
                let letter = Letter::neg(label);
                if last != Some(letter.inv()) {
                    children.push((
                        letter,
                        decorate(d, u, Some(letter), depth - 1, vertex_bits, edge_sel),
                    ));
                }
            }
        }
        children.sort_by_key(|&(l, _)| l);
    }
    DecoratedNode { vertex_bit, edge_bits, children }
}

/// Builds the decorated view of `v` for a vertex-subset solution.
pub fn decorated_vertex_view(
    d: &LDigraph,
    solution: &[bool],
    v: NodeId,
    r: usize,
) -> DecoratedView {
    DecoratedView { root: decorate(d, v, None, r, Some(solution), None), radius: r }
}

/// Builds the decorated view of `v` for an edge-subset solution
/// (`selected(u, letter)` = whether `u`'s incident edge along `letter`
/// belongs to the solution).
pub fn decorated_edge_view(
    d: &LDigraph,
    selected: &dyn Fn(NodeId, Letter) -> bool,
    v: NodeId,
    r: usize,
) -> DecoratedView {
    DecoratedView { root: decorate(d, v, None, r, None, Some(selected)), radius: r }
}

/// An anonymous local verifier for vertex-subset problems.
pub trait VertexVerifier {
    /// The verifier's radius.
    fn radius(&self) -> usize;
    /// Whether the centre node accepts.
    fn accept(&self, view: &DecoratedView) -> bool;
}

/// An anonymous local verifier for edge-subset problems.
pub trait EdgeVerifier {
    /// The verifier's radius.
    fn radius(&self) -> usize;
    /// Whether the centre node accepts.
    fn accept(&self, view: &DecoratedView) -> bool;
}

/// Runs a vertex verifier at every node; returns whether all accept.
pub fn verify_vertex<V: VertexVerifier>(
    g: &Graph,
    solution: &BTreeSet<NodeId>,
    verifier: &V,
) -> bool {
    let d = PoGraph::canonical(g).digraph().clone();
    let bits: Vec<bool> = g.nodes().map(|v| solution.contains(&v)).collect();
    (0..d.node_count())
        .all(|v| verifier.accept(&decorated_vertex_view(&d, &bits, v, verifier.radius())))
}

/// Runs an edge verifier at every node; returns whether all accept.
pub fn verify_edge<V: EdgeVerifier>(g: &Graph, solution: &BTreeSet<Edge>, verifier: &V) -> bool {
    let po = PoGraph::canonical(g);
    let d = po.digraph().clone();
    let selected = move |u: NodeId, letter: Letter| -> bool {
        let target = if letter.inverse {
            d.in_neighbor(u, letter.label)
        } else {
            d.out_neighbor(u, letter.label)
        };
        target.is_some_and(|t| solution.contains(&Edge::new(u, t)))
    };
    let d2 = po.digraph();
    (0..d2.node_count())
        .all(|v| verifier.accept(&decorated_edge_view(d2, &selected, v, verifier.radius())))
}

/// The radius-1 verifiers for the paper's Example 1.1 problems.
pub mod verifiers {
    use super::*;

    /// Helper: the solution bit of a depth-1 child's endpoint.
    fn child_vertex_bits(view: &DecoratedView) -> Vec<bool> {
        view.root
            .children
            .iter()
            .map(|(_, c)| c.vertex_bit.expect("vertex-decorated view"))
            .collect()
    }

    /// Whether the endpoint of a decorated node is *touched* (has any
    /// selected incident edge).
    fn touched(n: &DecoratedNode) -> bool {
        n.edge_bits.as_ref().expect("edge-decorated view").iter().any(|&(_, b)| b)
    }

    /// Vertex cover: every incident edge covered.
    #[derive(Debug, Clone, Copy)]
    pub struct VertexCoverVerifier;
    impl VertexVerifier for VertexCoverVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            let me = view.root.vertex_bit.expect("vertex-decorated view");
            me || child_vertex_bits(view).iter().all(|&b| b)
        }
    }

    /// Independent set: not selected together with a neighbour.
    #[derive(Debug, Clone, Copy)]
    pub struct IndependentSetVerifier;
    impl VertexVerifier for IndependentSetVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            let me = view.root.vertex_bit.expect("vertex-decorated view");
            !me || child_vertex_bits(view).iter().all(|&b| !b)
        }
    }

    /// Dominating set: the centre is dominated.
    #[derive(Debug, Clone, Copy)]
    pub struct DominatingSetVerifier;
    impl VertexVerifier for DominatingSetVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            let me = view.root.vertex_bit.expect("vertex-decorated view");
            me || child_vertex_bits(view).iter().any(|&b| b)
        }
    }

    /// Matching: at most one selected incident edge, and selections agree
    /// across each edge (both endpoints claim it or neither does — the
    /// encoding consistency condition of §2.1).
    #[derive(Debug, Clone, Copy)]
    pub struct MatchingVerifier;
    impl EdgeVerifier for MatchingVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            let bits = view.root.edge_bits.as_ref().expect("edge-decorated view");
            bits.iter().filter(|&&(_, b)| b).count() <= 1
        }
    }

    /// Edge cover: some incident edge selected.
    #[derive(Debug, Clone, Copy)]
    pub struct EdgeCoverVerifier;
    impl EdgeVerifier for EdgeCoverVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            touched(&view.root)
        }
    }

    /// Edge dominating set: every incident edge `{v, u}` has `v` or `u`
    /// touched — `u`'s bits are visible at radius 1.
    #[derive(Debug, Clone, Copy)]
    pub struct EdsVerifier;
    impl EdgeVerifier for EdsVerifier {
        fn radius(&self) -> usize {
            1
        }
        fn accept(&self, view: &DecoratedView) -> bool {
            let me = touched(&view.root);
            me || view.root.children.iter().all(|(_, c)| touched(c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::verifiers::*;
    use super::*;
    use locap_graph::gen;

    #[test]
    fn vertex_cover_verifier_matches_feasibility() {
        let g = gen::petersen();
        // feasible cover: accept everywhere
        let cover: BTreeSet<usize> = (0..10).filter(|v| v % 2 == 0 || *v < 5).collect();
        let feasible = g.edges().all(|e| cover.contains(&e.u) || cover.contains(&e.v));
        assert_eq!(verify_vertex(&g, &cover, &VertexCoverVerifier), feasible);
        // empty set: reject
        assert!(!verify_vertex(&g, &BTreeSet::new(), &VertexCoverVerifier));
    }

    #[test]
    fn independent_set_verifier() {
        let g = gen::cycle(6);
        let good: BTreeSet<usize> = [0, 2, 4].into_iter().collect();
        assert!(verify_vertex(&g, &good, &IndependentSetVerifier));
        let bad: BTreeSet<usize> = [0, 1].into_iter().collect();
        assert!(!verify_vertex(&g, &bad, &IndependentSetVerifier));
        assert!(verify_vertex(&g, &BTreeSet::new(), &IndependentSetVerifier));
    }

    #[test]
    fn dominating_set_verifier() {
        let g = gen::star(4);
        let centre: BTreeSet<usize> = [0].into_iter().collect();
        assert!(verify_vertex(&g, &centre, &DominatingSetVerifier));
        let leaf: BTreeSet<usize> = [1].into_iter().collect();
        assert!(!verify_vertex(&g, &leaf, &DominatingSetVerifier), "leaf 2 undominated");
    }

    #[test]
    fn matching_verifier() {
        let g = gen::path(4);
        let m: BTreeSet<Edge> = [Edge::new(0, 1), Edge::new(2, 3)].into_iter().collect();
        assert!(verify_edge(&g, &m, &MatchingVerifier));
        let bad: BTreeSet<Edge> = [Edge::new(0, 1), Edge::new(1, 2)].into_iter().collect();
        assert!(!verify_edge(&g, &bad, &MatchingVerifier));
    }

    #[test]
    fn edge_cover_and_eds_verifiers() {
        let g = gen::cycle(6);
        let all: BTreeSet<Edge> = g.edges().collect();
        assert!(verify_edge(&g, &all, &EdgeCoverVerifier));
        assert!(verify_edge(&g, &all, &EdsVerifier));
        let one: BTreeSet<Edge> = [Edge::new(0, 1)].into_iter().collect();
        assert!(!verify_edge(&g, &one, &EdgeCoverVerifier), "node 3 uncovered");
        assert!(!verify_edge(&g, &one, &EdsVerifier), "edge 3-4 undominated");
        // a valid EDS that is not an edge cover
        let eds: BTreeSet<Edge> = [Edge::new(0, 1), Edge::new(3, 4)].into_iter().collect();
        assert!(verify_edge(&g, &eds, &EdsVerifier));
        assert!(!verify_edge(&g, &eds, &EdgeCoverVerifier));
    }

    #[test]
    fn decorated_views_are_anonymous() {
        // two nodes of a symmetric instance with symmetric solutions have
        // identical decorated views
        let g = gen::cycle(5);
        let d = PoGraph::canonical(&g).digraph().clone();
        let bits = vec![true; 5];
        let v0 = decorated_vertex_view(&d, &bits, 0, 1);
        let v0b = decorated_vertex_view(&d, &bits, 0, 1);
        assert_eq!(v0, v0b);
    }
}
