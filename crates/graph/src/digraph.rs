use crate::{Adjacency, Graph, GraphError, NodeId};

/// An edge label `ℓ ∈ L`; the alphabet is `0..alphabet_size`.
pub type Label = usize;

/// A directed labelled edge `from --label--> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirEdge {
    /// Tail of the edge.
    pub from: NodeId,
    /// Head of the edge.
    pub to: NodeId,
    /// Label `ℓ ∈ L`.
    pub label: Label,
}

/// A *properly* `L`-edge-labelled directed graph (paper §2.5).
///
/// Properness means that at every node the incoming edges carry pairwise
/// distinct labels and the outgoing edges carry pairwise distinct labels
/// (an incoming and an outgoing edge may share a label). This invariant is
/// enforced structurally: the representation stores, for each node and each
/// label, at most one outgoing and at most one incoming edge.
///
/// L-digraphs model anonymous networks with a port numbering and
/// orientation (**PO**): see [`crate::PortNumbering`] for deriving a proper
/// labelling from port numbers as in Fig. 4, and Cayley graphs
/// (`locap-groups`) for the generator-labelled case.
///
/// # Examples
///
/// ```
/// use locap_graph::LDigraph;
///
/// // The directed triangle with a single label.
/// let mut g = LDigraph::new(3, 1);
/// g.add_edge(0, 1, 0).unwrap();
/// g.add_edge(1, 2, 0).unwrap();
/// g.add_edge(2, 0, 0).unwrap();
/// assert!(g.is_label_complete());
/// assert_eq!(g.out_neighbor(0, 0), Some(1));
/// assert_eq!(g.in_neighbor(0, 0), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LDigraph {
    /// Node count, stored so that an empty alphabet keeps its `n` nodes.
    n: usize,
    labels: usize,
    /// `out[v * labels + l]` = head of `v --l--> ·`, or [`LDigraph::NONE`].
    out: Vec<u32>,
    /// `inn[v * labels + l]` = tail of `· --l--> v`, or [`LDigraph::NONE`].
    inn: Vec<u32>,
}

/// A stored row word as a node, `None` for [`LDigraph::NONE`].
fn node_of(word: u32) -> Option<NodeId> {
    (word != LDigraph::NONE).then_some(word as NodeId)
}

impl LDigraph {
    /// The row word of an absent edge, as [`LDigraph::out_raw`] and
    /// [`LDigraph::in_raw`] return it.
    pub const NONE: u32 = u32::MAX;

    /// Creates an edgeless L-digraph on `n` nodes with alphabet `0..labels`.
    ///
    /// # Panics
    ///
    /// Panics if `n ≥ u32::MAX` (rows store nodes as `u32` words, with
    /// [`LDigraph::NONE`] reserved) or `n · labels` overflows `usize`.
    /// Requests never get near that: parsing caps a lift at 3,000,000
    /// nodes and a census at 3·2^20 states.
    pub fn new(n: usize, labels: usize) -> LDigraph {
        assert!(n < LDigraph::NONE as usize, "LDigraph node count {n} does not fit a u32 row");
        let slots = n.checked_mul(labels).expect("LDigraph slot count overflows usize");
        LDigraph { n, labels, out: vec![LDigraph::NONE; slots], inn: vec![LDigraph::NONE; slots] }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The flat slot of `(v, label)`, or `None` when either is out of
    /// range (so a too-large label never aliases into the next node's row).
    fn slot(&self, v: NodeId, label: Label) -> Option<usize> {
        (v < self.n && label < self.labels).then(|| v * self.labels + label)
    }

    /// The `|L|` slots of `v` in `flat` (empty when `v` is out of range).
    fn row<'a>(&self, flat: &'a [u32], v: NodeId) -> &'a [u32] {
        if v < self.n {
            &flat[v * self.labels..(v + 1) * self.labels]
        } else {
            &[]
        }
    }

    /// Size of the label alphabet `|L|`.
    pub fn alphabet_size(&self) -> usize {
        self.labels
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().filter(|&&w| w != LDigraph::NONE).count()
    }

    /// Adds the edge `from --label--> to`.
    ///
    /// # Errors
    ///
    /// Fails if an endpoint or the label is out of range, if `from == to`
    /// (self-loop), or if the proper-labelling constraint would be violated.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: Label) -> Result<(), GraphError> {
        let n = self.node_count();
        if from >= n {
            return Err(GraphError::NodeOutOfRange { node: from, n });
        }
        if to >= n {
            return Err(GraphError::NodeOutOfRange { node: to, n });
        }
        if label >= self.labels {
            return Err(GraphError::LabelOutOfRange { label, alphabet: self.labels });
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        let (fs, ts) = (from * self.labels + label, to * self.labels + label);
        if self.out[fs] != LDigraph::NONE {
            return Err(GraphError::ImproperLabelling { node: from, label, outgoing: true });
        }
        if self.inn[ts] != LDigraph::NONE {
            return Err(GraphError::ImproperLabelling { node: to, label, outgoing: false });
        }
        // `new` keeps every node below `NONE`, so the casts are exact
        self.out[fs] = to as u32;
        self.inn[ts] = from as u32;
        Ok(())
    }

    /// The head of the outgoing edge of `v` with `label`, if present.
    /// Out-of-range `v` or `label` is simply "no such edge" (`None`), so
    /// algorithm outputs naming absent letters surface as typed errors
    /// upstream instead of index panics here.
    pub fn out_neighbor(&self, v: NodeId, label: Label) -> Option<NodeId> {
        node_of(self.out_raw(v, label))
    }

    /// The tail of the incoming edge of `v` with `label`, if present.
    /// Total in the same way as [`LDigraph::out_neighbor`].
    pub fn in_neighbor(&self, v: NodeId, label: Label) -> Option<NodeId> {
        node_of(self.in_raw(v, label))
    }

    /// [`LDigraph::out_neighbor`] as the stored `u32` row word, with
    /// [`LDigraph::NONE`] for no edge: the view-refinement sweep in
    /// `locap-lifts` reads these words directly.
    ///
    /// ```
    /// use locap_graph::{gen, LDigraph};
    /// let d = gen::directed_cycle(5);
    /// assert_eq!(d.out_raw(0, 0), 1);
    /// assert_eq!(d.in_raw(0, 0), 4);
    /// assert_eq!(d.out_raw(9, 0), LDigraph::NONE, "out of range reads as absent");
    /// ```
    #[inline]
    pub fn out_raw(&self, v: NodeId, label: Label) -> u32 {
        self.slot(v, label)
            .and_then(|s| self.out.get(s))
            .copied()
            .unwrap_or(LDigraph::NONE)
    }

    /// [`LDigraph::in_neighbor`] as the stored `u32` row word, with
    /// [`LDigraph::NONE`] for no edge.
    #[inline]
    pub fn in_raw(&self, v: NodeId, label: Label) -> u32 {
        self.slot(v, label)
            .and_then(|s| self.inn.get(s))
            .copied()
            .unwrap_or(LDigraph::NONE)
    }

    /// All outgoing edges of `v` in label order (none for an out-of-range
    /// `v`).
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = DirEdge> + '_ {
        self.row(&self.out, v)
            .iter()
            .enumerate()
            .filter_map(move |(l, &t)| node_of(t).map(|to| DirEdge { from: v, to, label: l }))
    }

    /// All incoming edges of `v` in label order (none for an out-of-range
    /// `v`).
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = DirEdge> + '_ {
        self.row(&self.inn, v)
            .iter()
            .enumerate()
            .filter_map(move |(l, &f)| node_of(f).map(|from| DirEdge { from, to: v, label: l }))
    }

    /// All directed edges, sorted by `(from, label)`.
    pub fn edges(&self) -> impl Iterator<Item = DirEdge> + '_ {
        (0..self.node_count()).flat_map(move |v| self.out_edges(v))
    }

    /// Total degree (in + out) of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let mut degree = 0;
        self.for_each_neighbor(v, |_| degree += 1);
        degree
    }

    /// Whether every node has an outgoing **and** an incoming edge for every
    /// label in the alphabet. Label-complete L-digraphs are `2|L|`-regular;
    /// Cayley graphs and the homogeneous graphs of Thm 3.2 have this form.
    pub fn is_label_complete(&self) -> bool {
        self.out.iter().chain(&self.inn).all(|&w| w != LDigraph::NONE)
    }

    /// The underlying simple undirected graph. Anti-parallel labelled edge
    /// pairs collapse to a single undirected edge.
    ///
    /// # Errors
    ///
    /// Fails with [`GraphError::DuplicateEdge`] if two differently-labelled
    /// directed edges connect the same pair of nodes (the underlying graph
    /// would be a multigraph, which [`Graph`] does not model).
    pub fn underlying(&self) -> Result<Graph, GraphError> {
        let edges: Vec<(NodeId, NodeId)> = self.edges().map(|e| (e.from, e.to)).collect();
        Graph::from_edges(self.node_count(), &edges)
    }

    /// Like [`LDigraph::underlying`], but collapses parallel edges silently.
    /// Useful for metric queries (balls, girth bounds) on multigraph-like
    /// L-digraphs.
    ///
    /// One pass: each node's row is its `≤ 2|L|` out- and in-neighbours,
    /// sorted and deduplicated, written straight into the graph's flat
    /// arrays.
    pub fn underlying_simple(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut targets = Vec::with_capacity(2 * self.edge_count());
        let mut row = Vec::with_capacity(2 * self.labels);
        offsets.push(0);
        for v in 0..self.n {
            self.underlying_row(v, &mut row);
            targets.extend_from_slice(&row);
            offsets.push(targets.len());
        }
        Graph::from_csr_parts(offsets, targets)
    }

    /// Overwrites `row` with `v`'s row of [`LDigraph::underlying_simple`]:
    /// its `≤ 2|L|` out- and in-neighbours, sorted and deduplicated.
    #[inline]
    fn underlying_row(&self, v: NodeId, row: &mut Vec<NodeId>) {
        row.clear();
        self.for_each_neighbor(v, |u| row.push(u));
        row.sort_unstable();
        row.dedup();
    }

    /// [`Graph::cycle_near_root`] on the underlying simple graph, read
    /// from this digraph's own rows: equal to
    /// `self.underlying_simple().cycle_near_root(root, bound)` without
    /// building that graph, so a spot-check of a large lift costs its ball,
    /// not `n`.
    pub fn cycle_near_root(&self, root: NodeId, bound: usize) -> bool {
        crate::ball::cycle_near(root, bound, |v, row| self.underlying_row(v, row))
    }

    /// The disjoint union; nodes of `other` are shifted by `self.node_count()`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn disjoint_union(&self, other: &LDigraph) -> LDigraph {
        assert_eq!(self.labels, other.labels, "alphabets must agree");
        let off = self.node_count();
        let mut g = LDigraph::new(off + other.node_count(), self.labels);
        for e in self.edges() {
            g.add_edge(e.from, e.to, e.label).expect("valid by construction");
        }
        for e in other.edges() {
            g.add_edge(e.from + off, e.to + off, e.label).expect("valid by construction");
        }
        g
    }

    /// The subgraph induced by `keep`; returns the graph and the map
    /// `new index -> old index`.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (LDigraph, Vec<NodeId>) {
        let mut order: Vec<NodeId> = keep.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut pos = vec![usize::MAX; self.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        let mut g = LDigraph::new(order.len(), self.labels);
        for &v in &order {
            for e in self.out_edges(v) {
                if pos[e.to] != usize::MAX {
                    g.add_edge(pos[v], pos[e.to], e.label).expect("valid by construction");
                }
            }
        }
        (g, order)
    }

    /// Removes the edge `from --label--> to` if present; returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId, label: Label) -> bool {
        if self.out_neighbor(from, label) == Some(to) {
            self.out[from * self.labels + label] = LDigraph::NONE;
            self.inn[to * self.labels + label] = LDigraph::NONE;
            true
        } else {
            false
        }
    }
}

impl Adjacency for LDigraph {
    fn node_count(&self) -> usize {
        LDigraph::node_count(self)
    }

    /// `v`'s out-row, then its in-row, [`LDigraph::NONE`] skipped (none
    /// for an out-of-range `v`): its neighbours in the underlying simple
    /// graph, once per edge.
    #[inline]
    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        for &w in self.row(&self.out, v) {
            if w != LDigraph::NONE {
                f(w as NodeId);
            }
        }
        for &w in self.row(&self.inn, v) {
            if w != LDigraph::NONE {
                f(w as NodeId);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random L-digraph: each label is a random permutation of the
    /// nodes, with its fixed points and about a quarter of its edges left
    /// out. At small `n`, antiparallel pairs and parallel edges of
    /// distinct labels, which name a neighbour twice in a node's rows,
    /// are common, and so are short cycles.
    pub(crate) fn random_ldigraph(n: usize, labels: usize, seed: u64) -> LDigraph {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = LDigraph::new(n, labels);
        let mut perm: Vec<NodeId> = (0..n).collect();
        for label in 0..labels {
            perm.shuffle(&mut rng);
            for (v, &u) in perm.iter().enumerate() {
                if v != u && rng.gen_range(0..4) != 0 {
                    d.add_edge(v, u, label).expect("a permutation labels properly");
                }
            }
        }
        d
    }

    fn triangle() -> LDigraph {
        let mut g = LDigraph::new(3, 1);
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 0).unwrap();
        g.add_edge(2, 0, 0).unwrap();
        g
    }

    #[test]
    fn basics() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.alphabet_size(), 1);
        assert_eq!(g.degree(0), 2);
        assert!(g.is_label_complete());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], DirEdge { from: 0, to: 1, label: 0 });
    }

    #[test]
    fn properness_enforced() {
        let mut g = LDigraph::new(3, 2);
        g.add_edge(0, 1, 0).unwrap();
        // second out-edge with label 0 at node 0:
        assert_eq!(
            g.add_edge(0, 2, 0),
            Err(GraphError::ImproperLabelling { node: 0, label: 0, outgoing: true })
        );
        // second in-edge with label 0 at node 1:
        assert_eq!(
            g.add_edge(2, 1, 0),
            Err(GraphError::ImproperLabelling { node: 1, label: 0, outgoing: false })
        );
        // different label is fine:
        g.add_edge(0, 2, 1).unwrap();
        g.add_edge(2, 1, 1).unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn range_checks() {
        let mut g = LDigraph::new(2, 1);
        assert!(matches!(g.add_edge(0, 5, 0), Err(GraphError::NodeOutOfRange { .. })));
        assert!(matches!(g.add_edge(5, 0, 0), Err(GraphError::NodeOutOfRange { .. })));
        assert!(matches!(g.add_edge(0, 1, 3), Err(GraphError::LabelOutOfRange { .. })));
        assert!(matches!(g.add_edge(0, 0, 0), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn underlying_graph() {
        let g = triangle();
        let u = g.underlying().unwrap();
        assert_eq!(u.edge_count(), 3);
        assert!(u.is_regular(2));

        // Anti-parallel pair collapses to one undirected edge.
        let mut h = LDigraph::new(2, 2);
        h.add_edge(0, 1, 0).unwrap();
        h.add_edge(1, 0, 1).unwrap();
        assert!(h.underlying().is_err(), "parallel edges in underlying graph");
        assert_eq!(h.underlying_simple().edge_count(), 1);
    }

    #[test]
    fn in_out_edges() {
        let g = triangle();
        let outs: Vec<_> = g.out_edges(1).collect();
        assert_eq!(outs, vec![DirEdge { from: 1, to: 2, label: 0 }]);
        let ins: Vec<_> = g.in_edges(1).collect();
        assert_eq!(ins, vec![DirEdge { from: 0, to: 1, label: 0 }]);
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = triangle();
        let u = g.disjoint_union(&g);
        assert_eq!(u.node_count(), 6);
        assert_eq!(u.edge_count(), 6);
        assert_eq!(u.out_neighbor(3, 0), Some(4));
    }

    #[test]
    fn induced_subgraph_keeps_labels() {
        let mut g = LDigraph::new(4, 2);
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        let (h, map) = g.induced_subgraph(&[1, 2]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.out_neighbor(0, 1), Some(1));
    }

    #[test]
    fn raw_rows_match_digraph_adjacency() {
        let mut g = LDigraph::new(4, 3);
        g.add_edge(0, 1, 0).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        g.add_edge(3, 0, 2).unwrap();
        for v in 0..4 {
            for l in 0..3 {
                let want = |x: Option<NodeId>| x.map_or(LDigraph::NONE, |u| u as u32);
                assert_eq!(g.out_raw(v, l), want(g.out_neighbor(v, l)), "out {v} {l}");
                assert_eq!(g.in_raw(v, l), want(g.in_neighbor(v, l)), "in {v} {l}");
            }
        }
        // out-of-range probes read as absent, like the Option-based API
        assert_eq!(g.out_raw(99, 0), LDigraph::NONE);
        assert_eq!(g.in_raw(0, 99), LDigraph::NONE);
        assert_eq!(g.out_raw(usize::MAX, 0), LDigraph::NONE);
    }

    #[test]
    fn remove_edge() {
        let mut g = triangle();
        assert!(g.remove_edge(0, 1, 0));
        assert!(!g.remove_edge(0, 1, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbor(0, 0), None);
        assert_eq!(g.in_neighbor(1, 0), None);
        assert!(!g.is_label_complete());
        // a mismatched head, an out-of-range label or tail removes nothing
        let mut g = triangle();
        assert!(!g.remove_edge(0, 2, 0));
        assert!(!g.remove_edge(0, 1, 1));
        assert!(!g.remove_edge(7, 1, 0));
        assert_eq!(g, triangle());
    }

    /// Flat rows: label `|L|` of node `v` would be slot `(v + 1)·|L|`, the
    /// first slot of the next node's row; it must read as absent.
    #[test]
    fn out_of_range_labels_do_not_alias_the_next_row() {
        let mut g = LDigraph::new(3, 2);
        for v in 0..3 {
            g.add_edge(v, (v + 1) % 3, 0).unwrap();
            g.add_edge(v, (v + 2) % 3, 1).unwrap();
        }
        assert!(g.is_label_complete());
        for v in 0..2 {
            assert_eq!(g.out_neighbor(v, 2), None, "out({v}, |L|)");
            assert_eq!(g.in_neighbor(v, 2), None, "in({v}, |L|)");
            assert_eq!(g.out_neighbor(v, 3), None);
        }
        assert_eq!(g.out_neighbor(3, 0), None, "out-of-range node");
        assert_eq!(g.in_neighbor(usize::MAX, 0), None);
        assert_eq!(g.out_edges(3).count(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn empty_alphabet_keeps_its_nodes() {
        let g = LDigraph::new(5, 0);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_neighbor(4, 0), None);
        assert!(g.is_label_complete(), "vacuously: there is no label to miss");
        let und = g.underlying_simple();
        assert_eq!((und.node_count(), und.edge_count()), (5, 0));
        assert_eq!(g.disjoint_union(&LDigraph::new(2, 0)).node_count(), 7);
        assert_eq!(g.induced_subgraph(&[1, 3]).0.node_count(), 2);
    }

    /// The per-edge builder `underlying_simple` replaced: one `has_edge`
    /// check and one sorted insert per directed edge.
    fn underlying_per_edge(d: &LDigraph) -> Graph {
        let mut g = Graph::new(d.node_count());
        for e in d.edges() {
            if !g.has_edge(e.from, e.to) {
                g.add_edge(e.from, e.to).unwrap();
            }
        }
        g
    }

    proptest! {
        /// Random L-digraphs with antiparallel pairs and
        /// differently-labelled parallel edges, both of which collapse to
        /// one undirected edge.
        #[test]
        fn prop_underlying_simple_matches_per_edge_builder(
            n in 1usize..12,
            labels in 0usize..4,
            seed in any::<u64>(),
        ) {
            let d = random_ldigraph(n, labels, seed);
            let want = underlying_per_edge(&d);
            let got = d.underlying_simple();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.edge_count(), want.edge_count());
            // the raw row words and the edge list still agree with the slots
            for v in 0..n {
                for l in 0..=labels {
                    let raw = |x: Option<NodeId>| x.map_or(LDigraph::NONE, |u| u as u32);
                    prop_assert_eq!(d.out_raw(v, l), raw(d.out_neighbor(v, l)));
                    prop_assert_eq!(d.in_raw(v, l), raw(d.in_neighbor(v, l)));
                }
            }
            prop_assert_eq!(d.edges().count(), d.edge_count());
        }

        /// Random L-digraphs of mixed girth, with antiparallel pairs and
        /// parallel edges (2-cycles of the digraph that the underlying
        /// graph collapses), every root and bound.
        #[test]
        fn prop_cycle_near_root_matches_underlying_graph(
            n in 1usize..24,
            labels in 0usize..3,
            seed in any::<u64>(),
        ) {
            let d = random_ldigraph(n, labels, seed);
            let und = d.underlying_simple();
            for root in 0..n {
                for bound in 0..10 {
                    prop_assert_eq!(
                        d.cycle_near_root(root, bound),
                        und.cycle_near_root(root, bound),
                        "root {}, bound {}", root, bound
                    );
                }
            }
        }
    }
}
