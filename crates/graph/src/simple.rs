use crate::GraphError;

/// Index of a node in a [`Graph`]. Nodes are always `0..n`.
pub type NodeId = usize;

/// An undirected edge, stored with `min(u, v) <= max(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates a normalised edge with `u <= v`.
    pub fn new(a: NodeId, b: NodeId) -> Edge {
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The endpoint different from `x`; `None` if `x` is not an endpoint.
    pub fn other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// Whether `x` is one of the endpoints.
    pub fn touches(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }

    /// Whether the two edges share at least one endpoint.
    pub fn adjacent(&self, e: &Edge) -> bool {
        self.touches(e.u) || self.touches(e.v)
    }
}

/// A finite simple undirected graph with nodes `0..n`.
///
/// The adjacency is stored as compressed sparse rows: one `offsets` array
/// of length `n + 1` and one flat `targets` array of length `2m` holding
/// every node's neighbours, sorted, back to back. A neighbourhood scan is
/// one contiguous slice, iteration order is deterministic, and a graph of
/// `n` nodes costs two allocations however large it is. Self-loops and
/// parallel edges are rejected at construction time.
///
/// Build in bulk with [`Graph::from_edges`] (`O(m log m)`);
/// [`Graph::add_edge`] shifts the flat arrays and suits only small
/// incremental builds.
///
/// # Examples
///
/// ```
/// use locap_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// g.add_edge(2, 3).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 3));
/// assert_eq!(g, Graph::from_edges(4, &[(2, 3), (1, 0), (1, 2)]).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` spans `v`'s neighbours in `targets`.
    offsets: Vec<usize>,
    /// The sorted neighbour lists of nodes `0..n`, concatenated.
    targets: Vec<NodeId>,
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Graph {
        Graph { offsets: vec![0; n + 1], targets: Vec::new() }
    }

    /// Adopts flat rows that already meet the invariants: `offsets`
    /// starts at 0, is non-decreasing and ends at `targets.len()`, and
    /// every row is sorted, duplicate-free, loop-free and symmetric
    /// (`u` in `v`'s row iff `v` in `u`'s row).
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Graph {
        let g = Graph { offsets, targets };
        debug_assert!(
            g.offsets.first() == Some(&0)
                && g.offsets.last() == Some(&g.targets.len())
                && g.offsets.windows(2).all(|w| w[0] <= w[1])
        );
        debug_assert!(g.nodes().all(|v| {
            let row = g.neighbors(v);
            row.windows(2).all(|w| w[0] < w[1])
                && row.iter().all(|&u| u != v && u < g.node_count() && g.has_edge(u, v))
        }));
        g
    }

    /// Builds a graph from an edge list in `O(n + m log m)`: the edges
    /// are normalised and sorted once, and the sorted list fills the flat
    /// rows already in order.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops and duplicate edges,
    /// reporting the first offending edge in input order, exactly as a
    /// loop of [`Graph::add_edge`] calls would.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut sorted = Vec::with_capacity(edges.len());
        for (i, &(u, v)) in edges.iter().enumerate() {
            if let Err(e) = check_endpoints(n, u, v) {
                // a repeat earlier in the list fails first
                return Err(first_duplicate(&edges[..i]).unwrap_or(e));
            }
            sorted.push(Edge::new(u, v));
        }
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            if let Some(e) = first_duplicate(edges) {
                return Err(e);
            }
        }
        // in sorted order, node x first receives the edges {u, x} with
        // u < x (ascending u), then {x, v} with v > x (ascending v): each
        // row is written sorted
        let mut offsets = vec![0; n + 1];
        for e in &sorted {
            offsets[e.u + 1] += 1;
            offsets[e.v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0; 2 * sorted.len()];
        for e in &sorted {
            targets[next[e.u]] = e.v;
            next[e.u] += 1;
            targets[next[e.v]] = e.u;
            next[e.v] += 1;
        }
        Ok(Graph::from_csr_parts(offsets, targets))
    }

    /// Adds the undirected edge `{u, v}` in `O(n + m)`: both endpoints'
    /// rows grow in place, shifting the flat arrays behind them. Build
    /// large graphs with [`Graph::from_edges`] instead.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops and duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        check_endpoints(self.node_count(), u, v)?;
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.insert_target(u, v);
        self.insert_target(v, u);
        Ok(())
    }

    /// Inserts `v` into `u`'s sorted row.
    fn insert_target(&mut self, u: NodeId, v: NodeId) {
        let at = self.offsets[u] + self.neighbors(u).partition_point(|&x| x < v);
        self.targets.insert(at, v);
        for end in &mut self.offsets[u + 1..] {
            *end += 1;
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Every node's degree, in node order.
    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// The maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// The minimum degree (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Whether every node has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.degrees().all(|deg| deg == d)
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.node_count() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all edges in normalised, sorted order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| Edge { u, v })
        })
    }

    /// Collects all edges into a `Vec`.
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// The index of `u` within `v`'s sorted neighbour list.
    pub fn neighbor_index(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// The disjoint union of `self` and `other`; nodes of `other` are
    /// shifted by `self.node_count()`. `O(n + m)`: `other`'s rows are
    /// appended with their node ids shifted, which keeps them sorted.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let (shift, base) = (self.node_count(), self.targets.len());
        let mut offsets = self.offsets.clone();
        offsets.extend(other.offsets.iter().skip(1).map(|&o| base + o));
        let mut targets = self.targets.clone();
        targets.extend(other.targets.iter().map(|&u| shift + u));
        Graph::from_csr_parts(offsets, targets)
    }

    /// The subgraph induced by `keep` (which need not be sorted);
    /// returns the graph and the map `new index -> old index`.
    /// `O(n + m)`: renaming kept nodes in increasing order keeps every
    /// filtered row sorted.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut order: Vec<NodeId> = keep.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut pos = vec![usize::MAX; self.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &v in &order {
            targets.extend(self.neighbors(v).iter().map(|&u| pos[u]).filter(|&p| p != usize::MAX));
            offsets.push(targets.len());
        }
        (Graph::from_csr_parts(offsets, targets), order)
    }
}

/// The per-edge checks of [`Graph::add_edge`] short of duplication.
fn check_endpoints(n: usize, u: NodeId, v: NodeId) -> Result<(), GraphError> {
    if u >= n {
        return Err(GraphError::NodeOutOfRange { node: u, n });
    }
    if v >= n {
        return Err(GraphError::NodeOutOfRange { node: v, n });
    }
    if u == v {
        return Err(GraphError::SelfLoop { node: u });
    }
    Ok(())
}

/// The [`GraphError::DuplicateEdge`] of the first edge in `edges` that
/// repeats an earlier one, if any.
fn first_duplicate(edges: &[(NodeId, NodeId)]) -> Option<GraphError> {
    let mut keyed: Vec<(Edge, usize)> =
        edges.iter().enumerate().map(|(i, &(u, v))| (Edge::new(u, v), i)).collect();
    keyed.sort_unstable();
    let i = keyed.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[1].1).min()?;
    let (u, v) = edges[i];
    Some(GraphError::DuplicateEdge { u, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-edge reference `from_edges` replaced: one checked
    /// `add_edge` per listed edge, stopping at the first error.
    fn from_edges_per_edge(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    proptest! {
        /// Endpoints drawn from `0..n + 2` over few nodes give
        /// out-of-range endpoints, self-loops and repeats (in both
        /// orientations) at every position of the list.
        #[test]
        fn prop_bulk_from_edges_matches_per_edge_builder(
            n in 0usize..10,
            edges in prop::collection::vec((0usize..12, 0usize..12), 0usize..40),
        ) {
            let edges: Vec<(NodeId, NodeId)> =
                edges.into_iter().map(|(u, v)| (u % (n + 2), v % (n + 2))).collect();
            prop_assert_eq!(Graph::from_edges(n, &edges), from_edges_per_edge(n, &edges));
            // the valid prefix before the first error builds the same graph both ways
            let ok = (0..=edges.len())
                .rev()
                .find(|&i| from_edges_per_edge(n, &edges[..i]).is_ok())
                .unwrap_or(0);
            let g = Graph::from_edges(n, &edges[..ok]).unwrap();
            prop_assert_eq!(&g, &from_edges_per_edge(n, &edges[..ok]).unwrap());
            prop_assert_eq!(g.edge_count(), ok);
            prop_assert!(g.edges().all(|e| g.has_edge(e.v, e.u)));
        }
    }

    #[test]
    fn from_edges_reports_the_first_error_in_input_order() {
        let dup_then_loop = [(0, 1), (2, 1), (1, 0), (2, 2)];
        assert_eq!(
            Graph::from_edges(3, &dup_then_loop),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        let loop_then_dup = [(0, 1), (2, 2), (1, 0)];
        assert_eq!(Graph::from_edges(3, &loop_then_dup), Err(GraphError::SelfLoop { node: 2 }));
        let range_then_dup = [(1, 2), (0, 5), (2, 1)];
        assert_eq!(
            Graph::from_edges(3, &range_then_dup),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
        // of two repeated edges, the one whose repeat comes first is reported
        let two_repeats = [(0, 1), (1, 2), (2, 1), (1, 0)];
        assert_eq!(
            Graph::from_edges(3, &two_repeats),
            Err(GraphError::DuplicateEdge { u: 2, v: 1 })
        );
    }

    #[test]
    fn edge_normalisation_and_helpers() {
        let e = Edge::new(5, 2);
        assert_eq!((e.u, e.v), (2, 5));
        assert_eq!(e.other(2), Some(5));
        assert_eq!(e.other(5), Some(2));
        assert_eq!(e.other(7), None);
        assert!(e.touches(2) && e.touches(5) && !e.touches(3));
        assert!(e.adjacent(&Edge::new(5, 9)));
        assert!(!e.adjacent(&Edge::new(3, 9)));
    }

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_regular(2));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbor_index(0, 3), Some(1));
        assert_eq!(g.neighbor_index(0, 2), None);
        let edges = g.edge_vec();
        assert_eq!(edges.len(), 4);
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "sorted edge iteration");
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(3);
        assert_eq!(g.add_edge(0, 3), Err(GraphError::NodeOutOfRange { node: 3, n: 3 }));
        assert_eq!(g.add_edge(3, 0), Err(GraphError::NodeOutOfRange { node: 3, n: 3 }));
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.add_edge(1, 0), Err(GraphError::DuplicateEdge { u: 1, v: 0 }));
    }

    #[test]
    fn disjoint_union() {
        let a = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let b = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.node_count(), 5);
        assert_eq!(u.edge_count(), 3);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 3));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(1, 2));
    }

    #[test]
    fn induced_subgraph() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (h, map) = g.induced_subgraph(&[4, 0, 1]);
        assert_eq!(map, vec![0, 1, 4]);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2); // {0,1} and {4,0}
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(0, 2));
        assert!(!h.has_edge(1, 2));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edge_vec().len(), 0);
    }
}
