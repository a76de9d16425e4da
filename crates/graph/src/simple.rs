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
/// Adjacency lists are kept sorted, so iteration order is deterministic.
/// Self-loops and parallel edges are rejected at construction time.
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
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    m: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Graph {
        Graph { adj: vec![Vec::new(); n], m: 0 }
    }

    /// Adopts adjacency rows that are already sorted, duplicate-free,
    /// loop-free and symmetric (`u ∈ adj[v] ⟺ v ∈ adj[u]`); the caller
    /// guarantees the invariants [`Graph::add_edge`] would check.
    pub(crate) fn from_sorted_rows(adj: Vec<Vec<NodeId>>) -> Graph {
        debug_assert!(adj.iter().enumerate().all(|(v, row)| {
            row.windows(2).all(|w| w[0] < w[1])
                && row
                    .iter()
                    .all(|&u| u != v && adj.get(u).is_some_and(|r| r.binary_search(&v).is_ok()))
        }));
        let m = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Graph { adj, m }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops and duplicate edges.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops and duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.node_count();
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let pos_u = self.adj[u].partition_point(|&x| x < v);
        self.adj[u].insert(pos_u, v);
        let pos_v = self.adj[v].partition_point(|&x| x < u);
        self.adj[v].insert(pos_v, u);
        self.m += 1;
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// The maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The minimum degree (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Whether every node has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.adj.iter().all(|a| a.len() == d)
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.node_count() && self.adj[u].binary_search(&v).is_ok()
    }

    /// Iterates over all edges in normalised, sorted order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter().filter(move |&&v| u < v).map(move |&v| Edge::new(u, v))
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
        self.adj[v].binary_search(&u).ok()
    }

    /// Flattens the adjacency into a [`crate::CsrGraph`] for hot loops
    /// (one contiguous `u32` slice per neighbourhood scan).
    pub fn to_csr(&self) -> crate::CsrGraph {
        crate::CsrGraph::from_graph(self)
    }

    /// The disjoint union of `self` and `other`; nodes of `other` are
    /// shifted by `self.node_count()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let off = self.node_count();
        let mut g = Graph::new(off + other.node_count());
        for e in self.edges() {
            g.add_edge(e.u, e.v).expect("valid by construction");
        }
        for e in other.edges() {
            g.add_edge(e.u + off, e.v + off).expect("valid by construction");
        }
        g
    }

    /// The subgraph induced by `keep` (which need not be sorted);
    /// returns the graph and the map `new index -> old index`.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut order: Vec<NodeId> = keep.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut pos = vec![usize::MAX; self.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        let mut g = Graph::new(order.len());
        for &v in &order {
            for &u in self.neighbors(v) {
                if v < u && pos[u] != usize::MAX {
                    g.add_edge(pos[v], pos[u]).expect("valid by construction");
                }
            }
        }
        (g, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
