//! The one read interface the neighbourhood extractors and the OI/ID
//! runs take, so that they read a [`Graph`]'s CSR rows or an
//! [`LDigraph`](crate::LDigraph)'s label rows in place, without building
//! a copy; `LDigraph`'s impl sits beside its rows, in `digraph.rs`.

use crate::{Graph, NodeId};

/// A graph's undirected adjacency: its node count, and each node's
/// neighbours, repeats allowed.
///
/// [`Graph`] yields its CSR row, sorted and without repeats.
/// [`LDigraph`](crate::LDigraph) yields its out-row, then its in-row,
/// skipping [`LDigraph::NONE`](crate::LDigraph::NONE): the
/// neighbours of its underlying simple graph, where a neighbour joined
/// by an antiparallel pair or by parallel edges of distinct labels comes
/// once per edge. Readers that need each neighbour once mark it (a BFS)
/// or sort and dedup.
pub trait Adjacency {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Calls `f` on each neighbour of `v`, a node below
    /// [`Adjacency::node_count`].
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId));
}

impl Adjacency for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId)) {
        self.neighbors(v).iter().copied().for_each(f);
    }
}
