//! BFS balls, distances, girth, connectivity — the metric structure used to
//! extract radius-`r` neighbourhoods τ(G, v) (paper §2.2).

use std::collections::{HashMap, VecDeque};

use crate::{Graph, NodeBitset, NodeId};

impl Graph {
    /// Distances from `src` up to `radius` (`None` beyond the radius or
    /// unreachable). `radius = usize::MAX` computes full BFS distances.
    pub fn distances_from(&self, src: NodeId, radius: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.node_count()];
        let mut q = VecDeque::new();
        dist[src] = Some(0);
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            let d = dist[v].expect("queued nodes have distances");
            if d == radius {
                continue;
            }
            for &u in self.neighbors(v) {
                if dist[u].is_none() {
                    dist[u] = Some(d + 1);
                    q.push_back(u);
                }
            }
        }
        dist
    }

    /// The radius-`r` ball `B_G(v, r)` as a sorted vertex list (paper §2.2).
    ///
    /// ```
    /// use locap_graph::gen;
    /// let g = gen::cycle(8);
    /// assert_eq!(g.ball(0, 2), vec![0, 1, 2, 6, 7]);
    /// ```
    pub fn ball(&self, v: NodeId, r: usize) -> Vec<NodeId> {
        let dist = self.distances_from(v, r);
        (0..self.node_count()).filter(|&u| dist[u].is_some()).collect()
    }

    /// Exact distance between two nodes, if connected.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.distances_from(u, usize::MAX)[v]
    }

    /// The radius-`r` ball as a sorted vertex list, computed with a
    /// truncated BFS over a [`NodeBitset`] membership set — touched-word
    /// bookkeeping keeps the work proportional to the ball, not to `n`.
    pub fn ball_local(&self, v: NodeId, r: usize) -> Vec<NodeId> {
        let mut seen = NodeBitset::new(self.node_count());
        let mut q: VecDeque<(NodeId, usize)> = VecDeque::new();
        let mut out = vec![v];
        seen.insert(v);
        q.push_back((v, 0));
        while let Some((x, d)) = q.pop_front() {
            if d == r {
                continue;
            }
            for &u in self.neighbors(x) {
                if seen.insert(u) {
                    out.push(u);
                    q.push_back((u, d + 1));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether some cycle of length ≤ `bound` passes near `root`
    /// (detected by a single truncated BFS). For **vertex-transitive**
    /// graphs, `!cycle_near_root(root, bound)` for any one root implies
    /// `girth > bound`; this is the `O(|ball|)` girth check used on large
    /// Cayley graphs. Distances live in a map over the ball, so a
    /// spot-check sweep over many roots of a large lift costs nothing per
    /// call in `n`.
    pub fn cycle_near_root(&self, root: NodeId, bound: usize) -> bool {
        cycle_near(root, bound, |v, row| {
            row.clear();
            row.extend_from_slice(self.neighbors(v));
        })
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        self.distances_from(0, usize::MAX).iter().all(Option::is_some)
    }

    /// Connected components as sorted vertex lists, ordered by smallest node.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::new();
            seen[s] = true;
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                comp.push(v);
                for &u in self.neighbors(v) {
                    if !seen[u] {
                        seen[u] = true;
                        q.push_back(u);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// The girth (length of a shortest cycle), or `None` for forests.
    ///
    /// Runs a BFS from every vertex and detects the first non-tree edge;
    /// exact for simple graphs. `O(n · m)`.
    ///
    /// ```
    /// use locap_graph::gen;
    /// assert_eq!(gen::cycle(9).girth(), Some(9));
    /// assert_eq!(gen::complete(4).girth(), Some(3));
    /// assert_eq!(gen::path(9).girth(), None);
    /// ```
    pub fn girth(&self) -> Option<usize> {
        let n = self.node_count();
        let mut best: Option<usize> = None;
        for s in 0..n {
            // BFS from s; a non-tree edge {v, u} (u already visited, u is not
            // v's BFS parent) closes a cycle of length dist[v] + dist[u] + 1
            // through s. The minimum over all roots is exact.
            let mut dist = vec![usize::MAX; n];
            let mut parent = vec![usize::MAX; n];
            let mut q = VecDeque::new();
            dist[s] = 0;
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                if let Some(b) = best {
                    // Cycles through s found from deeper layers cannot be
                    // shorter than 2*dist[v], so we can prune.
                    if 2 * dist[v] >= b {
                        break;
                    }
                }
                for &u in self.neighbors(v) {
                    if dist[u] == usize::MAX {
                        dist[u] = dist[v] + 1;
                        parent[u] = v;
                        q.push_back(u);
                    } else if parent[v] != u {
                        let len = dist[v] + dist[u] + 1;
                        if best.is_none_or(|b| len < b) {
                            best = Some(len);
                        }
                    }
                }
            }
        }
        best
    }

    /// The diameter of a connected graph; `None` if disconnected or empty.
    pub fn diameter(&self) -> Option<usize> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let mut best = 0usize;
        for s in 0..n {
            let dist = self.distances_from(s, usize::MAX);
            for d in &dist {
                match d {
                    None => return None,
                    Some(x) => best = best.max(*x),
                }
            }
        }
        Some(best)
    }
}

/// The truncated BFS behind [`Graph::cycle_near_root`] and
/// [`crate::LDigraph::cycle_near_root`]: `row(v, buf)` overwrites `buf`
/// with `v`'s neighbours.
pub(crate) fn cycle_near(
    root: NodeId,
    bound: usize,
    mut row: impl FnMut(NodeId, &mut Vec<NodeId>),
) -> bool {
    let half = bound / 2 + 1;
    let mut dist: HashMap<NodeId, usize> = HashMap::from([(root, 0)]);
    // (node, its distance, its BFS parent)
    let mut q = VecDeque::from([(root, 0, NodeId::MAX)]);
    let mut neighbors = Vec::new();
    while let Some((v, dv, parent)) = q.pop_front() {
        if dv >= half {
            continue;
        }
        row(v, &mut neighbors);
        for &u in &neighbors {
            match dist.get(&u) {
                None => {
                    dist.insert(u, dv + 1);
                    q.push_back((u, dv + 1, v));
                }
                Some(&du) if parent != u && dv + du < bound => return true,
                Some(_) => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::gen;
    use crate::Graph;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The dense-array BFS `cycle_near_root` replaced: `dist` and `parent`
    /// arrays of length `n` per call.
    fn cycle_near_root_dense(g: &Graph, root: usize, bound: usize) -> bool {
        let half = bound / 2 + 1;
        let n = g.node_count();
        let mut dist = vec![u32::MAX; n];
        let mut parent = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        dist[root] = 0;
        q.push_back(root);
        while let Some(v) = q.pop_front() {
            let dv = dist[v] as usize;
            if dv >= half {
                continue;
            }
            for &u in g.neighbors(v) {
                if dist[u] == u32::MAX {
                    dist[u] = (dv + 1) as u32;
                    parent[u] = v as u32;
                    q.push_back(u);
                } else if parent[v] != u as u32 && dv + (dist[u] as usize) < bound {
                    return true;
                }
            }
        }
        false
    }

    proptest! {
        /// Sparse random graphs of mixed girth, every root and bound.
        #[test]
        fn prop_cycle_near_root_matches_dense_bfs(
            n in 1usize..24,
            pairs in prop::collection::vec((0usize..24, 0usize..24), 0usize..40),
        ) {
            let mut g = Graph::new(n);
            for (u, v) in pairs {
                let _ = g.add_edge(u, v);
            }
            for root in 0..n {
                for bound in 0..10 {
                    prop_assert_eq!(
                        g.cycle_near_root(root, bound),
                        cycle_near_root_dense(&g, root, bound),
                        "root {}, bound {}", root, bound
                    );
                }
            }
        }
    }

    #[test]
    fn distances_and_balls() {
        let g = gen::cycle(10);
        let d = g.distances_from(0, usize::MAX);
        assert_eq!(d[5], Some(5));
        assert_eq!(d[9], Some(1));
        let d2 = g.distances_from(0, 2);
        assert_eq!(d2[2], Some(2));
        assert_eq!(d2[3], None);
        assert_eq!(g.ball(0, 1), vec![0, 1, 9]);
        assert_eq!(g.distance(0, 5), Some(5));
    }

    #[test]
    fn disconnected_distance() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.distance(0, 2), None);
        assert!(!g.is_connected());
        assert_eq!(g.components(), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn girth_cycles_and_cliques() {
        for n in 3..12 {
            assert_eq!(gen::cycle(n).girth(), Some(n), "cycle C_{n}");
        }
        assert_eq!(gen::complete(3).girth(), Some(3));
        assert_eq!(gen::complete(5).girth(), Some(3));
        assert_eq!(gen::complete_bipartite(2, 2).girth(), Some(4));
        assert_eq!(gen::complete_bipartite(3, 3).girth(), Some(4));
        assert_eq!(gen::path(6).girth(), None);
        assert_eq!(gen::star(5).girth(), None);
        assert_eq!(gen::petersen().girth(), Some(5));
        assert_eq!(gen::hypercube(3).girth(), Some(4));
    }

    /// `cycle_near_root` is false at every root exactly when the girth
    /// exceeds the bound, on vertex-transitive graphs and on a path.
    #[test]
    fn girth_exceeds_matches_girth() {
        let cases = [gen::cycle(7), gen::complete(5), gen::petersen(), gen::path(5)];
        for g in &cases {
            for bound in 0..12 {
                let girth_exceeds = g.girth().is_none_or(|gi| gi > bound);
                let no_short_cycle = (0..g.node_count()).all(|v| !g.cycle_near_root(v, bound));
                assert_eq!(no_short_cycle, girth_exceeds, "bound {bound}");
            }
        }
    }

    #[test]
    fn diameter_examples() {
        assert_eq!(gen::cycle(10).diameter(), Some(5));
        assert_eq!(gen::path(5).diameter(), Some(4));
        assert_eq!(gen::complete(6).diameter(), Some(1));
        assert_eq!(gen::petersen().diameter(), Some(2));
    }

    #[test]
    fn ball_local_matches_ball() {
        for g in [gen::cycle(12), gen::petersen(), gen::hypercube(4), gen::grid(4, 5)] {
            for v in [0usize, 3, 7] {
                for r in 0..4 {
                    assert_eq!(g.ball_local(v, r), g.ball(v, r), "v={v}, r={r}");
                }
            }
        }
    }

    #[test]
    fn cycle_near_root_on_transitive_graphs() {
        // On vertex-transitive graphs the one-root check matches girth.
        let cases = [(gen::cycle(9), 9usize), (gen::petersen(), 5), (gen::hypercube(3), 4)];
        for (g, girth) in cases {
            for bound in 0..12 {
                assert_eq!(
                    g.cycle_near_root(0, bound),
                    bound >= girth,
                    "girth {girth}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn girth_two_triangles_sharing_vertex() {
        // girth must find the 3-cycle even with overlapping cycles
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(g.girth(), Some(3));
    }
}
