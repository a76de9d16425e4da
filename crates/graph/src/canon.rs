//! Canonical encodings of radius-`r` neighbourhoods.
//!
//! The paper compares neighbourhoods up to isomorphism in three flavours:
//!
//! * τ(G, v) with unique identifiers (**ID**, §2.3) — the identifiers make
//!   the structure rigid, so sorting vertices by identifier yields a
//!   canonical form ([`IdNbhd`]);
//! * τ(G, <, v) with a linear order (**OI**, §2.4) — an order-preserving
//!   isomorphism between two ordered neighbourhoods is unique if it exists
//!   (it must match the `i`-th smallest vertex with the `i`-th smallest),
//!   so sorting vertices by the order again yields a canonical form
//!   ([`OrderedNbhd`], [`OrderedLNbhd`]);
//! * port-numbered views (**PO**, §2.5) — trees, canonicalised in
//!   `locap-lifts`.
//!
//! In every case, **isomorphism is exactly equality of the canonical
//! encodings**, so no search is involved.
//!
//! # Packed keys and interning
//!
//! Each canonical form has a flat `u64` *key* encoding, written by the
//! `*_key_into` extractors with no allocation beyond the caller's reused
//! buffers. Keys preserve equality exactly (`key(a) == key(b)` iff the
//! structs are equal — the layouts below are injective), so hot paths
//! intern keys into a [`KeyInterner`] and compare dense integer ids
//! instead of hashing owned structs; [`OrderedNbhd::from_key`] and
//! friends decode a key back when the algorithm needs the struct, and
//! [`OrderedLNbhd::to_key`] encodes a struct to compare against keys.
//!
//! Layouts (`n` = ball size, `root` = centre position):
//!
//! * [`OrderedNbhd`] — `(n << 32) | root`, then one word `(i << 32) | j`
//!   per induced edge, ascending;
//! * [`IdNbhd`] — `(n << 32) | root`, then the `n` identifier values,
//!   then the packed edges;
//! * [`OrderedLNbhd`] — `(n << 32) | root`, then two words per directed
//!   labelled edge, `(from << 32) | to` followed by `label`, ascending.

use crate::{par, Adjacency, Graph, KeyInterner, LDigraph, NodeId};
use locap_lint::hot;
use locap_obs as obs;

/// A node→position index over a ball: pairs `(node, position)` sorted by
/// node, answering lookups by binary search. Replaces the fresh
/// `HashMap` (and the `O(|ball|)` `position` scans) the naive extractors
/// used to rebuild per call.
fn position_index(ball: &[NodeId]) -> Vec<(NodeId, u32)> {
    let mut ix: Vec<(NodeId, u32)> = ball.iter().enumerate().map(|(i, &u)| (u, i as u32)).collect();
    ix.sort_unstable();
    ix
}

/// The position of `u` in the ball behind `ix`, if present.
fn position_of(ix: &[(NodeId, u32)], u: NodeId) -> Option<u32> {
    ix.binary_search_by_key(&u, |&(node, _)| node).ok().map(|i| ix[i].1)
}

/// Canonical form of an *ordered* radius-`r` neighbourhood τ(G, <, v) of an
/// undirected graph.
///
/// Vertices of the ball are renamed `0..n` in increasing order; `root` is
/// the new name of the centre; `edges` lists all edges of the induced
/// subgraph (normalised `(i, j)` with `i < j`, sorted). Two ordered
/// neighbourhoods are isomorphic iff their canonical forms are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderedNbhd {
    /// Number of vertices in the ball.
    pub n: u32,
    /// Position of the centre vertex in the sorted ball.
    pub root: u32,
    /// Induced edges between sorted-ball positions, `(i, j)` with `i < j`.
    pub edges: Vec<(u32, u32)>,
}

impl OrderedNbhd {
    /// Decodes a packed key written by [`ordered_key_into`] — the inverse
    /// of the encoding, so `from_key(key(t)) == t`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (every valid key has a header word).
    pub fn from_key(key: &[u64]) -> OrderedNbhd {
        let head = key[0];
        OrderedNbhd {
            n: (head >> 32) as u32,
            root: head as u32,
            edges: key[1..].iter().map(|&w| ((w >> 32) as u32, w as u32)).collect(),
        }
    }
}

/// Computes the canonical ordered neighbourhood τ(G, <, v) of radius `r`.
///
/// `rank[u]` must be the position of `u` in the linear order (see
/// [`crate::OrderedGraph`]).
///
/// # Examples
///
/// ```
/// use locap_graph::{canon, gen};
///
/// let g = gen::cycle(8);
/// let rank: Vec<usize> = (0..8).collect();
/// // interior nodes 2..=5 all have the same ordered 1-neighbourhood type
/// let t3 = canon::ordered_nbhd(&g, &rank, 3, 1);
/// let t4 = canon::ordered_nbhd(&g, &rank, 4, 1);
/// assert_eq!(t3, t4);
/// // ...but node 0 sees the "seam" (its neighbours are 1 and 7)
/// let t0 = canon::ordered_nbhd(&g, &rank, 0, 1);
/// assert_ne!(t0, t3);
/// ```
pub fn ordered_nbhd(g: &Graph, rank: &[usize], v: NodeId, r: usize) -> OrderedNbhd {
    let mut ball = g.ball_local(v, r);
    ball.sort_by_key(|&u| rank[u]);
    let ix = position_index(&ball);
    let root = position_of(&ix, v).unwrap_or(0);
    let mut edges = Vec::new();
    for (i, &a) in ball.iter().enumerate() {
        for &b in g.neighbors(a) {
            if let Some(j) = position_of(&ix, b) {
                if (i as u32) < j {
                    edges.push((i as u32, j));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    OrderedNbhd { n: ball.len() as u32, root, edges }
}

/// Canonical form of an ordered radius-`r` neighbourhood of an
/// [`LDigraph`]: like [`OrderedNbhd`] but edges are directed and labelled.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderedLNbhd {
    /// Number of vertices in the ball.
    pub n: u32,
    /// Position of the centre vertex in the sorted ball.
    pub root: u32,
    /// Induced directed labelled edges `(from, to, label)` between
    /// sorted-ball positions, sorted.
    pub edges: Vec<(u32, u32, u32)>,
}

impl OrderedLNbhd {
    /// Decodes a packed key written by [`ordered_lkey_into`].
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a tail that is not whole two-word
    /// edge records.
    pub fn from_key(key: &[u64]) -> OrderedLNbhd {
        let head = key[0];
        OrderedLNbhd {
            n: (head >> 32) as u32,
            root: head as u32,
            edges: key[1..]
                .chunks_exact(2)
                .map(|pair| ((pair[0] >> 32) as u32, pair[0] as u32, pair[1] as u32))
                .collect(),
        }
    }

    /// Encodes the struct as the packed key [`ordered_lkey_into`] writes
    /// for it — the inverse of [`OrderedLNbhd::from_key`], so comparing a
    /// vertex's key against this one compares the neighbourhoods without
    /// decoding.
    pub fn to_key(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(1 + 2 * self.edges.len());
        key.push(((self.n as u64) << 32) | self.root as u64);
        for &(from, to, label) in &self.edges {
            key.push(((from as u64) << 32) | to as u64);
            key.push(label as u64);
        }
        key
    }
}

/// Computes the canonical ordered neighbourhood of `v` in an L-digraph,
/// where distance is measured in the underlying undirected graph.
pub fn ordered_lnbhd(d: &LDigraph, rank: &[usize], v: NodeId, r: usize) -> OrderedLNbhd {
    let und = d.underlying_simple();
    ordered_lnbhd_in(d, &und, rank, v, r)
}

/// Like [`ordered_lnbhd`] but with a precomputed underlying graph and a
/// local-BFS ball: `O(|ball| log |ball|)` per call, for exact censuses
/// over large graphs.
pub fn ordered_lnbhd_in(
    d: &LDigraph,
    und: &Graph,
    rank: &[usize],
    v: NodeId,
    r: usize,
) -> OrderedLNbhd {
    let mut ball = und.ball_local(v, r);
    ball.sort_by_key(|&u| rank[u]);
    let ix = position_index(&ball);
    let root = position_of(&ix, v).expect("centre is in its ball");
    let mut edges = Vec::new();
    for (i, &a) in ball.iter().enumerate() {
        for e in d.out_edges(a) {
            if let Some(j) = position_of(&ix, e.to) {
                edges.push((i as u32, j, e.label as u32));
            }
        }
    }
    edges.sort_unstable();
    OrderedLNbhd { n: ball.len() as u32, root, edges }
}

/// Canonical form of an **ID**-model radius-`r` neighbourhood τ(G, v):
/// the ball sorted by identifier, with the identifier values retained.
///
/// Two ID neighbourhoods are equal iff there is an isomorphism preserving
/// the identifiers — which, identifiers being unique, is unique and must
/// match sorted positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdNbhd {
    /// Identifier values in increasing order.
    pub ids: Vec<u64>,
    /// Position of the centre vertex in the sorted ball.
    pub root: u32,
    /// Induced edges between sorted-ball positions, `(i, j)` with `i < j`.
    pub edges: Vec<(u32, u32)>,
}

impl IdNbhd {
    /// Forgets the identifier *values*, keeping only their relative order:
    /// the canonical ordered neighbourhood seen by an OI algorithm. This is
    /// the collapse at the heart of the ID = OI step (paper §4.2).
    pub fn order_collapse(&self) -> OrderedNbhd {
        OrderedNbhd { n: self.ids.len() as u32, root: self.root, edges: self.edges.clone() }
    }

    /// Replaces the identifier values by images under an order-preserving
    /// map `f` (must be strictly increasing on the current values).
    pub fn relabel(&self, f: impl Fn(u64) -> u64) -> IdNbhd {
        let ids: Vec<u64> = self.ids.iter().map(|&x| f(x)).collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "relabelling must preserve order");
        IdNbhd { ids, root: self.root, edges: self.edges.clone() }
    }

    /// Decodes a packed key written by [`id_key_into`].
    ///
    /// # Panics
    ///
    /// Panics when the slice is shorter than its header's ball size
    /// promises.
    pub fn from_key(key: &[u64]) -> IdNbhd {
        let head = key[0];
        let n = (head >> 32) as usize;
        IdNbhd {
            ids: key[1..1 + n].to_vec(),
            root: head as u32,
            edges: key[1 + n..].iter().map(|&w| ((w >> 32) as u32, w as u32)).collect(),
        }
    }
}

/// Computes the canonical ID neighbourhood τ(G, v) of radius `r` given the
/// identifier assignment `ids[u]`.
///
/// # Panics
///
/// Panics (in debug builds) if identifiers in the ball are not distinct.
pub fn id_nbhd(g: &Graph, ids: &[u64], v: NodeId, r: usize) -> IdNbhd {
    let mut ball = g.ball_local(v, r);
    ball.sort_by_key(|&u| ids[u]);
    debug_assert!(ball.windows(2).all(|w| ids[w[0]] != ids[w[1]]), "identifiers must be unique");
    let ix = position_index(&ball);
    let root = position_of(&ix, v).unwrap_or(0);
    let mut edges = Vec::new();
    for (i, &a) in ball.iter().enumerate() {
        for &b in g.neighbors(a) {
            if let Some(j) = position_of(&ix, b) {
                if (i as u32) < j {
                    edges.push((i as u32, j));
                }
            }
        }
    }
    edges.sort_unstable();
    IdNbhd { ids: ball.iter().map(|&u| ids[u]).collect(), root, edges }
}

/// Reusable workspace for the `*_key_into` canonical-form extractors:
/// one `u32` mark per node, which says both whether a node is in the
/// current ball and where it sits in the sorted ball, plus the ball
/// itself. Each call costs `O(|ball| log |ball| + |induced edges|)` and
/// allocates nothing beyond the output once the buffers have grown to
/// the graph (the naive paths pay a fresh position index per call).
///
/// `u` is in the current ball iff `mark[u] >= base`, at position
/// `mark[u] - base`. Each ball moves `base` past the previous one, so
/// every older mark falls below it and nothing is cleared per call; the
/// marks are cleared once, and `base` restarts at 1, before `base + n`
/// could pass `u32::MAX`. Per node of the largest graph it has served,
/// the scratch holds 4 B.
///
/// One scratch serves one thread; parallel censuses give each worker its
/// own (see [`ordered_type_census`]).
#[derive(Debug)]
pub struct NbhdScratch {
    /// Ball membership and sorted position, relative to `base`.
    mark: Vec<u32>,
    /// The mark of position 0 in the current ball; never 0, the mark of
    /// a node no ball has reached.
    base: u32,
    /// The current ball: its BFS queue while it is collected, then the
    /// nodes in key order.
    ball: Vec<NodeId>,
    /// Reused buffer for sorted directed labelled edges.
    ledge_buf: Vec<(u32, u32, u32)>,
}

impl Default for NbhdScratch {
    fn default() -> NbhdScratch {
        NbhdScratch { mark: Vec::new(), base: 1, ball: Vec::new(), ledge_buf: Vec::new() }
    }
}

impl NbhdScratch {
    /// Creates an empty scratch; buffers grow to the graph size on first
    /// use.
    pub fn new() -> NbhdScratch {
        NbhdScratch::default()
    }

    /// Starts the key of `v`'s radius-`r` neighbourhood in `g`: collects
    /// the ball by a BFS, level by level over `ball` itself, whose
    /// repeated neighbours the marks absorb; sorts it by `(order(u), u)`;
    /// marks each node with its position; and leaves the header word
    /// `(|ball| << 32) | root` as `key`'s one word.
    #[hot]
    fn start_key<K: Ord>(
        &mut self,
        g: &impl Adjacency,
        v: NodeId,
        r: usize,
        order: impl Fn(NodeId) -> K,
        key: &mut Vec<u64>,
    ) {
        let n = g.node_count();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        // a ball of at most n nodes takes the marks base..base + n
        let next = u64::from(self.base) + self.ball.len() as u64;
        if next + n as u64 > u64::from(u32::MAX) {
            self.mark.fill(0);
            self.base = 1;
        } else {
            self.base = next as u32;
        }
        let base = self.base;
        self.ball.clear();
        self.ball.push(v);
        self.mark[v] = base;
        // ball[start..end] is the current BFS level
        let (mut start, mut end) = (0, 1);
        for _ in 0..r {
            for i in start..end {
                let x = self.ball[i];
                g.for_each_neighbor(x, |u| {
                    if self.mark[u] < base {
                        self.mark[u] = base;
                        self.ball.push(u);
                    }
                });
            }
            (start, end) = (end, self.ball.len());
        }
        // by node, then stably by order, so ties in `order` keep node
        // order; where node order already is `order` (an identity rank)
        // the second sort is one pass, and one `(order, node)` sort was
        // slower there
        self.ball.sort_unstable();
        self.ball.sort_by_key(|&u| order(u));
        for (i, &u) in self.ball.iter().enumerate() {
            self.mark[u] = base + i as u32;
        }
        key.clear();
        key.push(((self.ball.len() as u64) << 32) | u64::from(self.mark[v] - base));
    }
}

/// Writes the packed key of τ(G, <, v) into `key` (clearing it first):
/// the canonical content of [`ordered_nbhd`] with no allocation beyond
/// the reused buffers. `OrderedNbhd::from_key(key)` recovers the struct.
///
/// `g` is a [`Graph`] or an [`LDigraph`], read in place: on an
/// L-digraph the key is that of its underlying simple graph. `rank` is
/// any totally ordered type (a lift's `u32` rank, a `usize` one): only
/// its order matters.
#[hot]
pub fn ordered_key_into<R: Copy + Ord>(
    g: &impl Adjacency,
    rank: &[R],
    v: NodeId,
    r: usize,
    scratch: &mut NbhdScratch,
    key: &mut Vec<u64>,
) {
    scratch.start_key(g, v, r, |u| rank[u], key);
    push_undirected_edges(g, scratch, key, 1);
}

/// Writes the packed key of the ID neighbourhood τ(G, v) into `key`;
/// `IdNbhd::from_key(key)` recovers the struct. `g` is read in place as
/// in [`ordered_key_into`].
///
/// # Panics
///
/// Panics (in debug builds) if identifiers in the ball are not distinct.
#[hot]
pub fn id_key_into(
    g: &impl Adjacency,
    ids: &[u64],
    v: NodeId,
    r: usize,
    scratch: &mut NbhdScratch,
    key: &mut Vec<u64>,
) {
    scratch.start_key(g, v, r, |u| ids[u], key);
    debug_assert!(
        scratch.ball.windows(2).all(|w| ids[w[0]] != ids[w[1]]),
        "identifiers must be unique"
    );
    key.extend(scratch.ball.iter().map(|&u| ids[u]));
    let start = key.len();
    push_undirected_edges(g, scratch, key, start);
}

/// Appends the induced undirected edges of the current ball as packed
/// `(i << 32) | j` words, sorted and distinct; `start` is where the edge
/// section of `key` starts.
#[hot]
fn push_undirected_edges(
    g: &impl Adjacency,
    scratch: &NbhdScratch,
    key: &mut Vec<u64>,
    start: usize,
) {
    let base = scratch.base;
    for (i, &a) in scratch.ball.iter().enumerate() {
        g.for_each_neighbor(a, |b| {
            let m = scratch.mark[b];
            if m >= base && i < (m - base) as usize {
                key.push(((i as u64) << 32) | u64::from(m - base));
            }
        });
    }
    key[start..].sort_unstable();
    // an L-digraph yields a neighbour once per edge, so an antiparallel
    // pair or parallel edges of distinct labels record one induced edge
    // more than once (on a `Graph` each is recorded once, from its lower
    // end): keep one of each
    let mut w = start;
    for i in start..key.len() {
        if i == start || key[i] != key[w - 1] {
            key[w] = key[i];
            w += 1;
        }
    }
    key.truncate(w);
}

/// Writes the packed key of the ordered L-digraph neighbourhood into
/// `key`, with the ball taken in `d`'s underlying undirected graph read
/// from `d`'s own rows. `OrderedLNbhd::from_key(key)` recovers the
/// struct.
#[hot]
pub fn ordered_lkey_into(
    d: &LDigraph,
    rank: &[usize],
    v: NodeId,
    r: usize,
    scratch: &mut NbhdScratch,
    key: &mut Vec<u64>,
) {
    scratch.start_key(d, v, r, |u| rank[u], key);
    let base = scratch.base;
    let mut edges = std::mem::take(&mut scratch.ledge_buf);
    edges.clear();
    for (i, &a) in scratch.ball.iter().enumerate() {
        for e in d.out_edges(a) {
            let m = scratch.mark[e.to];
            if m >= base {
                edges.push((i as u32, m - base, e.label as u32));
            }
        }
    }
    edges.sort_unstable();
    for &(from, to, label) in &edges {
        key.push(((from as u64) << 32) | to as u64);
        key.push(label as u64);
    }
    scratch.ledge_buf = edges;
}

/// Fans per-vertex key extraction over [`par::map_chunks`], each chunk
/// with its own [`NbhdScratch`] and chunk-local [`KeyInterner`]. Returns
/// the content-merged interner and the per-id occurrence counts (ids are
/// in global first-seen order, every count positive), with the lookup
/// counts left pending: whatever the chunking they are those of one
/// sequential pass, `misses` = distinct keys and `hits` = `n − misses`.
/// `name` tags the run in the observability registry (a `census/<name>`
/// span plus a vertex counter).
fn per_vertex_keys<F>(name: &str, n: usize, f: F) -> (KeyInterner, Vec<usize>)
where
    F: Fn(&mut NbhdScratch, NodeId, &mut Vec<u64>) + Sync,
{
    /// Vertex count below which the census stays on the calling thread.
    const PARALLEL_MIN_NODES: usize = 1 << 10;
    /// Counter of vertices canonicalised across all census runs.
    const CENSUS_VERTICES: &str = "census/vertices";
    let _span = obs::span(&format!("census/{name}"));
    obs::counter(CENSUS_VERTICES).add(n as u64);
    let mut parts = par::map_chunks(n, PARALLEL_MIN_NODES, |vertices| {
        let mut scratch = NbhdScratch::new();
        let mut key = Vec::new();
        let (mut interner, mut counts) = (KeyInterner::new(), Vec::new());
        for v in vertices {
            f(&mut scratch, v, &mut key);
            tally(&mut interner, &mut counts, &key, 1);
        }
        (interner, counts)
    })
    .into_iter();
    // the first chunk's table becomes the global one; each later chunk is
    // content-merged into it by re-interning its keys in local id order
    let (mut global, mut counts) = parts.next().unwrap_or_default();
    for (local, local_counts) in parts {
        for (lid, &c) in local_counts.iter().enumerate() {
            tally(&mut global, &mut counts, local.get(lid as u32), c);
        }
    }
    // the chunks' lookups and the merge's re-interning are bookkeeping of
    // the fan-out: count what one sequential pass over n vertices counts
    let distinct = global.len() as u64;
    global.set_pending_stats(n as u64 - distinct, distinct);
    (global, counts)
}

/// Interns `key` and adds `c` to its occurrence count.
fn tally(interner: &mut KeyInterner, counts: &mut Vec<usize>, key: &[u64], c: usize) {
    let id = interner.intern(key) as usize;
    if id == counts.len() {
        counts.push(0);
    }
    counts[id] += c;
}

/// Publishes the interner's pending lookup counts, then decodes the
/// interned census into `(type, count)` pairs, most frequent first (ties
/// broken by the type's derived order) — the same ordering as
/// [`sorted_census`] on the naive paths.
fn census_from_keys<T: Ord, F: Fn(&[u64]) -> T>(
    mut interner: KeyInterner,
    counts: &[usize],
    decode: F,
) -> Vec<(T, usize)> {
    interner.publish_obs();
    let mut out: Vec<(T, usize)> = counts
        .iter()
        .enumerate()
        .map(|(id, &c)| (decode(interner.get(id as u32)), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

fn sorted_census<T: Ord + std::hash::Hash>(types: Vec<T>) -> Vec<(T, usize)> {
    let mut counts: std::collections::HashMap<T, usize> = std::collections::HashMap::new();
    for t in types {
        *counts.entry(t).or_insert(0) += 1;
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Counts, for each distinct ordered neighbourhood type, how many vertices
/// of `(g, rank)` have that type at radius `r`. Returns pairs
/// `(type, count)` with the most frequent type first.
///
/// This is the exact census used to measure `(α, r)`-homogeneity
/// (Definition 3.1): the graph is `(α, r)`-homogeneous with
/// `α = max_count / n`.
///
/// Engine-backed: packed keys are extracted per vertex through
/// [`ordered_key_into`] on [`par`] workers, and counting happens on interned ids — one struct
/// decode per distinct type instead of per vertex.
/// [`ordered_type_census_naive`] is the reference implementation.
pub fn ordered_type_census(g: &Graph, rank: &[usize], r: usize) -> Vec<(OrderedNbhd, usize)> {
    let (interner, counts) = per_vertex_keys("ordered", g.node_count(), |scratch, v, key| {
        ordered_key_into(g, rank, v, r, scratch, key)
    });
    census_from_keys(interner, &counts, OrderedNbhd::from_key)
}

/// The reference (sequential, allocation-per-call) implementation of
/// [`ordered_type_census`]; kept as the differential-testing oracle.
pub fn ordered_type_census_naive(g: &Graph, rank: &[usize], r: usize) -> Vec<(OrderedNbhd, usize)> {
    sorted_census(g.nodes().map(|v| ordered_nbhd(g, rank, v, r)).collect())
}

/// Like [`ordered_type_census`] but for L-digraphs (directed, labelled).
/// Engine-backed like its undirected counterpart;
/// [`ordered_ltype_census_naive`] is the reference implementation.
pub fn ordered_ltype_census(d: &LDigraph, rank: &[usize], r: usize) -> Vec<(OrderedLNbhd, usize)> {
    let (interner, counts) = per_vertex_keys("ordered_l", d.node_count(), |scratch, v, key| {
        ordered_lkey_into(d, rank, v, r, scratch, key)
    });
    census_from_keys(interner, &counts, OrderedLNbhd::from_key)
}

/// The reference implementation of [`ordered_ltype_census`]; kept as the
/// differential-testing oracle.
pub fn ordered_ltype_census_naive(
    d: &LDigraph,
    rank: &[usize],
    r: usize,
) -> Vec<(OrderedLNbhd, usize)> {
    let und = d.underlying_simple();
    sorted_census((0..d.node_count()).map(|v| ordered_lnbhd_in(d, &und, rank, v, r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::tests::random_ldigraph;
    use crate::gen;
    use proptest::prelude::*;

    fn identity_rank(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn cycle_interior_types_agree() {
        let g = gen::cycle(10);
        let rank = identity_rank(10);
        // nodes 1..=8 have interior ordered 1-neighbourhoods: the sorted
        // ball is [v-1, v, v+1] with the root in the middle.
        let t = ordered_nbhd(&g, &rank, 2, 1);
        for v in 1..=8 {
            assert_eq!(ordered_nbhd(&g, &rank, v, 1), t, "node {v}");
        }
        // only the extreme-rank nodes see the seam at radius 1
        assert_ne!(ordered_nbhd(&g, &rank, 0, 1), t);
        assert_ne!(ordered_nbhd(&g, &rank, 9, 1), t);
    }

    #[test]
    fn cycle_census_fractions() {
        // On C_n with the identity order and r = 1 there are 3 types:
        // interior (n-2 nodes) and the two extreme-rank seam nodes.
        let g = gen::cycle(20);
        let rank = identity_rank(20);
        let census = ordered_type_census(&g, &rank, 1);
        assert_eq!(census[0].1, 18);
        assert_eq!(census.iter().map(|x| x.1).sum::<usize>(), 20);
        assert_eq!(census.len(), 3);

        // at radius 2 the seam is visible from 4 nodes
        let census2 = ordered_type_census(&g, &rank, 2);
        assert_eq!(census2[0].1, 16);
    }

    #[test]
    fn root_position_matters() {
        // A path 0-1-2: τ at 0 and τ at 2 (radius 1) are balls {0,1} and
        // {1,2} with the root smallest resp. largest — different types.
        let g = gen::path(3);
        let rank = identity_rank(3);
        let t0 = ordered_nbhd(&g, &rank, 0, 1);
        let t2 = ordered_nbhd(&g, &rank, 2, 1);
        assert_ne!(t0, t2);
        assert_eq!(t0.n, 2);
        assert_eq!(t0.root, 0);
        assert_eq!(t2.root, 1);
    }

    #[test]
    fn order_reversal_changes_types() {
        let g = gen::path(5);
        let fwd = identity_rank(5);
        let rev: Vec<usize> = (0..5).map(|v| 4 - v).collect();
        let a = ordered_nbhd(&g, &fwd, 1, 1);
        let b = ordered_nbhd(&g, &rev, 3, 1);
        // node 1 under forward order looks like node 3 under reversed order
        assert_eq!(a, b);
    }

    #[test]
    fn id_nbhd_and_collapse() {
        let g = gen::cycle(6);
        let ids: Vec<u64> = vec![50, 10, 40, 20, 60, 30];
        let t = id_nbhd(&g, &ids, 0, 1);
        // ball {5, 0, 1} ids {30, 50, 10} sorted -> [10, 30, 50]; root=50 at pos 2
        assert_eq!(t.ids, vec![10, 30, 50]);
        assert_eq!(t.root, 2);
        let o = t.order_collapse();
        assert_eq!(o.n, 3);
        assert_eq!(o.root, 2);

        // An order-preserving relabelling leaves the collapse unchanged.
        let t2 = t.relabel(|x| x * 100 + 7);
        assert_eq!(t2.order_collapse(), o);
        assert_ne!(t2, t);
    }

    #[test]
    fn ldigraph_nbhd_labels_matter() {
        let mut a = LDigraph::new(3, 2);
        a.add_edge(0, 1, 0).unwrap();
        a.add_edge(1, 2, 0).unwrap();
        let mut b = LDigraph::new(3, 2);
        b.add_edge(0, 1, 0).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let rank = identity_rank(3);
        let ta = ordered_lnbhd(&a, &rank, 1, 1);
        let tb = ordered_lnbhd(&b, &rank, 1, 1);
        assert_ne!(ta, tb);
    }

    #[test]
    fn directed_cycle_census_identity_order() {
        // Directed cycle, identity order: interior nodes share one type.
        let d = gen::directed_cycle(12);
        let rank = identity_rank(12);
        let census = ordered_ltype_census(&d, &rank, 1);
        assert_eq!(census[0].1, 10, "12 - 2 seam nodes");
    }

    #[test]
    fn census_total_is_n() {
        let g = gen::petersen();
        let rank = identity_rank(10);
        for r in 0..3 {
            let census = ordered_type_census(&g, &rank, r);
            assert_eq!(census.iter().map(|x| x.1).sum::<usize>(), 10);
        }
    }

    #[test]
    fn radius_zero_single_type() {
        let g = gen::petersen();
        let rank = identity_rank(10);
        let census = ordered_type_census(&g, &rank, 0);
        assert_eq!(census.len(), 1);
        assert_eq!(census[0].1, 10);
        assert_eq!(census[0].0.n, 1);
    }

    #[test]
    fn key_roundtrip_matches_naive_extractors() {
        let g = gen::petersen();
        let rank = identity_rank(10);
        let ids: Vec<u64> = (0..10).map(|v| (v as u64) * 17 + 3).collect();
        let mut scratch = NbhdScratch::new();
        let mut key = Vec::new();
        for r in 0..3 {
            for v in g.nodes() {
                ordered_key_into(&g, &rank, v, r, &mut scratch, &mut key);
                assert_eq!(OrderedNbhd::from_key(&key), ordered_nbhd(&g, &rank, v, r));
                id_key_into(&g, &ids, v, r, &mut scratch, &mut key);
                assert_eq!(IdNbhd::from_key(&key), id_nbhd(&g, &ids, v, r));
            }
        }
    }

    #[test]
    fn lkey_roundtrip_matches_naive_extractor() {
        let d = gen::directed_cycle(9);
        let und = d.underlying_simple();
        let rank = identity_rank(9);
        let mut scratch = NbhdScratch::new();
        let mut key = Vec::new();
        for r in 0..4 {
            for v in 0..9 {
                ordered_lkey_into(&d, &rank, v, r, &mut scratch, &mut key);
                let t = ordered_lnbhd_in(&d, &und, &rank, v, r);
                assert_eq!(OrderedLNbhd::from_key(&key), t);
                assert_eq!(t.to_key(), key, "the encoder writes the extractor's key");
            }
        }
    }

    proptest! {
        /// The extractors read an L-digraph's rows in place: random
        /// L-digraphs with antiparallel pairs and parallel edges of
        /// distinct labels give the keys of their underlying simple graph,
        /// at every root and radius.
        #[test]
        fn prop_extractors_read_ldigraph_rows_as_the_underlying_graph(
            n in 2usize..9,
            labels in 1usize..4,
            seed in any::<u64>(),
        ) {
            let d = random_ldigraph(n, labels, seed);
            let und = d.underlying_simple();
            // a seeded order and distinct identifiers
            let mut order: Vec<NodeId> = (0..n).collect();
            order.sort_by_key(|&v| (v as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rank = vec![0; n];
            for (p, &v) in order.iter().enumerate() {
                rank[v] = p;
            }
            let ids: Vec<u64> = rank.iter().map(|&p| 3 * p as u64 + (seed >> 60)).collect();
            let narrow: Vec<u32> = rank.iter().map(|&p| p as u32).collect();
            let (mut scratch, mut rows, mut want) = (NbhdScratch::new(), Vec::new(), Vec::new());
            for r in 0..=3 {
                for v in 0..n {
                    ordered_key_into(&d, &rank, v, r, &mut scratch, &mut rows);
                    ordered_key_into(&und, &rank, v, r, &mut scratch, &mut want);
                    prop_assert_eq!(&rows, &want, "ordered key of {} at radius {}", v, r);
                    ordered_key_into(&d, &narrow, v, r, &mut scratch, &mut want);
                    prop_assert_eq!(&rows, &want, "u32-ranked key of {} at radius {}", v, r);
                    id_key_into(&d, &ids, v, r, &mut scratch, &mut rows);
                    id_key_into(&und, &ids, v, r, &mut scratch, &mut want);
                    prop_assert_eq!(&rows, &want, "id key of {} at radius {}", v, r);
                    ordered_lkey_into(&d, &rank, v, r, &mut scratch, &mut rows);
                    let naive = ordered_lnbhd_in(&d, &und, &rank, v, r).to_key();
                    prop_assert_eq!(&rows, &naive, "labelled key of {} at radius {}", v, r);
                }
            }
        }
    }

    /// The three extractors' keys of `v` at radius `r`, in turn on one
    /// scratch, under the identity rank and the ids `5x + 1`.
    fn three_keys(d: &LDigraph, v: NodeId, r: usize, scratch: &mut NbhdScratch) -> [Vec<u64>; 3] {
        let rank = identity_rank(d.node_count());
        let ids: Vec<u64> = (0..d.node_count() as u64).map(|x| 5 * x + 1).collect();
        let mut keys = [Vec::new(), Vec::new(), Vec::new()];
        ordered_key_into(d, &rank, v, r, scratch, &mut keys[0]);
        id_key_into(d, &ids, v, r, scratch, &mut keys[1]);
        ordered_lkey_into(d, &rank, v, r, scratch, &mut keys[2]);
        keys
    }

    /// A scratch whose base sits a few balls below the marks' reset
    /// clears its marks once, restarts, and gives a fresh scratch's keys
    /// from all three extractors on both sides of the reset.
    #[test]
    fn a_scratch_through_its_mark_reset_gives_fresh_keys() {
        let d = random_ldigraph(9, 2, 7);
        let n = d.node_count() as u32;
        let mut scratch = NbhdScratch::new();
        three_keys(&d, 0, 2, &mut scratch);
        // the marks written so far all lie below the forced base
        scratch.base = u32::MAX - 3 * n;
        let mut resets = 0;
        for r in 0..=3 {
            for v in 0..d.node_count() {
                let before = scratch.base;
                let keys = three_keys(&d, v, r, &mut scratch);
                assert_eq!(keys, three_keys(&d, v, r, &mut NbhdScratch::new()), "{v} at {r}");
                resets += usize::from(scratch.base < before);
            }
        }
        assert_eq!(resets, 1, "one reset, and the restarted base never comes near another");
    }

    /// One scratch reused across graphs whose node count grows and then
    /// shrinks keeps the marks of the larger graph below every later base
    /// and gives a fresh scratch's keys throughout.
    #[test]
    fn a_scratch_reused_across_graph_sizes_gives_fresh_keys() {
        let mut scratch = NbhdScratch::new();
        for (n, seed) in [(6, 1), (40, 2), (8, 3), (40, 4), (3, 5)] {
            let d = random_ldigraph(n, 2, seed);
            for r in 0..=3 {
                for v in 0..n {
                    let keys = three_keys(&d, v, r, &mut scratch);
                    let want = three_keys(&d, v, r, &mut NbhdScratch::new());
                    assert_eq!(keys, want, "n = {n}: {v} at radius {r}");
                }
            }
        }
    }

    #[test]
    fn census_matches_naive_on_parallel_threshold_sizes() {
        // 2^10 nodes crosses PARALLEL_MIN_NODES: the worker-merge path
        // must agree with the sequential oracle exactly.
        let g = gen::cycle(1 << 10);
        let rank = identity_rank(1 << 10);
        assert_eq!(ordered_type_census(&g, &rank, 1), ordered_type_census_naive(&g, &rank, 1));
    }

    #[test]
    fn census_intern_counts_do_not_depend_on_worker_count() {
        // identity order on a cycle: the interior type plus two seam
        // types; 2^10 nodes reaches PARALLEL_MIN_NODES, so w ≥ 2 merges
        let n = 1 << 10;
        let g = gen::cycle(n);
        let rank = identity_rank(n);
        let census = |workers| {
            par::with_workers(workers, || {
                per_vertex_keys("worker_count_test", n, |scratch, v, key| {
                    ordered_key_into(&g, &rank, v, 1, scratch, key)
                })
            })
        };
        let (sequential, sequential_counts) = census(1);
        assert_eq!(sequential.len(), 3);
        for workers in [1, 2, 4] {
            let (interner, counts) = census(workers);
            assert_eq!(interner.pending_stats(), (n as u64 - 3, 3), "{workers} worker(s)");
            assert_eq!(counts, sequential_counts, "{workers} worker(s)");
            assert!((0..3).all(|id| interner.get(id) == sequential.get(id)), "first-seen ids");
        }
    }
}
