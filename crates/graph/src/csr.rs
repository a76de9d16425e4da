//! Flat membership sets for the hot paths.
//!
//! [`Graph`](crate::Graph) itself stores its adjacency as compressed
//! sparse rows (one offsets array, one flat sorted targets array), so
//! the censuses and engines scan it directly. [`NodeBitset`] is the
//! matching membership structure for Δ-bounded BFS balls: a `u64`-word
//! bitset that remembers which words it touched, so clearing between
//! balls is `O(|ball|)` rather than `O(n)`.

use crate::NodeId;

/// A `u64`-word bitset over node ids with `O(touched)` clearing: the set
/// records which words it wrote, so resetting between radius-`r` balls of
/// a Δ-bounded graph costs `O(|ball|)`, not `O(n)`.
///
/// ```
/// use locap_graph::NodeBitset;
/// let mut s = NodeBitset::new(100);
/// assert!(s.insert(7));
/// assert!(!s.insert(7), "already present");
/// assert!(s.contains(7) && !s.contains(8));
/// s.clear();
/// assert!(!s.contains(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeBitset {
    words: Vec<u64>,
    /// Indices of words with at least one bit set since the last clear.
    touched: Vec<u32>,
}

impl NodeBitset {
    /// Creates an empty set over the universe `0..n`.
    pub fn new(n: usize) -> NodeBitset {
        NodeBitset { words: vec![0; n.div_ceil(64)], touched: Vec::new() }
    }

    /// Grows the universe to `0..n` (no-op when already large enough).
    pub fn grow(&mut self, n: usize) {
        let w = n.div_ceil(64);
        if self.words.len() < w {
            self.words.resize(w, 0);
        }
    }

    /// Inserts `v`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        let word = &mut self.words[w];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.touched.push(w as u32);
        }
        *word |= bit;
        true
    }

    /// Whether `v` is in the set (out-of-universe ids are absent).
    pub fn contains(&self, v: NodeId) -> bool {
        self.words.get(v / 64).is_some_and(|w| w & (1u64 << (v % 64)) != 0)
    }

    /// Empties the set by zeroing only the touched words.
    pub fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_clear() {
        let mut s = NodeBitset::new(200);
        for v in [0, 63, 64, 127, 199] {
            assert!(s.insert(v), "fresh insert of {v}");
            assert!(!s.insert(v), "second insert of {v}");
            assert!(s.contains(v));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(198));
        s.clear();
        for v in [0, 63, 64, 127, 199] {
            assert!(!s.contains(v), "{v} cleared");
        }
        // reusable after clear
        assert!(s.insert(64));
        assert!(s.contains(64));
    }

    #[test]
    fn bitset_grow_extends_universe() {
        let mut s = NodeBitset::new(10);
        s.grow(1000);
        assert!(s.insert(999));
        assert!(s.contains(999));
        assert!(!s.contains(998));
    }
}
