//! Content interning of canonical forms into dense integer ids.
//!
//! Every hot path in the workspace ultimately compares canonical
//! neighbourhood encodings — flat `u64` key slices produced by
//! [`crate::canon`]'s `*_key_into` extractors or by the view-refinement
//! signature sweep in `locap-lifts`. A [`KeyInterner`] deduplicates those
//! keys into an arena and hands back dense `u32` ids in first-seen order,
//! so **equality of canonical forms is equality of ids** and memo tables
//! become plain `Vec<Option<_>>` lookups instead of hash-map probes over
//! owned `Vec<u64>` keys.
//!
//! The interner publishes its effectiveness into the `locap-obs`
//! registry (`intern/hits`, `intern/misses` counters and an
//! `intern/entries` gauge) via [`KeyInterner::publish_obs`]; callers
//! flush once per run or census so hot loops pay no registry traffic.

use locap_obs as obs;

/// Counter of interner lookups answered by an existing entry.
const INTERN_HITS: &str = "intern/hits";
/// Counter of interner lookups that created a new entry.
const INTERN_MISSES: &str = "intern/misses";
/// Gauge of entries held by the most recently flushed interner.
const INTERN_ENTRIES: &str = "intern/entries";

/// Sentinel for an empty open-addressing slot.
const EMPTY: u32 = u32::MAX;

/// Digests a `u64` key slice under a caller-chosen seed: FNV-1a over
/// the words with rotation, finished by the splitmix64 mixer so every
/// output bit is well mixed. Seed `0` reproduces the interner's own
/// table hash exactly; independent seeds give independent digests, so
/// callers needing collision resistance beyond 64 bits (the
/// content-addressed result store) combine two seeded digests.
pub fn digest_words_seeded(key: &[u64], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed ^ (key.len() as u64);
    for &w in key {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        h = h.rotate_left(27);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hashes a key for the probe table (the seed-0 digest).
fn hash_key(key: &[u64]) -> u64 {
    digest_words_seeded(key, 0)
}

/// An append-only arena interner for `u64` key slices.
///
/// Ids are dense and assigned in first-seen order, so an interner shared
/// across calls doubles as a canonical-form registry: `intern(a) ==
/// intern(b)` iff `a == b`, and `get(id)` returns the original key.
///
/// ```
/// use locap_graph::KeyInterner;
/// let mut it = KeyInterner::new();
/// let a = it.intern(&[1, 2, 3]);
/// let b = it.intern(&[4, 5]);
/// assert_ne!(a, b);
/// assert_eq!(it.intern(&[1, 2, 3]), a, "same content, same id");
/// assert_eq!(it.get(a), &[1, 2, 3]);
/// assert_eq!(it.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    /// Concatenated key words of all entries.
    data: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` spans entry `i` in `data`.
    offsets: Vec<u32>,
    /// Stored hash per entry (avoids re-hashing on table growth).
    hashes: Vec<u64>,
    /// Open-addressing table of entry ids; power-of-two capacity.
    table: Vec<u32>,
    /// Hits/misses since the last [`KeyInterner::publish_obs`] flush.
    pending_hits: u64,
    pending_misses: u64,
}

impl KeyInterner {
    /// Creates an empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// Number of distinct entries interned so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no entry has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The key content of entry `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this interner.
    pub fn get(&self, id: u32) -> &[u64] {
        let (lo, hi) = (self.offsets[id as usize], self.offsets[id as usize + 1]);
        &self.data[lo as usize..hi as usize]
    }

    /// Interns `key`, returning its dense id: an existing id when the
    /// content was seen before, the next id (`len() - 1` after the call)
    /// otherwise. Ids are assigned in first-seen order.
    pub fn intern(&mut self, key: &[u64]) -> u32 {
        if self.len() * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        let hash = hash_key(key);
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && self.get(id) == key {
                self.pending_hits += 1;
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.len() as u32;
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.data.extend_from_slice(key);
        self.offsets.push(self.data.len() as u32);
        self.hashes.push(hash);
        self.table[slot] = id;
        self.pending_misses += 1;
        id
    }

    /// Doubles the probe table (initially 16 slots) and reinserts every
    /// entry from its stored hash.
    fn grow_table(&mut self) {
        let cap = (self.table.len() * 2).max(16);
        self.table = vec![EMPTY; cap];
        let mask = cap - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32;
        }
    }

    /// Hits and misses accumulated since the last flush (for tests and
    /// local stats; the obs registry gets the same numbers on flush).
    pub fn pending_stats(&self) -> (u64, u64) {
        (self.pending_hits, self.pending_misses)
    }

    /// Replaces the pending hit/miss counts. A census that merges
    /// worker-local interners by re-interning their keys sets them to what
    /// a sequential pass counts — `misses = distinct`, `hits = lookups −
    /// distinct` — so the published counters do not depend on the worker
    /// count.
    pub(crate) fn set_pending_stats(&mut self, hits: u64, misses: u64) {
        self.pending_hits = hits;
        self.pending_misses = misses;
    }

    /// Flushes accumulated hit/miss counts into the `intern/hits` and
    /// `intern/misses` counters and sets the `intern/entries` gauge to
    /// the current entry count. Call once per run or census — hot loops
    /// themselves never touch the registry.
    pub fn publish_obs(&mut self) {
        if self.pending_hits == 0 && self.pending_misses == 0 {
            return;
        }
        obs::counter(INTERN_HITS).add(self.pending_hits);
        obs::counter(INTERN_MISSES).add(self.pending_misses);
        obs::gauge(INTERN_ENTRIES).set(self.len() as i64);
        self.pending_hits = 0;
        self.pending_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut it = KeyInterner::new();
        assert!(it.is_empty());
        let keys: Vec<Vec<u64>> = (0..100u64).map(|i| vec![i, i * i, 7]).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(it.intern(k), i as u32);
        }
        assert_eq!(it.len(), 100);
        // re-interning returns the original ids in any order
        for (i, k) in keys.iter().enumerate().rev() {
            assert_eq!(it.intern(k), i as u32);
            assert_eq!(it.get(i as u32), k.as_slice());
        }
        assert_eq!(it.len(), 100);
    }

    #[test]
    fn distinguishes_equal_prefixes_and_lengths() {
        let mut it = KeyInterner::new();
        let a = it.intern(&[1, 2]);
        let b = it.intern(&[1, 2, 0]);
        let c = it.intern(&[1]);
        let d = it.intern(&[]);
        assert_eq!([a, b, c, d], [0, 1, 2, 3]);
        assert_eq!(it.intern(&[]), d);
        assert_eq!(it.get(d), &[] as &[u64]);
    }

    #[test]
    fn survives_table_growth() {
        let mut it = KeyInterner::new();
        let n = 10_000u64;
        for i in 0..n {
            assert_eq!(it.intern(&[i ^ 0xdead_beef, i]), i as u32);
        }
        for i in 0..n {
            assert_eq!(it.intern(&[i ^ 0xdead_beef, i]), i as u32, "stable after growth");
        }
        let (hits, misses) = it.pending_stats();
        assert_eq!(hits, n);
        assert_eq!(misses, n);
    }

    #[test]
    fn publish_obs_flushes_pending() {
        let mut it = KeyInterner::new();
        it.intern(&[9]);
        it.intern(&[9]);
        it.publish_obs();
        assert_eq!(it.pending_stats(), (0, 0));
    }
}
