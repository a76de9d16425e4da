//! Property tests for the result store: write→read identity over
//! arbitrary JSON documents, and damage handling — any single-byte flip
//! or truncation of an entry file classifies as [`Lookup::Corrupt`] (a
//! typed miss the caller recomputes through), never a panic and never a
//! silently wrong hit.

use std::path::PathBuf;

use locap_obs::json::Json;
use locap_store::{Lookup, StoreHandle, StoreKey};
use proptest::prelude::*;

/// A fresh per-case scratch directory (removed at case end).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("locap-store-props-{}-{tag}", std::process::id()))
}

/// Characters exercised in generated strings: escapes, separators, the
/// store's own header delimiters, and multi-byte code points.
const STRING_POOL: &[char] =
    &['a', 'z', '0', '9', ' ', '_', '-', '/', '\\', '"', '\n', '\t', '{', '}', ':', 'µ', '∆'];

/// A short random string over [`STRING_POOL`].
fn random_string(rng: &mut TestRng) -> String {
    let n = rng.next_u64() % 12;
    (0..n)
        .filter_map(|_| STRING_POOL.get(rng.next_u64() as usize % STRING_POOL.len()))
        .collect()
}

/// A random JSON document of bounded depth. Numbers are integers in
/// `±2^52` so the `f64` encoding round-trips exactly.
fn random_json(rng: &mut TestRng, depth: usize) -> Json {
    let variants = if depth == 0 { 4 } else { 6 };
    match rng.next_u64() % variants {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() % 2 == 0),
        2 => Json::Num(((rng.next_u64() % (1 << 53)) as i64 - (1 << 52)) as f64),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.next_u64() % 4;
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.next_u64() % 4;
            Json::Obj(
                (0..n)
                    .map(|i| (format!("k{i}-{}", random_string(rng)), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    /// Whatever document goes in comes back out structurally identical,
    /// and the handle-local stats record exactly the operations made.
    #[test]
    fn write_then_read_is_identity(params in (any::<u64>(), 1usize..4)) {
        let (seed, depth) = params;
        let mut rng = TestRng::from_name(&format!("store-rt-{seed}-{depth}"));
        let dir = scratch(&format!("rt-{seed}-{depth}"));
        let store = StoreHandle::open(&dir).expect("open scratch store");
        let key = StoreKey::of_bytes(&seed.to_le_bytes());
        let doc = random_json(&mut rng, depth);

        prop_assert_eq!(store.lookup("props", &key), Lookup::Miss);
        store.put("props", &key, &doc).expect("write entry");
        prop_assert_eq!(store.lookup("props", &key), Lookup::Hit(doc.clone()));
        // Overwriting with a different document replaces the entry.
        let doc2 = random_json(&mut rng, depth);
        store.put("props", &key, &doc2).expect("overwrite entry");
        prop_assert_eq!(store.get("props", &key), Some(doc2));

        let stats = store.stats();
        prop_assert_eq!(stats.warm_hit, 2);
        prop_assert_eq!(stats.cold_miss, 1);
        prop_assert_eq!(stats.write, 2);
        prop_assert_eq!(stats.corrupt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single byte of an entry file, or truncating it at
    /// any point, yields `Lookup::Corrupt` — counted, and recoverable by
    /// a fresh write. No input panics.
    #[test]
    fn damage_is_a_typed_miss_never_a_panic(params in (any::<u64>(), 1usize..4)) {
        let (seed, depth) = params;
        let mut rng = TestRng::from_name(&format!("store-dmg-{seed}-{depth}"));
        let dir = scratch(&format!("dmg-{seed}-{depth}"));
        let store = StoreHandle::open(&dir).expect("open scratch store");
        let key = StoreKey::of_bytes(&seed.to_le_bytes());
        let doc = random_json(&mut rng, depth);
        store.put("props", &key, &doc).expect("write entry");
        let path = store.entry_path("props", &key);
        let original = std::fs::read(&path).expect("read entry back");

        // Random single-byte flip anywhere in the file (header, body,
        // trailing newline) — guaranteed to change the byte.
        let pos = rng.next_u64() as usize % original.len();
        let mut flipped = original.clone();
        flipped[pos] ^= 1 + (rng.next_u64() % 255) as u8;
        std::fs::write(&path, &flipped).expect("write flipped entry");
        prop_assert_eq!(store.lookup("props", &key), Lookup::Corrupt);

        // Random strict-prefix truncation (including to empty).
        let cut = rng.next_u64() as usize % original.len();
        std::fs::write(&path, &original[..cut]).expect("write truncated entry");
        prop_assert_eq!(store.lookup("props", &key), Lookup::Corrupt);

        prop_assert_eq!(store.stats().corrupt, 2);
        // A fresh put repairs the damaged entry in place.
        store.put("props", &key, &doc).expect("repair entry");
        prop_assert_eq!(store.lookup("props", &key), Lookup::Hit(doc));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The text read path keeps every check of the decoding one: a hit is
    /// the exact encoding the write stored, and a flipped byte, or a body
    /// that passes the checksum but does not parse as JSON, is
    /// `Lookup::Corrupt` on both paths.
    #[test]
    fn text_reads_return_the_stored_encoding(params in (any::<u64>(), 1usize..4)) {
        let (seed, depth) = params;
        let mut rng = TestRng::from_name(&format!("store-text-{seed}-{depth}"));
        let dir = scratch(&format!("text-{seed}-{depth}"));
        let store = StoreHandle::open(&dir).expect("open scratch store");
        let key = StoreKey::of_bytes(&seed.to_le_bytes());
        let doc = random_json(&mut rng, depth);

        prop_assert_eq!(store.lookup_text("props", &key), Lookup::Miss);
        store.put_text("props", &key, &doc.to_string()).expect("write entry");
        prop_assert_eq!(store.lookup_text("props", &key), Lookup::Hit(doc.to_string()));
        prop_assert_eq!(store.lookup("props", &key), Lookup::Hit(doc.clone()));

        let path = store.entry_path("props", &key);
        let original = std::fs::read(&path).expect("read entry back");
        let pos = rng.next_u64() as usize % original.len();
        let mut flipped = original.clone();
        flipped[pos] ^= 1 + (rng.next_u64() % 255) as u8;
        std::fs::write(&path, &flipped).expect("write flipped entry");
        prop_assert_eq!(store.lookup_text("props", &key), Lookup::Corrupt);

        // a trailing character after a complete document never parses
        store.put_text("props", &key, &format!("{doc}]")).expect("write unparseable body");
        prop_assert_eq!(store.lookup_text("props", &key), Lookup::Corrupt);
        prop_assert_eq!(store.lookup("props", &key), Lookup::Corrupt);

        let stats = store.stats();
        prop_assert_eq!((stats.warm_hit, stats.cold_miss, stats.write, stats.corrupt), (2, 1, 2, 3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
