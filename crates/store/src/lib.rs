//! Content-addressed persistent result store.
//!
//! Every expensive artifact in the workspace — view censuses, verified
//! certificates, pipeline result documents — is a deterministic function
//! of its input, so recomputing one for a repeat request is pure waste.
//! This crate caches those results on disk, keyed by a digest of the
//! canonical input encoding: the same packed `u64` key words the PR-7
//! interner hot path produces, folded through two independently seeded
//! [`locap_graph::digest_words_seeded`] runs into a 128-bit
//! [`StoreKey`].
//!
//! # Layout and integrity
//!
//! An entry lives at `<root>/<namespace>/<key-hex32>.json` and holds two
//! lines: a schema-versioned header
//! (`{"schema":1,"ns":…,"key":…,"len":…,"sum":…}`) followed by the body
//! — the result document in the `locap-obs` compact JSON encoding —
//! and a terminating newline. `len` is the exact body byte length and
//! `sum` an FNV-1a checksum of the body, so truncation, byte flips and
//! cross-namespace mixups are all detected on read. A damaged entry is
//! reported as [`Lookup::Corrupt`] — a *typed miss* the caller recovers
//! from by recomputing — never a panic and never a silently wrong hit
//! (PR-4 typed-error discipline).
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so readers racing a writer observe either the old entry, the
//! new entry, or no entry — never a torn one.
//!
//! # Observability
//!
//! A [`StoreHandle`] publishes `store/warm_hit`, `store/cold_miss`,
//! `store/write`, `store/write_failed` and `store/corrupt` counters into
//! the global `locap-obs` registry, and mirrors the same numbers into
//! handle-local [`StoreStats`] for deterministic assertions in tests that
//! share a registry.
//!
//! ```
//! use locap_obs::json::Json;
//! use locap_store::{Lookup, StoreHandle, StoreKey};
//!
//! let dir = std::env::temp_dir().join(format!("locap-store-doc-{}", std::process::id()));
//! let store = StoreHandle::open(&dir)?;
//! let key = StoreKey::of_bytes(b"census directed-cycle n=12 r=2");
//! assert!(matches!(store.lookup("doc", &key), Lookup::Miss));
//! store.put("doc", &key, &Json::Str("result".into()))?;
//! assert!(matches!(store.lookup("doc", &key), Lookup::Hit(_)));
//! std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), locap_store::StoreError>(())
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use locap_graph::digest_words_seeded;
use locap_obs as obs;
use locap_obs::json::Json;

/// On-disk entry format version; bumped on incompatible layout changes.
pub const SCHEMA: u64 = 1;

/// Counter of lookups answered from a valid on-disk entry.
pub const STORE_WARM_HIT: &str = "store/warm_hit";
/// Counter of lookups that found no entry on disk.
pub const STORE_COLD_MISS: &str = "store/cold_miss";
/// Counter of entries successfully persisted.
pub const STORE_WRITE: &str = "store/write";
/// Counter of entry writes that failed (I/O error; entry not persisted).
pub const STORE_WRITE_FAILED: &str = "store/write_failed";
/// Counter of entries rejected as damaged (bad header, checksum, length).
pub const STORE_CORRUPT: &str = "store/corrupt";

/// Seed for the high digest half (the splitmix64 golden-ratio constant).
const SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;
/// Seed for the low digest half (a distinct odd mixing constant).
const SEED_LO: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// A 128-bit content address: two independently seeded 64-bit digests of
/// the canonical input encoding.
///
/// Two keys collide only when *both* digests collide, which pushes the
/// birthday bound far beyond any realistic store population; the entry
/// header additionally records the full key hex, so even a path-level
/// collision is caught on read and degrades to a typed miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    hi: u64,
    lo: u64,
}

impl StoreKey {
    /// Keys a packed `u64` word encoding (the interner key shape).
    pub fn of_words(words: &[u64]) -> StoreKey {
        StoreKey {
            hi: digest_words_seeded(words, SEED_HI),
            lo: digest_words_seeded(words, SEED_LO),
        }
    }

    /// Keys an arbitrary byte string by packing it into little-endian
    /// `u64` words with the byte length appended (so `[1, 0]` and `[1]`
    /// key differently despite identical word padding).
    pub fn of_bytes(bytes: &[u8]) -> StoreKey {
        let mut words = Vec::with_capacity(bytes.len() / 8 + 2);
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            words.push(w);
        }
        words.push(bytes.len() as u64);
        StoreKey::of_words(&words)
    }

    /// The 32-hex-character entry file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// An 8-hex-character abbreviation (for human-facing suffixes such
    /// as artifact stems, not for addressing).
    pub fn short_hex(&self) -> String {
        format!("{:08x}", (self.hi ^ self.lo) as u32)
    }
}

/// A store operation failure (always I/O: the read path never errors —
/// damage is reported as [`Lookup::Corrupt`] instead).
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

/// The outcome of a store read: [`StoreHandle::lookup`] decodes a hit's
/// body into a document, [`StoreHandle::lookup_text`] keeps its text.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup<T = Json> {
    /// A valid entry was found; its body.
    Hit(T),
    /// No entry exists for the key.
    Miss,
    /// An entry exists but is damaged (truncated, bit-flipped, wrong
    /// schema/namespace/key). The caller should recompute; the damaged
    /// file is left in place for a later overwrite.
    Corrupt,
}

/// Handle-local operation totals (deterministic even when the global
/// registry is shared with other stores or tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Reads answered from a valid entry.
    pub warm_hit: u64,
    /// Reads that found no entry.
    pub cold_miss: u64,
    /// Entries successfully written.
    pub write: u64,
    /// Entry writes that failed.
    pub write_failed: u64,
    /// Reads that found a damaged entry.
    pub corrupt: u64,
}

/// Atomic mirror of [`StoreStats`] shared by handle clones.
#[derive(Debug, Default)]
struct LocalStats {
    warm_hit: AtomicU64,
    cold_miss: AtomicU64,
    write: AtomicU64,
    write_failed: AtomicU64,
    corrupt: AtomicU64,
}

/// A clonable handle onto one store root directory.
///
/// Cloning shares the local stats and the hoisted registry handles, so a
/// daemon can hand one handle per worker without per-operation registry
/// traffic (the `ViewCache` hoisting pattern).
#[derive(Debug, Clone)]
pub struct StoreHandle {
    root: PathBuf,
    warm_hit: obs::Counter,
    cold_miss: obs::Counter,
    write: obs::Counter,
    write_failed: obs::Counter,
    corrupt: obs::Counter,
    local: Arc<LocalStats>,
}

impl StoreHandle {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// This is the single construction site for the `store/` counter
    /// family — all other store code goes through the hoisted handles.
    pub fn open(root: impl Into<PathBuf>) -> Result<StoreHandle, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|source| StoreError::Io { path: root.clone(), source })?;
        Ok(StoreHandle {
            root,
            warm_hit: obs::counter(STORE_WARM_HIT),
            cold_miss: obs::counter(STORE_COLD_MISS),
            write: obs::counter(STORE_WRITE),
            write_failed: obs::counter(STORE_WRITE_FAILED),
            corrupt: obs::counter(STORE_CORRUPT),
            local: Arc::new(LocalStats::default()),
        })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of the entry for `key` in `ns`.
    pub fn entry_path(&self, ns: &str, key: &StoreKey) -> PathBuf {
        self.root.join(namespace_dir(ns)).join(format!("{}.json", key.hex()))
    }

    /// Reads the entry for `key` in `ns`, classifying the outcome.
    ///
    /// Absent entries are [`Lookup::Miss`]; entries that fail any
    /// integrity check (unreadable, non-UTF-8, bad header, wrong
    /// schema/namespace/key, length or checksum mismatch, unparseable
    /// body) are [`Lookup::Corrupt`]. Neither panics.
    pub fn lookup(&self, ns: &str, key: &StoreKey) -> Lookup {
        self.read(ns, key, |body| Json::parse(&body).ok())
    }

    /// [`StoreHandle::lookup`] with a hit's body kept as the entry's
    /// verified text instead of a decoded document. Every check of
    /// `lookup` still runs, including that the body parses as JSON; a
    /// caller that only forwards the result (`locapd` splices it into
    /// its response line) saves decoding it and encoding it again.
    pub fn lookup_text(&self, ns: &str, key: &StoreKey) -> Lookup<String> {
        self.read(ns, key, |body| Json::parse(&body).is_ok().then_some(body))
    }

    /// The one read path: loads the entry, verifies its header, length
    /// and checksum, hands the body to `decode` (`None` means damaged)
    /// and counts the outcome.
    fn read<T>(
        &self,
        ns: &str,
        key: &StoreKey,
        decode: impl FnOnce(String) -> Option<T>,
    ) -> Lookup<T> {
        let path = self.entry_path(ns, key);
        let outcome = match fs::read_to_string(&path) {
            Ok(mut text) => match body_range(&text, ns, key) {
                Some(body) => {
                    text.truncate(body.end);
                    text.drain(..body.start);
                    decode(text).map_or(Lookup::Corrupt, Lookup::Hit)
                }
                None => Lookup::Corrupt,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => Lookup::Miss,
            Err(_) => Lookup::Corrupt,
        };
        match outcome {
            Lookup::Hit(_) => {
                self.warm_hit.inc();
                self.local.warm_hit.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Miss => {
                self.cold_miss.inc();
                self.local.cold_miss.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Corrupt => {
                self.corrupt.inc();
                self.local.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Convenience read: the decoded document on a warm hit, `None` on
    /// miss or corruption (counters still distinguish the two).
    pub fn get(&self, ns: &str, key: &StoreKey) -> Option<Json> {
        match self.lookup(ns, key) {
            Lookup::Hit(doc) => Some(doc),
            Lookup::Miss | Lookup::Corrupt => None,
        }
    }

    /// Persists `doc` as the entry for `key` in `ns` (overwriting any
    /// previous entry, including a corrupt one) via temp file + rename.
    pub fn put(&self, ns: &str, key: &StoreKey, doc: &Json) -> Result<(), StoreError> {
        self.put_text(ns, key, &doc.to_string())
    }

    /// [`StoreHandle::put`] for a document already encoded as `body`
    /// (its compact JSON text, as `doc.to_string()` renders it), so that
    /// a caller which also sends the encoding elsewhere encodes once. The
    /// body is stored as given: one that does not parse as JSON reads
    /// back as [`Lookup::Corrupt`].
    pub fn put_text(&self, ns: &str, key: &StoreKey, body: &str) -> Result<(), StoreError> {
        let path = self.entry_path(ns, key);
        let result = write_entry(&path, ns, key, body);
        match result {
            Ok(()) => {
                self.write.inc();
                self.local.write.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_failed.inc();
                self.local.write_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Records a corruption discovered *after* a checksum-valid hit
    /// (the body parsed as JSON but failed the caller's domain decode).
    pub fn note_corrupt(&self) {
        self.corrupt.inc();
        self.local.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Handle-local operation totals since [`StoreHandle::open`].
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            warm_hit: self.local.warm_hit.load(Ordering::Relaxed),
            cold_miss: self.local.cold_miss.load(Ordering::Relaxed),
            write: self.local.write.load(Ordering::Relaxed),
            write_failed: self.local.write_failed.load(Ordering::Relaxed),
            corrupt: self.local.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Maps a namespace onto a filesystem-safe directory name. Namespace
/// constants are `/`-free by convention; the header `ns` check is the
/// backstop should two namespaces ever sanitize onto one directory.
fn namespace_dir(ns: &str) -> String {
    ns.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect()
}

/// FNV-1a over raw bytes (the body checksum).
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ (b as u64)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks one entry file's header, length and checksum, returning the
/// byte range of its body, or `None` on any damage.
fn body_range(text: &str, ns: &str, key: &StoreKey) -> Option<Range<usize>> {
    let (header_line, rest) = text.split_once('\n')?;
    let header = Json::parse(header_line).ok()?;
    if header.get("schema")?.as_u64()? != SCHEMA {
        return None;
    }
    if header.get("ns")?.as_str()? != ns {
        return None;
    }
    if header.get("key")?.as_str()? != key.hex() {
        return None;
    }
    let len = usize::try_from(header.get("len")?.as_u64()?).ok()?;
    let sum = header.get("sum")?.as_str()?;
    // Body is exactly `len` bytes followed by exactly one newline; a
    // shorter file is truncated, a longer one has trailing garbage.
    if rest.len() != len + 1 || rest.as_bytes().get(len) != Some(&b'\n') {
        return None;
    }
    let body = rest.get(..len)?;
    if format!("{:016x}", fnv1a_bytes(body.as_bytes())) != sum {
        return None;
    }
    let start = header_line.len() + 1;
    Some(start..start + len)
}

/// Writes one entry file atomically (temp file in the same directory,
/// then rename over the final path).
fn write_entry(path: &Path, ns: &str, key: &StoreKey, body: &str) -> Result<(), StoreError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)
            .map_err(|source| StoreError::Io { path: dir.to_path_buf(), source })?;
    }
    let header = Json::Obj(vec![
        ("schema".into(), Json::Num(SCHEMA as f64)),
        ("ns".into(), Json::Str(ns.into())),
        ("key".into(), Json::Str(key.hex())),
        ("len".into(), Json::Num(body.len() as f64)),
        ("sum".into(), Json::Str(format!("{:016x}", fnv1a_bytes(body.as_bytes())))),
    ]);
    let contents = format!("{header}\n{body}\n");
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, contents).map_err(|source| StoreError::Io { path: tmp.clone(), source })?;
    fs::rename(&tmp, path).map_err(|source| StoreError::Io { path: path.to_path_buf(), source })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("locap-store-unit-{}-{name}", std::process::id()))
    }

    fn sample_doc() -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("classes".into(), Json::Arr(vec![Json::Num(3.0), Json::Str("a/b".into())])),
            ("note".into(), Json::Str("quote \" and \\ backslash".into())),
        ])
    }

    #[test]
    fn round_trip_and_counters() {
        let dir = scratch("round-trip");
        let store = StoreHandle::open(&dir).unwrap();
        let key = StoreKey::of_bytes(b"round-trip input");
        assert_eq!(store.lookup("unit", &key), Lookup::Miss);
        store.put("unit", &key, &sample_doc()).unwrap();
        assert_eq!(store.lookup("unit", &key), Lookup::Hit(sample_doc()));
        let stats = store.stats();
        assert_eq!((stats.warm_hit, stats.cold_miss, stats.write), (1, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_inputs_key_distinctly() {
        assert_ne!(StoreKey::of_bytes(b"a/b"), StoreKey::of_bytes(b"a-b"));
        assert_ne!(StoreKey::of_bytes(&[1, 0]), StoreKey::of_bytes(&[1]));
        assert_ne!(StoreKey::of_words(&[1, 0]), StoreKey::of_words(&[1]));
        assert_eq!(StoreKey::of_bytes(b"same"), StoreKey::of_bytes(b"same"));
        assert_eq!(StoreKey::of_bytes(b"same").hex().len(), 32);
        assert_eq!(StoreKey::of_bytes(b"same").short_hex().len(), 8);
    }

    #[test]
    fn namespace_mismatch_is_corrupt_not_hit() {
        let dir = scratch("ns-mismatch");
        let store = StoreHandle::open(&dir).unwrap();
        let key = StoreKey::of_bytes(b"payload");
        store.put("alpha", &key, &Json::Bool(true)).unwrap();
        // Same sanitized directory, different logical namespace: the
        // header check must refuse the entry.
        std::fs::rename(
            store.entry_path("alpha", &key).parent().unwrap(),
            dir.join(namespace_dir("beta")),
        )
        .unwrap();
        assert_eq!(store.lookup("beta", &key), Lookup::Corrupt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_flipped_entries_are_corrupt() {
        let dir = scratch("damage");
        let store = StoreHandle::open(&dir).unwrap();
        let key = StoreKey::of_bytes(b"damage");
        store.put("unit", &key, &sample_doc()).unwrap();
        let path = store.entry_path("unit", &key);
        let original = std::fs::read(&path).unwrap();

        for cut in [0, 1, original.len() / 2, original.len() - 1] {
            std::fs::write(&path, &original[..cut]).unwrap();
            assert_eq!(store.lookup("unit", &key), Lookup::Corrupt, "cut at {cut}");
        }
        let mut flipped = original.clone();
        flipped[original.len() / 2] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(store.lookup("unit", &key), Lookup::Corrupt);

        // A fresh put repairs the entry in place.
        store.put("unit", &key, &sample_doc()).unwrap();
        assert_eq!(store.lookup("unit", &key), Lookup::Hit(sample_doc()));
        assert!(store.stats().corrupt >= 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_failure_is_typed_and_counted() {
        let dir = scratch("write-fail");
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where the namespace directory should go makes
        // create_dir_all fail with NotADirectory even as root.
        std::fs::write(dir.join("blocked"), b"file").unwrap();
        let store = StoreHandle::open(&dir).unwrap();
        let key = StoreKey::of_bytes(b"unwritable");
        let err = store.put("blocked", &key, &Json::Null).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("store I/O error"));
        assert_eq!(store.stats().write_failed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
