//! The rule configuration: which files each rule covers and which
//! poison-recovery helpers the lock-order rule reads as acquisitions.
//!
//! The configuration is code, not a config file, on purpose: changing
//! the contract surface should be a reviewed diff next to the rules it
//! affects.

/// Workspace-analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files exempt from the counter-discipline rule (L3): the obs
    /// registry itself, whose internals necessarily handle raw names.
    pub counter_exempt: Vec<&'static str>,
    /// Each crate's poison-recovery helper (L6): `(crate path prefix,
    /// fn name)`. Passing a ranked mutex to the helper counts as
    /// acquiring it for the lock-order analysis. (The helper is the one
    /// fn per crate where clippy's `disallowed_methods` is expected on
    /// `Mutex::lock`.)
    pub lock_helpers: Vec<(&'static str, &'static str)>,
}

impl Config {
    /// The workspace's contract configuration (see DESIGN.md).
    pub fn locap() -> Config {
        Config {
            counter_exempt: vec!["crates/obs/src/"],
            lock_helpers: vec![
                ("crates/serve/", "lock_or_recover"),
                ("crates/obs/", "lock_unpoisoned"),
                ("crates/bench/", "lock_unpoisoned"),
            ],
        }
    }

    /// Poison-recovery helper names for the crate containing `path`.
    pub fn lock_helper_names(&self, path: &str) -> Vec<&'static str> {
        self.lock_helpers
            .iter()
            .filter(|(prefix, _)| matches(path, prefix))
            .map(|(_, name)| *name)
            .collect()
    }

    /// Whether `path` is exempt from counter discipline.
    pub fn counter_exempt(&self, path: &str) -> bool {
        self.counter_exempt.iter().any(|p| matches(path, p))
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::locap()
    }
}

/// Path matching: an entry ending in `/` is a directory prefix,
/// otherwise an exact repo-relative path.
fn matches(path: &str, entry: &str) -> bool {
    if let Some(dir) = entry.strip_suffix('/') {
        path.starts_with(dir) && path.len() > dir.len() && path.as_bytes()[dir.len()] == b'/'
    } else {
        path == entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        let c = Config::locap();
        assert!(c.counter_exempt("crates/obs/src/trace.rs"));
        assert!(!c.counter_exempt("crates/graph/src/canon.rs"));
        // a directory entry matches whole path segments only
        assert!(!c.counter_exempt("crates/obs/srcx/a.rs"));
    }
}
