//! The rule configuration: which files each rule covers and which clock
//! sites are allowlisted (with reasons — an allowlist entry without a
//! rationale is just hidden debt).
//!
//! The configuration is code, not a config file, on purpose: changing
//! the contract surface should be a reviewed diff next to the rules it
//! affects, and the allowlist reasons are rendered into diagnostics.

/// An allowlisted wall-clock read site for the clock-discipline rule.
#[derive(Debug, Clone, Copy)]
pub struct ClockAllow {
    /// Repo-relative file the allowance applies to.
    pub file: &'static str,
    /// The allowed symbol (`Instant::now` or `SystemTime::now`).
    pub symbol: &'static str,
    /// How many occurrences the file may contain.
    pub max: usize,
    /// Why this site may read the clock directly.
    pub reason: &'static str,
}

/// Workspace-analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Allowlisted direct clock reads (L2).
    pub clock_allow: Vec<ClockAllow>,
    /// Files exempt from the counter-discipline rule (L3): the obs
    /// registry itself, whose internals necessarily handle raw names.
    pub counter_exempt: Vec<&'static str>,
    /// Allowlisted poison-recovery helpers (L6/L7): `(crate path
    /// prefix, fn name)`. Inside a helper's body, post-lock
    /// `unwrap`/`expect`/`unwrap_or_else` is legal (that is the one
    /// audited place poisoning is handled); at call sites, passing a
    /// ranked mutex to the helper counts as acquiring it for the
    /// lock-order analysis.
    pub lock_helpers: Vec<(&'static str, &'static str)>,
}

impl Config {
    /// The workspace's contract configuration (see DESIGN.md).
    pub fn locap() -> Config {
        Config {
            clock_allow: vec![
                ClockAllow {
                    file: "crates/graph/src/budget.rs",
                    symbol: "Instant::now",
                    max: 1,
                    reason: "StdClock is the production MonotonicClock every budget deadline \
                             reads through",
                },
                ClockAllow {
                    file: "crates/obs/src/lib.rs",
                    symbol: "Instant::now",
                    max: 1,
                    reason: "span timing source of the observability layer itself",
                },
                ClockAllow {
                    file: "crates/obs/src/trace.rs",
                    symbol: "Instant::now",
                    max: 1,
                    reason: "the process-wide trace epoch anchor (monotonic timestamps)",
                },
                ClockAllow {
                    file: "crates/criterionshim/src/lib.rs",
                    symbol: "Instant::now",
                    max: 2,
                    reason: "the bench harness measures wall time by definition (warm-up and \
                             sample loops)",
                },
                ClockAllow {
                    file: "crates/bench/src/gate.rs",
                    symbol: "SystemTime::now",
                    max: 1,
                    reason: "today_utc() stamps refreshed baselines with the recording date",
                },
                ClockAllow {
                    file: "crates/bench/src/lib.rs",
                    symbol: "Instant::now",
                    max: 1,
                    reason: "timed(), the one ad-hoc timer experiment binaries are routed \
                             through",
                },
                ClockAllow {
                    file: "crates/serve/src/provenance.rs",
                    symbol: "SystemTime::now",
                    max: 1,
                    reason: "created_unix_ms() stamps provenance sidecars; nothing downstream \
                             computes with the value",
                },
            ],
            counter_exempt: vec!["crates/obs/src/"],
            lock_helpers: vec![
                ("crates/serve/", "lock_or_recover"),
                ("crates/obs/", "lock_unpoisoned"),
                ("crates/bench/", "lock_unpoisoned"),
            ],
        }
    }

    /// Allowlisted poison-helper names for the crate containing `path`.
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

    /// Allowed occurrence budget for `symbol` in `path`, with reason.
    pub fn clock_allowance(&self, path: &str, symbol: &str) -> Option<&ClockAllow> {
        self.clock_allow.iter().find(|a| a.symbol == symbol && matches(path, a.file))
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

    #[test]
    fn clock_allowances() {
        let c = Config::locap();
        let a = c.clock_allowance("crates/graph/src/budget.rs", "Instant::now").expect("entry");
        assert_eq!(a.max, 1);
        assert!(c.clock_allowance("crates/graph/src/budget.rs", "SystemTime::now").is_none());
        assert!(c.clock_allowance("crates/algos/src/lib.rs", "Instant::now").is_none());
    }
}
