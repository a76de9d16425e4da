//! Run budgets: bounded execution with typed truncation.
//!
//! Production runs over arbitrary inputs must never run away. A
//! [`RunBudget`] bounds a computation along three axes — simulator
//! rounds (or, for search pipelines, search steps), wall-clock time via
//! a caller-supplied [`MonotonicClock`], and memoisation-cache entries —
//! and a run that exhausts its budget returns what it has computed so
//! far tagged with a [`TruncationReason`] (see [`Budgeted`]) instead of
//! looping or aborting.
//!
//! Every truncation publishes a `budget/truncated/<kind>` counter into
//! `locap-obs`, so truncated runs are visible in `OBS_JSON` snapshots
//! and the daemon's `stats`.

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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locap_obs as obs;

/// A monotonic time source for deadline checks.
///
/// Budgets never read the system clock themselves: the caller supplies
/// the clock, which keeps deadline behaviour deterministic in tests
/// (see [`ManualClock`]) and lets embedders use their own time base.
pub trait MonotonicClock: Send + Sync {
    /// Time elapsed since the clock's epoch (its creation, for
    /// [`StdClock`]). Must be non-decreasing across calls.
    fn elapsed(&self) -> Duration;
}

/// The standard clock: measures real time since its creation via
/// [`std::time::Instant`].
#[derive(Debug)]
pub struct StdClock {
    start: Instant,
}

impl StdClock {
    /// A clock whose epoch is now.
    #[expect(
        clippy::disallowed_methods,
        reason = "StdClock is the production MonotonicClock every budget deadline reads through"
    )]
    pub fn new() -> StdClock {
        StdClock { start: Instant::now() }
    }
}

impl Default for StdClock {
    fn default() -> StdClock {
        StdClock::new()
    }
}

impl MonotonicClock for StdClock {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// A manually-advanced clock for deterministic deadline tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock { nanos: AtomicU64::new(0) }
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Sets the clock to `d` past its epoch.
    pub fn set(&self, d: Duration) {
        self.nanos.store(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl MonotonicClock for ManualClock {
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// A shared cancellation flag for cooperative early termination.
///
/// Cancellation is the fourth budget axis, designed for *external*
/// interruption (a client disconnecting from `locapd`, a daemon
/// draining for shutdown) rather than resource exhaustion: any holder
/// of a clone may [`CancelToken::cancel`], and every budget check site
/// that watches the deadline also watches cancellation (via
/// [`RunBudget::check_interrupt`]), so a cancelled run winds down at
/// the next check with [`TruncationReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every budget sharing it trips on its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a budgeted run stopped early.
///
/// Creating a reason does not count it; the site that acts on a
/// truncation calls [`TruncationReason::publish`] exactly once, which
/// increments the `budget/truncated/<kind>` counter.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TruncationReason {
    /// The round (or search-step) limit was reached before completion.
    RoundLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured deadline.
        limit: Duration,
        /// Clock reading when the overrun was observed.
        elapsed: Duration,
    },
    /// A memoisation cache would exceed its entry cap.
    CacheCapExceeded {
        /// The configured cap.
        cap: usize,
        /// Entries the computation needed when it stopped.
        needed: usize,
    },
    /// A [`CancelToken`] attached to the budget was cancelled.
    Cancelled,
}

impl TruncationReason {
    /// Stable short name, used as the counter suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            TruncationReason::RoundLimit { .. } => "round_limit",
            TruncationReason::DeadlineExceeded { .. } => "deadline",
            TruncationReason::CacheCapExceeded { .. } => "cache_cap",
            TruncationReason::Cancelled => "cancelled",
        }
    }

    /// Publishes this truncation to the obs registry
    /// (`budget/truncated/<kind>`) and returns it.
    pub fn publish(self) -> TruncationReason {
        obs::counter(&format!("budget/truncated/{}", self.kind())).inc();
        self
    }
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncationReason::RoundLimit { limit } => {
                write!(f, "round limit {limit} reached")
            }
            // the measured `elapsed` stays out of the text, so two
            // answers to one request read the same
            TruncationReason::DeadlineExceeded { limit, .. } => {
                write!(f, "deadline {limit:?} exceeded")
            }
            TruncationReason::CacheCapExceeded { cap, needed } => {
                write!(f, "cache entry cap {cap} exceeded (needed {needed})")
            }
            TruncationReason::Cancelled => write!(f, "run cancelled"),
        }
    }
}

/// A bound on how much work a run may do.
///
/// The default ([`RunBudget::unlimited`]) imposes no bound at all; each
/// axis is opt-in via the builder methods. Budgets are cheap to clone
/// and safe to share across the scoped worker threads the engines use.
#[derive(Clone, Default)]
pub struct RunBudget {
    max_rounds: Option<usize>,
    deadline: Option<(Duration, Arc<dyn MonotonicClock>)>,
    max_cache_entries: Option<usize>,
    cancel: Vec<CancelToken>,
}

impl RunBudget {
    /// A budget with no limits; every check passes.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Caps the number of simulator rounds (or pipeline search steps).
    pub fn with_max_rounds(mut self, rounds: usize) -> RunBudget {
        self.max_rounds = Some(rounds);
        self
    }

    /// Adds a wall-clock deadline: the run stops once `clock.elapsed()`
    /// exceeds `limit`.
    pub fn with_deadline(mut self, limit: Duration, clock: Arc<dyn MonotonicClock>) -> RunBudget {
        self.deadline = Some((limit, clock));
        self
    }

    /// Caps the number of entries a memoisation cache (e.g. the view
    /// cache's refinement classes) may hold during the run.
    pub fn with_cache_cap(mut self, entries: usize) -> RunBudget {
        self.max_cache_entries = Some(entries);
        self
    }

    /// Attaches a cancellation token; may be called more than once (the
    /// run stops when *any* attached token is cancelled — e.g. a
    /// per-connection token plus a daemon-wide drain token).
    pub fn with_cancel(mut self, token: CancelToken) -> RunBudget {
        self.cancel.push(token);
        self
    }

    /// The round cap, if any.
    pub fn max_rounds(&self) -> Option<usize> {
        self.max_rounds
    }

    /// The cache entry cap, if any.
    pub fn cache_cap(&self) -> Option<usize> {
        self.max_cache_entries
    }

    /// Whether `rounds` completed rounds exhaust the round cap.
    /// Returns the reason (unpublished) if so.
    pub fn check_rounds(&self, rounds: usize) -> Option<TruncationReason> {
        match self.max_rounds {
            Some(limit) if rounds >= limit => Some(TruncationReason::RoundLimit { limit }),
            _ => None,
        }
    }

    /// Whether the deadline has passed. Returns the reason
    /// (unpublished) if so.
    pub fn check_deadline(&self) -> Option<TruncationReason> {
        match &self.deadline {
            Some((limit, clock)) => {
                let elapsed = clock.elapsed();
                if elapsed > *limit {
                    Some(TruncationReason::DeadlineExceeded { limit: *limit, elapsed })
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// Whether a cache holding `needed` entries exceeds the cap.
    /// Returns the reason (unpublished) if so.
    pub fn check_cache(&self, needed: usize) -> Option<TruncationReason> {
        match self.max_cache_entries {
            Some(cap) if needed > cap => Some(TruncationReason::CacheCapExceeded { cap, needed }),
            _ => None,
        }
    }

    /// Whether any attached [`CancelToken`] was cancelled. Returns the
    /// reason (unpublished) if so.
    pub fn check_cancelled(&self) -> Option<TruncationReason> {
        self.cancel
            .iter()
            .any(CancelToken::is_cancelled)
            .then_some(TruncationReason::Cancelled)
    }

    /// The interrupt check every deadline-watching site uses:
    /// cancellation first (it is cheaper and more urgent), then the
    /// wall-clock deadline. Returns the reason (unpublished) if either
    /// trips.
    pub fn check_interrupt(&self) -> Option<TruncationReason> {
        self.check_cancelled().or_else(|| self.check_deadline())
    }

    /// The interrupt check of a loop that polls once per cheap step:
    /// cancellation on every call, the clock only on step 0, on every
    /// [`POLL_STRIDE`]-th step and whenever `costly` (the step is about
    /// to do work that may take far longer than a cheap one). Reading
    /// the clock costs tens of nanoseconds against about one for an
    /// atomic load, so a deadline is noticed at most `POLL_STRIDE − 1`
    /// cheap steps late. Returns the reason (unpublished) if either
    /// trips.
    pub fn poll_interrupt(&self, step: usize, costly: bool) -> Option<TruncationReason> {
        if let Some(t) = self.check_cancelled() {
            return Some(t);
        }
        if costly || step % POLL_STRIDE == 0 {
            self.check_deadline()
        } else {
            None
        }
    }
}

/// The step stride at which [`RunBudget::poll_interrupt`] reads the
/// clock between costly steps.
pub const POLL_STRIDE: usize = 1 << 10;

impl fmt::Debug for RunBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunBudget")
            .field("max_rounds", &self.max_rounds)
            .field("deadline", &self.deadline.as_ref().map(|(d, _)| *d))
            .field("max_cache_entries", &self.max_cache_entries)
            .field("cancel_tokens", &self.cancel.len())
            .finish()
    }
}

/// A run result that may be a partial prefix.
///
/// `value` always holds well-defined output: for a truncated simulator
/// run, the states after the last completed round; for a truncated
/// engine run, whatever the caller chose to expose. `truncation` is
/// `None` exactly when the run finished within budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budgeted<T> {
    /// The (possibly partial) result.
    pub value: T,
    /// Why the run stopped early, if it did.
    pub truncation: Option<TruncationReason>,
}

impl<T> Budgeted<T> {
    /// Wraps a result that completed within budget.
    pub fn complete(value: T) -> Budgeted<T> {
        Budgeted { value, truncation: None }
    }

    /// Wraps a partial result with its truncation reason.
    pub fn truncated(value: T, reason: TruncationReason) -> Budgeted<T> {
        Budgeted { value, truncation: Some(reason) }
    }

    /// Whether the run finished within budget.
    pub fn is_complete(&self) -> bool {
        self.truncation.is_none()
    }

    /// Maps the value, keeping the truncation tag.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Budgeted<U> {
        Budgeted { value: f(self.value), truncation: self.truncation }
    }

    /// The value if complete, `None` if truncated.
    pub fn into_complete(self) -> Option<T> {
        match self.truncation {
            None => Some(self.value),
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_truncates() {
        let b = RunBudget::unlimited();
        assert_eq!(b.check_rounds(usize::MAX - 1), None);
        assert_eq!(b.check_deadline(), None);
        assert_eq!(b.check_cache(usize::MAX - 1), None);
        assert_eq!(b.max_rounds(), None);
        assert_eq!(b.cache_cap(), None);
    }

    #[test]
    fn round_cap_trips_at_limit() {
        let b = RunBudget::unlimited().with_max_rounds(5);
        assert_eq!(b.check_rounds(4), None);
        assert_eq!(b.check_rounds(5), Some(TruncationReason::RoundLimit { limit: 5 }));
        assert_eq!(b.max_rounds(), Some(5));
    }

    #[test]
    fn manual_clock_deadline() {
        let clock = Arc::new(ManualClock::new());
        let b = RunBudget::unlimited()
            .with_deadline(Duration::from_millis(10), Arc::clone(&clock) as _);
        assert_eq!(b.check_deadline(), None);
        clock.advance(Duration::from_millis(10));
        assert_eq!(b.check_deadline(), None, "deadline is inclusive");
        clock.advance(Duration::from_millis(1));
        let reason = b.check_deadline().expect("deadline passed");
        assert!(matches!(reason, TruncationReason::DeadlineExceeded { .. }));
        assert_eq!(reason.kind(), "deadline");
    }

    #[test]
    fn cache_cap_trips_above_cap() {
        let b = RunBudget::unlimited().with_cache_cap(100);
        assert_eq!(b.check_cache(100), None);
        assert_eq!(
            b.check_cache(101),
            Some(TruncationReason::CacheCapExceeded { cap: 100, needed: 101 })
        );
    }

    #[test]
    fn cancel_token_trips_check_interrupt() {
        let token = CancelToken::new();
        let b = RunBudget::unlimited().with_cancel(token.clone());
        assert_eq!(b.check_cancelled(), None);
        assert_eq!(b.check_interrupt(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check_cancelled(), Some(TruncationReason::Cancelled));
        assert_eq!(b.check_interrupt(), Some(TruncationReason::Cancelled));
        assert_eq!(TruncationReason::Cancelled.kind(), "cancelled");
        assert_eq!(TruncationReason::Cancelled.to_string(), "run cancelled");
    }

    #[test]
    fn any_of_several_tokens_cancels() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let budget = RunBudget::unlimited().with_cancel(a.clone()).with_cancel(b.clone());
        assert_eq!(budget.check_interrupt(), None);
        b.cancel();
        assert_eq!(budget.check_interrupt(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn interrupt_prefers_cancellation_over_deadline() {
        let clock = Arc::new(ManualClock::new());
        clock.set(Duration::from_secs(5));
        let token = CancelToken::new();
        token.cancel();
        let b = RunBudget::unlimited()
            .with_deadline(Duration::from_millis(1), clock)
            .with_cancel(token);
        assert_eq!(b.check_interrupt(), Some(TruncationReason::Cancelled));
    }

    /// A clock that counts its reads.
    #[derive(Debug, Default)]
    struct CountingClock {
        reads: AtomicU64,
    }

    impl MonotonicClock for CountingClock {
        fn elapsed(&self) -> Duration {
            self.reads.fetch_add(1, Ordering::SeqCst);
            Duration::ZERO
        }
    }

    #[test]
    fn poll_reads_the_clock_per_stride_and_per_costly_step() {
        let clock = Arc::new(CountingClock::default());
        let token = CancelToken::new();
        let b = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(1), Arc::clone(&clock) as _)
            .with_cancel(token.clone());
        let steps = 3 * POLL_STRIDE + 1;
        for step in 0..steps {
            assert_eq!(b.poll_interrupt(step, false), None);
        }
        assert_eq!(clock.reads.load(Ordering::SeqCst), 4, "steps 0, S, 2S and 3S");
        assert_eq!(b.poll_interrupt(7, true), None);
        assert_eq!(clock.reads.load(Ordering::SeqCst), 5, "a costly step reads the clock");
        token.cancel();
        assert_eq!(b.poll_interrupt(1, false), Some(TruncationReason::Cancelled));
        assert_eq!(clock.reads.load(Ordering::SeqCst), 5, "cancellation needs no clock read");
    }

    #[test]
    fn std_clock_is_monotonic() {
        let c = StdClock::new();
        let a = c.elapsed();
        let b = c.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn publish_increments_counter() {
        let count = || obs::counter_value("budget/truncated/round_limit");
        let before = count();
        let r = TruncationReason::RoundLimit { limit: 3 }.publish();
        assert_eq!(r, TruncationReason::RoundLimit { limit: 3 });
        assert_eq!(count(), before + 1);
    }

    #[test]
    fn budgeted_accessors() {
        let c = Budgeted::complete(7);
        assert!(c.is_complete());
        assert_eq!(c.clone().into_complete(), Some(7));
        let t = Budgeted::truncated(vec![1, 2], TruncationReason::RoundLimit { limit: 1 });
        assert!(!t.is_complete());
        assert_eq!(t.clone().map(|v| v.len()).value, 2);
        assert_eq!(t.into_complete(), None);
    }

    #[test]
    fn display_strings() {
        let r = TruncationReason::RoundLimit { limit: 9 };
        assert_eq!(r.to_string(), "round limit 9 reached");
        let c = TruncationReason::CacheCapExceeded { cap: 4, needed: 6 };
        assert!(c.to_string().contains("cap 4"));
        let d = TruncationReason::DeadlineExceeded {
            limit: Duration::from_secs(1),
            elapsed: Duration::from_secs(2),
        };
        assert!(d.to_string().contains("deadline"));
    }

    #[test]
    fn deadline_text_does_not_depend_on_the_elapsed_time() {
        let at = |ns| TruncationReason::DeadlineExceeded {
            limit: Duration::ZERO,
            elapsed: Duration::from_nanos(ns),
        };
        assert_eq!(at(415).to_string(), at(2_000_000_000).to_string());
        assert_eq!(at(415).to_string(), "deadline 0ns exceeded");
    }
}
