//! The workspace's one lock type: a mutex that carries its rank in its
//! type and recovers from poison itself.
//!
//! Every lock in the workspace is a [`Mutex<T, RANK>`], and the ranks form
//! one workspace-wide order: a thread may acquire a lock only while every
//! lock it already holds has a lower rank. Two threads that both follow
//! the order cannot wait on each other in a cycle, so the order rules out
//! deadlock between ranked locks, across fns and across crates alike.
//!
//! | rank | lock |
//! |-----:|------|
//! | 1 | test serialisation locks (serve `SERIAL`, failure injection's `INPUT_LENGTH`) |
//! | 10 | serve's worker job receiver; a soak connection's pending map |
//! | 20 | the soak error map |
//! | 30 | a serve connection's response writer |
//! | 40–43 | the [`crate::Registry`] sections: counters, gauges, spans, latencies |
//!
//! The registry locks rank above every serve and bench lock
//! because code holding a serve lock counts into the registry: a
//! connection counts its response while it holds the writer, and
//! [`MutexGuard::recovered`] is counted while the recovered guard is
//! live.
//!
//! Under `debug_assertions` each thread keeps the set of ranks it holds,
//! and [`Mutex::lock`] panics on an acquisition whose rank is not above
//! every held one; [`assert_unlocked`] goes before each blocking call that
//! does not go through a guard (a channel receive, a socket read or
//! write, `accept`), where holding any lock could stall its peers.
//! Release builds compile both checks out. A runtime check sees only the
//! paths that run, so the debug test pass (`cargo test`) is its coverage.
//!
//! The held set lives in a `const`-initialised thread-local of a `Copy`
//! type, which registers no destructor: thread-local destructors that run
//! at thread exit can still lock.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock of rank `RANK` (below 64) that recovers from
/// poison. See the [module docs](self) for the rank order.
pub struct Mutex<T: ?Sized, const RANK: u32> {
    inner: std::sync::Mutex<T>,
}

/// The guard of a [`Mutex`]; the lock is released (and its rank leaves
/// the thread's held set) when it drops.
#[must_use = "the lock is released as soon as the guard drops"]
pub struct MutexGuard<'a, T: ?Sized, const RANK: u32> {
    inner: std::sync::MutexGuard<'a, T>,
    recovered: bool,
}

impl<T, const RANK: u32> Mutex<T, RANK> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T, RANK> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized, const RANK: u32> Mutex<T, RANK> {
    /// Acquires the lock, blocking until it is free.
    ///
    /// A lock poisoned by a thread that panicked while holding it is
    /// recovered: the guarded value is still structurally sound (every
    /// holder leaves it so between statements), the poison flag is
    /// cleared so later acquisitions take the plain path, and
    /// [`MutexGuard::recovered`] reports it on this one guard only.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds a lock whose rank
    /// is not below `RANK` (re-locking the same mutex included).
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one poison-recovery site: the guarded value is still \
                  structurally sound, and recovery clears the poison flag"
    )]
    pub fn lock(&self) -> MutexGuard<'_, T, RANK> {
        const { assert!(RANK < 64, "lock ranks are below 64") };
        #[cfg(debug_assertions)]
        held::acquire(RANK);
        let (inner, recovered) = match self.inner.lock() {
            Ok(guard) => (guard, false),
            Err(poisoned) => {
                self.inner.clear_poison();
                (poisoned.into_inner(), true)
            }
        };
        MutexGuard { inner, recovered }
    }
}

impl<T: ?Sized, const RANK: u32> MutexGuard<'_, T, RANK> {
    /// Whether this acquisition found the lock poisoned and recovered it.
    /// True for exactly one guard per poisoning, so a caller that counts
    /// it counts each poisoning once.
    pub fn recovered(this: &Self) -> bool {
        this.recovered
    }
}

impl<T: ?Sized, const RANK: u32> Deref for MutexGuard<'_, T, RANK> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized, const RANK: u32> DerefMut for MutexGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized, const RANK: u32> Drop for MutexGuard<'_, T, RANK> {
    fn drop(&mut self) {
        held::release(RANK);
    }
}

impl<T: Default, const RANK: u32> Default for Mutex<T, RANK> {
    fn default() -> Mutex<T, RANK> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, const RANK: u32> fmt::Debug for Mutex<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// Asserts, in debug builds, that this thread holds no ranked lock. Call
/// it before each blocking call that does not go through a guard.
///
/// # Panics
///
/// In debug builds, when this thread holds a [`Mutex`] guard.
#[track_caller]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    {
        let held = held::ranks();
        assert!(held == 0, "blocking call while holding lock rank(s) {}", held::render(held));
    }
}

/// The calling thread's held ranks, one bit per rank.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    thread_local! {
        static HELD: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn ranks() -> u64 {
        HELD.with(Cell::get)
    }

    pub(super) fn acquire(rank: u32) {
        let held = ranks();
        assert!(
            held >> rank == 0,
            "lock rank {rank} acquired while holding rank(s) {}: ranks must strictly increase",
            render(held)
        );
        HELD.with(|h| h.set(held | 1 << rank));
    }

    pub(super) fn release(rank: u32) {
        HELD.with(|h| h.set(h.get() & !(1 << rank)));
    }

    /// `held` as a comma-separated rank list.
    pub(super) fn render(held: u64) -> String {
        let ranks: Vec<String> =
            (0..64).filter(|r| held >> r & 1 == 1).map(|r| r.to_string()).collect();
        ranks.join(", ")
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::sync::Arc;

    static LOW: Mutex<u8, 10> = Mutex::new(0);
    static HIGH: Mutex<u8, 20> = Mutex::new(0);

    /// The panic message of a closure run on its own thread, if it
    /// panicked.
    fn panic_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let payload = std::thread::spawn(f).join().err()?;
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

    #[test]
    fn increasing_ranks_are_accepted() {
        assert!(panic_of(|| {
            let low = LOW.lock();
            let high = HIGH.lock();
            drop(high);
            drop(low);
        })
        .is_none());
    }

    #[test]
    fn an_inverted_acquisition_panics() {
        let msg = panic_of(|| {
            let _high = HIGH.lock();
            let _low = LOW.lock();
        });
        let msg = msg.expect("rank 10 under rank 20 must panic");
        assert!(msg.contains("lock rank 10 acquired while holding rank(s) 20"), "{msg}");
    }

    fn f() {
        let _high = HIGH.lock();
        g();
    }

    fn g() {
        h();
    }

    fn h() {
        let _low = LOW.lock();
    }

    /// The shape a one-level call expansion misses: `f` holds rank 20 and
    /// calls `g`, whose callee `h` takes rank 10.
    #[test]
    fn an_inversion_two_calls_deep_panics() {
        let msg = panic_of(f).expect("rank 10 two calls under rank 20 must panic");
        assert!(msg.contains("lock rank 10 acquired while holding rank(s) 20"), "{msg}");
    }

    #[test]
    fn relocking_the_same_mutex_panics_instead_of_deadlocking() {
        let msg = panic_of(|| {
            let _a = LOW.lock();
            let _b = LOW.lock();
        });
        assert!(msg.is_some_and(|m| m.contains("lock rank 10 acquired while holding rank(s) 10")));
    }

    #[test]
    fn blocking_under_a_guard_panics_at_assert_unlocked() {
        let msg = panic_of(|| {
            let (tx, rx) = std::sync::mpsc::channel::<u8>();
            let _low = LOW.lock();
            assert_unlocked();
            let _ = tx.send(1);
            let _ = rx.recv();
        });
        let msg = msg.expect("a blocking call under a guard must panic");
        assert!(msg.contains("blocking call while holding lock rank(s) 10"), "{msg}");
        // dropping the guard first is the sanctioned shape
        assert!(panic_of(|| {
            drop(LOW.lock());
            assert_unlocked();
        })
        .is_none());
    }

    #[test]
    fn out_of_order_release_keeps_the_held_set_exact() {
        assert!(panic_of(|| {
            let low = LOW.lock();
            let high = HIGH.lock();
            drop(low);
            assert_eq!(held::ranks(), 1 << 20);
            drop(high);
            assert_eq!(held::ranks(), 0);
            assert_unlocked();
            // both ranks are free again, in order
            let _low = LOW.lock();
            let _high = HIGH.lock();
        })
        .is_none());
    }

    #[test]
    fn poison_is_recovered_cleared_and_reported_once() {
        let m: Arc<Mutex<u8, 10>> = Arc::new(Mutex::new(7));
        let holder = Arc::clone(&m);
        assert!(panic_of(move || {
            let _guard = holder.lock();
            panic!("poison the lock");
        })
        .is_some());
        let first = m.lock();
        assert!(MutexGuard::recovered(&first), "the first acquisition recovers");
        assert_eq!(*first, 7, "the guarded value survives");
        drop(first);
        assert!(!MutexGuard::recovered(&m.lock()), "recovery cleared the poison flag");
    }

    /// Set by [`LocksOnExit`]'s destructor once it got the lock.
    static LOCKED_ON_EXIT: Mutex<bool, 10> = Mutex::new(false);

    struct LocksOnExit;

    impl Drop for LocksOnExit {
        fn drop(&mut self) {
            *LOCKED_ON_EXIT.lock() = true;
        }
    }

    thread_local! {
        static ON_EXIT: LocksOnExit = const { LocksOnExit };
    }

    #[test]
    fn a_thread_local_destructor_can_still_lock() {
        let joined = std::thread::spawn(|| ON_EXIT.with(|_| ())).join();
        assert!(joined.is_ok(), "the exiting thread must not panic");
        assert!(*LOCKED_ON_EXIT.lock());
    }
}
