//! The workspace's one compute fan-out: [`map_chunks`], a chunked map
//! over `0..n`. It owns the fan-out policy (threshold, worker count,
//! chunking, span adoption, panic forwarding), so each census sweep keeps
//! only its threshold, its per-chunk work and an exact merge. The sweeps
//! then return the same bytes and counters at any worker count, which
//! `tests/worker_invariance.rs` checks by pinning the count with
//! [`with_workers`].

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

use std::cell::Cell;
use std::ops::Range;

use locap_obs as obs;

thread_local! {
    /// The worker count [`with_workers`] pinned on this thread, if any.
    static PINNED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` so that every [`map_chunks`] started on this thread inside
/// it uses `w` workers (0 counts as 1) in place of
/// `available_parallelism()`. Thresholds still apply. The setting is
/// thread-local, nests, and is restored when `f` returns or unwinds.
pub fn with_workers<R>(w: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED_WORKERS.set(self.0);
        }
    }
    let _restore = Restore(PINNED_WORKERS.replace(Some(w.max(1))));
    f()
}

fn workers() -> usize {
    PINNED_WORKERS
        .get()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Maps `f` over contiguous chunks of `0..n` and returns the chunk
/// results in index order; the result is never empty.
///
/// With `n < min_parallel`, an empty range or a single worker, this is
/// `vec![f(0..n)]` on the calling thread: nothing is spawned and no
/// `worker` span opens. Otherwise `0..n` is cut into chunks of
/// ⌈n / workers⌉ items and each non-empty chunk runs on its own scoped
/// thread, under the caller's span path plus a `worker` span.
///
/// # Panics
///
/// Re-raises, with its original payload, the first panic (in chunk
/// order) of any chunk.
pub fn map_chunks<T, F>(n: usize, min_parallel: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let workers = if n == 0 || n < min_parallel { 1 } else { workers() };
    if workers == 1 {
        return vec![f(0..n)];
    }
    let chunk = n.div_ceil(workers);
    let (f, parent_path) = (&f, &obs::current_span_path());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(n);
                scope.spawn(move || {
                    let _adopt = obs::adopt_span_path(parent_path);
                    let _span = obs::span("worker");
                    f(lo..hi)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The chunks `map_chunks` cuts, with the thread each ran on.
    fn chunks(n: usize, min_parallel: usize, w: usize) -> Vec<(Range<usize>, thread::ThreadId)> {
        with_workers(w, || map_chunks(n, min_parallel, |r| (r, thread::current().id())))
    }

    fn assert_tiles(parts: &[(Range<usize>, thread::ThreadId)], n: usize) {
        let mut next = 0;
        for (r, _) in parts {
            assert_eq!(r.start, next, "chunks are contiguous and in order: {parts:?}");
            assert!(r.end > r.start || n == 0, "no empty chunk: {parts:?}");
            next = r.end;
        }
        assert_eq!(next, n, "chunks cover 0..{n}: {parts:?}");
    }

    #[test]
    fn chunks_tile_the_range_around_the_threshold() {
        let caller = thread::current().id();
        let below = chunks(99, 100, 4);
        assert_eq!(below, [(0..99, caller)], "below the threshold: one chunk, no spawn");
        for n in [100, 101] {
            let parts = chunks(n, 100, 4);
            assert_tiles(&parts, n);
            assert_eq!(parts.len(), 4, "n = {n}");
            assert!(parts.iter().all(|(r, _)| r.len() == n.div_ceil(4) || r.end == n));
            assert!(parts.iter().all(|&(_, t)| t != caller), "above it: scoped threads");
        }
    }

    #[test]
    fn more_workers_than_items_spawn_one_thread_per_item() {
        let parts = chunks(3, 0, 8);
        assert_tiles(&parts, 3);
        assert_eq!(parts.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(), [0..1, 1..2, 2..3]);
    }

    #[test]
    fn one_worker_or_an_empty_range_stays_on_the_caller() {
        let caller = thread::current().id();
        assert_eq!(chunks(5000, 0, 1), [(0..5000, caller)]);
        assert_eq!(chunks(0, 0, 8), [(0..0, caller)], "the result is never empty");
        assert_eq!(chunks(7, 0, 0), [(0..7, caller)], "0 workers count as 1");
    }

    #[test]
    fn with_workers_nests_and_restores() {
        let pinned = || PINNED_WORKERS.get();
        let outer = pinned();
        with_workers(4, || {
            assert_eq!(pinned(), Some(4));
            with_workers(2, || assert_eq!(pinned(), Some(2)));
            assert_eq!(pinned(), Some(4));
            let unwound: thread::Result<()> =
                std::panic::catch_unwind(|| with_workers(8, || panic!("inner")));
            assert!(unwound.is_err());
            assert_eq!(pinned(), Some(4), "restored on unwind");
        });
        assert_eq!(pinned(), outer);
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        for w in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_workers(w, || {
                    map_chunks(8, 0, |r| {
                        if r.contains(&5) {
                            std::panic::panic_any(Payload(r.start));
                        }
                        r.len()
                    })
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let start = if w == 1 { 0 } else { 4 };
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(start)), "{w} worker(s)");
        }
    }

    #[test]
    fn worker_spans_nest_under_the_caller_only_when_parallel() {
        {
            let _s = obs::span("par_test_sequential");
            with_workers(4, || map_chunks(16, 17, |r| r.len()));
        }
        {
            let _s = obs::span("par_test_parallel");
            let _inner = obs::span("inner");
            with_workers(4, || map_chunks(16, 16, |r| r.len()));
        }
        let spans = obs::global().snapshot().spans;
        assert!(!spans.contains_key("par_test_sequential/worker"), "no worker span below it");
        assert_eq!(spans.get("par_test_parallel/inner/worker").map(|s| s.count), Some(4));
    }
}
