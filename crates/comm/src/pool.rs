//! Deterministic parallel execution engine.
//!
//! Amplification repetitions, per-seed trials and experiment grids are
//! embarrassingly parallel: public-coin runs with distinct seeds are
//! independent, so they can execute on worker threads in any order. What
//! must **not** change with the thread count is the output — the
//! bit-level transcripts, `CommStats` totals and exported JSON this
//! repository treats as ground truth. This module provides a scoped
//! thread pool whose combinators guarantee exactly that:
//!
//! * work items are identified by their index, never by completion time;
//! * results are reduced **in index order**, so any order-sensitive fold
//!   (transcript absorption, stats merging, JSON emission) sees the same
//!   sequence a serial loop would.
//!
//! Early exit is not the pool's business: an amplified sweep that stops
//! at its first witness is a one-session batch of the
//! [`scheduler`](crate::scheduler), which returns exactly the prefix a
//! serial loop would have computed.
//!
//! The determinism contract and sizing rules are documented in
//! `docs/PARALLELISM.md`; the differential test suite
//! (`tests/parallel_equivalence.rs`) enforces byte-identical output
//! across thread counts.
//!
//! # Sizing
//!
//! [`Pool::current`] resolves the thread count from, in order: the
//! process-wide override set by [`set_threads`] (the CLI's `--threads`
//! flag), the `TRIAD_THREADS` environment variable, and
//! [`std::thread::available_parallelism`]. A pool of one thread runs
//! every combinator inline on the caller's thread — that *is* the serial
//! path, with zero spawn overhead. A pool of `w > 1` threads spawns
//! `w − 1` and works on the caller's thread too.
//!
//! # Example
//!
//! ```
//! use triad_comm::pool::Pool;
//!
//! let serial: Vec<u64> = (0..10u64).map(|i| i * i).collect();
//! let parallel = Pool::new(4).ordered_map(10, |i| (i as u64) * (i as u64));
//! assert_eq!(parallel, serial);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Process-wide thread-count override (0 = unset). Set once at startup
/// by the CLI's `--threads` flag; read by [`Pool::current`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker thread count used by [`Pool::current`]
/// (the `--threads N` CLI flag). Values are clamped to at least 1.
/// Intended to be called once at process startup, before any pool is
/// created; explicit [`Pool::new`] pools are unaffected.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads.max(1), Ordering::SeqCst);
}

/// Resolves the configured worker thread count: the [`set_threads`]
/// override if set, else a positive integer `TRIAD_THREADS` environment
/// variable, else [`std::thread::available_parallelism`] (1 when even
/// that is unavailable).
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("TRIAD_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A scoped worker pool with deterministic, index-ordered reduction.
///
/// The pool owns no threads between calls: each combinator runs one
/// worker on the calling thread and spawns the others in a
/// [`std::thread::scope`], collects their results over a
/// [`std::sync::mpsc`] channel and joins them before returning, so
/// borrowing inputs from the caller's stack is free and no shutdown
/// protocol exists to get wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool — the serial reference path.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// The pool sized by the process configuration (see
    /// [`configured_threads`]).
    pub fn current() -> Pool {
        Pool::new(configured_threads())
    }

    /// A pool of `requested` workers clamped to the machine's
    /// [`std::thread::available_parallelism`]. Oversubscribing a scoped
    /// pool never helps CPU-bound work — extra workers just contend for
    /// the same cores and the context switches show up as negative
    /// scaling in throughput benchmarks — so saturation sweeps size their
    /// pools through this instead of [`Pool::new`].
    pub fn clamped(requested: usize) -> Pool {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Pool::new(requested.min(hw))
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Computes `f(0), …, f(n-1)` on the pool's workers and returns the
    /// results in index order — byte-identical to the serial
    /// `(0..n).map(f).collect()` regardless of thread count or worker
    /// interleaving.
    ///
    /// Every spawned worker thread has exited when this returns. A panic
    /// in any worker propagates to the caller with its original payload
    /// once the spawned workers are done, as it would in a serial loop.
    pub fn ordered_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        // Workers claim indices from a shared counter until none is left.
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let workers = self.threads.min(n);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        let work = |tx: mpsc::Sender<(usize, T)>| loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n || tx.send((i, f(i))).is_err() {
                break;
            }
        };
        std::thread::scope(|s| {
            // The caller is one of the workers: it claims items until
            // none are left instead of sleeping on the channel, so no
            // result wakes it and one thread fewer is spawned.
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    let tx = tx.clone();
                    s.spawn(move || work(tx))
                })
                .collect();
            work(tx);
            slots.resize_with(n, || None);
            while let Ok((i, r)) = rx.recv() {
                slots[i] = Some(r);
            }
            // The scope itself waits only for the closures. Joining
            // waits for each thread to exit, so its thread-local
            // destructors have run and its malloc arena is free for the
            // next call's workers instead of a new arena being made.
            let mut panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index was executed"))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::current()
    }
}

/// A [`Pool`] is the production [`triad_graph::kernels::ParallelExecutor`]:
/// the graph crate's parallel triangle kernels
/// (`kernels::count_triangles_par`, `kernels::triangle_edges_par`) shard
/// work over fixed edge ranges and reduce through this impl's
/// [`Pool::ordered_map`], inheriting its thread-count-independence
/// guarantee. (The trait lives in `triad-graph` because the crate
/// dependency points this way round.)
impl triad_graph::kernels::ParallelExecutor for Pool {
    fn ordered_map_items<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.ordered_map(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_matches_serial_at_every_thread_count() {
        let expect: Vec<u64> = (0..37u64).map(|i| i.wrapping_mul(0x9E37) ^ 13).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Pool::new(threads).ordered_map(37, |i| (i as u64).wrapping_mul(0x9E37) ^ 13);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = Pool::new(4);
        assert_eq!(pool.ordered_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.ordered_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn pool_sizing_clamps_and_reports() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::new(7).threads(), 7);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn clamped_never_oversubscribes_the_machine() {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(Pool::clamped(1).threads(), 1);
        assert_eq!(Pool::clamped(usize::MAX).threads(), hw);
        assert!(Pool::clamped(0).threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_like_a_serial_panic() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).ordered_map(8, |i| {
                assert!(i != 3, "boom");
                i
            })
        });
        let payload = caught.expect_err("the worker panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("boom"), "the original payload is resumed");
    }

    #[test]
    fn workers_have_exited_when_a_map_returns() {
        // A thread-local's destructor runs as its thread exits, after
        // the closure has returned; it has run for every worker that
        // touched it only if the pool joined the threads themselves.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct Exit;
        impl Drop for Exit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static MARK: Exit = {
                STARTED.fetch_add(1, Ordering::SeqCst);
                Exit
            };
        }
        // Items 0..4 meet at the barrier, so each of the four workers
        // holds one of them: every spawned thread touches the mark.
        let barrier = std::sync::Barrier::new(4);
        let caller = std::thread::current().id();
        for round in 1..=20 {
            Pool::new(4).ordered_map(64, |i| {
                if i < 4 {
                    barrier.wait();
                }
                if std::thread::current().id() != caller {
                    MARK.with(|_| ());
                }
                i
            });
            assert_eq!(STARTED.load(Ordering::SeqCst), 3 * round);
            assert_eq!(EXITED.load(Ordering::SeqCst), 3 * round);
        }
    }
}
