//! Multi-tenant session scheduler.
//!
//! One [`Pool`] of workers, many independent query *sessions*: each
//! session is a sequence of repetitions with serial early-exit
//! semantics (stop at the first *final* item — a witness or an error).
//! This is the workspace's one early-exit engine: a standalone amplified
//! sweep is a one-session batch ([`run_session`]). The scheduler
//! flattens every session's repetitions into one shared claim queue, so
//! workers **steal across sessions**: a worker that finishes session A's
//! last repetition immediately picks up session B's next one, and a
//! thousand one-repetition sessions saturate the pool just as well as
//! one thousand-repetition sweep.
//!
//! # Determinism contract
//!
//! For every session the scheduler returns exactly the *serial prefix*
//! of items a standalone serial loop would have produced: repetitions
//! `0..=s` where `s` is the smallest repetition whose item is final, or
//! all repetitions when none is. Speculative items computed past a
//! session's stopping point are discarded before the caller ever sees
//! them. Higher layers reduce each prefix in repetition order
//! (`CommStats::merged`, `Tally::absorb`), so a batched session is
//! **byte-identical** to the same sweep run alone, at any worker count
//! — enforced by `tests/scheduler_differential.rs`.
//!
//! # Claim order: waves
//!
//! The claim queue is rep-major. Wave 0 is repetition 0 of every
//! session in submission order, wave 1 is repetition 1 of every session
//! that has one, in the same order, and so on. Every tester in this
//! workspace has one-sided error, so a session on a far input usually
//! stops at its first witness, most often at repetition 0. Waves keep
//! the workers on repetitions that can still matter: a worker reaches
//! session A's repetition 1 only after every session's repetition 0 has
//! been claimed, by which time A's repetition 0 has usually published
//! its cutoff. (A session-major queue hands the second worker
//! repetition 1 of the very session whose repetition 0 the first worker
//! is running, and that repetition is thrown away whenever repetition 0
//! finds a witness.)
//!
//! # How the early exit works across sessions
//!
//! Each session owns an atomic cutoff, initially `usize::MAX`. A worker
//! claiming queue position `i` looks up its `(session s, repetition r)`;
//! if `r` is strictly past `s`'s cutoff the item is skipped (the
//! session already found its stopping point). After computing an item
//! the worker tests it with the session's finality predicate and lowers
//! the cutoff with `fetch_min(r)`. The cutoff only decreases, and the
//! repetition that *set* it was fully computed before it was published,
//! so every repetition in the final serial prefix (`r <= s`'s final
//! cutoff) is guaranteed to have been computed, never skipped. A
//! one-session batch is the single-sweep case of the same argument.
//!
//! # Discarded speculation
//!
//! A repetition computed past its session's final cutoff is
//! *discarded*: it cost a worker its time and never reaches the caller.
//! [`run_sessions`] counts these in [`SessionPrefixes::discarded`].
//!
//! * At one worker the count is 0. Items run one at a time in claim
//!   order, and each publishes its cutoff before the next claim, so
//!   every repetition past a cutoff is skipped.
//! * At `w` workers, if every session has `reps` repetitions and is
//!   final at repetition 0, at most `(w − 1)·(reps − 1)` are discarded,
//!   whatever the timing. Proof: a worker holds an item from its claim
//!   until its cutoff is published, and claims nothing else meanwhile.
//!   Take the moment the first wave-1 position is claimed. Every
//!   wave-0 item was claimed before it; the claiming worker holds
//!   none, so at most `w − 1` wave-0 items are unpublished, and every
//!   other session's cutoff is already 0, which skips all its later
//!   repetitions. Each of those `w − 1` sessions can have at most its
//!   `reps − 1` later repetitions computed.
//!
//! The same argument bounds the general case wave by wave: a session
//! whose final repetition is `c` loses work only if repetition `c` is
//! still unpublished when wave `c + 1` starts, and at most `w − 1`
//! sessions are in that state at each wave's start.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::Pool;

/// One session's work description: `reps` independent repetitions,
/// computed by [`run_rep`](SessionJob::run_rep) and cut short at the
/// first item for which [`is_final`](SessionJob::is_final) holds.
///
/// Implementations must be deterministic in `rep` — the scheduler may
/// compute a repetition speculatively and discard it, or (at one
/// worker) never compute it at all.
pub trait SessionJob: Sync {
    /// The per-repetition result.
    type Item: Send;

    /// Number of repetitions this session wants (the scheduler treats
    /// `0` as an empty session).
    fn reps(&self) -> usize;

    /// Computes repetition `rep` (`0 <= rep < self.reps()`).
    fn run_rep(&self, rep: usize) -> Self::Item;

    /// `true` if `item` ends the session early (a witness, an error).
    fn is_final(&self, item: &Self::Item) -> bool;
}

/// A closure-based [`SessionJob`] for callers that don't want a named
/// type: `reps` repetitions of `run`, stopped by `is_final`.
pub struct FnSession<T, R, F>
where
    R: Fn(usize) -> T + Sync,
    F: Fn(&T) -> bool + Sync,
    T: Send,
{
    reps: usize,
    run: R,
    is_final: F,
}

impl<T, R, F> FnSession<T, R, F>
where
    R: Fn(usize) -> T + Sync,
    F: Fn(&T) -> bool + Sync,
    T: Send,
{
    /// A session of `reps` repetitions of `run`, ended early at the
    /// first item for which `is_final` holds.
    pub fn new(reps: usize, run: R, is_final: F) -> Self {
        FnSession {
            reps,
            run,
            is_final,
        }
    }
}

impl<T, R, F> SessionJob for FnSession<T, R, F>
where
    R: Fn(usize) -> T + Sync,
    F: Fn(&T) -> bool + Sync,
    T: Send,
{
    type Item = T;

    fn reps(&self) -> usize {
        self.reps
    }

    fn run_rep(&self, rep: usize) -> T {
        (self.run)(rep)
    }

    fn is_final(&self, item: &T) -> bool {
        (self.is_final)(item)
    }
}

/// An opaque ticket identifying one submitted session within a batch —
/// handed out by higher-level batch builders (e.g.
/// `triad_protocols::session::SessionBatch`) and redeemed against the
/// batch's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionHandle(usize);

impl SessionHandle {
    /// A handle for the session at `index` in submission order.
    pub fn new(index: usize) -> Self {
        SessionHandle(index)
    }

    /// The session's index in submission order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// What [`run_sessions`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPrefixes<T> {
    /// Each session's serial prefix of items, in submission order.
    pub prefixes: Vec<Vec<T>>,
    /// Repetitions computed past their session's final cutoff and
    /// thrown away: 0 at one worker, bounded per wave at more (see the
    /// [module docs](self)).
    pub discarded: usize,
}

/// Runs every session in `jobs` over `pool`, stealing work across
/// sessions, and returns each session's serial prefix of items (see the
/// [module docs](self) for the determinism contract) with the count of
/// discarded speculative repetitions.
///
/// Repetitions are claimed in waves: repetition 0 of every session in
/// submission order, then repetition 1 of every session that has one,
/// and so on. At one worker this degenerates to that serial schedule,
/// which is the reference the parallel path must reproduce and which
/// discards nothing. At `w` workers, a batch whose sessions all stop at
/// repetition 0 discards at most `(w − 1)·(reps − 1)` repetitions under
/// any timing; the module docs carry the proof.
pub fn run_sessions<J: SessionJob>(pool: &Pool, jobs: &[J]) -> SessionPrefixes<J::Item> {
    let order = wave_order(jobs);

    // Per-session early-exit cutoffs: the smallest repetition index
    // known to be final, or usize::MAX while the session is still live.
    let cutoffs: Vec<AtomicUsize> = (0..jobs.len())
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();

    let slots = pool.ordered_map(order.len(), |i| {
        let (s, r) = order[i];
        if r > cutoffs[s].load(Ordering::SeqCst) {
            // The session already published an earlier stopping point;
            // this repetition cannot be part of its serial prefix.
            return None;
        }
        let item = jobs[s].run_rep(r);
        if jobs[s].is_final(&item) {
            cutoffs[s].fetch_min(r, Ordering::SeqCst);
        }
        Some(item)
    });

    // Deal the slots back to their sessions. A session's repetitions
    // come in increasing order (wave r precedes wave r + 1), so its
    // prefix ends at its first final item, and any item computed after
    // that is discarded speculation.
    let mut prefixes: Vec<Vec<J::Item>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut done = vec![false; jobs.len()];
    let mut discarded = 0;
    for (&(s, _), slot) in order.iter().zip(slots) {
        match slot {
            Some(_) if done[s] => discarded += 1,
            Some(item) => {
                done[s] = jobs[s].is_final(&item);
                prefixes[s].push(item);
            }
            None => {
                // A skipped repetition is strictly past the final
                // cutoff, so the prefix must already have ended.
                debug_assert!(
                    done[s],
                    "session {s}: skipped repetition inside the serial prefix"
                );
                done[s] = true;
            }
        }
    }
    SessionPrefixes {
        prefixes,
        discarded,
    }
}

/// Runs one session alone and returns its serial prefix: a standalone
/// sweep is a one-session batch of [`run_sessions`].
pub fn run_session<J: SessionJob>(pool: &Pool, job: &J) -> Vec<J::Item> {
    let mut run = run_sessions(pool, std::slice::from_ref(job));
    run.prefixes.pop().expect("one session has one prefix")
}

/// The claim queue as `(session, repetition)` pairs: wave `r` lists
/// repetition `r` of every session with more than `r` repetitions, in
/// submission order.
fn wave_order<J: SessionJob>(jobs: &[J]) -> Vec<(usize, usize)> {
    let total = jobs
        .iter()
        .try_fold(0usize, |total, job| total.checked_add(job.reps()))
        .expect("total session repetitions overflow usize");
    let mut order = Vec::with_capacity(total);
    let mut live: Vec<usize> = (0..jobs.len()).collect();
    let mut rep = 0;
    loop {
        live.retain(|&s| jobs[s].reps() > rep);
        if live.is_empty() {
            return order;
        }
        order.extend(live.iter().map(|&s| (s, rep)));
        rep += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn serial_reference<J: SessionJob>(job: &J) -> Vec<J::Item> {
        let mut out = Vec::new();
        for r in 0..job.reps() {
            let item = job.run_rep(r);
            let stop = job.is_final(&item);
            out.push(item);
            if stop {
                break;
            }
        }
        out
    }

    fn squares_until(reps: usize, stop_at: Option<usize>) -> impl SessionJob<Item = usize> {
        FnSession::new(reps, |r| r * r, move |&v| Some(v) == stop_at.map(|s| s * s))
    }

    #[test]
    fn matches_serial_reference_at_every_thread_count() {
        let jobs: Vec<_> = vec![
            squares_until(7, None),
            squares_until(5, Some(2)),
            squares_until(1, None),
            squares_until(9, Some(0)),
            squares_until(4, Some(99)), // predicate never fires
        ];
        let expected: Vec<Vec<usize>> = jobs.iter().map(serial_reference).collect();
        for threads in [1, 2, 4, 8] {
            let got = run_sessions(&Pool::new(threads), &jobs);
            assert_eq!(got.prefixes, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_and_empty_sessions() {
        type UnitSession = FnSession<usize, fn(usize) -> usize, fn(&usize) -> bool>;
        let none: Vec<UnitSession> = Vec::new();
        assert!(run_sessions(&Pool::new(4), &none).prefixes.is_empty());

        let jobs = vec![squares_until(0, None), squares_until(3, None)];
        let got = run_sessions(&Pool::new(2), &jobs);
        assert_eq!(got.prefixes, vec![vec![], vec![0, 1, 4]]);
        assert_eq!(got.discarded, 0);
    }

    #[test]
    fn early_exit_is_per_session_not_global() {
        // Session 0 stops at its very first repetition; session 1 must
        // still run to completion.
        let jobs = vec![squares_until(6, Some(0)), squares_until(6, None)];
        let got = run_sessions(&Pool::new(4), &jobs);
        assert_eq!(got.prefixes[0], vec![0]);
        assert_eq!(got.prefixes[1], vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn thousands_of_tiny_sessions() {
        let jobs: Vec<_> = (0..2000).map(|_| squares_until(1, None)).collect();
        let got = run_sessions(&Pool::new(4), &jobs);
        assert_eq!(got.prefixes.len(), 2000);
        assert!(got.prefixes.iter().all(|p| p == &vec![0]));
    }

    #[test]
    fn claims_are_rep_major_in_submission_order() {
        let reps = [3, 1, 0, 4, 2];
        let log = Mutex::new(Vec::new());
        let jobs: Vec<_> = reps
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                let log = &log;
                FnSession::new(
                    n,
                    move |r| log.lock().expect("no test thread panicked").push((s, r)),
                    |_: &()| false,
                )
            })
            .collect();
        let expected = vec![
            (0, 0),
            (1, 0),
            (3, 0),
            (4, 0),
            (0, 1),
            (3, 1),
            (4, 1),
            (0, 2),
            (3, 2),
            (3, 3),
        ];
        assert_eq!(wave_order(&jobs), expected);
        // At one worker every claim is computed, in claim order.
        run_sessions(&Pool::serial(), &jobs);
        assert_eq!(*log.lock().expect("no test thread panicked"), expected);

        // The same shape at scale: every (session, repetition) exactly
        // once, ordered by repetition and then by session.
        let jobs: Vec<_> = (0..200).map(|s| squares_until(s * 7 % 13, None)).collect();
        let order = wave_order(&jobs);
        assert_eq!(order.len(), jobs.iter().map(SessionJob::reps).sum());
        assert!(order
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
    }

    #[test]
    fn one_worker_discards_nothing() {
        let jobs = vec![
            squares_until(5, Some(0)),
            squares_until(6, Some(2)),
            squares_until(3, None),
            squares_until(7, Some(6)),
            squares_until(4, Some(1)),
        ];
        let got = run_sessions(&Pool::serial(), &jobs);
        assert_eq!(got.discarded, 0);
        let expected: Vec<Vec<usize>> = jobs.iter().map(serial_reference).collect();
        assert_eq!(got.prefixes, expected);
    }

    #[test]
    fn discards_stay_within_the_wave_bound() {
        const SESSIONS: usize = 64;
        const REPS: usize = 4;
        // Every session is final at repetition 0, and each repetition
        // does enough work that the workers' items overlap.
        let jobs: Vec<_> = (0..SESSIONS)
            .map(|s| {
                FnSession::new(
                    REPS,
                    move |r| {
                        let spin = (0..20_000u64).fold(s as u64, |a, x| a ^ x.wrapping_mul(a | 1));
                        (r, std::hint::black_box(spin))
                    },
                    |&(r, _): &(usize, u64)| r == 0,
                )
            })
            .collect();
        for workers in [2, 4] {
            let bound = (workers - 1) * (REPS - 1);
            for round in 0..10 {
                let got = run_sessions(&Pool::new(workers), &jobs);
                assert!(got.prefixes.iter().all(|p| p.len() == 1 && p[0].0 == 0));
                assert!(
                    got.discarded <= bound,
                    "{workers} workers, round {round}: {} discarded > {bound}",
                    got.discarded
                );
            }
        }
    }

    #[test]
    fn handles_are_stable_indices() {
        let h = SessionHandle::new(17);
        assert_eq!(h.index(), 17);
        assert_eq!(h, SessionHandle::new(17));
    }
}
