//! Quorum-based amplification under fault injection.
//!
//! [`crate::amplify`] assumes a failure-free substrate: a repetition
//! either completes or the whole amplified run errors out. Under a
//! [`FaultPlan`] that is too brittle — a single dropped message would
//! poison an entire sweep. This module runs the same repetition schedule
//! with per-repetition fault tolerance and an explicit third verdict:
//!
//! * a repetition that **survives** (possibly after retries, charged
//!   under [`triad_comm::RETRANSMIT_LABEL`]) contributes its verdict and
//!   its cost;
//! * a repetition that **fails** is recorded per [`RunErrorKind`] — its
//!   bits are still merged into the totals, because they were spent —
//!   and never contributes a verdict;
//! * the amplified verdict is computed over the survivors only, and when
//!   fewer than `quorum × repetitions` survive the run reports
//!   [`ChaosOutcome::Inconclusive`] instead of guessing.
//!
//! One-sided error survives chaos in one direction only: a witness
//! triangle is verifiable, so [`ChaosOutcome::TriangleFound`] is as
//! trustworthy as ever and short-circuits the sweep. An *accept* is
//! where faults can lie — a fault can kill exactly the repetition that
//! would have found the triangle — which is why the default quorum is
//! [`DEFAULT_QUORUM`] (= 1.0): any failed repetition without a witness
//! downgrades the verdict to `Inconclusive`. Lowering the quorum trades
//! that guarantee for availability and is reported as such (see
//! `docs/FAULTS.md`).

use crate::amplify::{rep_seed, PreparedInput, Repeatable};
use triad_comm::pool::Pool;
use triad_comm::scheduler::{run_session, FnSession};
use triad_comm::{CommStats, FaultPlan, FaultStats, Recorder, RunError, RunErrorKind, Tally};
use triad_graph::Triangle;

/// The default survivor quorum: every repetition must survive for an
/// accept to stand. This is the only quorum under which an
/// omission-fault run can never report the *opposite* verdict of the
/// fault-free run (pinned by `tests/chaos_differential.rs`).
pub const DEFAULT_QUORUM: f64 = 1.0;

/// The verdict of an amplified run under faults.
///
/// Unlike [`crate::TestOutcome`] this is a three-way verdict:
/// degradation is graceful but **explicit** — a chaos run never converts
/// "not enough surviving evidence" into an accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// A surviving repetition exposed a witness triangle. One-sided
    /// error makes this trustworthy regardless of how many other
    /// repetitions failed.
    TriangleFound(Triangle),
    /// Enough repetitions survived (the quorum) and none found a
    /// triangle.
    NoTriangleFound,
    /// Too few repetitions survived to meet the quorum; the run refuses
    /// to guess.
    Inconclusive,
}

impl ChaosOutcome {
    /// `true` if a witness triangle was found.
    pub fn found_triangle(&self) -> bool {
        matches!(self, ChaosOutcome::TriangleFound(_))
    }

    /// The witness triangle, if any.
    pub fn triangle(&self) -> Option<Triangle> {
        match self {
            ChaosOutcome::TriangleFound(t) => Some(*t),
            _ => None,
        }
    }

    /// `true` if the quorum was lost.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, ChaosOutcome::Inconclusive)
    }

    /// The stable string used in exported reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChaosOutcome::TriangleFound(_) => "triangle-found",
            ChaosOutcome::NoTriangleFound => "accepted",
            ChaosOutcome::Inconclusive => "inconclusive",
        }
    }
}

/// Failed repetitions of a chaos run, tallied per [`RunErrorKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureBreakdown {
    /// Repetitions killed by channel failure or player crash.
    pub transport: u32,
    /// Repetitions killed by an unrecovered response deadline.
    pub timeout: u32,
    /// Repetitions killed by unrecovered payload corruption.
    pub corrupt: u32,
    /// Repetitions abandoned at the protocol layer.
    pub aborted: u32,
}

impl FailureBreakdown {
    /// Total failed repetitions.
    pub fn total(&self) -> u32 {
        self.transport + self.timeout + self.corrupt + self.aborted
    }

    fn bump(&mut self, kind: RunErrorKind) {
        match kind {
            RunErrorKind::Transport => self.transport += 1,
            RunErrorKind::Timeout => self.timeout += 1,
            RunErrorKind::Corrupt => self.corrupt += 1,
            RunErrorKind::Aborted => self.aborted += 1,
        }
    }
}

/// A completed amplified run under faults: the three-way verdict, the
/// full cost of every repetition attempted (surviving or not), and the
/// per-kind failure and injection tallies behind it.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The quorum-gated verdict.
    pub outcome: ChaosOutcome,
    /// Merged communication statistics over **all** attempted
    /// repetitions, failed ones included.
    pub stats: CommStats,
    /// The absorbed cost tally over all attempted repetitions;
    /// fault-recovery traffic is under [`triad_comm::RETRANSMIT_LABEL`].
    pub tally: Tally,
    /// Repetitions that ran to a verdict.
    pub survived: u32,
    /// Repetitions attempted before the run stopped (early exit on a
    /// witness, as in the fault-free path).
    pub attempted: u32,
    /// The survivor quorum threshold that was applied (repetitions).
    pub needed: u32,
    /// Failed repetitions per error kind.
    pub failures: FailureBreakdown,
    /// Faults injected across all repetitions (including recovered
    /// ones, which kill nothing but cost retransmit bits).
    pub injected: FaultStats,
}

impl ChaosRun {
    /// Bits spent on fault recovery (retransmitted requests, duplicate
    /// deliveries, garbled responses) — part of `stats.total_bits`,
    /// broken out for reporting.
    pub fn retransmit_bits(&self) -> u64 {
        self.tally.retransmit_bits()
    }
}

/// Runs `tester` up to `repetitions` times under `plan`, stopping at the
/// first witness, and computes the quorum-gated verdict of the module
/// docs. `quorum` is clamped to `[0, 1]`; at least one repetition must
/// always survive for an accept (zero surviving evidence is never an
/// accept). Repetition seeds are [`rep_seed`]-derived exactly as in
/// [`crate::amplify::run_amplified_prepared`], and fault decisions are
/// drawn from `plan`'s independent splitmix64 domains, so chaos never
/// perturbs the protocol's own coins: with [`FaultPlan::fault_free`]
/// this is byte-identical to the fault-free amplified path (pinned by
/// `tests/chaos_differential.rs`).
///
/// Each repetition is classified by [`single_run_verdict`], the rule a
/// networked `triad serve` run applies: a witness survives whatever the
/// faults, an accept survives only without an unrecovered fault, and a
/// repetition whose tester refuses its parameters counts as `aborted`
/// and charges nothing. Failed repetitions do not stop the sweep —
/// their cost is merged and their error kind tallied — so the verdict is
/// computed over exactly the repetition schedule the fault-free path
/// would have attempted.
pub fn run_chaos_amplified<T: Repeatable + Sync>(
    pool: &Pool,
    tester: &T,
    input: &PreparedInput<'_>,
    repetitions: u32,
    base_seed: u64,
    plan: &FaultPlan,
    quorum: f64,
) -> ChaosRun {
    let reps = repetitions.max(1) as usize;
    let sweep = FnSession::new(
        reps,
        |r| {
            let rep = r as u32;
            tester.run_prepared(input, rep_seed(base_seed, rep), Some((plan, rep)))
        },
        |rep| matches!(rep, Ok(rep) if rep.run.outcome.found_triangle()),
    );
    let runs = run_session(pool, &sweep);
    let needed = ((quorum.clamp(0.0, 1.0) * reps as f64).ceil() as u32).max(1);
    let mut stats = CommStats::default();
    let mut tally = Tally::with_players(input.k());
    let mut injected = FaultStats::default();
    let mut failures = FailureBreakdown::default();
    let mut survived = 0u32;
    let mut attempted = 0u32;
    for rep in runs {
        attempted += 1;
        let Ok(rep) = rep else {
            failures.aborted += 1;
            continue;
        };
        stats = stats.merged(rep.run.stats);
        tally.absorb(&rep.run.transcript);
        injected = injected.merged(rep.injected);
        let verdict = single_run_verdict(rep.run.outcome, rep.fault.as_ref());
        if let (ChaosOutcome::Inconclusive, Some(fault)) = (verdict, &rep.fault) {
            failures.bump(fault.kind());
            continue;
        }
        survived += 1;
        if verdict.found_triangle() {
            return ChaosRun {
                outcome: verdict,
                stats,
                tally,
                survived,
                attempted,
                needed,
                failures,
                injected,
            };
        }
    }
    let outcome = if survived >= needed {
        ChaosOutcome::NoTriangleFound
    } else {
        ChaosOutcome::Inconclusive
    };
    ChaosRun {
        outcome,
        stats,
        tally,
        survived,
        attempted,
        needed,
        failures,
        injected,
    }
}

/// The quorum rule of a **single** repetition — what a networked
/// `triad serve` run applies after driving one execution over its
/// sockets: a witness triangle stands regardless of faults (one-sided
/// error makes it verifiable), an unrecovered fault without a witness is
/// [`ChaosOutcome::Inconclusive`] (never an accept), and a clean
/// fault-free accept stands. This is exactly the `repetitions = 1`,
/// `quorum = 1` case of [`run_chaos_amplified`], factored out so remote
/// runs degrade identically to in-process ones (pinned by
/// `tests/tcp_differential.rs`).
pub fn single_run_verdict(outcome: crate::TestOutcome, fault: Option<&RunError>) -> ChaosOutcome {
    match (outcome, fault) {
        (crate::TestOutcome::TriangleFound(t), _) => ChaosOutcome::TriangleFound(t),
        (crate::TestOutcome::NoTriangleFound, Some(_)) => ChaosOutcome::Inconclusive,
        (crate::TestOutcome::NoTriangleFound, None) => ChaosOutcome::NoTriangleFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimProtocolKind, SimultaneousTester, Tuning, UnrestrictedTester};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_comm::FaultRates;
    use triad_graph::generators::far_graph;
    use triad_graph::partition::random_disjoint;
    use triad_graph::Graph;

    #[test]
    fn fault_free_chaos_matches_amplified_verdict() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 6.0 },
        );
        let input = PreparedInput::new(&g, &parts).unwrap();
        let plain =
            crate::amplify::run_amplified_prepared(&Pool::serial(), &tester, &input, 6, 3).unwrap();
        let chaos = run_chaos_amplified(
            &Pool::serial(),
            &tester,
            &input,
            6,
            3,
            &FaultPlan::fault_free(9),
            DEFAULT_QUORUM,
        );
        assert_eq!(chaos.outcome.triangle(), plain.outcome.triangle());
        assert_eq!(chaos.stats, plain.stats);
        assert_eq!(chaos.failures.total(), 0);
        assert_eq!(chaos.retransmit_bits(), 0);
        assert_eq!(chaos.injected.total(), 0);
        assert_eq!(chaos.survived, chaos.attempted);
    }

    #[test]
    fn total_omission_is_inconclusive_never_accept() {
        // Every delivery dropped: no repetition can survive, and with
        // the default quorum the verdict must refuse to guess.
        let g = Graph::from_edges(30, (0..29).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let parts = random_disjoint(&g, 3, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = UnrestrictedTester::new(Tuning::practical(0.2));
        let plan = FaultPlan::new(5, FaultRates::omission(1.0));
        let chaos = run_chaos_amplified(&Pool::serial(), &tester, &input, 4, 1, &plan, 1.0);
        assert!(chaos.outcome.is_inconclusive(), "{:?}", chaos.outcome);
        assert_eq!(chaos.survived, 0);
        assert_eq!(chaos.attempted, 4);
        assert_eq!(chaos.failures.timeout, 4, "{:?}", chaos.failures);
        // Under total omission nothing is ever delivered, so no
        // retransmission can be *observed* to arrive — the corrected
        // accounting charges zero retransmit traffic and leaves the
        // attempt record to the injection counters. (The old accounting
        // charged every retry optimistically before its outcome was
        // known, inflating rollups relative to `FaultStats`.)
        let retrans = chaos
            .tally
            .breakdown()
            .into_iter()
            .find(|l| l.label == triad_comm::RETRANSMIT_LABEL);
        assert!(
            retrans.as_ref().is_none_or(|l| l.messages == 0),
            "undelivered retries must not be charged: {retrans:?}"
        );
        assert!(chaos.injected.drops > 0);
    }

    #[test]
    fn witness_short_circuits_even_under_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = UnrestrictedTester::new(Tuning::practical(0.2));
        // Mild corruption: retries recover, the witness still surfaces.
        let plan = FaultPlan::new(
            11,
            FaultRates {
                corrupt: 0.05,
                ..FaultRates::default()
            },
        );
        let chaos = run_chaos_amplified(&Pool::serial(), &tester, &input, 5, 11, &plan, 1.0);
        let t = chaos.outcome.triangle().expect("witness expected");
        assert!(t.exists_in(&g), "one-sided error must survive chaos");
    }

    #[test]
    fn quorum_gates_the_accept() {
        let g = Graph::from_edges(30, (0..29).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let parts = random_disjoint(&g, 3, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 2.0 },
        );
        // Drop rate high enough that some one-round reps die.
        let plan = FaultPlan::new(21, FaultRates::omission(0.4));
        let strict = run_chaos_amplified(&Pool::serial(), &tester, &input, 8, 2, &plan, 1.0);
        let lax = run_chaos_amplified(&Pool::serial(), &tester, &input, 8, 2, &plan, 0.25);
        assert!(strict.failures.total() > 0, "plan should kill some reps");
        assert!(strict.outcome.is_inconclusive());
        assert_eq!(lax.outcome, ChaosOutcome::NoTriangleFound);
        assert_eq!(strict.attempted, lax.attempted);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = UnrestrictedTester::new(Tuning::practical(0.2));
        let plan = FaultPlan::new(7, FaultRates::mixed(0.1));
        let serial = run_chaos_amplified(&Pool::serial(), &tester, &input, 6, 9, &plan, 1.0);
        for threads in [2, 8] {
            let par = run_chaos_amplified(&Pool::new(threads), &tester, &input, 6, 9, &plan, 1.0);
            assert_eq!(par.outcome, serial.outcome, "t{threads}");
            assert_eq!(par.stats, serial.stats, "t{threads}");
            assert_eq!(par.failures, serial.failures, "t{threads}");
            assert_eq!(par.survived, serial.survived, "t{threads}");
            assert_eq!(
                par.retransmit_bits(),
                serial.retransmit_bits(),
                "t{threads}"
            );
        }
    }

    #[test]
    fn refused_parameters_abort_every_repetition_and_charge_nothing() {
        let g = Graph::from_edges(30, (0..29).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let parts = random_disjoint(&g, 3, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::High { avg_degree: 0.0 },
        );
        let plain = crate::amplify::run_amplified_prepared(&Pool::serial(), &tester, &input, 5, 1);
        assert_eq!(
            plain.unwrap_err(),
            crate::ProtocolError::InvalidInput("average degree must be positive".into())
        );
        for plan in [
            FaultPlan::fault_free(8),
            FaultPlan::new(8, FaultRates::omission(0.5)),
        ] {
            let chaos = run_chaos_amplified(&Pool::serial(), &tester, &input, 5, 1, &plan, 1.0);
            assert_eq!(chaos.attempted, 5, "{plan:?}");
            assert_eq!(chaos.failures.aborted, 5, "{plan:?}");
            assert_eq!(chaos.failures.total(), 5, "{plan:?}");
            assert_eq!(chaos.survived, 0, "{plan:?}");
            assert!(chaos.outcome.is_inconclusive(), "{plan:?}");
            assert_eq!(chaos.stats, CommStats::default(), "{plan:?}");
            assert_eq!(chaos.injected.total(), 0, "{plan:?}");
        }
    }

    #[test]
    fn single_run_verdict_mirrors_quorum_semantics() {
        let t = Triangle::new(
            triad_graph::VertexId(0),
            triad_graph::VertexId(1),
            triad_graph::VertexId(2),
        );
        let err = RunError::Timeout { player: 1 };
        // A witness is trustworthy even when a fault occurred.
        assert_eq!(
            single_run_verdict(crate::TestOutcome::TriangleFound(t), Some(&err)),
            ChaosOutcome::TriangleFound(t)
        );
        // An accept with any unrecovered fault refuses to guess…
        assert_eq!(
            single_run_verdict(crate::TestOutcome::NoTriangleFound, Some(&err)),
            ChaosOutcome::Inconclusive
        );
        // …and stands only when the run was clean.
        assert_eq!(
            single_run_verdict(crate::TestOutcome::NoTriangleFound, None),
            ChaosOutcome::NoTriangleFound
        );
    }

    #[test]
    fn outcome_strings_are_stable() {
        let t = Triangle::new(
            triad_graph::VertexId(0),
            triad_graph::VertexId(1),
            triad_graph::VertexId(2),
        );
        assert_eq!(ChaosOutcome::TriangleFound(t).as_str(), "triangle-found");
        assert_eq!(ChaosOutcome::NoTriangleFound.as_str(), "accepted");
        assert_eq!(ChaosOutcome::Inconclusive.as_str(), "inconclusive");
    }
}
