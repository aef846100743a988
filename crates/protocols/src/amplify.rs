//! One-sided error amplification.
//!
//! Every tester in this crate has one-sided error: a witness is always
//! real, and only the *miss* probability is bounded by δ. Repetition
//! with independent public coins therefore multiplies the miss
//! probability: `r` runs drive it to `δ^r`, at `r×` the communication.
//! (This is the cheap direction of amplification — no majority vote
//! needed, the first witness wins.)

use std::sync::Arc;

use crate::outcome::{ProtocolError, Rep, TallyRun, TestOutcome};
use triad_comm::player::players_from_partition;
use triad_comm::pool::Pool;
use triad_comm::scheduler::{run_session, SessionJob};
use triad_comm::{FaultPlan, PlayerState, Recorder, Tally};
use triad_graph::partition::Partition;
use triad_graph::Graph;

/// The public seed for repetition `r` of an amplified run.
///
/// Seeds are derived through the splitmix64 finalizer
/// ([`triad_comm::mix64`]) rather than an affine step: the historical
/// `base_seed + r·7919` scheme collided across nearby base seeds
/// (`rep_seed(0, 1) == rep_seed(7919, 0)`), silently correlating runs
/// that the amplification analysis assumes are independent. The mixed
/// streams are pinned by a regression test below; changing this function
/// changes every amplified transcript.
#[must_use]
pub fn rep_seed(base_seed: u64, r: u32) -> u64 {
    triad_comm::mix64(
        triad_comm::mix64(base_seed).wrapping_add(
            u64::from(r)
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ),
    )
}

/// A partitioned input with everything seed-independent hoisted out of
/// the repetition loop: shares validated once, per-player states built
/// once (over the partition's own sorted lists; the adjacency and degree
/// tables — the §3.2 bucket inputs — on first use) and handed to every
/// repetition behind an [`Arc`]. Repetitions then re-roll only the shared
/// randomness (see `docs/RUNTIME.md`).
#[derive(Debug, Clone)]
pub struct PreparedInput<'g> {
    /// `None` when the input was prepared from shares alone
    /// ([`PreparedInput::from_partition`]) — the multiparty model's
    /// native shape: no player, and no referee, ever holds the whole
    /// graph. Every tester in this crate runs off the player states, so
    /// protocol execution is identical either way.
    g: Option<&'g Graph>,
    partition: &'g Partition,
    n: usize,
    players: Arc<Vec<PlayerState>>,
}

impl<'g> PreparedInput<'g> {
    /// Validates the shares and builds the per-player states, once.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] if a share references a
    /// vertex outside `g` — the same check every per-run entry point
    /// performs.
    pub fn new(g: &'g Graph, partition: &'g Partition) -> Result<Self, ProtocolError> {
        crate::outcome::validate_shares(g, partition)?;
        let n = g.vertex_count();
        Ok(PreparedInput {
            g: Some(g),
            partition,
            n,
            players: Arc::new(players_from_partition(n, partition)),
        })
    }

    /// Prepares from an edge partition and a vertex count alone — no
    /// materialized [`Graph`] anywhere. This is how out-of-core inputs
    /// enter the protocol layer: shares are partitioned straight off a
    /// [`triad_graph::CsrStore`]'s borrowed slices and only the
    /// per-player states are ever allocated. Every tester runs off the
    /// player states, so a repetition is identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] if a share references a
    /// vertex `≥ n`.
    pub fn from_partition(n: usize, partition: &'g Partition) -> Result<Self, ProtocolError> {
        crate::outcome::validate_shares_n(n, partition)?;
        Ok(PreparedInput {
            g: None,
            partition,
            n,
            players: Arc::new(players_from_partition(n, partition)),
        })
    }

    /// The input graph, if this input was prepared from one
    /// (`None` for graph-free [`PreparedInput::from_partition`] inputs).
    pub fn graph(&self) -> Option<&'g Graph> {
        self.g
    }

    /// The edge partition.
    pub fn partition(&self) -> &'g Partition {
        self.partition
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of players.
    pub fn k(&self) -> usize {
        self.players.len()
    }

    /// The pre-built player states.
    pub fn players(&self) -> &[PlayerState] {
        &self.players
    }

    /// A shared handle to the player states, for transports that outlive
    /// this borrow (e.g. [`triad_comm::LocalTransport::from_shared`]).
    pub fn shared_players(&self) -> Arc<Vec<PlayerState>> {
        Arc::clone(&self.players)
    }
}

/// Anything that can run one repetition over a prepared input —
/// implemented by every tester, so amplification, chaos sweeps and
/// session batches are written once.
pub trait Repeatable {
    /// One repetition with public seed `seed`, recorded into a [`Tally`].
    ///
    /// `faults` is `None` for a plain run. `Some((plan, rep))` injects
    /// the faults `plan` schedules for repetition `rep`: retryable ones
    /// are retried and charged under [`triad_comm::RETRANSMIT_LABEL`],
    /// and an unrecovered one ends the repetition as [`Rep::fault`] with
    /// every bit spent so far kept in [`Rep::run`]. Fault decisions come
    /// from the plan's own splitmix64 streams, never from `seed`, so a
    /// fault-free plan changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] when the tester refuses
    /// its parameters (e.g. a non-positive degree hint).
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError>;
}

impl<T: Repeatable + ?Sized> Repeatable for &T {
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError> {
        (**self).run_prepared(input, seed, faults)
    }
}

/// One fault-free amplified sweep as a scheduler job: repetition `r`
/// runs `tester` with public seed [`rep_seed`]`(seed, r)`, and the sweep
/// ends at the first witness or the first error. A standalone sweep
/// ([`run_amplified_prepared`]) is a one-session batch of this job, and
/// a [`SessionBatch`](crate::session::SessionBatch) runs one per
/// session.
pub(crate) struct PreparedSession<'a, 'g, T> {
    pub(crate) tester: &'a T,
    pub(crate) input: &'a PreparedInput<'g>,
    pub(crate) seed: u64,
    pub(crate) reps: usize,
}

impl<T: Repeatable + Sync> SessionJob for PreparedSession<'_, '_, T> {
    type Item = Result<TallyRun, ProtocolError>;

    fn reps(&self) -> usize {
        self.reps
    }

    fn run_rep(&self, rep: usize) -> Self::Item {
        self.tester
            .run_prepared(self.input, rep_seed(self.seed, rep as u32), None)
            .map(|rep| rep.run)
    }

    fn is_final(&self, item: &Self::Item) -> bool {
        item.as_ref()
            .map_or(true, |run| run.outcome.found_triangle())
    }
}

/// Runs `tester` up to `repetitions` times over a prepared input with
/// independent seeds derived from `base_seed` ([`rep_seed`]), stopping
/// at the first witness. Miss probability `δ^repetitions`; cost is the
/// sum of the repetitions performed.
///
/// The sweep is a one-session batch of the
/// [`scheduler`](triad_comm::scheduler): repetitions are sharded across
/// the pool's workers and reduced **in repetition order**, with serial
/// early-exit semantics: the reduction
/// covers exactly the prefix of repetitions a serial loop would have
/// performed (up to and including the first witness or error), so the
/// merged [`CommStats`](triad_comm::CommStats) and tally are
/// byte-identical to a serial loop over each tester's full-transcript
/// `run` at any thread count (pinned by `tests/recorder_differential.rs`
/// and `tests/parallel_equivalence.rs`). Speculative repetitions
/// computed past the stopping point are discarded before reduction and
/// charge nothing.
///
/// # Errors
///
/// Propagates the error of the first failing repetition (in repetition
/// order, as the serial loop would).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use triad_comm::Pool;
/// use triad_graph::generators::far_graph;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::amplify::{run_amplified_prepared, PreparedInput};
/// use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = far_graph(300, 8.0, 0.2, &mut rng)?;
/// let parts = random_disjoint(&g, 4, &mut rng);
/// let tester = SimultaneousTester::new(
///     Tuning::practical(0.2),
///     SimProtocolKind::Low { avg_degree: 8.0 },
/// );
/// let input = PreparedInput::new(&g, &parts)?;
/// let run = run_amplified_prepared(&Pool::current(), &tester, &input, 5, 7)?;
/// assert!(run.outcome.found_triangle());
/// # Ok(())
/// # }
/// ```
pub fn run_amplified_prepared<T: Repeatable + Sync>(
    pool: &Pool,
    tester: &T,
    input: &PreparedInput<'_>,
    repetitions: u32,
    base_seed: u64,
) -> Result<TallyRun, ProtocolError> {
    let job = PreparedSession {
        tester,
        input,
        seed: base_seed,
        reps: repetitions.max(1) as usize,
    };
    reduce_prefix(input.k(), run_session(pool, &job))
}

/// Reduces a serial prefix of repetition results **in repetition
/// order**: merged stats, absorbed tallies, early return on the first
/// witness, first error propagated. This is the one fold shared by
/// [`run_amplified_prepared`] and
/// [`SessionBatch`](crate::session::SessionBatch), which is how batched
/// sessions stay byte-identical to standalone sweeps.
pub(crate) fn reduce_prefix(
    k: usize,
    runs: impl IntoIterator<Item = Result<TallyRun, ProtocolError>>,
) -> Result<TallyRun, ProtocolError> {
    let mut stats = triad_comm::CommStats::default();
    let mut tally = Tally::with_players(k);
    for run in runs {
        let run = run?;
        stats = stats.merged(run.stats);
        tally.absorb(&run.transcript);
        if run.outcome.found_triangle() {
            return Ok(TallyRun {
                outcome: run.outcome,
                stats,
                transcript: tally,
            });
        }
    }
    Ok(TallyRun {
        outcome: TestOutcome::NoTriangleFound,
        stats,
        transcript: tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ProtocolRun;
    use crate::{SimProtocolKind, SimultaneousTester, Tuning};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_comm::{CommStats, Transcript};
    use triad_graph::generators::far_graph;
    use triad_graph::partition::random_disjoint;

    /// A plain serial sweep over the tester's full-transcript `run`.
    fn serial_sweep(
        tester: &SimultaneousTester,
        g: &Graph,
        parts: &Partition,
        reps: u32,
        base_seed: u64,
    ) -> ProtocolRun {
        let mut stats = CommStats::default();
        let mut transcript = Transcript::new(parts.players());
        for r in 0..reps {
            let run = tester.run(g, parts, rep_seed(base_seed, r)).unwrap();
            stats = stats.merged(run.stats);
            transcript.absorb(&run.transcript);
            if run.outcome.found_triangle() {
                return ProtocolRun {
                    outcome: run.outcome,
                    stats,
                    transcript,
                };
            }
        }
        ProtocolRun {
            outcome: TestOutcome::NoTriangleFound,
            stats,
            transcript,
        }
    }

    fn amplified<T: Repeatable + Sync>(
        tester: &T,
        g: &Graph,
        parts: &Partition,
        reps: u32,
        base_seed: u64,
    ) -> TallyRun {
        let input = PreparedInput::new(g, parts).unwrap();
        run_amplified_prepared(&Pool::current(), tester, &input, reps, base_seed).unwrap()
    }

    #[test]
    fn amplification_boosts_a_weak_tester() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = far_graph(400, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        // Cripple the tester with a tiny sample scale so single runs miss
        // often, then amplify.
        let weak = SimultaneousTester::new(
            Tuning::practical(0.2).with_scale(0.25),
            SimProtocolKind::Low { avg_degree: 6.0 },
        );
        let single_hits = (0..20)
            .filter(|s| weak.run(&g, &parts, *s).unwrap().outcome.found_triangle())
            .count();
        let amp_hits = (0..20)
            .filter(|s| {
                amplified(&weak, &g, &parts, 8, 1000 + s)
                    .outcome
                    .found_triangle()
            })
            .count();
        assert!(
            amp_hits > single_hits,
            "amplified {amp_hits}/20 should beat single {single_hits}/20"
        );
        assert!(amp_hits >= 16, "8 repetitions should nearly always succeed");
    }

    #[test]
    fn early_exit_keeps_cost_low_on_easy_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = far_graph(400, 8.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 8.0 },
        );
        let single = tester.run(&g, &parts, 3).unwrap();
        let amplified = amplified(&tester, &g, &parts, 10, 3);
        assert!(amplified.outcome.found_triangle());
        // Strong single-run tester ⇒ amplified run usually stops at 1–2
        // repetitions; certainly nowhere near 10×.
        assert!(
            amplified.stats.total_bits <= 3 * single.stats.total_bits,
            "{} vs single {}",
            amplified.stats.total_bits,
            single.stats.total_bits
        );
    }

    #[test]
    fn never_fabricates_on_triangle_free_inputs() {
        let g = Graph::from_edges(60, (0..59).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let parts = random_disjoint(&g, 3, &mut rng);
        let tester = SimultaneousTester::new(Tuning::practical(0.2), SimProtocolKind::Oblivious);
        let run = amplified(&tester, &g, &parts, 6, 0);
        assert!(run.outcome.accepts());
        // All repetitions were spent (no early exit possible).
        assert!(run.stats.messages >= 6 * 3);
    }

    #[test]
    fn rep_seed_streams_are_pinned_and_collision_free() {
        // The retired affine scheme (`base + r·7919`) collided exactly
        // here: base 0 repetition 1 == base 7919 repetition 0.
        assert_ne!(rep_seed(0, 1), rep_seed(7919, 0));
        assert_ne!(rep_seed(0, 0), rep_seed(0, 1));
        // Pin the streams: any change to the derivation rewrites every
        // amplified transcript and must be deliberate.
        assert_eq!(rep_seed(0, 0), 0xb382_a305_f441_4f5e);
        assert_eq!(rep_seed(0, 1), 0x631a_9154_fbab_f717);
        assert_eq!(rep_seed(0, 2), 0xa80a_ba8c_8664_0906);
        assert_eq!(rep_seed(7919, 0), 0x325c_54e9_fe2c_bc87);
        assert_eq!(rep_seed(7, 0), 0xa653_05fd_338e_c8fe);
        assert_eq!(rep_seed(7, 1), 0x8ca3_cbb6_ca63_129b);
        assert_eq!(rep_seed(1000, 3), 0xf379_1818_5553_213d);
        // No collisions across a dense grid of nearby bases and reps.
        let mut seen = std::collections::HashSet::new();
        for base in 0..64u64 {
            for r in 0..32u32 {
                assert!(seen.insert(rep_seed(base, r)), "collision at {base}/{r}");
            }
        }
    }

    #[test]
    fn parallel_amplification_matches_serial_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let weak = SimultaneousTester::new(
            Tuning::practical(0.2).with_scale(0.25),
            SimProtocolKind::Low { avg_degree: 6.0 },
        );
        let input = PreparedInput::new(&g, &parts).unwrap();
        for seed in [0u64, 3, 11] {
            let serial = run_amplified_prepared(&Pool::serial(), &weak, &input, 8, seed).unwrap();
            for threads in [2, 8] {
                let par =
                    run_amplified_prepared(&Pool::new(threads), &weak, &input, 8, seed).unwrap();
                assert_eq!(par.outcome, serial.outcome, "seed {seed} t{threads}");
                assert_eq!(par.stats, serial.stats, "seed {seed} t{threads}");
                assert_eq!(par.transcript, serial.transcript, "seed {seed} t{threads}");
            }
        }
    }

    #[test]
    fn prepared_tally_path_matches_transcript_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let weak = SimultaneousTester::new(
            Tuning::practical(0.2).with_scale(0.25),
            SimProtocolKind::Low { avg_degree: 6.0 },
        );
        let input = PreparedInput::new(&g, &parts).unwrap();
        for seed in [0u64, 5, 17] {
            let slow = serial_sweep(&weak, &g, &parts, 8, seed);
            for threads in [1, 2, 8] {
                let fast =
                    run_amplified_prepared(&Pool::new(threads), &weak, &input, 8, seed).unwrap();
                assert_eq!(fast.outcome, slow.outcome, "seed {seed} t{threads}");
                assert_eq!(fast.stats, slow.stats, "seed {seed} t{threads}");
                assert_eq!(
                    fast.transcript.total_bits(),
                    slow.transcript.total_bits(),
                    "seed {seed} t{threads}"
                );
                let (fast, slow) = (&fast.transcript, slow.transcript.tally());
                assert_eq!(fast.by_phase(), slow.by_phase());
                assert_eq!(fast.by_player(), slow.by_player());
                assert_eq!(fast.by_round(), slow.by_round());
                assert_eq!(fast.by_direction(), slow.by_direction());
                assert_eq!(fast.breakdown(), slow.breakdown());
            }
        }
    }

    #[test]
    fn unrestricted_prepared_tally_matches_its_transcript_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = crate::UnrestrictedTester::new(Tuning::practical(0.2));
        let input = PreparedInput::new(&g, &parts).unwrap();
        for seed in [3u64, 11] {
            let slow = tester.run(&g, &parts, seed).unwrap();
            let fast = tester.run_prepared(&input, seed, None).unwrap();
            assert_eq!(fast.fault, None, "seed {seed}");
            assert_eq!(fast.injected, triad_comm::FaultStats::default());
            let fast = fast.run;
            assert_eq!(fast.outcome, slow.outcome, "seed {seed}");
            assert_eq!(fast.stats, slow.stats, "seed {seed}");
            let (fast, slow) = (&fast.transcript, slow.transcript.tally());
            assert_eq!(fast.by_phase(), slow.by_phase());
            assert_eq!(fast.breakdown(), slow.breakdown());
        }
    }

    #[test]
    fn graph_free_prepared_input_runs_native_testers_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let with_graph = PreparedInput::new(&g, &parts).unwrap();
        let graph_free = PreparedInput::from_partition(g.vertex_count(), &parts).unwrap();
        assert!(graph_free.graph().is_none());
        assert_eq!(graph_free.n(), with_graph.n());
        assert_eq!(graph_free.k(), with_graph.k());
        let sim = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 6.0 },
        );
        let unr = crate::UnrestrictedTester::new(Tuning::practical(0.2));
        let testers: [(&str, &dyn Repeatable); 2] = [("sim", &sim), ("unr", &unr)];
        for seed in [0u64, 7, 19] {
            for (name, tester) in testers {
                let a = tester.run_prepared(&with_graph, seed, None).unwrap().run;
                let b = tester.run_prepared(&graph_free, seed, None).unwrap().run;
                assert_eq!(a.outcome, b.outcome, "{name} seed {seed}");
                assert_eq!(a.stats, b.stats, "{name} seed {seed}");
                assert_eq!(a.transcript, b.transcript, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn from_partition_validates_vertex_range() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (0, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let parts = random_disjoint(&g, 2, &mut rng);
        assert!(PreparedInput::from_partition(8, &parts).is_ok());
        // Shrinking n below the largest referenced vertex must fail.
        assert!(PreparedInput::from_partition(2, &parts).is_err());
    }

    #[test]
    fn baseline_is_repeatable() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let parts = random_disjoint(&g, 3, &mut rng);
        let run = amplified(
            &crate::baseline::SendEverything::default(),
            &g,
            &parts,
            4,
            0,
        );
        // Exact baseline finds the triangle on the first repetition.
        assert!(run.outcome.found_triangle());
    }

    #[test]
    fn unrestricted_tester_is_repeatable_too() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = crate::UnrestrictedTester::new(Tuning::practical(0.2));
        let run = amplified(&tester, &g, &parts, 3, 9);
        assert!(run.outcome.found_triangle());
    }
}
