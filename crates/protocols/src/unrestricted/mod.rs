//! The unrestricted-communication tester of §3.3
//! (Algorithms 1–6, Theorem 3.20, Corollaries 3.21–3.22).
//!
//! The protocol exploits the key advantage of the communication model
//! over the query model: once any *triangle-vee* (two edges sharing a
//! source whose closing edge exists somewhere) is exposed, whichever
//! player holds the closing edge can finish the job for free. Finding a
//! triangle therefore reduces to finding a vee, which reduces to finding
//! a *full vertex* — one whose incident edges are rich in disjoint vees —
//! and sampling `Θ̃(√deg)` of its edges (the extended birthday paradox,
//! Lemma 3.9).
//!
//! Full vertices are hunted by degree bucket: some bucket between
//! `d_l = εd/(2 log n)` and `d_h = √(nd/ε)` must be *full* (Lemma 3.12),
//! a `poly(ε/log n)`-fraction of a full bucket's neighborhood is full
//! vertices (Lemma 3.7), and per-player suspect sets `B̃_i^j` let the
//! coordinator sample near-uniformly from a bucket nobody can see
//! directly (Algorithm 1). Candidates are filtered by the α-approximate
//! degree of Theorem 3.1 before the expensive edge-sampling step.

mod search;

pub use search::{
    find_triangle_vee, get_full_candidates, sample_edges_at, sample_uniform_from_btilde, Candidate,
};

use crate::amplify::{PreparedInput, Repeatable};
use crate::blocks;
use crate::config::Tuning;
use crate::outcome::{ProtocolError, ProtocolRun, Rep, TestOutcome};
use triad_comm::{CostModel, FaultPlan, LocalTransport, Recorder, Runtime, SharedRandomness};
use triad_graph::buckets;
use triad_graph::partition::Partition;
use triad_graph::Graph;

/// The unrestricted-communication triangle-freeness tester
/// (one-sided error, cost `Õ(k·(nd)^{1/4} + k²)`).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use triad_graph::generators::far_graph;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::{Tuning, UnrestrictedTester};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = far_graph(240, 6.0, 0.2, &mut rng)?;
/// let parts = random_disjoint(&g, 4, &mut rng);
/// let run = UnrestrictedTester::new(Tuning::practical(0.2)).run(&g, &parts, 5)?;
/// assert!(run.outcome.found_triangle());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UnrestrictedTester {
    tuning: Tuning,
    cost_model: CostModel,
}

impl UnrestrictedTester {
    /// A tester with the given tuning under the coordinator cost model.
    pub fn new(tuning: Tuning) -> Self {
        UnrestrictedTester {
            tuning,
            cost_model: CostModel::Coordinator,
        }
    }

    /// Switches to blackboard charging (Theorem 3.23's `k`-factor saving
    /// on posted edges).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// The tuning in force.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// Runs the tester over a partitioned input on a fresh local
    /// runtime, with the full event log.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] if a share references a
    /// vertex outside `g`.
    pub fn run(
        &self,
        g: &Graph,
        partition: &Partition,
        seed: u64,
    ) -> Result<ProtocolRun, ProtocolError> {
        let input = PreparedInput::new(g, partition)?;
        Ok(self.run_recorded(&input, seed, None).run)
    }

    /// Runs the tester with **private coins**, via Newman's conversion
    /// (§2): the parties pre-agree on `family_size` candidate seeds, the
    /// coordinator announces one (paying `k·⌈log₂ family_size⌉` bits),
    /// and the protocol proceeds under it. Total cost therefore exceeds
    /// [`run`](Self::run)'s by exactly the announcement.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] if a share references a
    /// vertex outside `g`.
    pub fn run_private(
        &self,
        g: &Graph,
        partition: &Partition,
        family_size: u64,
        seed: u64,
    ) -> Result<ProtocolRun, ProtocolError> {
        crate::outcome::validate_shares(g, partition)?;
        let mut rt = Runtime::local(
            g.vertex_count(),
            partition.shares(),
            SharedRandomness::new(seed),
            self.cost_model,
        );
        rt.phase("newman-conversion", |rt| {
            let announced = rt.announce_seed_from_family(family_size);
            rt.adopt_shared(announced);
        });
        let outcome = self.run_on(&mut rt);
        Ok(ProtocolRun {
            outcome,
            stats: rt.stats(),
            transcript: rt.into_recorder(),
        })
    }

    /// The one body behind [`run`](Self::run) and
    /// [`Repeatable::run_prepared`]: a runtime over the prepared players,
    /// recording into any recorder. With a fault plan the runtime
    /// injects its faults ([`Runtime::with_faults`]), retries retryable
    /// ones (charged under [`triad_comm::RETRANSMIT_LABEL`]) and an
    /// unrecovered one poisons it, which the repetition reports as its
    /// fault.
    pub(crate) fn run_recorded<R: Recorder>(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Rep<R> {
        let shared = SharedRandomness::new(seed);
        let local = LocalTransport::from_shared(input.shared_players(), shared);
        let mut rt = Runtime::<R>::new_with(Box::new(local), input.n(), shared, self.cost_model);
        if let Some((plan, rep)) = faults {
            rt = rt.with_faults(*plan, rep);
        }
        let outcome = self.run_on(&mut rt);
        let fault = rt.take_fault();
        let injected = rt.injected();
        Rep {
            run: ProtocolRun {
                outcome,
                stats: rt.stats(),
                transcript: rt.into_recorder(),
            },
            fault,
            injected,
        }
    }

    /// Runs the tester over an existing runtime (threaded, blackboard,
    /// tally-recording, …).
    ///
    /// This is FindTriangle (Algorithm 6) with the degree-oblivious window
    /// of Corollary 3.22: the scan range is derived from communicated
    /// bounds on the edge count, never from ground truth.
    pub fn run_on<R: Recorder>(&self, rt: &mut Runtime<R>) -> TestOutcome {
        let n = rt.n();
        let k = rt.k() as f64;
        // Corollary 3.22: bracket the average degree from the players'
        // local counts (free of duplication assumptions, up to factor k).
        let (m_lo, m_hi) = rt.phase("estimate-degree", blocks::total_edge_count_bound);
        if m_hi == 0.0 {
            return TestOutcome::NoTriangleFound; // empty graph
        }
        let d_lo = (2.0 * m_lo / n as f64).max(1.0 / k);
        let d_hi = 2.0 * m_hi / n as f64;
        let low = buckets::DegreeThresholds::compute(n, d_lo, self.tuning.epsilon).low;
        let high = buckets::DegreeThresholds::compute(n, d_hi, self.tuning.epsilon).high;
        let first = buckets::bucket_of_degree(low.max(1.0) as usize).unwrap_or(0);
        let last = buckets::bucket_of_degree(high.max(1.0).ceil() as usize).unwrap_or(0);
        for bucket in first..=last {
            rt.next_round();
            if let Some(t) = find_triangle_vee(rt, bucket, &self.tuning) {
                return TestOutcome::TriangleFound(t);
            }
        }
        TestOutcome::NoTriangleFound
    }
}

impl Repeatable for UnrestrictedTester {
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError> {
        Ok(self.run_recorded(input, seed, faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::{dense_core, far_graph};
    use triad_graph::partition::{adversarial_triangle_split, random_disjoint, with_duplication};

    #[test]
    fn finds_triangle_in_far_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = UnrestrictedTester::new(Tuning::practical(0.2));
        let run = tester.run(&g, &parts, 11).unwrap();
        let t = run
            .outcome
            .triangle()
            .expect("far graph must yield a triangle");
        assert!(t.exists_in(&g), "one-sided error: witness must be real");
        assert!(run.stats.total_bits > 0);
    }

    #[test]
    fn finds_triangle_under_duplication() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = with_duplication(&g, 4, 0.4, &mut rng);
        let run = UnrestrictedTester::new(Tuning::practical(0.2))
            .run(&g, &parts, 3)
            .unwrap();
        let t = run
            .outcome
            .triangle()
            .expect("duplication must not break the tester");
        assert!(t.exists_in(&g));
    }

    #[test]
    fn finds_triangle_with_adversarial_split() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = adversarial_triangle_split(&g, 3, &mut rng);
        // (The packed triangles are guaranteed split; incidental triangles
        // formed by leftover noise edges may still be local — the point of
        // the test is that the protocol needs no local triangle anywhere.)
        let run = UnrestrictedTester::new(Tuning::practical(0.2))
            .run(&g, &parts, 4)
            .unwrap();
        assert!(run.outcome.found_triangle());
    }

    #[test]
    fn accepts_triangle_free_graph_always() {
        // One-sided error: NO input ever yields a (fake) triangle.
        let g = Graph::from_edges(
            50,
            (0..49).map(|i| (i as u32, i as u32 + 1)), // a path
        );
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let parts = random_disjoint(&g, 4, &mut rng);
        for seed in 0..5 {
            let run = UnrestrictedTester::new(Tuning::practical(0.2))
                .run(&g, &parts, seed)
                .unwrap();
            assert!(run.outcome.accepts());
        }
    }

    #[test]
    fn finds_triangles_in_dense_core_instance() {
        // The instance that defeats uniform vertex sampling: bucketing must
        // still find the high-degree hubs.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dc = dense_core(300, 4, &mut rng).unwrap();
        let parts = random_disjoint(dc.graph(), 4, &mut rng);
        let run = UnrestrictedTester::new(Tuning::practical(0.2))
            .run(dc.graph(), &parts, 6)
            .unwrap();
        let t = run
            .outcome
            .triangle()
            .expect("dense core is far from triangle-free");
        assert!(t.exists_in(dc.graph()));
    }

    #[test]
    fn empty_graph_accepts_cheaply() {
        let g = Graph::from_edges(10, []);
        let parts = Partition::new(vec![vec![], vec![]]);
        let run = UnrestrictedTester::new(Tuning::practical(0.2))
            .run(&g, &parts, 0)
            .unwrap();
        assert!(run.outcome.accepts());
        assert!(run.stats.total_bits < 100);
    }

    #[test]
    fn rejects_out_of_range_share() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let bad = Partition::new(vec![vec![triad_graph::Edge::new(
            triad_graph::VertexId(7),
            triad_graph::VertexId(8),
        )]]);
        let err = UnrestrictedTester::new(Tuning::practical(0.2)).run(&g, &bad, 0);
        assert!(err.is_err());
    }

    #[test]
    fn private_coins_cost_exactly_the_announcement() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = UnrestrictedTester::new(Tuning::practical(0.2));
        let private = tester.run_private(&g, &parts, 1 << 12, 21).unwrap();
        let t = private
            .outcome
            .triangle()
            .expect("still finds the triangle");
        assert!(t.exists_in(&g));
        // The run under the announced seed, replayed directly, costs the
        // private run minus the k × 13-bit announcement.
        let mut rt = Runtime::local(
            g.vertex_count(),
            parts.shares(),
            SharedRandomness::new(21),
            CostModel::Coordinator,
        );
        let announced = rt.announce_seed_from_family(1 << 12);
        let announce_bits = rt.stats().total_bits;
        assert_eq!(announce_bits, 4 * 13);
        let mut replay = Runtime::local(
            g.vertex_count(),
            parts.shares(),
            announced,
            CostModel::Coordinator,
        );
        let replay_outcome = tester.run_on(&mut replay);
        assert_eq!(replay_outcome, private.outcome);
        assert_eq!(
            private.stats.total_bits,
            replay.stats().total_bits + announce_bits
        );
    }

    #[test]
    fn blackboard_model_is_cheaper() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
        let parts = with_duplication(&g, 6, 0.5, &mut rng);
        let tuning = Tuning::practical(0.2);
        let coord = UnrestrictedTester::new(tuning).run(&g, &parts, 9).unwrap();
        let board = UnrestrictedTester::new(tuning)
            .with_cost_model(CostModel::Blackboard)
            .run(&g, &parts, 9)
            .unwrap();
        assert!(board.stats.total_bits < coord.stats.total_bits);
        assert_eq!(
            board.outcome.found_triangle(),
            coord.outcome.found_triangle(),
            "cost model must not change the verdict"
        );
    }
}
