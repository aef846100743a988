//! Baselines: exact triangle detection.
//!
//! Woodruff–Zhang (\[38\] in the paper) showed exact triangle detection
//! costs `Ω(k·n·d)` bits — essentially every player must ship its whole
//! input. [`SendEverything`] realizes that regime: each player posts its
//! entire edge share; the referee answers exactly. Comparing the paper's
//! testers against it is the headline experiment ("property testing is
//! cheaper than exact decision").

use crate::amplify::{PreparedInput, Repeatable};
use crate::outcome::{ProtocolError, ProtocolRun, Rep};
use crate::simultaneous::run_one_round;
use triad_comm::{
    FaultPlan, Payload, PayloadRepr, PlayerState, SharedRandomness, SimMessage,
    SimultaneousProtocol,
};
use triad_graph::partition::Partition;
use triad_graph::{Graph, Triangle};

/// The exact baseline: players send their full inputs; the referee
/// decides triangle-existence with zero error (both sides).
#[derive(Debug, Clone, Copy, Default)]
pub struct SendEverything {
    /// How shares travel: edge lists, packed bitsets, or the density
    /// gate deciding per share ([`PayloadRepr::Auto`], the default).
    /// Recorded bits and verdicts are identical under every setting.
    pub repr: PayloadRepr,
}

impl SendEverything {
    /// The baseline pinned to a payload representation.
    pub fn with_repr(repr: PayloadRepr) -> Self {
        SendEverything { repr }
    }
}

impl SimultaneousProtocol for SendEverything {
    type Output = Option<Triangle>;

    fn message<'a>(&self, player: &'a PlayerState, _shared: &SharedRandomness) -> SimMessage<'a> {
        // Borrow the player's sorted share (or its cached bitset): the
        // whole-input baseline is the worst case for per-run cloning, and
        // the payload never outlives the player here.
        let payload = if self.repr.use_bits(player.share().len(), player.n()) {
            Payload::EdgeBits(std::borrow::Cow::Borrowed(player.share_bitset()))
        } else {
            Payload::Edges(player.share().into())
        };
        SimMessage::of_phased(payload, "send-everything")
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        _shared: &SharedRandomness,
    ) -> Option<Triangle> {
        crate::simultaneous::referee_find_triangle(n, messages)
    }
}

impl Repeatable for SendEverything {
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError> {
        // One round, no retries: the baseline degrades exactly like the
        // §3.4 testers under faults.
        Ok(run_one_round(self, input, seed, faults))
    }
}

/// Runs the exact baseline over a partitioned input, with the full
/// event log. The verdict is exact: `TriangleFound` iff the union graph
/// contains a triangle.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidInput`] if a share references a vertex
/// outside `g`.
pub fn run_send_everything(
    g: &Graph,
    partition: &Partition,
    seed: u64,
) -> Result<ProtocolRun, ProtocolError> {
    let input = PreparedInput::new(g, partition)?;
    Ok(run_one_round(&SendEverything::default(), &input, seed, None).run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::gnp;
    use triad_graph::partition::random_disjoint;

    #[test]
    fn exact_on_both_sides() {
        let free = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let tri = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let pf = random_disjoint(&free, 3, &mut rng);
        let pt = random_disjoint(&tri, 3, &mut rng);
        assert!(run_send_everything(&free, &pf, 0)
            .unwrap()
            .outcome
            .accepts());
        let out = run_send_everything(&tri, &pt, 0).unwrap().outcome;
        assert!(out.triangle().unwrap().exists_in(&tri));
    }

    #[test]
    fn cost_is_linear_in_total_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = gnp(200, 0.1, &mut rng);
        let parts = random_disjoint(&g, 4, &mut rng);
        let run = run_send_everything(&g, &parts, 0).unwrap();
        let bits_per_edge = 2 * 8; // n = 200 ⇒ 8 bits per vertex
        let expected = g.edge_count() as u64 * bits_per_edge;
        assert!(run.stats.total_bits >= expected);
        assert!(
            run.stats.total_bits <= expected + 4 * 64,
            "only prefix overhead on top"
        );
    }

    #[test]
    fn representation_never_changes_verdict_or_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = gnp(120, 0.3, &mut rng); // dense enough for Auto → bits
        let parts = random_disjoint(&g, 3, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let runs: Vec<_> = [PayloadRepr::Edges, PayloadRepr::Bits, PayloadRepr::Auto]
            .into_iter()
            .map(|repr| {
                SendEverything::with_repr(repr)
                    .run_prepared(&input, 11, None)
                    .unwrap()
                    .run
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.outcome, runs[0].outcome);
            assert_eq!(run.stats.total_bits, runs[0].stats.total_bits);
        }
    }

    #[test]
    fn detects_single_triangle_hidden_in_large_graph() {
        let mut edges: Vec<(u32, u32)> = (0..500).map(|i| (i, i + 500)).collect();
        edges.extend([(0, 1), (1, 2), (0, 2)]);
        let g = Graph::from_edges(1000, edges);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let parts = random_disjoint(&g, 5, &mut rng);
        assert!(run_send_everything(&g, &parts, 0)
            .unwrap()
            .outcome
            .found_triangle());
    }
}
