//! `H`-freeness testing — the paper's §5 future-work direction,
//! implemented for the simultaneous induced-sampler.
//!
//! AlgHigh's mechanism is pattern-agnostic: publicly sample a vertex set
//! `S`, have every player post its induced edges (capped), and let the
//! referee search the exposed subgraph — for a triangle or for any small
//! pattern `H`. For a graph that is ε-far from `H`-free (≥ `ε|E|/e(H)`
//! edge-disjoint copies), a copy survives the sample with probability
//! `p^{v(H)}`, so `p = Θ((e(H)/(ε·m))^{1/v(H)})` exposes one in
//! expectation — the direct generalization of the `(n²/εd)^{1/3}`
//! sample.
//!
//! One-sided as ever: a reported embedding is checked against nothing —
//! it *is* edges the players actually hold.

use crate::config::Tuning;
use crate::outcome::ProtocolError;
use triad_comm::{
    run_simultaneous, CommStats, Payload, PlayerState, SharedRandomness, SimMessage,
    SimultaneousProtocol,
};
use triad_graph::partition::Partition;
use triad_graph::subgraphs::{find_copy, Pattern};
use triad_graph::{Graph, GraphBuilder, VertexId};

/// Shared-randomness tag naming the vertex sample.
const H_TAG: u64 = 0x4846_5245; // "HFRE"

/// The one-round `H`-freeness tester.
#[derive(Debug, Clone)]
pub struct SimHFreeness {
    tuning: Tuning,
    pattern: Pattern,
    avg_degree: f64,
}

impl SimHFreeness {
    /// A tester for pattern `h` on graphs of (known) average degree
    /// `avg_degree`.
    pub fn new(tuning: Tuning, pattern: Pattern, avg_degree: f64) -> Self {
        SimHFreeness {
            tuning,
            pattern,
            avg_degree,
        }
    }

    /// The pattern under test.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Per-vertex sampling probability
    /// `p = (c·e(H) / (ε·m))^{1/v(H)}`, clamped to 1.
    pub fn sample_probability(&self, n: usize) -> f64 {
        let m = (n as f64 * self.avg_degree / 2.0).max(1.0);
        let c = 4.0 / self.tuning.delta;
        let base = c * self.pattern.edges() as f64 / (self.tuning.epsilon * m);
        base.powf(1.0 / self.pattern.vertices() as f64)
            .clamp(0.0, 1.0)
            * self.tuning.scale
    }

    /// Per-player cap: the Markov cutoff `m·p²·(4/δ)`.
    pub fn cap(&self, n: usize) -> usize {
        let m = n as f64 * self.avg_degree / 2.0;
        let p = self.sample_probability(n);
        ((m * p * p * 4.0 / self.tuning.delta).ceil() as usize).max(16)
    }
}

impl SimultaneousProtocol for SimHFreeness {
    type Output = Option<Vec<VertexId>>;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let n = player.n();
        let p = self.sample_probability(n).min(1.0);
        let cap = self.cap(n);
        let mut out = Vec::new();
        for e in player.edges() {
            if shared.vertex_sampled(H_TAG, e.u(), p) && shared.vertex_sampled(H_TAG, e.v(), p) {
                out.push(*e);
                if out.len() >= cap {
                    break;
                }
            }
        }
        SimMessage::of(Payload::Edges(out.into()))
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        _shared: &SharedRandomness,
    ) -> Option<Vec<VertexId>> {
        let mut b = GraphBuilder::new(n);
        for m in messages {
            for e in m.edges() {
                b.add_edge(e);
            }
        }
        find_copy(&b.build(), &self.pattern)
    }
}

/// A completed `H`-freeness run.
#[derive(Debug, Clone)]
pub struct HFreenessRun {
    /// The witness embedding (pattern vertex `i` → host), if found.
    pub witness: Option<Vec<VertexId>>,
    /// Communication statistics.
    pub stats: CommStats,
    /// Per-payload event log with phase attribution.
    pub transcript: triad_comm::Transcript,
}

/// Runs the one-round `H`-freeness tester over a partitioned input.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidInput`] on malformed shares or a
/// non-positive degree hint.
pub fn run_h_freeness(
    tuning: Tuning,
    pattern: Pattern,
    g: &Graph,
    partition: &Partition,
    avg_degree: f64,
    seed: u64,
) -> Result<HFreenessRun, ProtocolError> {
    if avg_degree <= 0.0 {
        return Err(ProtocolError::InvalidInput(
            "average degree must be positive".into(),
        ));
    }
    let n = g.vertex_count();
    crate::outcome::validate_shares(g, partition)?;
    let protocol = SimHFreeness::new(tuning, pattern, avg_degree);
    let run = run_simultaneous(
        &protocol,
        n,
        partition.shares(),
        SharedRandomness::new(seed),
    );
    Ok(HFreenessRun {
        witness: run.output,
        stats: run.stats,
        transcript: run.transcript,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::planted_copies;
    use triad_graph::partition::random_disjoint;
    use triad_graph::Edge;

    fn workload(pattern: &Pattern, copies: usize, n: usize) -> (Graph, Partition) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = planted_copies(n, pattern, copies, n / 10, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        (g, parts)
    }

    fn success_rate(pattern: Pattern, copies: usize, n: usize) -> f64 {
        let (g, parts) = workload(&pattern, copies, n);
        let d = g.average_degree();
        let mut hits = 0u32;
        let trials: u32 = 10;
        for seed in 0..trials {
            let run = run_h_freeness(
                Tuning::practical(0.2),
                pattern.clone(),
                &g,
                &parts,
                d,
                u64::from(seed),
            )
            .unwrap();
            if let Some(hosts) = run.witness {
                // Witness soundness: every pattern edge maps to a host edge.
                for e in pattern.graph().edges() {
                    assert!(g.has_edge(Edge::new(hosts[e.u().index()], hosts[e.v().index()])));
                }
                hits += 1;
            }
        }
        f64::from(hits) / f64::from(trials)
    }

    #[test]
    fn finds_planted_k4() {
        let rate = success_rate(Pattern::clique(4), 120, 1000);
        assert!(rate >= 0.7, "K4 found at rate {rate}");
    }

    #[test]
    fn finds_planted_c5() {
        let rate = success_rate(Pattern::cycle(5), 150, 1000);
        assert!(rate >= 0.7, "C5 found at rate {rate}");
    }

    #[test]
    fn triangle_case_matches_dedicated_tester_shape() {
        let rate = success_rate(Pattern::triangle(), 150, 900);
        assert!(rate >= 0.7, "triangle found at rate {rate}");
    }

    #[test]
    fn h_free_inputs_always_accept() {
        // A bipartite-ish noise graph has no odd cycles; C5 and K4 free.
        let g = Graph::from_edges(200, (0..100u32).map(|i| (i, i + 100)));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let parts = random_disjoint(&g, 3, &mut rng);
        for pattern in [Pattern::clique(4), Pattern::cycle(5), Pattern::triangle()] {
            for seed in 0..5 {
                let run = run_h_freeness(
                    Tuning::practical(0.2),
                    pattern.clone(),
                    &g,
                    &parts,
                    2.0,
                    seed,
                )
                .unwrap();
                assert!(run.witness.is_none(), "{pattern:?} fabricated a witness");
            }
        }
    }

    #[test]
    fn sample_probability_shrinks_with_pattern_size() {
        let t = Tuning::practical(0.2);
        let d = 10.0;
        let tri = SimHFreeness::new(t, Pattern::triangle(), d);
        let k5 = SimHFreeness::new(t, Pattern::clique(5), d);
        let n = 1 << 16;
        // Larger patterns need a larger p (harder to catch v(H) vertices).
        assert!(k5.sample_probability(n) > tri.sample_probability(n));
        assert!(tri.sample_probability(n) > 0.0);
    }

    #[test]
    fn rejects_bad_degree() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let parts = Partition::new(vec![g.edges().to_vec()]);
        assert!(run_h_freeness(
            Tuning::practical(0.2),
            Pattern::triangle(),
            &g,
            &parts,
            0.0,
            0
        )
        .is_err());
    }
}
