//! Algorithm 8/10: the low-degree simultaneous tester.

use super::referee_find_triangle;
use crate::config::Tuning;
use triad_comm::{Payload, PlayerState, SharedRandomness, SimMessage, SimultaneousProtocol};
use triad_graph::Triangle;

/// Shared-randomness tag naming the large set `S` (`p₁ = c/d`).
const S_TAG: u64 = 0x414C_4C53; // "ALLS"
/// Shared-randomness tag naming the small set `R` (`p₂ = c/√n`).
const R_TAG: u64 = 0x414C_4C52; // "ALLR"

/// The `d = O(√n)` one-round tester: a large public set `S` (each vertex
/// w.p. `c/d`) catches rare high-degree triangle hubs; a small public set
/// `R` (each vertex w.p. `c/√n`) catches the other two corners by the
/// birthday paradox. Players post their edges in `R × (R ∪ S)`, capped.
///
/// Communication `O(k·√n·log n)` with constant one-sided error
/// (Theorem 3.26).
#[derive(Debug, Clone, Copy)]
pub struct AlgLow {
    tuning: Tuning,
    avg_degree: f64,
}

impl AlgLow {
    /// A tester for a graph of (known) average degree `avg_degree`.
    pub fn new(tuning: Tuning, avg_degree: f64) -> Self {
        AlgLow { tuning, avg_degree }
    }

    /// The pair `(p₁, p₂)` of sampling probabilities.
    pub fn probabilities(&self, n: usize) -> (f64, f64) {
        self.tuning.low_probabilities(n, self.avg_degree)
    }

    /// The per-player edge cap `q`.
    pub fn cap(&self, n: usize) -> usize {
        self.tuning.low_cap(n, self.avg_degree)
    }
}

impl SimultaneousProtocol for AlgLow {
    type Output = Option<Triangle>;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let n = player.n();
        let (p1, p2) = self.probabilities(n);
        let cap = self.cap(n);
        // Public coins: R and S cost nothing to agree on, and their keys
        // and thresholds are the same for every edge.
        let (r, s) = (shared.vertex_set(R_TAG, p2), shared.vertex_set(S_TAG, p1));
        let mut out = Vec::new();
        for e in player.edges() {
            let (u, v) = e.endpoints();
            let ru = r.contains(u);
            let rv = r.contains(v);
            let qualifies = (ru && (rv || s.contains(v))) || (rv && (ru || s.contains(u)));
            if qualifies {
                out.push(*e);
                if out.len() >= cap {
                    break;
                }
            }
        }
        SimMessage::of_phased(
            Payload::edge_set(self.tuning.repr, n, out.into()),
            "r-cross-edges",
        )
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        _shared: &SharedRandomness,
    ) -> Option<Triangle> {
        referee_find_triangle(n, messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_comm::run_simultaneous;
    use triad_graph::{Edge, VertexId};

    #[test]
    fn messages_only_contain_r_touching_edges() {
        let edges: Vec<Edge> = (0..60u32)
            .map(|i| Edge::new(VertexId(i), VertexId(i + 60)))
            .collect();
        let player = PlayerState::new(0, 120, &edges);
        let shared = SharedRandomness::new(3);
        let alg = AlgLow::new(Tuning::practical(0.2), 4.0);
        let (p1, p2) = alg.probabilities(120);
        let msg = alg.message(&player, &shared);
        for e in msg.edges() {
            let (u, v) = e.endpoints();
            let ru = shared.vertex_sampled(R_TAG, u, p2);
            let rv = shared.vertex_sampled(R_TAG, v, p2);
            assert!(ru || rv, "every posted edge touches R");
            let other_ok = if ru {
                rv || shared.vertex_sampled(S_TAG, v, p1)
            } else {
                shared.vertex_sampled(S_TAG, u, p1)
            };
            assert!(other_ok, "other endpoint must be in R ∪ S");
        }
    }

    #[test]
    fn degenerate_degree_sends_all_r_edges() {
        // d ≤ c ⇒ p₁ = 1, S = V, so the filter reduces to "touches R".
        let alg = AlgLow::new(Tuning::practical(0.2), 1.0);
        let (p1, _) = alg.probabilities(100);
        assert_eq!(p1, 1.0);
    }

    #[test]
    fn finds_triangle_through_high_degree_hub() {
        // Hub 0 adjacent to everyone; triangles (0, i, i+1). The hub is
        // caught by S (or R), the leaf pair by R.
        let mut edges = Vec::new();
        let n = 200u32;
        for i in 1..n {
            edges.push(Edge::new(VertexId(0), VertexId(i)));
        }
        for i in (1..n - 1).step_by(2) {
            edges.push(Edge::new(VertexId(i), VertexId(i + 1)));
        }
        let shares = vec![edges];
        let alg = AlgLow::new(Tuning::practical(0.2), 3.0);
        let mut hits = 0;
        for seed in 0..10 {
            let run = run_simultaneous(&alg, n as usize, &shares, SharedRandomness::new(seed));
            if run.output.is_some() {
                hits += 1;
            }
        }
        assert!(hits >= 8, "hub triangles found in {hits}/10 runs");
    }

    #[test]
    fn cap_is_enforced() {
        let edges: Vec<Edge> = (1..=2000u32)
            .map(|i| Edge::new(VertexId(0), VertexId(i)))
            .collect();
        let player = PlayerState::new(0, 2001, &edges);
        let shared = SharedRandomness::new(1);
        let tuning = Tuning::practical(0.2).with_scale(0.1);
        let alg = AlgLow::new(tuning, 1.0);
        let msg = alg.message(&player, &shared);
        assert!(msg.edges().count() <= alg.cap(2001));
    }

    #[test]
    fn capped_messages_are_the_sorted_prefix_whatever_the_share_order() {
        // Two states over differently ordered copies of one share (one
        // with duplicates) must post identical capped messages and
        // handler payloads: the first `cap` qualifying edges in sorted
        // order.
        use triad_comm::PlayerRequest;
        let edges: Vec<Edge> = (1..=2000u32)
            .map(|i| Edge::new(VertexId(0), VertexId(i)))
            .collect();
        let mut shuffled: Vec<Edge> = edges.iter().rev().copied().collect();
        shuffled.extend(edges.iter().step_by(3).copied());
        let states = [
            PlayerState::new(0, 2001, &edges),
            PlayerState::new(0, 2001, &shuffled),
        ];
        let alg = AlgLow::new(Tuning::practical(0.2).with_scale(0.1), 1.0);
        let (p1, p2) = alg.probabilities(2001);
        let cap = alg.cap(2001);
        let in_r = |s: &SharedRandomness, v| s.vertex_sampled(R_TAG, v, p2);
        let in_s = |s: &SharedRandomness, v| s.vertex_sampled(S_TAG, v, p1);
        // A seed that puts the hub in R, so every edge qualifies.
        let shared = (0..)
            .map(SharedRandomness::new)
            .find(|s| in_r(s, VertexId(0)))
            .unwrap();
        let qualifying: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| {
                let (u, v) = e.endpoints();
                let (ru, rv) = (in_r(&shared, u), in_r(&shared, v));
                (ru && (rv || in_s(&shared, v))) || (rv && (ru || in_s(&shared, u)))
            })
            .collect();
        assert!(qualifying.len() > cap, "the cap must bind");
        for state in &states {
            let posted: Vec<Edge> = alg.message(state, &shared).edges().collect();
            assert_eq!(posted, qualifying[..cap]);
        }
        let requests = [
            PlayerRequest::InducedEdges {
                tag: 7,
                p: 1.0,
                cap: 5,
            },
            PlayerRequest::RsEdges {
                r_tag: 1,
                p_r: 1.0,
                s_tag: 2,
                p_s: 0.0,
                cap: 5,
            },
        ];
        for req in &requests {
            for state in &states {
                assert_eq!(
                    state.handle(req, &shared),
                    Payload::Edges(edges[..5].to_vec().into()),
                    "{req:?}"
                );
            }
        }
    }
}
