//! The one-round (simultaneous) testers of §3.4.
//!
//! * [`AlgHigh`] — for `d = Ω(√n)`: publicly sample
//!   `|S| = Θ((n²/εd)^{1/3})` vertices; players post the induced edges
//!   they hold (Algorithm 7/9). Cost `Õ(k·(nd)^{1/3})`.
//! * [`AlgLow`] — for `d = O(√n)`: sample a large set `S`
//!   (`p₁ = c/d`, catching rare high-degree triangle hubs) and a small
//!   set `R` (`p₂ = c/√n`); players post edges in `R × (R ∪ S)`
//!   (Algorithm 8/10). Cost `Õ(k·√n)`.
//! * [`Oblivious`] — no knowledge of `d`: every player brackets the true
//!   density inside `D_j = [d̄_j, (4k/ε)·d̄_j]` from its own input (if it
//!   is *relevant* — holds an `Ω(ε/k)` fraction of the edges), runs
//!   `O(log k)` capped instances of the two protocols across its guess
//!   range, and the referee unions everything (Algorithm 11,
//!   Theorem 3.32).

mod alg_high;
mod alg_low;
mod oblivious;

pub use alg_high::AlgHigh;
pub use alg_low::AlgLow;
pub use oblivious::Oblivious;

use crate::amplify::{PreparedInput, Repeatable};
use crate::config::Tuning;
use crate::outcome::{ProtocolError, ProtocolRun, Rep, TestOutcome};
use triad_comm::{
    run_simultaneous_chaos, run_simultaneous_prepared, FaultPlan, FaultStats, Payload, Recorder,
    SharedRandomness, SimChaos, SimMessage, SimultaneousProtocol,
};
use triad_graph::kernels::{bitset, EdgeBitset};
use triad_graph::partition::Partition;
use triad_graph::{triangles, Edge, Graph, GraphBuilder, Triangle, VertexId};

/// The referee of every §3.4 protocol: union all posted edges and look
/// for a triangle in the exposed subgraph.
///
/// Representation-aware: when every payload is an edge list, the union
/// builds a [`Graph`] over the posted edges' endpoints only and the
/// search runs on the `O(m^{3/2})` forward kernel, so the referee's work
/// scales with the posted edges, not with `n`. When any player posted a
/// bitset payload, the union stays in bitset space (word-parallel ORs,
/// `O(words)` per dense row) and the search runs the AND-popcount kernel
/// instead. The two kernels return the **same witness** on the same edge
/// set (pinned in `triad-graph`), so payload representation can never
/// change the verdict — the `tests/payload_differential.rs` contract.
pub(crate) fn referee_find_triangle(n: usize, messages: &[SimMessage]) -> Option<Triangle> {
    let any_bits = messages
        .iter()
        .flat_map(|m| m.payloads().iter())
        .any(|p| matches!(p, Payload::EdgeBits(_)));
    if any_bits {
        let mut set = EdgeBitset::new(n);
        for m in messages {
            for p in m.payloads() {
                if let Payload::EdgeBits(b) = p {
                    if b.n() == n {
                        set.union_with(b);
                        continue;
                    }
                }
                for e in p.iter_edges() {
                    set.insert(e);
                }
            }
        }
        return bitset::find_triangle(&set);
    }
    // Relabel the distinct endpoints monotonically onto `0..t`: bit `v` of
    // `marks` flags an endpoint, and its new id is the number of flagged
    // ids below it — `O(m + n/64)` word work, no sort. The forward
    // kernel's witness depends only on degrees, relative id order and
    // canonical edge order, which a monotone relabel keeps, so the witness
    // mapped back is the one the n-vertex search would return.
    let posted = || messages.iter().flat_map(SimMessage::edges);
    let mut marks = vec![0u64; n.div_ceil(64)];
    for e in posted() {
        for v in [e.u().index(), e.v().index()] {
            marks[v / 64] |= 1 << (v % 64);
        }
    }
    let mut below = Vec::with_capacity(marks.len());
    let mut ids = Vec::new();
    for (i, &word) in marks.iter().enumerate() {
        below.push(ids.len());
        let mut w = word;
        while w != 0 {
            ids.push(VertexId::from_index(i * 64 + w.trailing_zeros() as usize));
            w &= w - 1;
        }
    }
    let local = |v: VertexId| {
        let (i, bit) = (v.index() / 64, v.index() % 64);
        VertexId::from_index(below[i] + (marks[i] & ((1u64 << bit) - 1)).count_ones() as usize)
    };
    let mut compact = GraphBuilder::new(ids.len());
    compact.extend_edges(posted().map(|e| Edge::new(local(e.u()), local(e.v()))));
    triangles::find_triangle(&compact.build()).map(|t| {
        let [a, b, c] = t.vertices().map(|v| ids[v.index()]);
        Triangle::new(a, b, c)
    })
}

/// Which simultaneous protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimProtocolKind {
    /// Algorithm 7/9, given the average degree.
    High {
        /// The (known) average degree `d`.
        avg_degree: f64,
    },
    /// Algorithm 8/10, given the average degree.
    Low {
        /// The (known) average degree `d`.
        avg_degree: f64,
    },
    /// Algorithm 11: degree-oblivious.
    Oblivious,
}

/// Top-level driver for the simultaneous testers.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use triad_graph::generators::far_graph;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let g = far_graph(300, 8.0, 0.2, &mut rng)?;
/// let parts = random_disjoint(&g, 4, &mut rng);
/// let tester = SimultaneousTester::new(
///     Tuning::practical(0.2),
///     SimProtocolKind::Low { avg_degree: 8.0 },
/// );
/// let run = tester.run(&g, &parts, 3)?;
/// println!("one round, {} bits", run.stats.total_bits);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimultaneousTester {
    tuning: Tuning,
    kind: SimProtocolKind,
}

impl SimultaneousTester {
    /// A tester for the chosen protocol variant.
    pub fn new(tuning: Tuning, kind: SimProtocolKind) -> Self {
        SimultaneousTester { tuning, kind }
    }

    /// The protocol variant.
    pub fn kind(&self) -> SimProtocolKind {
        self.kind
    }

    /// Runs one simultaneous round over the partitioned input, with the
    /// full event log.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] on malformed shares or
    /// non-positive degree hints.
    pub fn run(
        &self,
        g: &Graph,
        partition: &Partition,
        seed: u64,
    ) -> Result<ProtocolRun, ProtocolError> {
        let input = PreparedInput::new(g, partition)?;
        self.run_recorded(&input, seed, None).map(|rep| rep.run)
    }

    /// The one body behind [`run`](Self::run) and
    /// [`Repeatable::run_prepared`]: one round over prepared players,
    /// with or without a fault plan, into any recorder.
    pub(crate) fn run_recorded<R: Recorder>(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep<R>, ProtocolError> {
        let degree = |avg_degree: f64| {
            if avg_degree <= 0.0 {
                Err(ProtocolError::InvalidInput(
                    "average degree must be positive".into(),
                ))
            } else {
                Ok(avg_degree)
            }
        };
        Ok(match self.kind {
            SimProtocolKind::High { avg_degree } => {
                let p = AlgHigh::new(self.tuning, degree(avg_degree)?);
                run_one_round(&p, input, seed, faults)
            }
            SimProtocolKind::Low { avg_degree } => {
                let p = AlgLow::new(self.tuning, degree(avg_degree)?);
                run_one_round(&p, input, seed, faults)
            }
            SimProtocolKind::Oblivious => {
                run_one_round(&Oblivious::new(self.tuning, input.k()), input, seed, faults)
            }
        })
    }
}

impl Repeatable for SimultaneousTester {
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError> {
        self.run_recorded(input, seed, faults)
    }
}

/// Runs a one-round protocol over prepared players, with or without a
/// fault plan — what every one-round tester runs, the exact
/// baseline included. One-round protocols cannot retry: each player
/// speaks exactly once, so a dropped, crashed or corrupted message kills
/// the repetition (bits kept), while a duplicate delivery survives with
/// the extra copy charged under [`triad_comm::RETRANSMIT_LABEL`].
pub(crate) fn run_one_round<P, R>(
    protocol: &P,
    input: &PreparedInput<'_>,
    seed: u64,
    faults: Option<(&FaultPlan, u32)>,
) -> Rep<R>
where
    P: SimultaneousProtocol<Output = Option<Triangle>>,
    R: Recorder,
{
    let shared = SharedRandomness::new(seed);
    let (n, players) = (input.n(), input.players());
    let (output, stats, transcript, fault, injected) = match faults {
        None => {
            let run = run_simultaneous_prepared(protocol, n, players, shared);
            let injected = FaultStats::default();
            (run.output, run.stats, run.transcript, None, injected)
        }
        Some((plan, rep)) => {
            let SimChaos {
                run,
                fault,
                injected,
            } = run_simultaneous_chaos(protocol, n, players, shared, plan, rep);
            (
                run.output.flatten(),
                run.stats,
                run.transcript,
                fault,
                injected,
            )
        }
    };
    Rep {
        run: ProtocolRun {
            outcome: TestOutcome::from(output),
            stats,
            transcript,
        },
        fault,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::far_graph;
    use triad_graph::partition::random_disjoint;

    fn success_rate(kind: impl Fn(f64) -> SimProtocolKind, n: usize, d: f64) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let g = far_graph(n, d, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = SimultaneousTester::new(Tuning::practical(0.2), kind(d));
        let mut hits = 0u32;
        let trials = 20u64;
        for seed in 0..trials {
            let run = tester.run(&g, &parts, seed).unwrap();
            if let Some(t) = run.outcome.triangle() {
                assert!(t.exists_in(&g), "one-sided error violated");
                hits += 1;
            }
            assert_eq!(run.stats.rounds, 1, "simultaneous means one round");
        }
        f64::from(hits) / trials as f64
    }

    #[test]
    fn low_variant_finds_triangles_reliably() {
        let rate = success_rate(|d| SimProtocolKind::Low { avg_degree: d }, 360, 8.0);
        assert!(rate >= 0.8, "AlgLow success rate {rate}");
    }

    #[test]
    fn high_variant_finds_triangles_reliably() {
        let rate = success_rate(|d| SimProtocolKind::High { avg_degree: d }, 400, 40.0);
        assert!(rate >= 0.8, "AlgHigh success rate {rate}");
    }

    #[test]
    fn oblivious_variant_finds_triangles_reliably() {
        let rate = success_rate(|_| SimProtocolKind::Oblivious, 360, 8.0);
        assert!(rate >= 0.8, "Oblivious success rate {rate}");
    }

    #[test]
    fn triangle_free_inputs_always_accept() {
        let g = Graph::from_edges(100, (0..99).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts = random_disjoint(&g, 3, &mut rng);
        for kind in [
            SimProtocolKind::High { avg_degree: 2.0 },
            SimProtocolKind::Low { avg_degree: 2.0 },
            SimProtocolKind::Oblivious,
        ] {
            let tester = SimultaneousTester::new(Tuning::practical(0.2), kind);
            for seed in 0..5 {
                assert!(tester.run(&g, &parts, seed).unwrap().outcome.accepts());
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let parts = Partition::new(vec![vec![triad_graph::Edge::new(
            triad_graph::VertexId(9),
            triad_graph::VertexId(10),
        )]]);
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 2.0 },
        );
        assert!(tester.run(&g, &parts, 0).is_err());
        let ok_parts = Partition::new(vec![vec![triad_graph::Edge::new(
            triad_graph::VertexId(0),
            triad_graph::VertexId(1),
        )]]);
        let bad = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::High { avg_degree: 0.0 },
        );
        assert!(bad.run(&g, &ok_parts, 0).is_err());
    }

    #[test]
    fn referee_unions_messages() {
        use triad_comm::Payload;
        let e = |a, b| triad_graph::Edge::new(triad_graph::VertexId(a), triad_graph::VertexId(b));
        let m1 = SimMessage::of(Payload::Edges(vec![e(0, 1), e(1, 2)].into()));
        let m2 = SimMessage::of(Payload::Edges(vec![e(0, 2)].into()));
        let t = referee_find_triangle(3, &[m1, m2]).unwrap();
        assert_eq!(t.vertices().len(), 3);
        let empty = referee_find_triangle(3, &[]);
        assert!(empty.is_none());
    }

    #[test]
    fn referee_witness_is_representation_independent() {
        use rand::Rng;
        use std::borrow::Cow;
        use triad_comm::Payload;
        let e = |a, b| Edge::new(VertexId(a), VertexId(b));
        let as_edges = |es: &[Edge]| SimMessage::of(Payload::Edges(es.to_vec().into()));
        let as_bits = |n: usize, es: &[Edge]| {
            SimMessage::of(Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(
                n,
                es.iter().copied(),
            ))))
        };
        // A graph with several triangles, split across two players.
        let half_a = vec![e(0, 1), e(1, 2), e(3, 4), e(4, 5), e(1, 3)];
        let half_b = vec![e(0, 2), e(3, 5), e(2, 3), e(1, 4)];
        let mut cases = vec![(6, vec![half_a, half_b])];
        // Random posted-edge sets with endpoints spread over `[0, n)`, the
        // largest id included, split over three players.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (n, trials) in [(50usize, 24), (3000, 12), (1_000_000, 2)] {
            for _ in 0..trials {
                let t = rng.gen_range(3..40usize).min(n);
                let mut ids: Vec<u32> = (0..t).map(|_| rng.gen_range(0..n as u32)).collect();
                ids[0] = n as u32 - 1;
                let mut posted = Vec::new();
                for _ in 0..rng.gen_range(1..3 * t) {
                    let (a, b) = (ids[rng.gen_range(0..t)], ids[rng.gen_range(0..t)]);
                    if a != b {
                        posted.push(e(a, b));
                    }
                }
                let third = posted.len().div_ceil(3).max(1);
                cases.push((n, posted.chunks(third).map(<[Edge]>::to_vec).collect()));
            }
        }
        let mut found = 0;
        for (n, shares) in &cases {
            let n = *n;
            let mut full = GraphBuilder::new(n);
            full.extend_edges(shares.iter().flatten().copied());
            let expected = triangles::find_triangle(&full.build());
            let pure: Vec<SimMessage> = shares.iter().map(|s| as_edges(s)).collect();
            assert_eq!(
                referee_find_triangle(n, &pure),
                expected,
                "n = {n}: the compacted referee must name the n-vertex witness"
            );
            // The bitset branch packs n²/64 words, so it only runs small.
            if n <= 4096 {
                let bits: Vec<SimMessage> = shares.iter().map(|s| as_bits(n, s)).collect();
                let mixed: Vec<SimMessage> = shares
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i == 0 { as_edges(s) } else { as_bits(n, s) })
                    .collect();
                assert_eq!(
                    referee_find_triangle(n, &bits),
                    expected,
                    "n = {n}: bitset referee must return the same witness"
                );
                assert_eq!(
                    referee_find_triangle(n, &mixed),
                    expected,
                    "n = {n}: mixed representations must agree too"
                );
            }
            found += usize::from(expected.is_some());
        }
        assert!(
            found > 1 && found < cases.len(),
            "{found} of {} cases close a triangle",
            cases.len()
        );
    }

    #[test]
    fn one_round_testers_leave_every_players_adjacency_unbuilt() {
        use crate::amplify::run_amplified_prepared;
        use crate::baseline::SendEverything;
        use triad_comm::{PayloadRepr, Pool};
        // A player builds its local adjacency only when a request reads
        // it; a built one shows in the player's `Debug` rendering as a
        // `CsrAdjacency`, an unbuilt one as an empty cell.
        let built = |p: &triad_comm::PlayerState| format!("{p:?}").contains("CsrAdjacency");
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = far_graph(240, 8.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 3, &mut rng);
        let d = g.average_degree();
        for repr in [PayloadRepr::Edges, PayloadRepr::Bits] {
            let tuning = Tuning::practical(0.2).with_repr(repr);
            let sim = |kind| SimultaneousTester::new(tuning, kind);
            let testers: [(&str, Box<dyn Repeatable + Sync>); 4] = [
                ("low", Box::new(sim(SimProtocolKind::Low { avg_degree: d }))),
                (
                    "high",
                    Box::new(sim(SimProtocolKind::High { avg_degree: d })),
                ),
                ("oblivious", Box::new(sim(SimProtocolKind::Oblivious))),
                ("exact", Box::new(SendEverything::with_repr(repr))),
            ];
            for (name, tester) in &testers {
                let input = PreparedInput::new(&g, &parts).unwrap();
                run_amplified_prepared(&Pool::serial(), &&**tester, &input, 1, 5).unwrap();
                for p in input.players() {
                    assert!(
                        !built(p),
                        "{name} ({repr:?}) built player {}'s adjacency",
                        p.id()
                    );
                }
            }
        }
        // The probe itself: a degree read builds the adjacency.
        let input = PreparedInput::new(&g, &parts).unwrap();
        let p = &input.players()[0];
        p.local_degree(VertexId(0));
        assert!(built(p));
    }

    #[test]
    fn every_one_round_phase_is_registered() {
        use crate::baseline::SendEverything;
        use triad_comm::{PayloadRepr, PHASES};
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let g = far_graph(240, 8.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 3, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let d = g.average_degree();
        let mut seen = std::collections::BTreeSet::new();
        for repr in [PayloadRepr::Edges, PayloadRepr::Bits] {
            let tuning = Tuning::practical(0.2).with_repr(repr);
            let sim = |kind| SimultaneousTester::new(tuning, kind);
            let testers: [Box<dyn Repeatable>; 4] = [
                Box::new(sim(SimProtocolKind::Low { avg_degree: d })),
                Box::new(sim(SimProtocolKind::High { avg_degree: d })),
                Box::new(sim(SimProtocolKind::Oblivious)),
                Box::new(SendEverything::with_repr(repr)),
            ];
            for tester in &testers {
                for seed in 0..3 {
                    let rep = tester.run_prepared(&input, seed, None).unwrap();
                    for row in rep.run.transcript.by_phase() {
                        assert!(PHASES.contains(&row.key.as_str()), "{repr:?}: {}", row.key);
                        seen.insert(row.key);
                    }
                }
            }
        }
        let expected = [
            "induced-sample",
            "oblivious-high-guess",
            "oblivious-low-guess",
            "r-cross-edges",
            "send-everything",
        ];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);
    }
}
