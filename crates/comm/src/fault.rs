//! Seeded, deterministic fault injection for coordinator protocols.
//!
//! The paper analyzes a failure-free coordinator model, but the TCP
//! transport already has real failure modes (a player can hang up or
//! miss its read deadline), and distributed triangle-detection work
//! treats message loss as first-class. This module makes faults *measurable*: a
//! [`FaultPlan`] decides, reproducibly per `(seed, rep, player,
//! request-index)`, whether a delivery is dropped, delayed, duplicated,
//! corrupted, or whether the player crashes outright. The
//! [`Runtime`](crate::runtime::Runtime) draws those decisions before
//! every delivery attempt, over any transport
//! ([`Runtime::with_faults`](crate::runtime::Runtime::with_faults)), and
//! charges recovery traffic to the active recorder under the
//! [`RETRANSMIT_LABEL`] label so chaos runs stay honest about `CC(Π)`
//! (see `docs/FAULTS.md`).
//!
//! Determinism guarantee: every fault decision is a pure function of the
//! plan seed and the delivery coordinates. Re-running the same plan over
//! the same protocol and input yields the same faults, the same retries,
//! and the same transcript — at any thread count.

use crate::message::Payload;
use crate::player::PlayerState;
use crate::rand::{mix64, SharedRandomness};
use crate::recorder::Recorder;
use crate::runtime::{RunError, TransportError};
use crate::simultaneous::{SimMessage, SimRun, SimultaneousProtocol};
use crate::transcript::{CommStats, Direction};
use triad_graph::{Edge, VertexId};

/// Label (and phase) under which all fault-recovery traffic is charged:
/// retransmitted requests, duplicate deliveries, and garbled responses,
/// all of which crossed the wire. Recorders roll it up via
/// [`Recorder::retransmit_bits`].
pub const RETRANSMIT_LABEL: &str = "retransmit";

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The response is lost; the coordinator's receive deadline expires.
    Drop,
    /// The response arrives late but within the deadline (counted, not
    /// charged — a latency, not a cost, event).
    Delay,
    /// The response is delivered twice; the extra copy is charged as
    /// retransmitted bits.
    Duplicate,
    /// The response payload is bit-flipped in flight; the attempt fails
    /// with [`RunError::Corrupt`].
    Corrupt,
    /// The player crashes and stays dead for the rest of the run.
    Crash,
}

/// Per-delivery fault probabilities, each in `[0, 1]`.
///
/// Probabilities are evaluated cumulatively in declaration order from a
/// single uniform draw, so the kinds are mutually exclusive per
/// delivery; a total above 1 saturates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a response is dropped.
    pub drop: f64,
    /// Probability a response is corrupted in flight.
    pub corrupt: f64,
    /// Probability a response is delivered twice.
    pub duplicate: f64,
    /// Probability a response is delayed (within deadline).
    pub delay: f64,
    /// Probability the player crashes.
    pub crash: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates::default()
    }

    /// Omission faults only: responses dropped with probability `rate`.
    pub fn omission(rate: f64) -> Self {
        FaultRates {
            drop: rate,
            ..FaultRates::default()
        }
    }

    /// A mixed workload at overall fault probability `rate`, split
    /// 40% drops / 20% corruptions / 15% duplicates / 15% delays /
    /// 10% crashes — the default chaos-matrix blend.
    pub fn mixed(rate: f64) -> Self {
        FaultRates {
            drop: rate * 0.40,
            corrupt: rate * 0.20,
            duplicate: rate * 0.15,
            delay: rate * 0.15,
            crash: rate * 0.10,
        }
    }

    /// Sum of all fault probabilities (before saturation).
    pub fn total(&self) -> f64 {
        self.drop + self.corrupt + self.duplicate + self.delay + self.crash
    }
}

/// A reproducible schedule of faults: every decision is a pure splitmix64
/// function of `(seed, rep, player, request-index)`, so the same plan
/// replays the same faults on every run, machine, and thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

/// Domain-separation constant for fault decisions (distinct from every
/// protocol randomness domain, so chaos never perturbs the protocol's
/// own coin flips).
const FAULT_DOMAIN: u64 = 0xFA17_7C0D_E5EE_D001;
/// Domain-separation constant for corruption bit positions.
const SALT_DOMAIN: u64 = 0xFA17_7C0D_E5EE_D002;

impl FaultPlan {
    /// A plan injecting faults at the given per-delivery rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates }
    }

    /// The fault-free plan (rate 0 everywhere): a runtime under it is
    /// byte-identical to one without a plan.
    pub fn fault_free(seed: u64) -> Self {
        FaultPlan::new(seed, FaultRates::none())
    }

    /// Whether this plan can never inject a fault.
    pub fn is_fault_free(&self) -> bool {
        self.rates.total() == 0.0
    }

    fn draw(&self, domain: u64, rep: u32, player: usize, request_index: u64) -> u64 {
        let mut h = mix64(self.seed ^ domain);
        h = mix64(h ^ u64::from(rep));
        h = mix64(h ^ player as u64);
        mix64(h ^ request_index)
    }

    /// The fault (if any) injected on delivery `request_index` to
    /// `player` during repetition `rep`. Pure and reproducible.
    pub fn fault_at(&self, rep: u32, player: usize, request_index: u64) -> Option<FaultKind> {
        if self.is_fault_free() {
            return None;
        }
        // 53 uniform mantissa bits, the standard float-from-u64 recipe.
        let u = (self.draw(FAULT_DOMAIN, rep, player, request_index) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        let r = &self.rates;
        let mut t = r.drop;
        if u < t {
            return Some(FaultKind::Drop);
        }
        t += r.corrupt;
        if u < t {
            return Some(FaultKind::Corrupt);
        }
        t += r.duplicate;
        if u < t {
            return Some(FaultKind::Duplicate);
        }
        t += r.delay;
        if u < t {
            return Some(FaultKind::Delay);
        }
        t += r.crash;
        if u < t {
            return Some(FaultKind::Crash);
        }
        None
    }

    /// The deterministic bit-position salt used when corrupting the
    /// payload of delivery `request_index`.
    pub fn corruption_salt(&self, rep: u32, player: usize, request_index: u64) -> u64 {
        self.draw(SALT_DOMAIN, rep, player, request_index)
    }
}

/// Counters of faults actually injected (as opposed to scheduled rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Responses dropped.
    pub drops: u64,
    /// Responses corrupted.
    pub corruptions: u64,
    /// Responses duplicated.
    pub duplicates: u64,
    /// Responses delayed within deadline.
    pub delays: u64,
    /// Player crashes.
    pub crashes: u64,
}

impl FaultStats {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.drops + self.corruptions + self.duplicates + self.delays + self.crashes
    }

    /// Component-wise sum — aggregates injected-fault counts across
    /// repetitions of a chaos sweep.
    #[must_use]
    pub fn merged(self, other: FaultStats) -> FaultStats {
        FaultStats {
            drops: self.drops + other.drops,
            corruptions: self.corruptions + other.corruptions,
            duplicates: self.duplicates + other.duplicates,
            delays: self.delays + other.delays,
            crashes: self.crashes + other.crashes,
        }
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Drop => self.drops += 1,
            FaultKind::Corrupt => self.corruptions += 1,
            FaultKind::Duplicate => self.duplicates += 1,
            FaultKind::Delay => self.delays += 1,
            FaultKind::Crash => self.crashes += 1,
        }
    }
}

/// Flips one endpoint bit of `e`, avoiding the self-loop that
/// `Edge::new` rejects.
fn flip_edge(e: Edge) -> Edge {
    let flipped = VertexId(e.u().0 ^ 1);
    if flipped == e.v() {
        // u^1 == v means v^1 == u too; a second-bit flip always differs.
        Edge::new(VertexId(e.u().0 ^ 2), e.v())
    } else {
        Edge::new(flipped, e.v())
    }
}

/// Deterministically garbles a payload — the model of in-flight
/// bit-flips. The result always differs from the input. Corrupted
/// payloads never reach protocol logic: the runtime bills the garbled
/// response and fails the attempt with [`RunError::Corrupt`].
pub fn corrupt_payload(p: Payload<'static>, salt: u64) -> Payload<'static> {
    match p {
        Payload::Empty => Payload::Bit(true),
        Payload::Bit(b) => Payload::Bit(!b),
        Payload::Bits(v, w) if w > 0 => Payload::Bits(v ^ (1 << (salt % u64::from(w))), w),
        Payload::Bits(_, w) => Payload::Bits(1, w.max(1)),
        Payload::Count(c) => Payload::Count(c ^ (1 << (salt % 8))),
        Payload::Vertex(None) => Payload::Vertex(Some(VertexId((salt & 0xFF) as u32))),
        Payload::Vertex(Some(v)) => Payload::Vertex(Some(VertexId(v.0 ^ 1))),
        Payload::Vertices(mut vs) => {
            if vs.is_empty() {
                Payload::Vertices(vec![VertexId((salt & 0xFF) as u32)])
            } else {
                let i = (salt as usize) % vs.len();
                vs[i] = VertexId(vs[i].0 ^ 1);
                Payload::Vertices(vs)
            }
        }
        Payload::Edge(None) => Payload::Edge(Some(Edge::new(VertexId(0), VertexId(1)))),
        Payload::Edge(Some(e)) => Payload::Edge(Some(flip_edge(e))),
        Payload::Edges(es) => {
            let mut v = es.into_owned();
            if v.is_empty() {
                Payload::Edge(None)
            } else {
                let i = (salt as usize) % v.len();
                v[i] = flip_edge(v[i]);
                Payload::Edges(v.into())
            }
        }
        Payload::EdgeBits(set) => {
            let set = set.into_owned();
            let n = set.n();
            let mut v = set.to_edges();
            if v.is_empty() {
                Payload::Edge(None)
            } else {
                let i = (salt as usize) % v.len();
                let flipped = flip_edge(v[i]);
                if flipped.v().index() < n {
                    // The flip may collide with another edge of the set;
                    // either way the canonical edge sequence changes.
                    v[i] = flipped;
                } else {
                    // Flip would leave the bitset's vertex range (tiny
                    // n): dropping the edge still changes the set.
                    v.remove(i);
                }
                Payload::EdgeBits(std::borrow::Cow::Owned(
                    triad_graph::kernels::EdgeBitset::from_edges(n, v),
                ))
            }
        }
        Payload::Triangle(None) => Payload::Triangle(Some(triad_graph::Triangle::new(
            VertexId(0),
            VertexId(1),
            VertexId(2),
        ))),
        Payload::Triangle(Some(_)) => Payload::Triangle(None),
        Payload::Probability(p) => Payload::Probability(f64::from_bits(p.to_bits() ^ 1)),
    }
}

/// The faults a [`FaultPlan`] schedules for one repetition, drawn one
/// delivery attempt at a time: each player's attempts are numbered in
/// the order they are made, so the i-th attempt to player `j` meets the
/// same fault on every replay and over every transport. Crashed players
/// stay crashed for the rest of the run.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rep: u32,
    next: Vec<u64>,
    crashed: Vec<bool>,
    /// The faults injected so far.
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    /// The schedule `plan` draws for repetition `rep` over `k` players.
    pub(crate) fn new(plan: FaultPlan, rep: u32, k: usize) -> Self {
        FaultInjector {
            plan,
            rep,
            next: vec![0; k],
            crashed: vec![false; k],
            stats: FaultStats::default(),
        }
    }

    /// Draws the fault of the next delivery attempt to `player`. A drop
    /// or a crash is counted here and fails the attempt; once `player`
    /// has crashed, every attempt to it fails uncounted. Any other fault
    /// comes back with its corruption salt, to act on the response, and
    /// is counted by [`arrived`](Self::arrived) when the response does.
    pub(crate) fn draw(&mut self, player: usize) -> Result<Option<(FaultKind, u64)>, RunError> {
        if self.crashed[player] {
            return Err(RunError::Transport(TransportError { player }));
        }
        let idx = self.next[player];
        self.next[player] += 1;
        match self.plan.fault_at(self.rep, player, idx) {
            Some(FaultKind::Drop) => {
                self.stats.bump(FaultKind::Drop);
                Err(RunError::Timeout { player })
            }
            Some(FaultKind::Crash) => {
                self.stats.bump(FaultKind::Crash);
                self.crashed[player] = true;
                Err(RunError::Transport(TransportError { player }))
            }
            fault => Ok(fault.map(|kind| (kind, self.plan.corruption_salt(self.rep, player, idx)))),
        }
    }

    /// Counts a drawn fault whose response arrived.
    pub(crate) fn arrived(&mut self, kind: FaultKind) {
        self.stats.bump(kind);
    }
}

/// A one-round execution under a fault plan. A fatal fault leaves the
/// referee without a decision (`run.output` is `None`) but keeps the
/// bits: every message was sent before the fault hit, so failed
/// repetitions still pay and amplified chaos accounting stays honest.
#[derive(Debug, Clone)]
pub struct SimChaos<O, R> {
    /// The run; its output is `None` when a fault killed it.
    pub run: SimRun<Option<O>, R>,
    /// The fault that killed the run: the first faulted player's, in
    /// player order.
    pub fault: Option<RunError>,
    /// Faults injected during the repetition, recovered ones included.
    pub injected: FaultStats,
}

/// Runs a one-round (simultaneous) protocol under a fault plan.
///
/// Simultaneous protocols cannot retry — each player speaks exactly
/// once — so any drop, crash, or corruption of a player's message is
/// fatal to the repetition and surfaces as [`SimChaos::fault`], with the
/// bits that were nevertheless transmitted. Duplicate deliveries
/// survive: the extra copy is charged under [`RETRANSMIT_LABEL`].
/// Delays are counted but cost nothing.
///
/// With a fault-free plan this is byte-identical to
/// [`crate::run_simultaneous_prepared`] (pinned by
/// `tests/chaos_differential.rs`).
pub fn run_simultaneous_chaos<P: SimultaneousProtocol, R: Recorder>(
    protocol: &P,
    n: usize,
    players: &[PlayerState],
    shared: SharedRandomness,
    plan: &FaultPlan,
    rep: u32,
) -> SimChaos<P::Output, R> {
    let messages: Vec<SimMessage> = players
        .iter()
        .map(|p| protocol.message(p, &shared))
        .collect();
    let mut injector = FaultInjector::new(*plan, rep, players.len());
    let mut fault: Option<RunError> = None;
    let mut duplicated: Vec<usize> = Vec::new();
    for j in 0..messages.len() {
        match injector.draw(j) {
            Err(e) => {
                fault.get_or_insert(e);
            }
            Ok(Some((kind, _))) => {
                // Every message is sent, so a drawn fault always arrives.
                injector.arrived(kind);
                match kind {
                    FaultKind::Corrupt => {
                        fault.get_or_insert(RunError::Corrupt { player: j });
                    }
                    FaultKind::Duplicate => duplicated.push(j),
                    _ => {}
                }
            }
            Ok(None) => {}
        }
    }
    let injected = injector.stats;
    if fault.is_some() {
        // The referee cannot decide; the messages are paid for anyway.
        let run = crate::simultaneous::charge(n, &messages, None);
        return SimChaos {
            run,
            fault,
            injected,
        };
    }
    let output = Some(protocol.referee(n, &messages, &shared));
    let mut run: SimRun<Option<P::Output>, R> = crate::simultaneous::charge(n, &messages, output);
    if !duplicated.is_empty() {
        run.transcript.set_phase(RETRANSMIT_LABEL);
        for &j in &duplicated {
            run.transcript.record(
                Some(j),
                Direction::ToCoordinator,
                messages[j].bit_len(n),
                RETRANSMIT_LABEL,
            );
        }
        // Each duplicate is one more message on top of the k sent.
        run.stats = CommStats {
            messages: run.stats.messages + duplicated.len() as u64,
            ..run.transcript.stats()
        };
    }
    SimChaos {
        run,
        fault,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlayerRequest;
    use crate::runtime::{CostModel, Runtime, DEFAULT_RETRY_BUDGET};

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn plan_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::new(7, FaultRates::mixed(0.3));
        let mut hits = 0u32;
        for idx in 0..1000 {
            let a = plan.fault_at(2, 1, idx);
            let b = plan.fault_at(2, 1, idx);
            assert_eq!(a, b, "decisions must replay identically");
            if a.is_some() {
                hits += 1;
            }
        }
        // 30% nominal over 1000 draws: a loose 2-sided sanity band.
        assert!((150..450).contains(&hits), "got {hits} faults");
        // Different coordinates decorrelate.
        let a: Vec<_> = (0..64).map(|i| plan.fault_at(0, 0, i)).collect();
        let b: Vec<_> = (0..64).map(|i| plan.fault_at(1, 0, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fault_free_plan_never_fires() {
        let plan = FaultPlan::fault_free(99);
        assert!(plan.is_fault_free());
        for idx in 0..200 {
            assert_eq!(plan.fault_at(0, 0, idx), None);
        }
    }

    #[test]
    fn corrupt_payload_always_changes_the_payload() {
        let payloads: Vec<Payload<'static>> = vec![
            Payload::Empty,
            Payload::Bit(true),
            Payload::Bits(0b1011, 6),
            Payload::Count(255),
            Payload::Vertex(None),
            Payload::Vertex(Some(VertexId(4))),
            Payload::Vertices(vec![VertexId(1), VertexId(2)]),
            Payload::Vertices(vec![]),
            Payload::Edge(None),
            Payload::Edge(Some(e(0, 1))),
            Payload::Edges(vec![e(0, 1), e(2, 3)].into()),
            Payload::Edges(vec![].into()),
            Payload::EdgeBits(std::borrow::Cow::Owned(
                triad_graph::kernels::EdgeBitset::from_edges(8, vec![e(0, 1), e(2, 3)]),
            )),
            Payload::EdgeBits(std::borrow::Cow::Owned(
                triad_graph::kernels::EdgeBitset::from_edges(
                    128,
                    (1..128u32).map(|v| e(0, v)).collect::<Vec<_>>(),
                ),
            )),
            Payload::EdgeBits(std::borrow::Cow::Owned(
                triad_graph::kernels::EdgeBitset::new(2),
            )),
            // n = 2 with its only edge: the corrupting flip would leave
            // the vertex range, exercising the drop-the-edge fallback.
            Payload::EdgeBits(std::borrow::Cow::Owned(
                triad_graph::kernels::EdgeBitset::from_edges(2, vec![e(0, 1)]),
            )),
            Payload::Triangle(None),
            Payload::Triangle(Some(triad_graph::Triangle::new(
                VertexId(0),
                VertexId(1),
                VertexId(2),
            ))),
            Payload::Probability(0.25),
        ];
        for p in payloads {
            for salt in [0u64, 1, 17, u64::MAX] {
                let garbled = corrupt_payload(p.clone(), salt);
                assert_ne!(
                    garbled, p,
                    "corruption of {p:?} (salt {salt}) must change it"
                );
            }
        }
    }

    /// A coordinator-model runtime over `shares` (n = 3) under `rates`.
    fn faulted(shares: &[Vec<Edge>], rates: FaultRates) -> Runtime {
        Runtime::local(3, shares, SharedRandomness::new(3), CostModel::Coordinator)
            .with_faults(FaultPlan::new(5, rates), 0)
    }

    #[test]
    fn a_fault_free_plan_is_transparent() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2)]];
        let mut plain =
            Runtime::local(3, &shares, SharedRandomness::new(3), CostModel::Coordinator);
        let mut rt = faulted(&shares, FaultRates::none());
        for req in [
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::HasEdge(e(0, 1)),
        ] {
            for j in 0..2 {
                assert_eq!(plain.request(j, req.clone()), rt.request(j, req.clone()));
            }
            assert_eq!(plain.broadcast(req.clone()), rt.broadcast(req));
        }
        assert_eq!(rt.take_fault(), None);
        assert_eq!(rt.stats(), plain.stats());
        let (got, want) = (rt.recorder().tally(), plain.recorder().tally());
        assert_eq!(got.by_phase(), want.by_phase());
        assert_eq!(got.by_player(), want.by_player());
        assert_eq!(got.by_round(), want.by_round());
        assert_eq!(got.by_direction(), want.by_direction());
        assert_eq!(rt.injected(), FaultStats::default());
    }

    #[test]
    fn a_crash_is_sticky_and_a_drop_times_out_unbilled() {
        let shares = vec![vec![e(0, 1)]];
        let req = PlayerRequest::LocalEdgeCount;
        let req_bits = req.bit_len(3).get();
        let mut rt = faulted(
            &shares,
            FaultRates {
                crash: 1.0,
                ..FaultRates::default()
            },
        );
        let err = rt.try_request(0, req.clone()).unwrap_err();
        assert!(matches!(err, RunError::Transport(_)), "{err:?}");
        // Stays dead though the plan is drawn per attempt; neither
        // request is retried, and the crash is counted once.
        let err = rt.try_request(0, req.clone()).unwrap_err();
        assert!(matches!(err, RunError::Transport(_)), "{err:?}");
        let crashes = FaultStats {
            crashes: 1,
            ..FaultStats::default()
        };
        assert_eq!(rt.injected(), crashes);
        assert_eq!(rt.stats().total_bits, 2 * req_bits);
        assert_eq!(rt.recorder().retransmit_bits(), 0);

        let mut rt = faulted(&shares, FaultRates::omission(1.0));
        let err = rt.try_request(0, req).unwrap_err();
        assert_eq!(err, RunError::Timeout { player: 0 });
        let drops = FaultStats {
            drops: u64::from(DEFAULT_RETRY_BUDGET) + 1,
            ..FaultStats::default()
        };
        assert_eq!(rt.injected(), drops);
        // No retry was delivered, so only the first copy is billed.
        assert_eq!(rt.stats().total_bits, req_bits);
        assert_eq!(rt.recorder().retransmit_bits(), 0);
    }

    #[test]
    fn corruption_is_billed_and_surfaces_as_corrupt() {
        let shares = vec![vec![e(0, 1), e(1, 2)]];
        let rates = FaultRates {
            corrupt: 1.0,
            ..FaultRates::default()
        };
        let req = PlayerRequest::LocalEdgeCount;
        let mut rt = faulted(&shares, rates);
        let err = rt.try_request(0, req.clone()).unwrap_err();
        assert_eq!(err, RunError::Corrupt { player: 0 });
        let attempts = u64::from(DEFAULT_RETRY_BUDGET) + 1;
        let corruptions = FaultStats {
            corruptions: attempts,
            ..FaultStats::default()
        };
        assert_eq!(rt.injected(), corruptions);
        // Each garbled response crossed the wire, and so did each retry
        // that brought one back.
        let plan = FaultPlan::new(5, rates);
        let garbled: u64 = (0..attempts)
            .map(|i| corrupt_payload(Payload::Count(2), plan.corruption_salt(0, 0, i)))
            .map(|p| p.bit_len(3).get())
            .sum();
        let resent = (attempts - 1) * req.bit_len(3).get();
        assert_eq!(rt.recorder().retransmit_bits(), garbled + resent);
        assert_eq!(
            rt.stats().total_bits,
            req.bit_len(3).get() + garbled + resent
        );
    }

    #[test]
    fn a_duplicate_is_handed_on_once_and_billed_once_more() {
        let shares = vec![vec![e(0, 1)]];
        let mut plain =
            Runtime::local(3, &shares, SharedRandomness::new(3), CostModel::Coordinator);
        let mut rt = faulted(
            &shares,
            FaultRates {
                duplicate: 1.0,
                ..FaultRates::default()
            },
        );
        let req = PlayerRequest::LocalEdgeCount;
        let resp = rt.try_request(0, req.clone()).unwrap();
        assert_eq!(resp, plain.request(0, req));
        let duplicates = FaultStats {
            duplicates: 1,
            ..FaultStats::default()
        };
        assert_eq!(rt.injected(), duplicates);
        let extra = resp.bit_len(3).get();
        assert_eq!(rt.recorder().retransmit_bits(), extra);
        assert_eq!(rt.stats().total_bits, plain.stats().total_bits + extra);
        assert_eq!(rt.stats().messages, plain.stats().messages + 1);
    }

    #[test]
    fn a_duplicated_one_round_run_bills_every_message_twice() {
        // Two payloads per player, so a count of payloads and a count of
        // messages differ.
        struct SendShare;
        impl SimultaneousProtocol for SendShare {
            type Output = usize;
            fn message<'a>(
                &self,
                player: &'a PlayerState,
                _shared: &SharedRandomness,
            ) -> SimMessage<'a> {
                let mut m =
                    SimMessage::of_phased(Payload::Edges(player.share().into()), "send-everything");
                m.push(Payload::Bit(true));
                m
            }
            fn referee(&self, _n: usize, messages: &[SimMessage], _s: &SharedRandomness) -> usize {
                messages.iter().map(|m| m.edges().count()).sum()
            }
        }
        let shares = vec![vec![e(0, 1), e(1, 2), e(2, 3)], vec![e(3, 4)], vec![]];
        let players = crate::player::players_from_shares(8, &shares);
        let shared = SharedRandomness::new(11);
        let run = |plan: &FaultPlan| -> SimChaos<usize, crate::Tally> {
            run_simultaneous_chaos(&SendShare, 8, &players, shared, plan, 0)
        };
        let plain = run(&FaultPlan::fault_free(5));
        let dup = run(&FaultPlan::new(
            5,
            FaultRates {
                duplicate: 1.0,
                ..FaultRates::default()
            },
        ));
        assert!(dup.fault.is_none());
        assert_eq!(dup.injected.duplicates, 3);
        assert_eq!(dup.run.output, plain.run.output);
        let (p, d) = (plain.run.stats, dup.run.stats);
        assert_eq!(d.total_bits, 2 * p.total_bits);
        assert_eq!((p.messages, d.messages), (3, 6));
        assert_eq!(d.max_player_sent_bits, 2 * p.max_player_sent_bits);
        assert_eq!(d.rounds, 1);
        assert_eq!(dup.run.transcript.retransmit_bits(), p.total_bits);
        let doubled: Vec<u64> = plain
            .run
            .transcript
            .tally()
            .per_player_sent()
            .iter()
            .map(|bits| 2 * bits)
            .collect();
        assert_eq!(dup.run.transcript.tally().per_player_sent(), &doubled[..]);
    }
}
