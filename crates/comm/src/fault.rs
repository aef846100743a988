//! Seeded, deterministic fault injection for coordinator protocols.
//!
//! The paper analyzes a failure-free coordinator model, but the TCP
//! transport already has real failure modes (a player can hang up or
//! miss its read deadline), and distributed triangle-detection work
//! treats message loss as first-class. This module makes faults *measurable*: a
//! [`FaultPlan`] decides, reproducibly per `(seed, rep, player,
//! request-index)`, whether a delivery is dropped, delayed, duplicated,
//! corrupted, or whether the player crashes outright; a
//! [`FaultyTransport`] decorator injects those decisions under any inner
//! [`Transport`]. Corruption is detected by checksummed payload framing
//! ([`Framed`]), and recovery cost is charged to the active recorder
//! under the [`RETRANSMIT_LABEL`] label so chaos runs stay honest about
//! `CC(Π)` (see `docs/FAULTS.md`).
//!
//! Determinism guarantee: every fault decision is a pure function of the
//! plan seed and the delivery coordinates. Re-running the same plan over
//! the same protocol and input yields the same faults, the same retries,
//! and the same transcript — at any thread count.

use crate::message::Payload;
use crate::player::PlayerState;
use crate::rand::{mix64, SharedRandomness};
use crate::recorder::Recorder;
use crate::runtime::{RunError, Transport, TransportError};
use crate::simultaneous::{SimMessage, SimRun, SimultaneousProtocol};
use crate::transcript::{CommStats, Direction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use triad_graph::{Edge, VertexId};

/// Label (and phase) under which all fault-recovery traffic is charged:
/// retransmitted requests, duplicate deliveries, and garbled responses
/// that crossed the wire before their checksum failed. Recorders roll it
/// up via [`Recorder::retransmit_bits`].
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
    /// The response payload is bit-flipped in flight; the checksum frame
    /// detects it on arrival.
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

    /// The fault-free plan (rate 0 everywhere): decorating a transport
    /// with it is byte-identical to not decorating at all.
    pub fn fault_free(seed: u64) -> Self {
        FaultPlan::new(seed, FaultRates::none())
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's per-delivery rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
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

/// Shared atomic fault counters: a [`FaultyTransport`] moves into a
/// `Box<dyn Transport>` inside the runtime, so callers keep a handle to
/// its counters through this cloneable cell instead.
#[derive(Debug, Default)]
pub struct FaultCounters {
    drops: AtomicU64,
    corruptions: AtomicU64,
    duplicates: AtomicU64,
    delays: AtomicU64,
    crashes: AtomicU64,
}

impl FaultCounters {
    fn bump(&self, kind: FaultKind) {
        let slot = match kind {
            FaultKind::Drop => &self.drops,
            FaultKind::Corrupt => &self.corruptions,
            FaultKind::Duplicate => &self.duplicates,
            FaultKind::Delay => &self.delays,
            FaultKind::Crash => &self.crashes,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }
}

/// A checksum-framed payload: what a transport actually puts on the
/// wire. The checksum is computed sender-side over the payload content;
/// the coordinator verifies on arrival, so in-flight corruption is
/// detected instead of silently mis-parsed. `deliveries > 1` models a
/// duplicated delivery (the extra copies are charged as retransmitted
/// bits but handed to the protocol once).
#[derive(Debug, Clone, PartialEq)]
pub struct Framed {
    payload: Payload<'static>,
    checksum: u64,
    deliveries: u32,
    delayed: bool,
}

impl Framed {
    /// Frames an honest payload: checksum matches, one delivery.
    pub fn seal(payload: Payload<'static>) -> Self {
        let checksum = checksum_payload(&payload);
        Framed {
            payload,
            checksum,
            deliveries: 1,
            delayed: false,
        }
    }

    /// Whether the payload still matches its sender-side checksum.
    pub fn verify(&self) -> bool {
        checksum_payload(&self.payload) == self.checksum
    }

    /// The framed payload (possibly corrupted; check [`verify`] first).
    ///
    /// [`verify`]: Self::verify
    pub fn payload(&self) -> &Payload<'static> {
        &self.payload
    }

    /// Unwraps the payload.
    pub fn into_payload(self) -> Payload<'static> {
        self.payload
    }

    /// How many times this frame was delivered (≥ 1).
    pub fn deliveries(&self) -> u32 {
        self.deliveries
    }

    /// Whether the frame arrived late (within deadline).
    pub fn delayed(&self) -> bool {
        self.delayed
    }

    /// Replaces the payload *without* updating the checksum — the
    /// fault injector's model of in-flight corruption.
    pub fn tamper(&mut self, garbled: Payload<'static>) {
        self.payload = garbled;
    }

    /// Marks the frame as delivered `extra` additional times.
    pub fn duplicate(&mut self, extra: u32) {
        self.deliveries += extra;
    }

    /// Marks the frame as delayed.
    pub fn mark_delayed(&mut self) {
        self.delayed = true;
    }
}

fn fold(acc: u64, x: u64) -> u64 {
    mix64(acc ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A 64-bit checksum over a payload's content (variant tag + values),
/// independent of ownership and of `n`. Collision-resistant enough for
/// fault *detection* (this is framing, not cryptography).
pub fn checksum_payload(p: &Payload<'_>) -> u64 {
    match p {
        Payload::Empty => fold(1, 0),
        Payload::Bit(b) => fold(2, u64::from(*b)),
        Payload::Bits(v, w) => fold(fold(3, *v), u64::from(*w)),
        Payload::Count(c) => fold(4, *c),
        Payload::Vertex(o) => match o {
            None => fold(5, 0),
            Some(v) => fold(5, 1 + u64::from(v.0)),
        },
        Payload::Vertices(vs) => vs
            .iter()
            .fold(fold(6, vs.len() as u64), |a, v| fold(a, u64::from(v.0))),
        Payload::Edge(o) => match o {
            None => fold(7, 0),
            Some(e) => fold(fold(7, 1 + u64::from(e.u().0)), u64::from(e.v().0)),
        },
        Payload::Edges(es) => es.iter().fold(fold(8, es.len() as u64), |a, e| {
            fold(fold(a, u64::from(e.u().0)), u64::from(e.v().0))
        }),
        // Folded over the canonical edge iteration, so the checksum is
        // independent of which rows happen to be sparse or dense — but
        // the leading tag keeps it distinct from an `Edges` payload
        // holding the same set (a representation flip is corruption).
        Payload::EdgeBits(set) => set.edges().fold(fold(11, set.len() as u64), |a, e| {
            fold(fold(a, u64::from(e.u().0)), u64::from(e.v().0))
        }),
        Payload::Triangle(o) => match o {
            None => fold(9, 0),
            Some(t) => {
                let [a, b, c] = t.vertices();
                fold(
                    fold(fold(9, 1 + u64::from(a.0)), u64::from(b.0)),
                    u64::from(c.0),
                )
            }
        },
        Payload::Probability(p) => fold(10, p.to_bits()),
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
/// bit-flips. The result always differs from the input under
/// [`checksum_payload`], so a [`Framed::verify`] on the tampered frame
/// fails. Corrupted payloads never reach protocol logic: the runtime
/// verifies the frame before handing the payload on.
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

/// A [`Transport`] decorator injecting the faults a [`FaultPlan`]
/// schedules. Crashed players stay crashed for the rest of the run;
/// every other fault is per-delivery. Deterministic: the i-th delivery
/// to player `j` is faulted identically on every replay.
///
/// # Example
///
/// Wrapping any inner transport (here a [`LocalTransport`][lt]; a
/// [`TcpTransport`][tt] works identically — that is the TCP conformance
/// suite) and driving it through a [`Runtime`](crate::runtime::Runtime).
/// Keep the [`counters`](Self::counters) handle: the transport itself
/// moves into the runtime.
///
/// ```
/// use triad_comm::fault::{FaultPlan, FaultRates, FaultyTransport};
/// use triad_comm::{
///     CostModel, LocalTransport, PlayerRequest, Runtime, SharedRandomness,
/// };
/// use triad_graph::{Edge, VertexId};
///
/// let e = |a, b| Edge::new(VertexId(a), VertexId(b));
/// let shares = vec![vec![e(0, 1)], vec![e(1, 2)]];
/// let shared = SharedRandomness::new(7);
/// let inner = LocalTransport::new(3, &shares, shared);
/// let faulty = FaultyTransport::new(inner, FaultPlan::new(1, FaultRates::mixed(0.5)), 0);
/// let stats = faulty.counters();
/// let mut rt = Runtime::new(Box::new(faulty), 3, shared, CostModel::Coordinator);
/// for _ in 0..16 {
///     rt.request(0, PlayerRequest::LocalEdgeCount);
/// }
/// // Either a fault was injected (and counted) or the run stayed clean;
/// // an unrecovered one is parked on the runtime, never panicked.
/// let injected = stats.snapshot().total();
/// let _ = rt.take_fault();
/// assert!(injected > 0, "a 50% mixed rate over 16 deliveries injects something");
/// ```
///
/// [lt]: crate::runtime::LocalTransport
/// [tt]: crate::runtime::TcpTransport
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    rep: u32,
    counters: Vec<u64>,
    crashed: Vec<bool>,
    stats: Arc<FaultCounters>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorates `inner` with the faults `plan` schedules for
    /// repetition `rep`.
    pub fn new(inner: T, plan: FaultPlan, rep: u32) -> Self {
        let k = inner.k();
        FaultyTransport {
            inner,
            plan,
            rep,
            counters: vec![0; k],
            crashed: vec![false; k],
            stats: Arc::new(FaultCounters::default()),
        }
    }

    /// A handle to the injected-fault counters that outlives the
    /// transport's move into the runtime.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.stats)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &crate::request::PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        let framed = self.try_deliver_framed(player, req)?;
        if framed.verify() {
            Ok(framed.into_payload())
        } else {
            Err(RunError::Corrupt { player })
        }
    }

    fn try_deliver_framed(
        &mut self,
        player: usize,
        req: &crate::request::PlayerRequest,
    ) -> Result<Framed, RunError> {
        if self.crashed[player] {
            return Err(RunError::Transport(TransportError { player }));
        }
        let idx = self.counters[player];
        self.counters[player] += 1;
        let fault = self.plan.fault_at(self.rep, player, idx);
        match fault {
            Some(FaultKind::Drop) => {
                self.stats.bump(FaultKind::Drop);
                Err(RunError::Timeout { player })
            }
            Some(FaultKind::Crash) => {
                self.stats.bump(FaultKind::Crash);
                self.crashed[player] = true;
                Err(RunError::Transport(TransportError { player }))
            }
            _ => {
                let mut framed = self.inner.try_deliver_framed(player, req)?;
                match fault {
                    Some(FaultKind::Corrupt) => {
                        self.stats.bump(FaultKind::Corrupt);
                        let salt = self.plan.corruption_salt(self.rep, player, idx);
                        let garbled = corrupt_payload(framed.payload().clone(), salt);
                        framed.tamper(garbled);
                    }
                    Some(FaultKind::Duplicate) => {
                        self.stats.bump(FaultKind::Duplicate);
                        framed.duplicate(1);
                    }
                    Some(FaultKind::Delay) => {
                        self.stats.bump(FaultKind::Delay);
                        framed.mark_delayed();
                    }
                    _ => {}
                }
                Ok(framed)
            }
        }
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.inner.adopt_shared(shared);
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
    let mut injected = FaultStats::default();
    let mut fault: Option<RunError> = None;
    let mut duplicated: Vec<usize> = Vec::new();
    for (j, m) in messages.iter().enumerate() {
        match plan.fault_at(rep, j, 0) {
            Some(FaultKind::Drop) => {
                injected.bump(FaultKind::Drop);
                fault.get_or_insert(RunError::Timeout { player: j });
            }
            Some(FaultKind::Crash) => {
                injected.bump(FaultKind::Crash);
                fault.get_or_insert(RunError::Transport(TransportError { player: j }));
            }
            Some(FaultKind::Corrupt) => {
                injected.bump(FaultKind::Corrupt);
                // Exercise the framing machinery: the garbled first
                // payload must fail verification.
                if let Some(p) = m.payloads().first() {
                    let mut frame = Framed::seal(p.clone().into_owned());
                    frame.tamper(corrupt_payload(
                        p.clone().into_owned(),
                        plan.corruption_salt(rep, j, 0),
                    ));
                    debug_assert!(!frame.verify(), "tampered frame must fail verification");
                }
                fault.get_or_insert(RunError::Corrupt { player: j });
            }
            Some(FaultKind::Duplicate) => {
                injected.bump(FaultKind::Duplicate);
                duplicated.push(j);
            }
            Some(FaultKind::Delay) => {
                injected.bump(FaultKind::Delay);
            }
            None => {}
        }
    }
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
    use crate::runtime::LocalTransport;

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
    fn checksum_detects_every_corruption() {
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
                    checksum_payload(&p),
                    checksum_payload(&garbled),
                    "corruption of {p:?} (salt {salt}) must change the checksum"
                );
                let mut frame = Framed::seal(p.clone());
                assert!(frame.verify());
                frame.tamper(garbled);
                assert!(!frame.verify());
            }
        }
    }

    #[test]
    fn faulty_transport_at_rate_zero_is_transparent() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2)]];
        let shared = SharedRandomness::new(3);
        let mut plain = LocalTransport::new(3, &shares, shared);
        let mut faulty = FaultyTransport::new(
            LocalTransport::new(3, &shares, shared),
            FaultPlan::fault_free(1),
            0,
        );
        for req in [
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::HasEdge(e(0, 1)),
        ] {
            for j in 0..2 {
                assert_eq!(
                    plain.try_deliver(j, &req).unwrap(),
                    faulty.try_deliver(j, &req).unwrap()
                );
            }
        }
        assert_eq!(faulty.counters().snapshot(), FaultStats::default());
    }

    #[test]
    fn crash_is_sticky_and_drop_is_timeout() {
        let shares = vec![vec![e(0, 1)]];
        let shared = SharedRandomness::new(3);
        // Crash with probability 1 on every delivery.
        let crash_all = FaultPlan::new(
            5,
            FaultRates {
                crash: 1.0,
                ..FaultRates::default()
            },
        );
        let mut t = FaultyTransport::new(LocalTransport::new(3, &shares, shared), crash_all, 0);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert!(matches!(err, RunError::Transport(_)), "{err:?}");
        // Stays dead even though the plan is consulted per delivery.
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert!(matches!(err, RunError::Transport(_)), "{err:?}");
        assert_eq!(t.counters().snapshot().crashes, 1, "crash injected once");

        let drop_all = FaultPlan::new(5, FaultRates::omission(1.0));
        let mut t = FaultyTransport::new(LocalTransport::new(3, &shares, shared), drop_all, 0);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err, RunError::Timeout { player: 0 });
    }

    #[test]
    fn corruption_surfaces_as_corrupt_error() {
        let shares = vec![vec![e(0, 1), e(1, 2)]];
        let shared = SharedRandomness::new(3);
        let corrupt_all = FaultPlan::new(
            5,
            FaultRates {
                corrupt: 1.0,
                ..FaultRates::default()
            },
        );
        let mut t = FaultyTransport::new(LocalTransport::new(3, &shares, shared), corrupt_all, 0);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err, RunError::Corrupt { player: 0 });
        // The framed path hands back the garbled frame for inspection.
        let frame = t
            .try_deliver_framed(0, &PlayerRequest::LocalEdgeCount)
            .unwrap();
        assert!(!frame.verify());
    }

    #[test]
    fn duplicate_marks_extra_delivery() {
        let shares = vec![vec![e(0, 1)]];
        let shared = SharedRandomness::new(3);
        let dup_all = FaultPlan::new(
            5,
            FaultRates {
                duplicate: 1.0,
                ..FaultRates::default()
            },
        );
        let mut t = FaultyTransport::new(LocalTransport::new(3, &shares, shared), dup_all, 0);
        let frame = t
            .try_deliver_framed(0, &PlayerRequest::LocalEdgeCount)
            .unwrap();
        assert_eq!(frame.deliveries(), 2);
        assert!(frame.verify());
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
