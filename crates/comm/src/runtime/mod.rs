//! Protocol runtimes: cost accounting over pluggable transports and
//! pluggable recorders.
//!
//! A [`Runtime`] drives one protocol execution: it owns a
//! [`Recorder`] — the full-fidelity [`Transcript`] by default, or the
//! zero-allocation [`crate::recorder::Tally`] on the fast path — charges
//! every request/response pair, and delivers requests through a
//! [`Transport`] — either [`LocalTransport`] (deterministic, sequential,
//! in-process) or [`TcpTransport`] (one socket per player, real
//! concurrency). Both transports produce **identical transcripts** for
//! the same seed, because all protocol randomness flows through the
//! shared string, never through scheduling; both recorders produce
//! **identical totals and rollups**, because every charge funnels
//! through the same [`Recorder::record`] calls (see `docs/RUNTIME.md`).

mod local;
mod tcp;

pub use local::LocalTransport;
pub use tcp::{SharedTransport, TcpTransport, DEFAULT_NET_TIMEOUT};

use crate::bits::{bits_for_count, bits_per_edge, BitCost};
use crate::fault::{corrupt_payload, FaultInjector, FaultKind, FaultPlan, FaultStats};
use crate::message::Payload;
use crate::rand::SharedRandomness;
use crate::recorder::Recorder;
use crate::request::PlayerRequest;
use crate::transcript::{CommStats, Direction, Transcript};
use std::collections::HashSet;
use triad_graph::Edge;

/// How coordinator-side messages are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// The paper's default: private channels between the coordinator and
    /// each player; a broadcast costs `k` separate messages and duplicate
    /// content is paid for by every sender.
    #[default]
    Coordinator,
    /// The blackboard model (Theorem 3.23): every posted message is seen
    /// by all parties, so a broadcast is charged once and players never
    /// pay to repost content already on the board.
    Blackboard,
    /// The message-passing model simulated through the coordinator (§2):
    /// every message additionally carries a `⌈log₂ k⌉`-bit recipient id,
    /// the overhead of the paper's coordinator ⇄ message-passing
    /// equivalence.
    MessagePassing,
}

/// A player's channel failed mid-protocol — e.g. its connection closed.
/// Surfaced by [`Transport::try_deliver`] instead of a deadlock or an
/// opaque abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportError {
    /// The player whose channel failed.
    pub player: usize,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "player {} hung up mid-protocol", self.player)
    }
}

impl std::error::Error for TransportError {}

/// The typed failure taxonomy of a protocol execution: everything that
/// can go wrong between the coordinator and a player, so no protocol
/// path needs to panic on a faulty peer (see `docs/FAULTS.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A player's channel failed outright (the player hung up or
    /// crashed). Not retryable: the player stays dead.
    Transport(TransportError),
    /// The response deadline expired — a dropped message or a player too
    /// slow to answer. Retryable.
    Timeout {
        /// The player that failed to answer in time.
        player: usize,
    },
    /// The response failed its checksum frame — corrupted in flight.
    /// Retryable.
    Corrupt {
        /// The player whose response was garbled.
        player: usize,
    },
    /// The execution was abandoned — retry budget exhausted at a higher
    /// layer, quorum lost, or a wrapped non-communication failure.
    Aborted {
        /// Human-readable cause.
        reason: String,
    },
}

/// The coarse classification of a [`RunError`], used for per-kind
/// failure tallies in chaos sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunErrorKind {
    /// [`RunError::Transport`].
    Transport,
    /// [`RunError::Timeout`].
    Timeout,
    /// [`RunError::Corrupt`].
    Corrupt,
    /// [`RunError::Aborted`].
    Aborted,
}

impl RunError {
    /// The error's coarse kind.
    pub fn kind(&self) -> RunErrorKind {
        match self {
            RunError::Transport(_) => RunErrorKind::Transport,
            RunError::Timeout { .. } => RunErrorKind::Timeout,
            RunError::Corrupt { .. } => RunErrorKind::Corrupt,
            RunError::Aborted { .. } => RunErrorKind::Aborted,
        }
    }

    /// The player implicated, when the failure names one.
    pub fn player(&self) -> Option<usize> {
        match self {
            RunError::Transport(e) => Some(e.player),
            RunError::Timeout { player } | RunError::Corrupt { player } => Some(*player),
            RunError::Aborted { .. } => None,
        }
    }

    /// Whether a bounded retry can plausibly recover: timeouts and
    /// corruptions are transient, crashes and aborts are not.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RunError::Timeout { .. } | RunError::Corrupt { .. })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Transport(e) => e.fmt(f),
            RunError::Timeout { player } => {
                write!(f, "player {player} missed the response deadline")
            }
            RunError::Corrupt { player } => {
                write!(f, "player {player}'s response failed checksum verification")
            }
            RunError::Aborted { reason } => write!(f, "run aborted: {reason}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for RunError {
    fn from(e: TransportError) -> Self {
        RunError::Transport(e)
    }
}

/// Message delivery to players, independent of cost accounting.
///
/// Responses are always `Payload<'static>`: a transport hands payload
/// ownership across the coordinator boundary (and, for the TCP
/// transport, across a socket), so borrowed player-side slices are
/// detached before delivery. Borrowing is exploited on the simultaneous
/// path instead, where messages never cross an ownership boundary.
///
/// Delivery is fallible by design — [`try_deliver`](Self::try_deliver)
/// is the required method — because a real channel can fail. Injected
/// faults are not a transport's business: the runtime draws them before
/// each attempt ([`Runtime::with_faults`]).
///
/// # Example
///
/// A [`Runtime`] takes any implementor as `Box<dyn Transport>`; every
/// charge it records depends only on the protocol's logical bit costs,
/// so swapping the transport never changes the accounting. A custom
/// implementor needs only `k` and `try_deliver`:
///
/// ```
/// use triad_comm::{
///     CostModel, Payload, PlayerRequest, RunError, Runtime, SharedRandomness, Transport,
/// };
///
/// /// Every player claims to hold no edges at all.
/// struct EmptyPlayers {
///     k: usize,
/// }
///
/// impl Transport for EmptyPlayers {
///     fn k(&self) -> usize {
///         self.k
///     }
///     fn try_deliver(
///         &mut self,
///         _player: usize,
///         req: &PlayerRequest,
///     ) -> Result<Payload<'static>, RunError> {
///         Ok(match req {
///             PlayerRequest::LocalEdgeCount => Payload::Count(0),
///             _ => Payload::Empty,
///         })
///     }
/// }
///
/// let transport = Box::new(EmptyPlayers { k: 3 });
/// let mut rt = Runtime::new(transport, 8, SharedRandomness::new(1), CostModel::Coordinator);
/// let counts = rt.broadcast(PlayerRequest::LocalEdgeCount);
/// assert_eq!(counts, vec![Payload::Count(0); 3]);
/// assert!(rt.stats().total_bits > 0, "requests and responses were charged");
/// ```
pub trait Transport: Send {
    /// Number of players.
    fn k(&self) -> usize;
    /// Delivers `req` to player `player` and returns its response.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] naming the failed player when the channel
    /// is dead ([`RunError::Transport`]), the response deadline expires
    /// ([`RunError::Timeout`]), or the response is detectably corrupted
    /// ([`RunError::Corrupt`]).
    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError>;
    /// Delivers one round of independent requests to every player at
    /// once: for each player in order, the answers to every request of
    /// `reqs`, in request order, or the failure that cut the player's
    /// round short. The runtime charges, retries and classifies each
    /// (request, player) exchange exactly as it would a separate
    /// delivery, and draws injected faults in the order it consumes the
    /// answers, so a round changes how requests travel, never what they
    /// cost or which faults they meet.
    ///
    /// The default returns `None`: this transport delivers one request
    /// at a time, and the runtime calls [`try_deliver`](Self::try_deliver)
    /// request by request, players in order.
    fn try_deliver_round(
        &mut self,
        _reqs: &[PlayerRequest],
    ) -> Option<Vec<Result<Vec<Payload<'static>>, RunError>>> {
        None
    }
    /// Switches every player to a new shared-randomness seed (Newman's
    /// conversion). Default: unsupported, panics — implement on
    /// transports that carry the randomness.
    fn adopt_shared(&mut self, _shared: SharedRandomness) {
        panic!("this transport does not support switching shared randomness");
    }
}

/// A protocol execution context: transport + recorder + shared
/// randomness. Generic over the [`Recorder`]; `Runtime` without a type
/// argument is the full-transcript flavor.
pub struct Runtime<R: Recorder = Transcript> {
    transport: Box<dyn Transport>,
    recorder: R,
    shared: SharedRandomness,
    n: usize,
    cost_model: CostModel,
    tag_counter: u64,
    fault: Option<RunError>,
    faults: Option<FaultInjector>,
}

/// Number of retries per delivery for retryable faults (timeouts,
/// corrupted responses) before a runtime gives up on the exchange.
/// Crashes are never retried.
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// The most requests a round hands the transport at once. A larger
/// round travels as several frames, each built when the previous one
/// has been answered, so a round's memory does not grow with its size.
pub const MAX_FRAME_REQUESTS: usize = 128;

impl<R: Recorder> std::fmt::Debug for Runtime<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("k", &self.transport.k())
            .field("n", &self.n)
            .field("cost_model", &self.cost_model)
            .field("total_bits", &self.recorder.total_bits())
            .finish()
    }
}

impl Runtime {
    /// A full-transcript runtime over an explicit transport.
    pub fn new(
        transport: Box<dyn Transport>,
        n: usize,
        shared: SharedRandomness,
        cost_model: CostModel,
    ) -> Self {
        Runtime::new_with(transport, n, shared, cost_model)
    }

    /// Convenience: a sequential in-process full-transcript runtime over
    /// per-player edge shares.
    pub fn local(
        n: usize,
        shares: &[Vec<Edge>],
        shared: SharedRandomness,
        cost_model: CostModel,
    ) -> Self {
        Runtime::local_with(n, shares, shared, cost_model)
    }
}

impl<R: Recorder> Runtime<R> {
    /// A runtime over an explicit transport, recording into `R`.
    pub fn new_with(
        transport: Box<dyn Transport>,
        n: usize,
        shared: SharedRandomness,
        cost_model: CostModel,
    ) -> Self {
        let k = transport.k();
        Runtime {
            transport,
            recorder: R::with_players(k),
            shared,
            n,
            cost_model,
            tag_counter: 0,
            fault: None,
            faults: None,
        }
    }

    /// Injects the faults `plan` schedules for repetition `rep`, over
    /// any transport: each delivery attempt draws its fault before it is
    /// made, retryable faults are retried within the
    /// [budget](DEFAULT_RETRY_BUDGET), and recovery traffic is billed
    /// under [`RETRANSMIT_LABEL`](crate::fault::RETRANSMIT_LABEL).
    ///
    /// ```
    /// use triad_comm::{CostModel, FaultPlan, FaultRates, PlayerRequest, Runtime, SharedRandomness};
    /// use triad_graph::{Edge, VertexId};
    ///
    /// let shares = vec![vec![Edge::new(VertexId(0), VertexId(1))], vec![]];
    /// let mut rt = Runtime::local(3, &shares, SharedRandomness::new(7), CostModel::Coordinator)
    ///     .with_faults(FaultPlan::new(1, FaultRates::mixed(0.5)), 0);
    /// for _ in 0..16 {
    ///     rt.request(0, PlayerRequest::LocalEdgeCount);
    /// }
    /// // A 50% mixed rate over 16 requests injects something, and the
    /// // unrecovered fault is parked on the runtime, never panicked.
    /// assert!(rt.injected().total() > 0);
    /// assert!(rt.take_fault().is_some());
    /// ```
    pub fn with_faults(mut self, plan: FaultPlan, rep: u32) -> Self {
        self.faults = Some(FaultInjector::new(plan, rep, self.k()));
        self
    }

    /// The faults injected so far, recovered ones included; all zero
    /// without a plan.
    pub fn injected(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// The first unrecovered delivery failure, if any. A faulted runtime
    /// suppresses all further communication (and charges nothing for
    /// it); the infallible accessors return degraded empty payloads, so
    /// legacy protocol code keeps running to a verdict that the caller
    /// must then discard via [`take_fault`](Self::take_fault).
    pub fn fault(&self) -> Option<&RunError> {
        self.fault.as_ref()
    }

    /// Takes the first unrecovered failure, resetting the runtime's
    /// fault state. Chaos drivers call this after a run: `Some(err)`
    /// means the verdict cannot be trusted unless it is a verifiable
    /// triangle witness.
    pub fn take_fault(&mut self) -> Option<RunError> {
        self.fault.take()
    }

    /// A sequential in-process runtime over per-player edge shares,
    /// recording into `R`.
    pub fn local_with(
        n: usize,
        shares: &[Vec<Edge>],
        shared: SharedRandomness,
        cost_model: CostModel,
    ) -> Self {
        Runtime::new_with(
            Box::new(LocalTransport::new(n, shares, shared)),
            n,
            shared,
            cost_model,
        )
    }

    /// A sequential runtime over **pre-built, shared** player states —
    /// the prepared-input fast path: amplified sweeps build the players
    /// once and hand every repetition the same `Arc` (see
    /// `docs/RUNTIME.md`).
    pub fn prepared_with(
        n: usize,
        players: std::sync::Arc<Vec<crate::player::PlayerState>>,
        shared: SharedRandomness,
        cost_model: CostModel,
    ) -> Self {
        Runtime::new_with(
            Box::new(LocalTransport::from_shared(players, shared)),
            n,
            shared,
            cost_model,
        )
    }

    /// Number of players `k`.
    pub fn k(&self) -> usize {
        self.transport.k()
    }

    /// Number of vertices `n` in the global graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The public random string.
    pub fn shared(&self) -> SharedRandomness {
        self.shared
    }

    /// The charging model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// The active cost recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Consumes the runtime, yielding its recorder — how finished
    /// protocol drivers hand their transcript or tally to their callers.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Draws a fresh shared-randomness tag. Tags are derived from a
    /// deterministic counter, so both runtimes and every party agree on
    /// them for free.
    pub fn fresh_tag(&mut self) -> u64 {
        self.fresh_tags(1)
    }

    /// Reserves `count` consecutive fresh tags and returns the first, so
    /// a caller can key a block of draws by purpose (tag `first + i` for
    /// draw `i`) instead of by the order they are made in. The next
    /// fresh tag follows the block.
    pub fn fresh_tags(&mut self, count: u64) -> u64 {
        let first = self.tag_counter + 1;
        self.tag_counter += count;
        first
    }

    /// Advances the round counter (bookkeeping only).
    pub fn next_round(&mut self) {
        self.recorder.next_round();
    }

    /// Runs `f` with every recorded message stamped with phase `name`,
    /// restoring the previous phase afterwards — the structured way for a
    /// protocol to attribute its communication to named stages (see the
    /// phase registry in `docs/OBSERVABILITY.md`).
    ///
    /// ```
    /// use triad_comm::{CostModel, PlayerRequest, Recorder, Runtime, SharedRandomness};
    /// use triad_graph::{Edge, VertexId};
    ///
    /// let shares = vec![vec![Edge::new(VertexId(0), VertexId(1))]];
    /// let mut rt = Runtime::local(2, &shares, SharedRandomness::new(1), CostModel::Coordinator);
    /// rt.phase("probe", |rt| {
    ///     rt.request(0, PlayerRequest::LocalEdgeCount);
    /// });
    /// assert_eq!(rt.recorder().tally().bits_for_phase("probe"), rt.stats().total_bits);
    /// ```
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let previous = self.recorder.current_phase();
        self.recorder.set_phase(name);
        let out = f(self);
        self.recorder.set_phase(previous);
        out
    }

    /// Per-message routing overhead of the active cost model.
    fn routing_overhead(&self) -> BitCost {
        match self.cost_model {
            CostModel::MessagePassing => BitCost(crate::bits::bits_per_vertex(self.transport.k())),
            _ => BitCost::ZERO,
        }
    }

    /// One delivery with bounded retry. The caller has already charged
    /// the first copy of the request; this method charges only
    /// fault-recovery traffic — retransmitted requests, duplicate
    /// deliveries, and garbled responses that crossed the wire — under
    /// [`crate::fault::RETRANSMIT_LABEL`]. Without injected faults it
    /// records nothing, so the fast path is byte-identical to the
    /// pre-fault-layer accounting.
    ///
    /// Only *delivered* retransmissions are charged: a retried request is
    /// accounted for when a subsequent attempt produces a response
    /// (delivered or garbled), never when the exchange ultimately dies
    /// with [`RunError::Timeout`] or another terminal fault. A request the
    /// network swallowed whole cost the protocol nothing measurable, and
    /// charging it inflated chaos-mode rollups relative to the
    /// [`FaultStats`] injection counts.
    ///
    /// `first` is the outcome of a first attempt the transport already
    /// made as part of a round; retries always go one request at a time.
    fn exchange(
        &mut self,
        player: usize,
        req: &PlayerRequest,
        ovh: BitCost,
        mut first: Option<Result<Payload<'static>, RunError>>,
    ) -> Result<Payload<'static>, RunError> {
        use crate::fault::RETRANSMIT_LABEL;
        let mut attempts = 0u32;
        // Retried requests whose delivery outcome is not yet known.
        let mut pending_retransmits = 0u32;
        loop {
            let err = match self.attempt(player, req, first.take()) {
                Ok((resp, fault)) => {
                    // A response came back, so every retransmitted copy
                    // of the request that led here reached the player.
                    let req_bits = req.bit_len(self.n) + ovh;
                    for _ in 0..std::mem::take(&mut pending_retransmits) {
                        self.recorder.record(
                            Some(player),
                            Direction::ToPlayer,
                            req_bits,
                            RETRANSMIT_LABEL,
                        );
                    }
                    // A duplicate's extra copy and a garbled response
                    // crossed the wire too: charged, and the duplicate
                    // handed on once.
                    let (bits, out) = match fault {
                        Some((FaultKind::Duplicate, _)) => (resp.bit_len(self.n), Ok(resp)),
                        Some((FaultKind::Corrupt, salt)) => (
                            corrupt_payload(resp, salt).bit_len(self.n),
                            Err(RunError::Corrupt { player }),
                        ),
                        _ => return Ok(resp),
                    };
                    self.recorder.record(
                        Some(player),
                        Direction::ToCoordinator,
                        bits + ovh,
                        RETRANSMIT_LABEL,
                    );
                    match out {
                        Ok(resp) => return Ok(resp),
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            if !err.is_retryable() || attempts >= DEFAULT_RETRY_BUDGET {
                // Terminal failure: pending retransmissions were never
                // observed to arrive, so they are not charged.
                return Err(err);
            }
            attempts += 1;
            pending_retransmits += 1;
        }
    }

    /// One delivery attempt: draws its injected fault, then delivers `req`
    /// or takes `first`, the answer a round already brought. A drop or a
    /// crash fails the attempt, discarding that answer; any other fault
    /// comes back with the response it acts on.
    fn attempt(
        &mut self,
        player: usize,
        req: &PlayerRequest,
        first: Option<Result<Payload<'static>, RunError>>,
    ) -> Result<(Payload<'static>, Option<(FaultKind, u64)>), RunError> {
        let fault = match &mut self.faults {
            Some(faults) => faults.draw(player)?,
            None => None,
        };
        let resp = first.unwrap_or_else(|| self.transport.try_deliver(player, req))?;
        if let (Some(faults), Some((kind, _))) = (&mut self.faults, fault) {
            faults.arrived(kind);
        }
        Ok((resp, fault))
    }

    /// Charges one coordinator message addressed to every player: once
    /// under [`CostModel::Blackboard`], once per private channel
    /// otherwise.
    fn charge_to_every_player(&mut self, bits: BitCost, label: &'static str) {
        match self.cost_model {
            CostModel::Blackboard => {
                self.recorder
                    .record(None, Direction::Broadcast, bits, label);
            }
            _ => {
                for j in 0..self.k() {
                    self.recorder
                        .record(Some(j), Direction::ToPlayer, bits, label);
                }
            }
        }
    }

    /// Records `err` as the runtime's fault if it is the first one.
    fn poison(&mut self, err: RunError) {
        if self.fault.is_none() {
            self.fault = Some(err);
        }
    }

    /// Sends `req` to one player, charging both directions; returns the
    /// response. Retryable delivery faults (timeouts, corruption) are
    /// recovered within the [retry budget](DEFAULT_RETRY_BUDGET),
    /// with the recovery traffic charged under
    /// [`crate::fault::RETRANSMIT_LABEL`].
    ///
    /// # Errors
    ///
    /// Returns the unrecovered [`RunError`] once the budget is
    /// exhausted, or immediately for non-retryable failures (crashed
    /// players). A previously faulted runtime fails fast with the
    /// original error.
    pub fn try_request(
        &mut self,
        player: usize,
        req: PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        let label = req.label();
        let ovh = self.routing_overhead();
        self.recorder.record(
            Some(player),
            Direction::ToPlayer,
            req.bit_len(self.n) + ovh,
            label,
        );
        let resp = self.exchange(player, &req, ovh, None)?;
        self.recorder.record(
            Some(player),
            Direction::ToCoordinator,
            resp.bit_len(self.n) + ovh,
            label,
        );
        Ok(resp)
    }

    /// Infallible [`try_request`](Self::try_request): an unrecovered
    /// fault poisons the runtime (see [`fault`](Self::fault)) and
    /// degrades the response to [`Payload::Empty`] — never a panic, and
    /// never a charge for bits that were not exchanged.
    pub fn request(&mut self, player: usize, req: PlayerRequest) -> Payload<'static> {
        match self.try_request(player, req) {
            Ok(resp) => resp,
            Err(e) => {
                self.poison(e);
                Payload::Empty
            }
        }
    }

    /// Newman's theorem, operationally: the parties pre-agree on a family
    /// of `family_size` candidate seeds (part of the protocol, free); the
    /// coordinator draws one index privately and announces it to every
    /// player, paying `k·⌈log₂ family_size⌉` bits (once under the
    /// blackboard model). Returns the selected shared randomness.
    ///
    /// This is the §2 conversion from shared to private randomness for
    /// multi-round protocols, at the stated `O(k log n)`-bit surcharge.
    pub fn announce_seed_from_family(&mut self, family_size: u64) -> SharedRandomness {
        use ::rand::RngCore;
        let index = self.shared.stream(0x4E45_574D).next_u64() % family_size.max(1);
        let payload = Payload::Bits(index, bits_for_count(family_size) as u32);
        let bits = payload.bit_len(self.n) + self.routing_overhead();
        self.charge_to_every_player(bits, "newman_seed");
        SharedRandomness::new(self.shared.seed().wrapping_add(index.wrapping_mul(0x9E37)))
    }

    /// Replaces the runtime's shared randomness — the second half of
    /// Newman's conversion: after
    /// [`announce_seed_from_family`](Self::announce_seed_from_family),
    /// every party (the transport's players included) proceeds under the
    /// announced seed.
    ///
    /// # Panics
    ///
    /// Panics on transports that cannot switch seeds mid-run (the
    /// default [`Transport::adopt_shared`]).
    pub fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.shared = shared;
        self.transport.adopt_shared(shared);
    }

    /// Sends the same request to every player: the round of one (see
    /// [`broadcast_each`](Self::broadcast_each)).
    ///
    /// Charging: under [`CostModel::Coordinator`] the request is paid `k`
    /// times (one private channel each); under [`CostModel::Blackboard`]
    /// it is paid once. Responses are always charged individually.
    /// Retryable faults are recovered per player within the retry
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns the first unrecovered [`RunError`]; responses gathered
    /// before the failure stay charged (the bits were spent).
    pub fn try_broadcast(&mut self, req: PlayerRequest) -> Result<Vec<Payload<'static>>, RunError> {
        let mut out = Vec::new();
        match self.round(
            &mut std::iter::once(req),
            &mut Rows::new(self.n, |row| out = row),
        ) {
            None => Ok(out),
            Some(err) => Err(err),
        }
    }

    /// Infallible [`try_broadcast`](Self::try_broadcast): an unrecovered
    /// fault poisons the runtime and degrades the result to `k` empty
    /// payloads, so index-based consumers stay in bounds.
    pub fn broadcast(&mut self, req: PlayerRequest) -> Vec<Payload<'static>> {
        match self.try_broadcast(req) {
            Ok(out) => out,
            Err(e) => {
                self.poison(e);
                vec![Payload::Empty; self.k()]
            }
        }
    }

    /// Sends one round of independent requests to every player and hands
    /// each request's row of `k` responses to `row_done` as soon as it is
    /// complete, in request order.
    ///
    /// The round charges exactly what `reqs.len()` separate
    /// [`try_broadcast`](Self::try_broadcast) calls charge, request by
    /// request and players in order, under every [`CostModel`]: how the
    /// requests travel is the transport's business
    /// ([`Transport::try_deliver_round`], in frames of at most
    /// [`MAX_FRAME_REQUESTS`]), what they cost is not. A transport that
    /// delivers a frame at once supplies each exchange's first attempt;
    /// retries go one request at a time.
    ///
    /// Each frame's requests are built only when the frame is sent, so a
    /// round of any size holds at most one frame of requests and one row
    /// at a time. An unrecovered fault poisons the runtime (see
    /// [`fault`](Self::fault)): what was gathered before it stays
    /// charged, nothing after it is charged, and every row not yet handed
    /// over is `k` empty payloads.
    pub fn broadcast_each<I>(&mut self, reqs: I, mut row_done: impl FnMut(Vec<Payload<'static>>))
    where
        I: IntoIterator<Item = PlayerRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut reqs = reqs.into_iter();
        let total = reqs.len();
        let mut handed = 0;
        let fault = self.round(
            &mut reqs,
            &mut Rows::new(self.n, |row| {
                handed += 1;
                row_done(row);
            }),
        );
        if let Some(err) = fault {
            self.poison(err);
            for _ in handed..total {
                row_done(vec![Payload::Empty; self.k()]);
            }
        }
    }

    /// The one round path: takes the requests a frame of at most
    /// [`MAX_FRAME_REQUESTS`] at a time, offers each frame to the
    /// transport, then charges and exchanges its requests one by one,
    /// players in order, handing every answer to `sink`. Returns the
    /// first unrecovered fault, if any; nothing after it is sent.
    fn round(
        &mut self,
        reqs: &mut impl Iterator<Item = PlayerRequest>,
        sink: &mut impl RowSink,
    ) -> Option<RunError> {
        if let Some(f) = &self.fault {
            return Some(f.clone());
        }
        let k = self.k();
        let ovh = self.routing_overhead();
        let mut frame = Vec::new();
        loop {
            frame.clear();
            frame.extend(reqs.by_ref().take(MAX_FRAME_REQUESTS));
            if frame.is_empty() {
                return None;
            }
            let len = frame.len();
            // Each player's answers, consumed in request order below.
            let mut delivered: Option<Vec<_>> =
                self.transport.try_deliver_round(&frame).map(|answers| {
                    let mut answers = answers.into_iter();
                    (0..k)
                        .map(|j| match answers.next() {
                            Some(Ok(payloads)) if payloads.len() == len => Ok(payloads.into_iter()),
                            Some(Err(e)) => Err(e),
                            _ => Err(RunError::Aborted {
                                reason: format!(
                                    "player {j}'s round answered the wrong number of requests"
                                ),
                            }),
                        })
                        .collect()
                });
            for req in &frame {
                let label = req.label();
                self.charge_to_every_player(req.bit_len(self.n) + ovh, label);
                for j in 0..k {
                    let first = delivered.as_mut().map(|answers| match &mut answers[j] {
                        Ok(payloads) => Ok(payloads.next().expect("one answer per request")),
                        Err(e) => Err(e.clone()),
                    });
                    match self.exchange(j, req, ovh, first) {
                        Ok(resp) => {
                            let bits = sink.answer(resp) + ovh;
                            self.recorder
                                .record(Some(j), Direction::ToCoordinator, bits, label);
                        }
                        Err(e) => return Some(e),
                    }
                }
                sink.row_done();
            }
        }
    }

    /// One round of edge-producing requests: for each request, the
    /// deduplicated union of all players' edges.
    ///
    /// Each request is charged as on its own. Under
    /// [`CostModel::Blackboard`] a player pays only for the request's
    /// edges not already on the board (players see prior postings),
    /// which realizes the `k`-factor saving of Theorem 3.23; under
    /// [`CostModel::Coordinator`] every copy is paid for. The charge is
    /// computed in closed form from the charged edge *count* —
    /// `bits_for_count(c) + c·bits_per_edge(n)`, exactly `Payload::Edges`
    /// of that length — without materializing the charged subset.
    ///
    /// An unrecovered fault poisons the runtime: the unions gathered
    /// before it keep their edges and the rest are empty, as separate
    /// [`gather_edges`](Self::gather_edges) calls would return.
    pub fn gather_edges_all<I>(&mut self, reqs: I) -> Vec<Vec<Edge>>
    where
        I: IntoIterator<Item = PlayerRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut reqs = reqs.into_iter();
        let total = reqs.len();
        let mut sink = Unions {
            n: self.n,
            board: self.cost_model == CostModel::Blackboard,
            seen: HashSet::new(),
            union: Vec::new(),
            done: Vec::with_capacity(total),
        };
        if let Some(err) = self.round(&mut reqs, &mut sink) {
            self.poison(err);
        }
        let mut unions = sink.done;
        unions.resize(total, Vec::new());
        unions
    }

    /// Broadcasts one edge-producing request and returns the
    /// deduplicated union of all players' edges: the round of one of
    /// [`gather_edges_all`](Self::gather_edges_all).
    pub fn gather_edges(&mut self, req: PlayerRequest) -> Vec<Edge> {
        self.gather_edges_all([req]).pop().unwrap_or_default()
    }

    /// Aggregated statistics so far.
    pub fn stats(&self) -> CommStats {
        self.recorder.stats()
    }
}

/// Where a round's answers go: each player's answer to a request in
/// player order, then the end of that request's row.
trait RowSink {
    /// Keeps one answer and returns the content bits it is charged,
    /// routing overhead excluded.
    fn answer(&mut self, resp: Payload<'static>) -> BitCost;
    /// Every player has answered the current request.
    fn row_done(&mut self);
}

/// Rows of payloads, each answer charged at its own length and each
/// complete row handed to `done`.
struct Rows<F> {
    n: usize,
    row: Vec<Payload<'static>>,
    done: F,
}

impl<F: FnMut(Vec<Payload<'static>>)> Rows<F> {
    fn new(n: usize, done: F) -> Self {
        Rows {
            n,
            row: Vec::new(),
            done,
        }
    }
}

impl<F: FnMut(Vec<Payload<'static>>)> RowSink for Rows<F> {
    fn answer(&mut self, resp: Payload<'static>) -> BitCost {
        let bits = resp.bit_len(self.n);
        self.row.push(resp);
        bits
    }

    fn row_done(&mut self) {
        (self.done)(std::mem::take(&mut self.row));
    }
}

/// Each request's union of edges, charged in closed form from the count
/// each answer pays for: on the blackboard, only the edges this request
/// has not yet posted.
struct Unions {
    n: usize,
    board: bool,
    seen: HashSet<Edge>,
    union: Vec<Edge>,
    done: Vec<Vec<Edge>>,
}

impl RowSink for Unions {
    fn answer(&mut self, resp: Payload<'static>) -> BitCost {
        let edges = resp.as_edges();
        let charged = if self.board {
            edges.iter().filter(|e| !self.seen.contains(*e)).count() as u64
        } else {
            edges.len() as u64
        };
        for e in edges {
            if self.seen.insert(*e) {
                self.union.push(*e);
            }
        }
        BitCost(bits_for_count(charged) + bits_per_edge(self.n) * charged)
    }

    fn row_done(&mut self) {
        self.seen.clear();
        self.done.push(std::mem::take(&mut self.union));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Tally;
    use triad_graph::VertexId;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    fn shares() -> Vec<Vec<Edge>> {
        vec![vec![e(0, 1), e(1, 2)], vec![e(0, 2), e(1, 2)]]
    }

    #[test]
    fn run_error_display_source_and_taxonomy_pin_operator_messages() {
        use std::error::Error as _;
        let transport = RunError::Transport(TransportError { player: 2 });
        assert_eq!(transport.to_string(), "player 2 hung up mid-protocol");
        assert!(transport.source().is_some());
        assert_eq!(transport.kind(), RunErrorKind::Transport);
        assert_eq!(transport.player(), Some(2));
        assert!(!transport.is_retryable());
        let timeout = RunError::Timeout { player: 1 };
        assert_eq!(timeout.to_string(), "player 1 missed the response deadline");
        assert!(timeout.source().is_none());
        assert!(timeout.is_retryable());
        let corrupt = RunError::Corrupt { player: 0 };
        assert_eq!(
            corrupt.to_string(),
            "player 0's response failed checksum verification"
        );
        assert!(corrupt.is_retryable());
        // The reconnect machinery degrades an expired window into this
        // exact shape — operator-facing and schema-stable (no new
        // RunError variant, so RunErrorKind and BENCH_chaos stay fixed).
        let expired = RunError::Aborted {
            reason: "player 0 reconnect window expired after 250 ms \
                     (player 0 hung up mid-protocol)"
                .into(),
        };
        assert_eq!(
            expired.to_string(),
            "run aborted: player 0 reconnect window expired after 250 ms \
             (player 0 hung up mid-protocol)"
        );
        assert_eq!(expired.kind(), RunErrorKind::Aborted);
        assert_eq!(expired.player(), None);
        assert!(!expired.is_retryable());
    }

    #[test]
    fn local_request_roundtrip_and_charging() {
        let shared = SharedRandomness::new(7);
        let mut rt = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        assert_eq!(rt.k(), 2);
        assert_eq!(rt.n(), 4);
        let resp = rt.request(0, PlayerRequest::HasEdge(e(0, 1)));
        assert_eq!(resp, Payload::Bit(true));
        let resp = rt.request(1, PlayerRequest::HasEdge(e(0, 1)));
        assert_eq!(resp, Payload::Bit(false));
        // 2 requests × (4 bits edge req... n=4 ⇒ 2 bits/vertex, 4/edge) + 1 bit resp each
        assert_eq!(rt.stats().total_bits, 2 * (4 + 1));
    }

    #[test]
    fn broadcast_charges_per_model() {
        let shared = SharedRandomness::new(7);
        let req = PlayerRequest::HasEdge(e(0, 1));
        let mut coord = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        coord.broadcast(req.clone());
        let mut board = Runtime::local(4, &shares(), shared, CostModel::Blackboard);
        board.broadcast(req.clone());
        let req_bits = req.bit_len(4).get();
        assert_eq!(
            coord.stats().total_bits - board.stats().total_bits,
            req_bits, // k=2: one extra request copy
        );
    }

    #[test]
    fn gather_edges_dedups_and_blackboard_saves() {
        let shared = SharedRandomness::new(3);
        // Both players hold edge (1,2): duplicated content.
        let req = PlayerRequest::InducedEdges {
            tag: 0,
            p: 1.0,
            cap: 100,
        };
        let mut coord = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        let union_c = coord.gather_edges(req.clone());
        let mut board = Runtime::local(4, &shares(), shared, CostModel::Blackboard);
        let union_b = board.gather_edges(req);
        let mut uc = union_c.clone();
        let mut ub = union_b.clone();
        uc.sort_unstable();
        ub.sort_unstable();
        assert_eq!(uc, ub);
        assert_eq!(uc.len(), 3, "union of shares has 3 distinct edges");
        assert!(
            board.stats().total_bits < coord.stats().total_bits,
            "blackboard must save on duplicated content"
        );
    }

    #[test]
    fn gather_edges_closed_form_matches_payload_cost() {
        // The count-only charge must equal what materializing the charged
        // subset as a `Payload::Edges` would have cost, per player.
        let shared = SharedRandomness::new(3);
        let req = PlayerRequest::InducedEdges {
            tag: 0,
            p: 1.0,
            cap: 100,
        };
        for model in [CostModel::Coordinator, CostModel::Blackboard] {
            let mut rt = Runtime::local(4, &shares(), shared, model);
            rt.gather_edges(req.clone());
            let mut expected = Transcript::new(2);
            let mut seen: HashSet<Edge> = HashSet::new();
            match model {
                CostModel::Blackboard => {
                    expected.record(None, Direction::Broadcast, req.bit_len(4), req.label())
                }
                _ => {
                    for j in 0..2 {
                        expected.record(Some(j), Direction::ToPlayer, req.bit_len(4), req.label());
                    }
                }
            }
            for (j, share) in shares().iter().enumerate() {
                let charged: Vec<Edge> = share
                    .iter()
                    .copied()
                    .filter(|e| model != CostModel::Blackboard || !seen.contains(e))
                    .collect();
                seen.extend(share.iter().copied());
                expected.record(
                    Some(j),
                    Direction::ToCoordinator,
                    Payload::Edges(charged.into()).bit_len(4),
                    req.label(),
                );
            }
            assert_eq!(rt.stats(), expected.stats(), "{model:?}");
        }
    }

    #[test]
    fn tally_runtime_matches_transcript_runtime() {
        let shared = SharedRandomness::new(11);
        fn drive<R: Recorder>(rt: &mut Runtime<R>) {
            rt.request(0, PlayerRequest::LocalEdgeCount);
            rt.next_round();
            rt.broadcast(PlayerRequest::HasEdge(e(1, 2)));
            rt.gather_edges(PlayerRequest::InducedEdges {
                tag: 1,
                p: 1.0,
                cap: 10,
            });
        }
        let mut full: Runtime<Transcript> =
            Runtime::local_with(4, &shares(), shared, CostModel::Coordinator);
        let mut fast: Runtime<Tally> =
            Runtime::local_with(4, &shares(), shared, CostModel::Coordinator);
        drive(&mut full);
        drive(&mut fast);
        assert_eq!(full.stats(), fast.stats());
        let full = full.recorder().tally();
        assert_eq!(full.by_phase(), fast.recorder().by_phase());
        assert_eq!(full.by_player(), fast.recorder().by_player());
        assert_eq!(full.by_round(), fast.recorder().by_round());
        assert_eq!(full.by_direction(), fast.recorder().by_direction());
    }

    /// A local transport that answers rounds itself, player by player,
    /// with `shape` applied to each player's answers.
    struct Rounds<F> {
        inner: LocalTransport,
        shape: F,
    }

    type Answers = Result<Vec<Payload<'static>>, RunError>;

    impl<F: FnMut(usize, Answers) -> Answers + Send> Transport for Rounds<F> {
        fn k(&self) -> usize {
            self.inner.k()
        }

        fn try_deliver(
            &mut self,
            player: usize,
            req: &PlayerRequest,
        ) -> Result<Payload<'static>, RunError> {
            self.inner.try_deliver(player, req)
        }

        fn try_deliver_round(&mut self, reqs: &[PlayerRequest]) -> Option<Vec<Answers>> {
            Some(
                (0..self.k())
                    .map(|j| {
                        let answers = reqs.iter().map(|r| self.inner.try_deliver(j, r)).collect();
                        (self.shape)(j, answers)
                    })
                    .collect(),
            )
        }
    }

    fn round_reqs() -> Vec<PlayerRequest> {
        (1..=4)
            .map(|tag| PlayerRequest::SampleHit {
                v: VertexId(1),
                tag,
                p: 0.5,
            })
            .chain([PlayerRequest::HasEdge(e(1, 2))])
            .collect()
    }

    #[test]
    fn a_round_with_the_wrong_answer_count_aborts_naming_the_player() {
        let shared = SharedRandomness::new(5);
        for drop_or_add in [true, false] {
            let transport = Rounds {
                inner: LocalTransport::new(4, &shares(), shared),
                shape: move |j, answers: Answers| match (j, answers) {
                    (1, Ok(mut payloads)) if drop_or_add => {
                        payloads.pop();
                        Ok(payloads)
                    }
                    (1, Ok(mut payloads)) => {
                        payloads.push(Payload::Empty);
                        Ok(payloads)
                    }
                    (_, answers) => answers,
                },
            };
            let mut rt = Runtime::new(Box::new(transport), 4, shared, CostModel::Coordinator);
            rt.broadcast_each(round_reqs(), |_| {});
            let err = rt.take_fault().expect("the round faults");
            assert_eq!(err.kind(), RunErrorKind::Aborted);
            assert!(err.to_string().contains("player 1"), "{err}");
            // Player 0's first answer was charged before player 1's failed.
            let reqs = round_reqs();
            let mut want = Transcript::new(2);
            for j in 0..2 {
                want.record(
                    Some(j),
                    Direction::ToPlayer,
                    reqs[0].bit_len(4),
                    reqs[0].label(),
                );
            }
            want.record(
                Some(0),
                Direction::ToCoordinator,
                BitCost(1),
                reqs[0].label(),
            );
            assert_eq!(rt.stats(), want.stats());
        }
    }

    #[test]
    fn a_timed_out_round_is_retried_request_by_request() {
        let shared = SharedRandomness::new(5);
        let transport = Rounds {
            inner: LocalTransport::new(4, &shares(), shared),
            shape: |j, answers| match j {
                1 => Err(RunError::Timeout { player: 1 }),
                _ => answers,
            },
        };
        let mut rt = Runtime::new(Box::new(transport), 4, shared, CostModel::Coordinator);
        let mut rows = Vec::new();
        rt.broadcast_each(round_reqs(), |row| rows.push(row));
        assert_eq!(rt.take_fault(), None);
        let mut separate = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        let want: Vec<_> = round_reqs()
            .into_iter()
            .map(|r| separate.broadcast(r))
            .collect();
        assert_eq!(rows, want);
        // Each of player 1's requests went out once more and is charged
        // as a retransmit; nothing else differs.
        let resent: u64 = round_reqs().iter().map(|r| r.bit_len(4).get()).sum();
        assert_eq!(rt.stats().total_bits, separate.stats().total_bits + resent);
    }

    #[test]
    fn message_passing_adds_routing_overhead() {
        let shared = SharedRandomness::new(7);
        let req = PlayerRequest::HasEdge(e(0, 1));
        let mut coord = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        coord.request(0, req.clone());
        let mut mp = Runtime::local(4, &shares(), shared, CostModel::MessagePassing);
        mp.request(0, req);
        // k = 2 ⇒ 1 routing bit per message, 2 messages.
        assert_eq!(mp.stats().total_bits, coord.stats().total_bits + 2);
    }

    #[test]
    fn newman_seed_costs_k_announcements() {
        let shared = SharedRandomness::new(9);
        let mut rt = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        let derived = rt.announce_seed_from_family(1 << 10);
        // Index payload: 11 bits (bits_for_count(1024)) per player, k = 2.
        assert_eq!(rt.stats().total_bits, 2 * 11);
        assert_ne!(derived.seed(), shared.seed());
        // Deterministic: same family, same base seed → same derived seed.
        let mut rt2 = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        assert_eq!(
            rt2.announce_seed_from_family(1 << 10).seed(),
            derived.seed()
        );
    }

    #[test]
    fn phase_scopes_nest_and_restore() {
        let shared = SharedRandomness::new(5);
        let mut rt = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        rt.phase("outer", |rt| {
            rt.request(0, PlayerRequest::LocalEdgeCount);
            rt.phase("inner", |rt| {
                rt.request(1, PlayerRequest::LocalEdgeCount);
            });
            rt.request(0, PlayerRequest::HasEdge(e(0, 1)));
        });
        rt.request(1, PlayerRequest::HasEdge(e(0, 1)));
        let t = rt.recorder().tally();
        assert_eq!(t.current_phase(), crate::transcript::DEFAULT_PHASE);
        let total = t.total_bits().get();
        assert_eq!(
            t.bits_for_phase("outer")
                + t.bits_for_phase("inner")
                + t.bits_for_phase(crate::transcript::DEFAULT_PHASE),
            total
        );
        assert!(t.bits_for_phase("inner") > 0);
        let events = rt.into_recorder();
        assert_eq!(events.total_bits().get(), total);
    }

    #[test]
    fn fresh_tags_are_unique_and_rounds_advance() {
        let shared = SharedRandomness::new(0);
        let mut rt = Runtime::local(4, &shares(), shared, CostModel::Coordinator);
        let t1 = rt.fresh_tag();
        let t2 = rt.fresh_tag();
        assert_ne!(t1, t2);
        assert_eq!(rt.stats().rounds, 1);
        rt.next_round();
        assert_eq!(rt.stats().rounds, 2);
    }
}
