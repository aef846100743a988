//! The simultaneous (one-round) communication framework.
//!
//! Each player computes a single message from its input and the shared
//! randomness; the referee sees only the messages. This is the
//! communication analog of oblivious property testers, and the model of
//! the paper's §3.4 protocols and §4.2.3 lower bound.
//!
//! Messages may *borrow* from the sending player's state: a
//! [`SimMessage<'a>`] carries `Payload<'a>` entries, so a baseline that
//! sends its whole partition does so as a `Cow::Borrowed` slice with no
//! per-run clone (see `docs/RUNTIME.md`). Ownership never needs to cross
//! a boundary here — the referee reads the messages while the players are
//! still alive.

use crate::bits::BitCost;
use crate::message::Payload;
use crate::player::{players_from_shares, PlayerState};
use crate::rand::SharedRandomness;
use crate::recorder::Recorder;
use crate::transcript::{CommStats, Direction, Transcript, DEFAULT_PHASE};
use triad_graph::Edge;

/// A player's one-shot message: an ordered list of payloads, each tagged
/// with the protocol phase that produced it (so one-round transcripts
/// still get per-phase cost attribution). The lifetime `'a` is the
/// sending player's: payloads may borrow its edge share.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimMessage<'a> {
    payloads: Vec<Payload<'a>>,
    phases: Vec<&'static str>,
}

impl<'a> SimMessage<'a> {
    /// The empty message (what irrelevant players send).
    pub fn empty() -> Self {
        SimMessage::default()
    }

    /// A message with one payload under the default phase.
    pub fn of(p: Payload<'a>) -> Self {
        SimMessage::of_phased(p, DEFAULT_PHASE)
    }

    /// A message with one payload attributed to `phase`.
    pub fn of_phased(p: Payload<'a>, phase: &'static str) -> Self {
        SimMessage {
            payloads: vec![p],
            phases: vec![phase],
        }
    }

    /// Appends a payload under the default phase.
    pub fn push(&mut self, p: Payload<'a>) {
        self.push_phased(p, DEFAULT_PHASE);
    }

    /// Appends a payload attributed to `phase`.
    pub fn push_phased(&mut self, p: Payload<'a>, phase: &'static str) {
        self.payloads.push(p);
        self.phases.push(phase);
    }

    /// The payloads in order.
    pub fn payloads(&self) -> &[Payload<'a>] {
        &self.payloads
    }

    /// The per-payload phase tags, parallel to
    /// [`payloads`](Self::payloads).
    pub fn phases(&self) -> &[&'static str] {
        &self.phases
    }

    /// Total bit cost in a graph on `n` vertices.
    pub fn bit_len(&self, n: usize) -> BitCost {
        self.payloads.iter().map(|p| p.bit_len(n)).sum()
    }

    /// All edges carried anywhere in the message, whatever their
    /// representation — [`Payload::Edges`] lists and
    /// [`Payload::EdgeBits`] bitsets both contribute; non-edge payloads
    /// are legitimately skipped.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.payloads.iter().flat_map(Payload::iter_edges)
    }

    /// Detaches the message from its sender, cloning any borrowed
    /// payloads.
    pub fn into_owned(self) -> SimMessage<'static> {
        SimMessage {
            payloads: self.payloads.into_iter().map(Payload::into_owned).collect(),
            phases: self.phases,
        }
    }
}

/// A one-round protocol: per-player message function plus referee.
pub trait SimultaneousProtocol {
    /// What the referee outputs.
    type Output;

    /// The message player `j` sends, computed from its private input and
    /// the public randomness only. The message may borrow from `player`
    /// (the explicit `'a` ties the two; implementations must spell it
    /// out — eliding would wrongly tie the message to `&self`).
    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a>;

    /// The referee's aggregation of all `k` messages.
    fn referee(&self, n: usize, messages: &[SimMessage], shared: &SharedRandomness)
        -> Self::Output;
}

/// The result of one simultaneous execution, generic over the cost
/// recorder (`R = Transcript` keeps the full event log; `R = Tally` is
/// the counters-only fast path of amplified sweeps).
#[derive(Debug, Clone)]
pub struct SimRun<O, R = Transcript> {
    /// The referee's output.
    pub output: O,
    /// Communication statistics (1 round; total = Σ message bits), read
    /// from the recorder except `messages`, which counts the k player
    /// messages rather than their payloads.
    pub stats: CommStats,
    /// The recorder: one `ToCoordinator` charge per payload sent, tagged
    /// with the payload's phase. Each player's bits are its
    /// [`per_player_sent`](crate::Tally::per_player_sent) entry.
    pub transcript: R,
}

/// Runs a simultaneous protocol sequentially, with a full transcript.
pub fn run_simultaneous<P: SimultaneousProtocol>(
    protocol: &P,
    n: usize,
    shares: &[Vec<Edge>],
    shared: SharedRandomness,
) -> SimRun<P::Output> {
    let players = players_from_shares(n, shares);
    run_simultaneous_prepared(protocol, n, &players, shared)
}

/// Runs a simultaneous protocol over **pre-built** player states,
/// recording into any [`Recorder`] — the prepared-input fast path:
/// amplified sweeps build the players once and re-roll only the shared
/// randomness per repetition (see `docs/RUNTIME.md`).
pub fn run_simultaneous_prepared<P: SimultaneousProtocol, R: Recorder>(
    protocol: &P,
    n: usize,
    players: &[PlayerState],
    shared: SharedRandomness,
) -> SimRun<P::Output, R> {
    let messages: Vec<SimMessage> = players
        .iter()
        .map(|p| protocol.message(p, &shared))
        .collect();
    run_simultaneous_collected(protocol, n, messages, shared)
}

/// Finishes a simultaneous run from **already-collected** messages —
/// the referee-side entry point of networked runs: `triad serve` gathers
/// each player's [`SimMessage`] over its socket (the remote player
/// evaluated [`SimultaneousProtocol::message`] itself) and hands them
/// here. Charging is *identical* to [`run_simultaneous_prepared`], which
/// finishes through here too: one `ToCoordinator` charge per payload at
/// the payload's model bit cost, so a fault-free TCP run is
/// byte-identical in its accounting to an in-process run of the same
/// protocol (see `docs/NETWORKING.md`).
pub fn run_simultaneous_collected<P: SimultaneousProtocol, R: Recorder>(
    protocol: &P,
    n: usize,
    messages: Vec<SimMessage<'_>>,
    shared: SharedRandomness,
) -> SimRun<P::Output, R> {
    let output = protocol.referee(n, &messages, &shared);
    charge(n, &messages, output)
}

/// Charges a one-round exchange: one `ToCoordinator` record per payload
/// at the payload's model bit cost, tagged with its phase, and reads the
/// run's [`CommStats`] back from the recorder. A faulted chaos run
/// charges through here too — its messages were all sent before the
/// fault hit — so its bill is the fault-free bill.
pub(crate) fn charge<O, R: Recorder>(
    n: usize,
    messages: &[SimMessage<'_>],
    output: O,
) -> SimRun<O, R> {
    let mut transcript = R::with_players(messages.len());
    transcript.reserve_messages(messages.iter().map(|m| m.payloads().len()).sum());
    for (j, m) in messages.iter().enumerate() {
        for (payload, phase) in m.payloads().iter().zip(m.phases()) {
            transcript.set_phase(phase);
            transcript.record(Some(j), Direction::ToCoordinator, payload.bit_len(n), phase);
        }
    }
    SimRun {
        output,
        stats: CommStats {
            messages: messages.len() as u64,
            ..transcript.stats()
        },
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_graph::VertexId;

    /// Toy protocol: everyone sends their full input; referee counts
    /// distinct edges. Exercises the borrowed fast path: the payload is a
    /// `Cow::Borrowed` view of the player's sorted share.
    struct SendAll;

    impl SimultaneousProtocol for SendAll {
        type Output = usize;

        fn message<'a>(
            &self,
            player: &'a PlayerState,
            _shared: &SharedRandomness,
        ) -> SimMessage<'a> {
            SimMessage::of(Payload::Edges(player.share().into()))
        }

        fn referee(&self, _n: usize, messages: &[SimMessage], _shared: &SharedRandomness) -> usize {
            let mut set = std::collections::HashSet::new();
            for m in messages {
                set.extend(m.edges());
            }
            set.len()
        }
    }

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn runs_and_charges() {
        let shares = vec![vec![e(0, 1), e(1, 2)], vec![e(1, 2)]];
        let run = run_simultaneous(&SendAll, 4, &shares, SharedRandomness::new(1));
        assert_eq!(run.output, 2);
        assert_eq!(run.stats.rounds, 1);
        assert_eq!(run.stats.messages, 2);
        // n=4: 2 bits/vertex, 4/edge; msg1 = prefix(2=2 bits)+8, msg2 = prefix(1 bit)+4
        assert_eq!(run.transcript.tally().per_player_sent(), &[2 + 8, 1 + 4]);
        assert_eq!(run.stats.total_bits, 15);
        assert_eq!(run.stats.max_player_sent_bits, 10);
    }

    #[test]
    fn borrowed_message_costs_like_owned() {
        let p = PlayerState::new(0, 8, &[e(0, 1), e(2, 3)]);
        let borrowed = SimMessage::of(Payload::Edges(p.share().into()));
        let owned: SimMessage<'static> = SimMessage::of(Payload::Edges(p.share().to_vec().into()));
        assert_eq!(borrowed.bit_len(8), owned.bit_len(8));
        assert_eq!(borrowed.clone().into_owned(), owned);
    }

    #[test]
    fn transcript_partitions_message_bits_by_phase() {
        struct TwoPhase;
        impl SimultaneousProtocol for TwoPhase {
            type Output = ();
            fn message<'a>(
                &self,
                player: &'a PlayerState,
                _shared: &SharedRandomness,
            ) -> SimMessage<'a> {
                let mut m =
                    SimMessage::of_phased(Payload::Edges(player.share().into()), "induced-sample");
                m.push_phased(Payload::Bit(true), "verdict");
                m
            }
            fn referee(&self, _n: usize, _m: &[SimMessage], _s: &SharedRandomness) {}
        }
        let shares = vec![vec![e(0, 1), e(1, 2)], vec![e(1, 2)]];
        let run = run_simultaneous(&TwoPhase, 4, &shares, SharedRandomness::new(1));
        assert_eq!(run.transcript.total_bits().get(), run.stats.total_bits);
        let t = run.transcript.tally();
        let by_phase = t.by_phase();
        let phase_sum: u64 = by_phase.iter().map(|r| r.bits).sum();
        assert_eq!(phase_sum, run.stats.total_bits);
        assert_eq!(t.bits_for_phase("verdict"), 2);
        assert_eq!(t.bits_for_phase("induced-sample"), run.stats.total_bits - 2);
        let per_player = t.by_player();
        assert_eq!(per_player.len(), 2);
        assert_eq!(
            per_player[0].bits + per_player[1].bits,
            run.stats.total_bits
        );
    }

    #[test]
    fn sim_message_building() {
        let mut m = SimMessage::empty();
        assert_eq!(m.bit_len(16), BitCost(0));
        m.push(Payload::Bit(true));
        m.push(Payload::Edges(vec![e(0, 1)].into()));
        assert_eq!(m.payloads().len(), 2);
        assert_eq!(m.edges().count(), 1);
        assert_eq!(m.bit_len(16), BitCost(1 + 1 + 8));
    }
}
