//! Pluggable cost recorders: the zero-allocation [`Tally`] and the
//! full-fidelity [`Transcript`](crate::transcript::Transcript) built on
//! it.
//!
//! Every runtime charge funnels through a [`Recorder`]. The [`Tally`]
//! accumulates only the counters the reports need — total bits,
//! per-phase / per-player / per-round / per-direction / per-label sums —
//! in flat fixed buckets, with **zero heap allocation per recorded
//! event**. The `Transcript` keeps the ordered per-event log behind
//! `triad report` and transcript export, over an embedded `Tally` that
//! receives every one of its charges. Amplified sweeps and benches
//! record into `Tally` alone; observability paths keep `Transcript`.
//!
//! Every total, statistic and rollup of either recorder is read from its
//! [`Recorder::tally`], so the rollup rules exist once. A proptest in
//! `tests/properties.rs` checks them against an independent fold over a
//! transcript's events. See `docs/RUNTIME.md`.

use crate::bits::BitCost;
use crate::transcript::{CommStats, Direction, LabelTotals, Rollup, DEFAULT_PHASE};

/// A sink for per-message cost charges.
///
/// Every recorder keeps its counters in a [`Tally`] (see
/// [`tally`](Self::tally)), and the provided methods read them there:
/// only `ToCoordinator` messages with a player index inside the initial
/// player range count toward `max_player_sent_bits`, `stats().rounds` is
/// `round() + 1`, and absorbing a pristine recorder is a no-op, which
/// keeps [`Recorder::absorb`] associative for the deterministic parallel
/// engine's ordered reduction.
pub trait Recorder: Send + 'static {
    /// An empty recorder for `k` players.
    fn with_players(k: usize) -> Self
    where
        Self: Sized;

    /// Records one message under the current phase.
    fn record(
        &mut self,
        player: Option<usize>,
        direction: Direction,
        bits: BitCost,
        label: &'static str,
    );

    /// Advances to the next communication round.
    fn next_round(&mut self);

    /// Sets the phase stamped onto subsequently recorded messages.
    fn set_phase(&mut self, phase: &'static str);

    /// Appends another recorder's charges as later rounds of this one
    /// (the accounting behind repetition wrappers): totals add, rounds
    /// concatenate, per-player counters accumulate, and the current
    /// phase stays this recorder's. Absorbing a pristine recorder (no
    /// message, round 0) is a no-op, so the operation stays associative.
    fn absorb(&mut self, other: &Self);

    /// Hints that about `additional` further messages will be recorded.
    /// A no-op for counter recorders;
    /// [`Transcript`](crate::transcript::Transcript) pre-reserves its
    /// event log.
    fn reserve_messages(&mut self, additional: usize) {
        let _ = additional;
    }

    /// The counters every total, statistic and rollup is read from.
    fn tally(&self) -> &Tally;

    /// Current round index.
    fn round(&self) -> u64 {
        self.tally().round
    }

    /// The phase currently being stamped onto recorded messages.
    fn current_phase(&self) -> &'static str {
        self.tally().current_phase
    }

    /// Total bits across all messages.
    fn total_bits(&self) -> BitCost {
        self.tally().total
    }

    /// Aggregated statistics.
    fn stats(&self) -> CommStats {
        let t = self.tally();
        CommStats {
            total_bits: t.total.get(),
            rounds: t.round + 1,
            messages: t.messages,
            max_player_sent_bits: t.per_player_sent.iter().copied().max().unwrap_or(0),
        }
    }

    /// Total bits recorded under `label` (0 for unseen labels).
    fn bits_for_label(&self, label: &str) -> u64 {
        bits_under(&self.tally().by_label, label)
    }

    /// Bits spent on fault recovery — retransmitted requests, duplicate
    /// deliveries, and garbled responses — i.e. the rollup of the
    /// [`crate::fault::RETRANSMIT_LABEL`] label. Zero on fault-free
    /// runs.
    fn retransmit_bits(&self) -> u64 {
        self.bits_for_label(crate::fault::RETRANSMIT_LABEL)
    }
}

/// Flat counter buckets for one aggregation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Bucket {
    bits: u64,
    messages: u64,
}

impl Bucket {
    #[inline]
    fn add(&mut self, bits: u64) {
        self.merge(Bucket { bits, messages: 1 });
    }

    #[inline]
    fn merge(&mut self, other: Bucket) {
        let mut total = BitCost(self.bits);
        total.accumulate(BitCost(other.bits));
        self.bits = total.get();
        self.messages += other.messages;
    }

    fn rollup(self, key: String) -> Rollup {
        Rollup {
            key,
            bits: self.bits,
            messages: self.messages,
        }
    }
}

/// The bucket of `key` in a linear-scanned name table, appended on first
/// use. Protocols use a handful of phases and labels, so a scan beats
/// hashing.
#[inline]
fn bucket_for<'t>(table: &'t mut Vec<(&'static str, Bucket)>, key: &'static str) -> &'t mut Bucket {
    let i = match table.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            table.push((key, Bucket::default()));
            table.len() - 1
        }
    };
    &mut table[i].1
}

/// The bits under `key` in a name table (0 when absent).
fn bits_under(table: &[(&'static str, Bucket)], key: &str) -> u64 {
    table
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, b)| b.bits)
}

/// The counters-only recorder: every aggregate a [`CostReport`] or
/// rollup export needs, with no per-event allocation.
///
/// Phase and label buckets are linear-scanned `&'static str` tables, and
/// per-player / per-round buckets are dense index-addressed vectors that
/// grow (amortized, outside the hot loop) to the largest index seen.
/// Every rollup is a partition of the recorded messages, so its bit
/// totals sum to [`total_bits`](Recorder::total_bits) and its message
/// counts to `stats().messages`.
///
/// [`CostReport`]: crate::report::CostReport
///
/// # Example
///
/// ```
/// use triad_comm::{BitCost, Direction, Recorder, Tally};
///
/// let mut tally = Tally::with_players(2);
/// tally.set_phase("sample");
/// tally.record(Some(0), Direction::ToCoordinator, BitCost(10), "edges");
/// assert_eq!(tally.total_bits(), BitCost(10));
/// assert_eq!(tally.by_phase()[0].key, "sample");
/// assert_eq!(tally.stats().max_player_sent_bits, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    total: BitCost,
    round: u64,
    messages: u64,
    per_player_sent: Vec<u64>,
    current_phase: &'static str,
    by_phase: Vec<(&'static str, Bucket)>,
    by_label: Vec<(&'static str, Bucket)>,
    by_player: Vec<Bucket>,
    broadcast: Bucket,
    by_round: Vec<Bucket>,
    by_direction: [Bucket; 3],
}

impl Default for Tally {
    fn default() -> Self {
        Tally::with_players(0)
    }
}

impl Tally {
    /// Bits each player sent to the coordinator: one entry per player
    /// given to [`Recorder::with_players`] (or absorbed from a wider
    /// recorder); charges to a player index outside that range count
    /// only in [`by_player`](Self::by_player).
    pub fn per_player_sent(&self) -> &[u64] {
        &self.per_player_sent
    }

    /// Total bits charged under the given phase (0 for unseen phases).
    pub fn bits_for_phase(&self, phase: &str) -> u64 {
        bits_under(&self.by_phase, phase)
    }

    /// Per-label totals, sorted by descending bits, ties by ascending
    /// label — the per-label cost breakdown of a run.
    pub fn breakdown(&self) -> Vec<LabelTotals> {
        let mut out: Vec<LabelTotals> = self
            .by_label
            .iter()
            .map(|(label, b)| LabelTotals {
                label,
                bits: b.bits,
                messages: b.messages,
            })
            .collect();
        out.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.label.cmp(b.label)));
        out
    }

    /// Bits and messages per phase, sorted by descending bits, ties by
    /// ascending phase name.
    pub fn by_phase(&self) -> Vec<Rollup> {
        let mut out: Vec<Rollup> = self
            .by_phase
            .iter()
            .map(|(phase, b)| b.rollup((*phase).to_string()))
            .collect();
        out.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.key.cmp(&b.key)));
        out
    }

    /// Bits and messages per involved party: `player-j` for every player
    /// index charged at least once, in index order, then `broadcast` for
    /// coordinator postings charged to nobody.
    pub fn by_player(&self) -> Vec<Rollup> {
        let players = self.by_player.iter().enumerate();
        let mut out: Vec<Rollup> = players
            .filter(|(_, b)| b.messages > 0)
            .map(|(j, b)| b.rollup(format!("player-{j}")))
            .collect();
        if self.broadcast.messages > 0 {
            out.push(self.broadcast.rollup("broadcast".to_string()));
        }
        out
    }

    /// Bits and messages per round that carried a message, keyed
    /// `round-i`, in round order.
    pub fn by_round(&self) -> Vec<Rollup> {
        let rounds = self.by_round.iter().enumerate();
        rounds
            .filter(|(_, b)| b.messages > 0)
            .map(|(r, b)| b.rollup(format!("round-{r}")))
            .collect()
    }

    /// Bits and messages per [`Direction`] that carried a message, in
    /// declaration order (`to_player`, `to_coordinator`, `broadcast`).
    pub fn by_direction(&self) -> Vec<Rollup> {
        let directions = [
            Direction::ToPlayer,
            Direction::ToCoordinator,
            Direction::Broadcast,
        ];
        directions
            .into_iter()
            .map(|d| (d, self.by_direction[d as u8 as usize]))
            .filter(|(_, b)| b.messages > 0)
            .map(|(d, b)| b.rollup(d.as_str().to_string()))
            .collect()
    }

    /// True when no message has been recorded and no round advanced.
    fn is_pristine(&self) -> bool {
        self.messages == 0 && self.round == 0
    }
}

impl Recorder for Tally {
    fn with_players(k: usize) -> Self {
        Tally {
            total: BitCost::ZERO,
            round: 0,
            messages: 0,
            per_player_sent: vec![0; k],
            current_phase: DEFAULT_PHASE,
            by_phase: Vec::new(),
            by_label: Vec::new(),
            by_player: Vec::new(),
            broadcast: Bucket::default(),
            by_round: Vec::new(),
            by_direction: [Bucket::default(); 3],
        }
    }

    fn record(
        &mut self,
        player: Option<usize>,
        direction: Direction,
        bits: BitCost,
        label: &'static str,
    ) {
        if direction == Direction::ToCoordinator {
            if let Some(slot) = player.and_then(|j| self.per_player_sent.get_mut(j)) {
                *slot += bits.get();
            }
        }
        self.total.accumulate(bits);
        self.messages += 1;
        let raw = bits.get();
        bucket_for(&mut self.by_phase, self.current_phase).add(raw);
        bucket_for(&mut self.by_label, label).add(raw);
        match player {
            Some(j) => {
                if j >= self.by_player.len() {
                    self.by_player.resize(j + 1, Bucket::default());
                }
                self.by_player[j].add(raw);
            }
            None => self.broadcast.add(raw),
        }
        let r = self.round as usize;
        if r >= self.by_round.len() {
            self.by_round.resize(r + 1, Bucket::default());
        }
        self.by_round[r].add(raw);
        self.by_direction[direction as u8 as usize].add(raw);
    }

    fn next_round(&mut self) {
        self.round += 1;
    }

    fn set_phase(&mut self, phase: &'static str) {
        self.current_phase = phase;
    }

    fn tally(&self) -> &Tally {
        self
    }

    fn absorb(&mut self, other: &Self) {
        if self.per_player_sent.len() < other.per_player_sent.len() {
            self.per_player_sent.resize(other.per_player_sent.len(), 0);
        }
        if other.is_pristine() {
            // A pristine operand carries no rounds; starting a round for
            // it would make `absorb` non-associative.
            return;
        }
        let offset = if self.is_pristine() {
            0
        } else {
            self.round + 1
        };
        if !other.by_round.is_empty() {
            let needed = offset as usize + other.by_round.len();
            if needed > self.by_round.len() {
                self.by_round.resize(needed, Bucket::default());
            }
            for (i, b) in other.by_round.iter().enumerate() {
                self.by_round[offset as usize + i].merge(*b);
            }
        }
        self.round = offset + other.round;
        self.total.accumulate(other.total);
        self.messages += other.messages;
        for (slot, sent) in self.per_player_sent.iter_mut().zip(&other.per_player_sent) {
            *slot += sent;
        }
        for (phase, b) in &other.by_phase {
            bucket_for(&mut self.by_phase, phase).merge(*b);
        }
        for (label, b) in &other.by_label {
            bucket_for(&mut self.by_label, label).merge(*b);
        }
        if other.by_player.len() > self.by_player.len() {
            self.by_player
                .resize(other.by_player.len(), Bucket::default());
        }
        for (slot, b) in self.by_player.iter_mut().zip(&other.by_player) {
            slot.merge(*b);
        }
        self.broadcast.merge(other.broadcast);
        for (slot, b) in self.by_direction.iter_mut().zip(&other.by_direction) {
            slot.merge(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script<R: Recorder>(r: &mut R) {
        r.set_phase("sample");
        r.record(Some(0), Direction::ToPlayer, BitCost(4), "req");
        r.record(Some(0), Direction::ToCoordinator, BitCost(9), "resp");
        r.next_round();
        r.set_phase("verify");
        r.record(Some(2), Direction::ToCoordinator, BitCost(6), "resp");
        r.record(None, Direction::Broadcast, BitCost(11), "post");
        // An out-of-range player index: counted in the by-player rollup
        // but not in per_player_sent.
        r.record(Some(7), Direction::ToCoordinator, BitCost(2), "stray");
    }

    fn keys(rows: Vec<Rollup>) -> Vec<String> {
        rows.into_iter().map(|r| r.key).collect()
    }

    #[test]
    fn out_of_range_players_count_only_in_the_player_rollup() {
        let mut y = Tally::with_players(3);
        script(&mut y);
        assert_eq!(y.per_player_sent(), &[9, 0, 6]);
        assert_eq!(y.stats().max_player_sent_bits, 9);
        assert_eq!(
            keys(y.by_player()),
            ["player-0", "player-2", "player-7", "broadcast"]
        );
        assert_eq!(y.by_player()[2].bits, 2);
    }

    #[test]
    fn pristine_absorb_only_widens_the_player_table() {
        let mut y = Tally::with_players(3);
        script(&mut y);
        let before = y.clone();
        y.absorb(&Tally::with_players(5));
        assert_eq!(
            y.per_player_sent(),
            &[9, 0, 6, 0, 0],
            "player table widened"
        );
        assert_eq!(y.stats(), before.stats());
        assert_eq!(y.by_round(), before.by_round());
        assert_eq!(y.breakdown(), before.breakdown());
    }

    #[test]
    fn absorb_keeps_the_receivers_phase() {
        let mut y = Tally::with_players(3);
        y.set_phase("outer");
        let mut other = Tally::with_players(3);
        script(&mut other);
        y.absorb(&other);
        assert_eq!(y.current_phase(), "outer");
        assert_eq!(
            y.round(),
            1,
            "absorbing into pristine keeps round numbering"
        );
        y.absorb(&other);
        assert_eq!(y.round(), 3, "a non-pristine receiver starts a fresh round");
        assert_eq!(keys(y.by_phase()), ["verify", "sample"]);
    }

    #[test]
    fn absorbing_a_silent_recorder_only_advances_rounds() {
        let mut y = Tally::with_players(3);
        script(&mut y);
        y.next_round();
        let mut advanced = y.clone();
        let mut silent = Tally::with_players(3);
        silent.next_round();
        silent.next_round();
        y.absorb(&silent);
        for _ in 0..3 {
            advanced.next_round();
        }
        assert_eq!(y, advanced, "a fresh round, then the silent one's two");
    }

    #[test]
    fn breakdown_aggregates_and_sorts() {
        let mut y = Tally::with_players(2);
        y.record(Some(0), Direction::ToCoordinator, BitCost(5), "small");
        y.record(Some(1), Direction::ToCoordinator, BitCost(30), "big");
        y.record(Some(0), Direction::ToPlayer, BitCost(10), "big");
        let b = y.breakdown();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].label, "big");
        assert_eq!(b[0].bits, 40);
        assert_eq!(b[0].messages, 2);
        assert_eq!(b[1].label, "small");
    }

    #[test]
    fn empty_rollups_are_empty() {
        let y = Tally::with_players(2);
        assert!(y.by_phase().is_empty());
        assert!(y.by_player().is_empty());
        assert!(y.by_round().is_empty());
        assert!(y.by_direction().is_empty());
        assert!(y.breakdown().is_empty());
        assert_eq!(y.stats().rounds, 1, "round 0 exists even when silent");
    }

    #[test]
    fn phase_scoping_matches_default() {
        let mut y = Tally::with_players(1);
        y.record(Some(0), Direction::ToPlayer, BitCost(1), "x");
        assert_eq!(y.current_phase(), DEFAULT_PHASE);
        y.set_phase("p");
        assert_eq!(y.current_phase(), "p");
        y.record(Some(0), Direction::ToPlayer, BitCost(2), "x");
        assert_eq!(y.bits_for_phase(DEFAULT_PHASE), 1);
        assert_eq!(y.bits_for_phase("p"), 2);
        assert_eq!(y.bits_for_phase("absent"), 0);
        assert_eq!(y.bits_for_label("absent"), 0);
    }
}
