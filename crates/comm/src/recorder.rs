//! Pluggable cost recorders: full-fidelity [`Transcript`] vs the
//! zero-allocation [`Tally`].
//!
//! Every runtime charge funnels through a [`Recorder`]. The
//! [`Transcript`] implementation keeps the ordered per-event log behind
//! `triad report`, transcript export, and the differential tests; the
//! [`Tally`] implementation accumulates only the counters the reports
//! need — total bits, per-phase / per-player / per-round / per-direction
//! / per-label sums — in flat fixed buckets, with **zero heap
//! allocation per recorded event**. Amplified sweeps and benches default
//! to `Tally`; observability paths keep `Transcript`.
//!
//! The two recorders are interchangeable by construction: for any event
//! sequence, `Tally`'s totals, statistics, and rollups are byte-identical
//! to the `Transcript` rollups over the same events (pinned by the unit
//! tests here, `tests/recorder_differential.rs`, and a proptest). See
//! `docs/RUNTIME.md`.

use crate::bits::BitCost;
use crate::transcript::{CommStats, Direction, LabelTotals, Rollup, Transcript, DEFAULT_PHASE};

/// A sink for per-message cost charges.
///
/// The contract mirrors [`Transcript`]'s accounting exactly — same
/// per-player attribution (only `ToCoordinator` messages with a player
/// index inside the initial player range count toward
/// `max_player_sent_bits`), same round numbering (`stats().rounds` is
/// `round() + 1`), and the same pristine-absorb no-op that keeps
/// [`Recorder::absorb`] associative for the deterministic parallel
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

    /// Current round index.
    fn round(&self) -> u64;

    /// Sets the phase stamped onto subsequently recorded messages.
    fn set_phase(&mut self, phase: &'static str);

    /// The phase currently being stamped onto recorded messages.
    fn current_phase(&self) -> &'static str;

    /// Total bits across all messages.
    fn total_bits(&self) -> BitCost;

    /// Aggregated statistics.
    fn stats(&self) -> CommStats;

    /// Appends another recorder's charges as later rounds of this one
    /// (the accounting behind repetition wrappers). Absorbing a pristine
    /// recorder must be a no-op so the operation stays associative.
    fn absorb(&mut self, other: &Self);

    /// Hints that about `additional` further messages will be recorded.
    /// A no-op for counter recorders; [`Transcript`] pre-reserves its
    /// event log.
    fn reserve_messages(&mut self, additional: usize) {
        let _ = additional;
    }

    /// Total bits recorded under `label` (0 for unseen labels).
    fn bits_for_label(&self, label: &str) -> u64;

    /// Bits spent on fault recovery — retransmitted requests, duplicate
    /// deliveries, and garbled responses — i.e. the rollup of the
    /// [`crate::fault::RETRANSMIT_LABEL`] label. Zero on fault-free
    /// runs.
    fn retransmit_bits(&self) -> u64 {
        self.bits_for_label(crate::fault::RETRANSMIT_LABEL)
    }
}

impl Recorder for Transcript {
    fn with_players(k: usize) -> Self {
        Transcript::new(k)
    }

    fn record(
        &mut self,
        player: Option<usize>,
        direction: Direction,
        bits: BitCost,
        label: &'static str,
    ) {
        Transcript::record(self, player, direction, bits, label);
    }

    fn next_round(&mut self) {
        Transcript::next_round(self);
    }

    fn round(&self) -> u64 {
        Transcript::round(self)
    }

    fn set_phase(&mut self, phase: &'static str) {
        Transcript::set_phase(self, phase);
    }

    fn current_phase(&self) -> &'static str {
        Transcript::current_phase(self)
    }

    fn total_bits(&self) -> BitCost {
        Transcript::total_bits(self)
    }

    fn stats(&self) -> CommStats {
        Transcript::stats(self)
    }

    fn absorb(&mut self, other: &Self) {
        Transcript::absorb(self, other);
    }

    fn reserve_messages(&mut self, additional: usize) {
        Transcript::reserve_events(self, additional);
    }

    fn bits_for_label(&self, label: &str) -> u64 {
        Transcript::bits_for_label(self, label)
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
        let mut total = BitCost(self.bits);
        total.accumulate(BitCost(bits));
        self.bits = total.get();
        self.messages += 1;
    }

    #[inline]
    fn merge(&mut self, other: Bucket) {
        let mut total = BitCost(self.bits);
        total.accumulate(BitCost(other.bits));
        self.bits = total.get();
        self.messages += other.messages;
    }
}

/// The counters-only recorder: every aggregate a [`CostReport`] or
/// rollup export needs, with no per-event allocation.
///
/// Phase and label buckets are linear-scanned `&'static str` tables —
/// protocols use a handful of each, so a scan beats hashing — and
/// per-player / per-round buckets are dense index-addressed vectors that
/// grow (amortized, outside the hot loop) to the largest index seen.
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
    /// Bits each player sent to the coordinator (index-capped at the
    /// player count given to [`Recorder::with_players`], exactly like
    /// [`Transcript::per_player_sent`]).
    pub fn per_player_sent(&self) -> &[u64] {
        &self.per_player_sent
    }

    /// Total bits charged to messages carrying the given label.
    pub fn bits_for_label(&self, label: &str) -> u64 {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, b)| b.bits)
            .unwrap_or(0)
    }

    /// Total bits charged under the given phase.
    pub fn bits_for_phase(&self, phase: &str) -> u64 {
        self.by_phase
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, b)| b.bits)
            .unwrap_or(0)
    }

    /// Per-label totals, sorted by descending bits — identical to
    /// [`Transcript::breakdown`] over the same events.
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

    /// Bits and messages per phase, sorted by descending bits then key —
    /// identical to [`Transcript::by_phase`] over the same events.
    pub fn by_phase(&self) -> Vec<Rollup> {
        let mut out: Vec<Rollup> = self
            .by_phase
            .iter()
            .map(|(phase, b)| Rollup {
                key: (*phase).to_string(),
                bits: b.bits,
                messages: b.messages,
            })
            .collect();
        out.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.key.cmp(&b.key)));
        out
    }

    /// Bits and messages per involved party (`player-j` in index order,
    /// then `broadcast`) — identical to [`Transcript::by_player`].
    pub fn by_player(&self) -> Vec<Rollup> {
        let mut out: Vec<Rollup> = self
            .by_player
            .iter()
            .enumerate()
            .filter(|(_, b)| b.messages > 0)
            .map(|(j, b)| Rollup {
                key: format!("player-{j}"),
                bits: b.bits,
                messages: b.messages,
            })
            .collect();
        if self.broadcast.messages > 0 {
            out.push(Rollup {
                key: "broadcast".to_string(),
                bits: self.broadcast.bits,
                messages: self.broadcast.messages,
            });
        }
        out
    }

    /// Bits and messages per round, in round order — identical to
    /// [`Transcript::by_round`].
    pub fn by_round(&self) -> Vec<Rollup> {
        self.by_round
            .iter()
            .enumerate()
            .filter(|(_, b)| b.messages > 0)
            .map(|(r, b)| Rollup {
                key: format!("round-{r}"),
                bits: b.bits,
                messages: b.messages,
            })
            .collect()
    }

    /// Bits and messages per [`Direction`], in declaration order —
    /// identical to [`Transcript::by_direction`].
    pub fn by_direction(&self) -> Vec<Rollup> {
        [
            Direction::ToPlayer,
            Direction::ToCoordinator,
            Direction::Broadcast,
        ]
        .into_iter()
        .filter(|d| self.by_direction[*d as u8 as usize].messages > 0)
        .map(|d| {
            let b = self.by_direction[d as u8 as usize];
            Rollup {
                key: d.as_str().to_string(),
                bits: b.bits,
                messages: b.messages,
            }
        })
        .collect()
    }

    #[inline]
    fn phase_bucket(&mut self) -> &mut Bucket {
        let phase = self.current_phase;
        // Linear probe over a handful of phases; hit is almost always
        // the most recent entry's neighborhood.
        match self.by_phase.iter().position(|(p, _)| *p == phase) {
            Some(i) => &mut self.by_phase[i].1,
            None => {
                self.by_phase.push((phase, Bucket::default()));
                &mut self.by_phase.last_mut().expect("just pushed").1
            }
        }
    }

    #[inline]
    fn label_bucket(&mut self, label: &'static str) -> &mut Bucket {
        match self.by_label.iter().position(|(l, _)| *l == label) {
            Some(i) => &mut self.by_label[i].1,
            None => {
                self.by_label.push((label, Bucket::default()));
                &mut self.by_label.last_mut().expect("just pushed").1
            }
        }
    }

    /// True when no message has been recorded and no round advanced —
    /// the same pristine predicate [`Transcript::absorb`] uses.
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
        self.phase_bucket().add(raw);
        self.label_bucket(label).add(raw);
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

    fn round(&self) -> u64 {
        self.round
    }

    fn set_phase(&mut self, phase: &'static str) {
        self.current_phase = phase;
    }

    fn current_phase(&self) -> &'static str {
        self.current_phase
    }

    fn total_bits(&self) -> BitCost {
        self.total
    }

    fn stats(&self) -> CommStats {
        CommStats {
            total_bits: self.total.get(),
            rounds: self.round + 1,
            messages: self.messages,
            max_player_sent_bits: self.per_player_sent.iter().copied().max().unwrap_or(0),
        }
    }

    fn bits_for_label(&self, label: &str) -> u64 {
        Tally::bits_for_label(self, label)
    }

    fn absorb(&mut self, other: &Self) {
        if other.is_pristine() {
            // Mirror Transcript::absorb: a pristine operand only widens
            // the per-player table, so the operation stays associative.
            if self.per_player_sent.len() < other.per_player_sent.len() {
                self.per_player_sent.resize(other.per_player_sent.len(), 0);
            }
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
        if self.per_player_sent.len() < other.per_player_sent.len() {
            self.per_player_sent.resize(other.per_player_sent.len(), 0);
        }
        for (slot, sent) in self.per_player_sent.iter_mut().zip(&other.per_player_sent) {
            *slot += sent;
        }
        for (phase, b) in &other.by_phase {
            self.current_phase = phase;
            self.phase_bucket().merge(*b);
        }
        self.current_phase = other.current_phase;
        for (label, b) in &other.by_label {
            self.label_bucket(label).merge(*b);
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

    /// Drives both recorders through the same script and asserts every
    /// aggregate matches.
    fn assert_matches(t: &Transcript, y: &Tally) {
        assert_eq!(y.total_bits(), t.total_bits());
        assert_eq!(y.stats(), t.stats());
        assert_eq!(Recorder::round(y), Recorder::round(t));
        assert_eq!(y.per_player_sent(), t.per_player_sent());
        assert_eq!(y.by_phase(), t.by_phase());
        assert_eq!(y.by_player(), t.by_player());
        assert_eq!(y.by_round(), t.by_round());
        assert_eq!(y.by_direction(), t.by_direction());
        assert_eq!(y.breakdown(), t.breakdown());
    }

    fn script<R: Recorder>(r: &mut R) {
        r.set_phase("sample");
        r.record(Some(0), Direction::ToPlayer, BitCost(4), "req");
        r.record(Some(0), Direction::ToCoordinator, BitCost(9), "resp");
        r.next_round();
        r.set_phase("verify");
        r.record(Some(2), Direction::ToCoordinator, BitCost(6), "resp");
        r.record(None, Direction::Broadcast, BitCost(11), "post");
        // An out-of-range player index: counted in the by-player rollup
        // but (like Transcript) not in per_player_sent.
        r.record(Some(7), Direction::ToCoordinator, BitCost(2), "stray");
    }

    fn pair() -> (Transcript, Tally) {
        let mut t = Transcript::with_players(3);
        let mut y = Tally::with_players(3);
        script(&mut t);
        script(&mut y);
        (t, y)
    }

    #[test]
    fn tally_matches_transcript_rollups() {
        let (t, y) = pair();
        assert_matches(&t, &y);
        assert_eq!(y.bits_for_label("resp"), t.bits_for_label("resp"));
        assert_eq!(y.bits_for_label("absent"), 0);
        assert_eq!(y.bits_for_phase("sample"), t.bits_for_phase("sample"));
        assert_eq!(y.bits_for_phase("absent"), 0);
    }

    #[test]
    fn absorb_matches_transcript_absorb() {
        let (mut t, mut y) = pair();
        let (t2, y2) = pair();
        t.absorb(&t2);
        y.absorb(&y2);
        assert_matches(&t, &y);
        // Absorbing into pristine keeps round numbering, as Transcript does.
        let mut t0 = Transcript::with_players(0);
        let mut y0 = Tally::with_players(0);
        t0.absorb(&t2);
        y0.absorb(&y2);
        assert_matches(&t0, &y0);
    }

    #[test]
    fn pristine_absorb_is_a_no_op() {
        let (mut t, mut y) = pair();
        t.absorb(&Transcript::with_players(5));
        y.absorb(&Tally::with_players(5));
        assert_matches(&t, &y);
        assert_eq!(y.per_player_sent().len(), 5, "player table widened");
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
    }
}
