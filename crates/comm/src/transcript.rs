//! Transcript recording and structured export.
//!
//! A [`Transcript`] is the ordered record of every message one protocol
//! run exchanged: the raw [`Event`] log over an embedded [`Tally`]. It
//! offers:
//!
//! * rollups — [`by_phase`](Tally::by_phase),
//!   [`by_player`](Tally::by_player), [`by_round`](Tally::by_round) and
//!   [`by_direction`](Tally::by_direction) of its
//!   [`tally`](Recorder::tally), each a partition of the event log whose
//!   bit totals sum exactly to [`total_bits`](Recorder::total_bits),
//! * export — the event log as one JSON array
//!   ([`write_events_json`](Transcript::write_events_json)), the format
//!   of `triad report --transcript`,
//! * parsing — [`parse_events_json`] reads the exported events back as
//!   [`OwnedEvent`]s, so external tooling (and the round-trip tests)
//!   never have to guess the schema.
//!
//! The JSON schema is documented in `docs/OBSERVABILITY.md`.

use crate::bits::BitCost;
use crate::recorder::{Recorder, Tally};
use serde::Serialize;

/// The phase events carry when no explicit phase scope is active.
pub const DEFAULT_PHASE: &str = "unphased";

/// The phase registry: every phase name a charge may carry, as the
/// table in `docs/OBSERVABILITY.md` lists them. A decoded
/// `SimResponse` maps each phase onto its entry here and is rejected
/// for a name outside it.
pub const PHASES: [&str; 13] = [
    "estimate-degree",
    "find-candidates",
    "approx-degree",
    "sample-edges",
    "close-triangle",
    "newman-conversion",
    "induced-sample",
    "r-cross-edges",
    "oblivious-high-guess",
    "oblivious-low-guess",
    "send-everything",
    DEFAULT_PHASE,
    crate::fault::RETRANSMIT_LABEL,
];

/// Direction of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Direction {
    /// Coordinator → one player.
    ToPlayer,
    /// Player → coordinator.
    ToCoordinator,
    /// Coordinator → all players (cost model dependent).
    Broadcast,
}

impl Direction {
    /// The stable export name (`to_player`, `to_coordinator`, `broadcast`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::ToPlayer => "to_player",
            Direction::ToCoordinator => "to_coordinator",
            Direction::Broadcast => "broadcast",
        }
    }

    /// Parses an export name written by [`Direction::as_str`].
    pub fn from_export_name(s: &str) -> Option<Direction> {
        match s {
            "to_player" => Some(Direction::ToPlayer),
            "to_coordinator" => Some(Direction::ToCoordinator),
            "broadcast" => Some(Direction::Broadcast),
            _ => None,
        }
    }
}

/// One recorded message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Event {
    /// Communication round index.
    pub round: u64,
    /// The player involved (`None` for broadcast bookkeeping).
    pub player: Option<usize>,
    /// Direction of the message.
    pub direction: Direction,
    /// Bits charged for this message.
    pub bits: u64,
    /// The protocol phase active when the message was recorded (see the
    /// phase-name registry in `docs/OBSERVABILITY.md`).
    pub phase: &'static str,
    /// A short message-kind label, for debugging and per-label breakdowns.
    pub label: &'static str,
}

/// The ordered record of every message exchanged in one protocol run:
/// the [`Event`] log over an embedded [`Tally`] that every charge also
/// goes through. Totals, statistics and rollups are read from
/// [`tally`](Recorder::tally).
///
/// # Example
///
/// ```
/// use triad_comm::{BitCost, Direction, Recorder, Transcript};
///
/// let mut t = Transcript::new(2);
/// t.set_phase("sample-edges");
/// t.record(Some(0), Direction::ToCoordinator, BitCost(10), "edges");
/// t.set_phase("close-triangle");
/// t.record(Some(1), Direction::ToCoordinator, BitCost(5), "bit");
///
/// let phases = t.tally().by_phase();
/// let total: u64 = phases.iter().map(|r| r.bits).sum();
/// assert_eq!(total, t.total_bits().get());
///
/// let mut json = Vec::new();
/// t.write_events_json(&mut json).unwrap();
/// let parsed = triad_comm::parse_events_json(std::str::from_utf8(&json).unwrap()).unwrap();
/// assert_eq!(parsed.len(), 2);
/// assert_eq!(parsed[0].phase, "sample-edges");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    events: Vec<Event>,
    tally: Tally,
}

impl Transcript {
    /// An empty transcript for `k` players.
    pub fn new(k: usize) -> Self {
        Transcript {
            events: Vec::new(),
            tally: Tally::with_players(k),
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Serializes the event log as one JSON array. Readable back with
    /// [`parse_events_json`], which accepts only registered phases, so
    /// the writer refuses what the reader would.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`], before anything is written,
    /// naming the first event recorded under a phase outside [`PHASES`];
    /// otherwise propagates writer failures.
    pub fn write_events_json<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        if let Some((i, e)) = self
            .events
            .iter()
            .enumerate()
            .find(|(_, e)| !PHASES.contains(&e.phase))
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("event {i} has phase {:?}, which is not registered", e.phase),
            ));
        }
        write_event_lines(
            w,
            self.events
                .iter()
                .map(|e| event_line(e.round, e.player, e.direction, e.bits, e.phase, e.label)),
        )
    }
}

/// One event's export object.
fn event_line(
    round: u64,
    player: Option<usize>,
    direction: Direction,
    bits: u64,
    phase: &str,
    label: &str,
) -> String {
    let player = match player {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"round\":{round},\"player\":{player},\"direction\":\"{}\",\"bits\":{bits},\
         \"phase\":\"{phase}\",\"label\":\"{label}\"}}",
        direction.as_str(),
    )
}

/// The export array: one event object per line.
fn write_event_lines<W: std::io::Write>(
    mut w: W,
    lines: impl ExactSizeIterator<Item = String>,
) -> std::io::Result<()> {
    writeln!(w, "[")?;
    let count = lines.len();
    for (i, line) in lines.enumerate() {
        let sep = if i + 1 < count { "," } else { "" };
        writeln!(w, "  {line}{sep}")?;
    }
    writeln!(w, "]")
}

/// The text [`Transcript::write_events_json`] writes for `events`: the
/// inverse of [`parse_events_json`].
pub fn encode_events_json(events: &[OwnedEvent]) -> String {
    let mut out = Vec::new();
    write_event_lines(
        &mut out,
        events
            .iter()
            .map(|e| event_line(e.round, e.player, e.direction, e.bits, &e.phase, &e.label)),
    )
    .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the export of UTF-8 fields is UTF-8")
}

impl Recorder for Transcript {
    fn with_players(k: usize) -> Self {
        Transcript::new(k)
    }

    /// Stamps the event with the tally's round and phase, then charges
    /// the tally.
    fn record(
        &mut self,
        player: Option<usize>,
        direction: Direction,
        bits: BitCost,
        label: &'static str,
    ) {
        self.events.push(Event {
            round: self.tally.round(),
            player,
            direction,
            bits: bits.get(),
            phase: self.tally.current_phase(),
            label,
        });
        self.tally.record(player, direction, bits, label);
    }

    fn next_round(&mut self) {
        self.tally.next_round();
    }

    fn set_phase(&mut self, phase: &'static str) {
        self.tally.set_phase(phase);
    }

    /// Absorbs the other tally, then appends the other log with its
    /// rounds shifted to where the tally put them: the other's last
    /// round is now this one's last round.
    fn absorb(&mut self, other: &Self) {
        self.tally.absorb(&other.tally);
        let offset = self.tally.round() - other.tally.round();
        self.events.extend(other.events.iter().map(|e| Event {
            round: e.round + offset,
            ..*e
        }));
    }

    fn reserve_messages(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }
}

/// One row of a transcript rollup: an aggregation key with its totals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Rollup {
    /// The aggregation key (a phase name, `player-j`, `round-i`, or a
    /// direction name).
    pub key: String,
    /// Total bits across the group's events.
    pub bits: u64,
    /// Number of events in the group.
    pub messages: u64,
}

/// Aggregate totals for one transcript label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LabelTotals {
    /// The message-kind label.
    pub label: &'static str,
    /// Total bits across the label's events.
    pub bits: u64,
    /// Number of events.
    pub messages: u64,
}

/// Summary statistics of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CommStats {
    /// Total bits exchanged (the paper's `CC(Π)` sample).
    pub total_bits: u64,
    /// Number of communication rounds used.
    pub rounds: u64,
    /// Number of messages exchanged.
    pub messages: u64,
    /// The largest number of bits any single player sent — the quantity
    /// capped by the simultaneous protocols' per-player budgets.
    pub max_player_sent_bits: u64,
}

impl CommStats {
    /// Merges two runs (summing totals, taking max of maxima).
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            total_bits: self.total_bits + other.total_bits,
            rounds: self.rounds.max(other.rounds),
            messages: self.messages + other.messages,
            max_player_sent_bits: self.max_player_sent_bits.max(other.max_player_sent_bits),
        }
    }
}

/// An [`Event`] read back from an export, with owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Communication round index.
    pub round: u64,
    /// The player involved (`None` for broadcast bookkeeping).
    pub player: Option<usize>,
    /// Direction of the message.
    pub direction: Direction,
    /// Bits charged for this message.
    pub bits: u64,
    /// The protocol phase the message was recorded under.
    pub phase: String,
    /// The message-kind label.
    pub label: String,
}

/// Failure to parse an exported transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with enough context to locate the input.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transcript parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

/// Parses one flat JSON object (no nesting, no string escapes — the
/// grammar the event writer emits) into key/value pairs borrowed from
/// `obj`; string values are returned unquoted.
fn parse_flat_object(obj: &str) -> Result<Vec<(&str, &str)>, ParseError> {
    let inner = obj
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| parse_err(format!("expected an object, got `{obj}`")))?;
    let mut pairs = Vec::new();
    for field in inner.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| parse_err(format!("expected `key:value`, got `{field}`")))?;
        let value = value.trim();
        if value.contains('\\') {
            return Err(parse_err(format!(
                "escape sequences unsupported in `{value}`"
            )));
        }
        pairs.push((key.trim().trim_matches('"'), value.trim_matches('"')));
    }
    Ok(pairs)
}

fn event_from_pairs(pairs: &[(&str, &str)]) -> Result<OwnedEvent, ParseError> {
    let get = |key: &str| -> Result<&str, ParseError> {
        pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| parse_err(format!("missing field `{key}`")))
    };
    let round = get("round")?
        .parse()
        .map_err(|_| parse_err("round is not an integer"))?;
    let player = match get("player")? {
        "null" => None,
        p => Some(p.parse().map_err(|_| parse_err("player is not an index"))?),
    };
    let direction_name = get("direction")?;
    let direction = Direction::from_export_name(direction_name)
        .ok_or_else(|| parse_err(format!("unknown direction `{direction_name}`")))?;
    let bits = get("bits")?
        .parse()
        .map_err(|_| parse_err("bits is not an integer"))?;
    let phase = get("phase")?;
    if !PHASES.contains(&phase) {
        return Err(parse_err(format!("unregistered phase `{phase}`")));
    }
    Ok(OwnedEvent {
        round,
        player,
        direction,
        bits,
        phase: phase.to_string(),
        label: get("label")?.to_string(),
    })
}

/// Parses the output of [`Transcript::write_events_json`], one event
/// object per line, and accepts nothing else: the text must be byte for
/// byte what [`encode_events_json`] writes for the events read from it.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, a missing field or a phase
/// outside [`PHASES`], and on any text the writer would not write: a
/// quoted number, an unknown or repeated key, other spacing, field order
/// or number spelling.
pub fn parse_events_json(text: &str) -> Result<Vec<OwnedEvent>, ParseError> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        out.push(event_from_pairs(&parse_flat_object(line)?)?);
    }
    if encode_events_json(&out) != text {
        return Err(parse_err(
            "not the export of the events it holds (a quoted number, an unknown or repeated \
             key, or other spacing, field order or number spelling)",
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_phase_registry_matches_the_observability_table() {
        // The registry table of docs/OBSERVABILITY.md: the rows between
        // its header and the first line that is not a table row.
        let md = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md"),
        )
        .expect("docs/OBSERVABILITY.md in the repository");
        let documented: Vec<&str> = md
            .lines()
            .skip_while(|l| !l.starts_with("| phase | protocol | meaning |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cell = l.split('|').nth(1).expect("a table row has cells").trim();
                cell.trim_matches('`')
            })
            .collect();
        assert_eq!(documented, PHASES);
    }

    #[test]
    fn records_totals_and_per_player() {
        let mut t = Transcript::new(3);
        t.record(Some(0), Direction::ToCoordinator, BitCost(10), "a");
        t.record(Some(0), Direction::ToPlayer, BitCost(5), "a");
        t.next_round();
        t.record(Some(2), Direction::ToCoordinator, BitCost(7), "b");
        assert_eq!(t.total_bits(), BitCost(22));
        assert_eq!(t.tally().per_player_sent(), &[10, 0, 7]);
        let s = t.stats();
        assert_eq!(s.total_bits, 22);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.messages, 3);
        assert_eq!(s.max_player_sent_bits, 10);
        assert_eq!(t.bits_for_label("a"), 15);
        assert_eq!(t.bits_for_label("b"), 7);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn broadcast_counts_toward_total_only() {
        let mut t = Transcript::new(2);
        t.record(None, Direction::Broadcast, BitCost(100), "bc");
        assert_eq!(t.total_bits(), BitCost(100));
        assert_eq!(t.tally().per_player_sent(), &[0, 0]);
    }

    #[test]
    fn merged_stats() {
        let a = CommStats {
            total_bits: 10,
            rounds: 2,
            messages: 3,
            max_player_sent_bits: 6,
        };
        let b = CommStats {
            total_bits: 5,
            rounds: 4,
            messages: 1,
            max_player_sent_bits: 2,
        };
        let m = a.merged(b);
        assert_eq!(m.total_bits, 15);
        assert_eq!(m.rounds, 4);
        assert_eq!(m.messages, 4);
        assert_eq!(m.max_player_sent_bits, 6);
    }

    fn phased_transcript() -> Transcript {
        let mut t = Transcript::new(3);
        t.set_phase("sample-edges");
        t.record(Some(0), Direction::ToPlayer, BitCost(4), "req");
        t.record(Some(0), Direction::ToCoordinator, BitCost(9), "resp");
        t.next_round();
        t.set_phase("close-triangle");
        t.record(Some(2), Direction::ToCoordinator, BitCost(6), "resp");
        t.record(None, Direction::Broadcast, BitCost(11), "post");
        t
    }

    #[test]
    fn phases_default_and_scope() {
        let mut t = Transcript::new(1);
        t.record(Some(0), Direction::ToPlayer, BitCost(1), "x");
        assert_eq!(t.events()[0].phase, DEFAULT_PHASE);
        t.set_phase("p");
        assert_eq!(t.current_phase(), "p");
        t.record(Some(0), Direction::ToPlayer, BitCost(1), "x");
        assert_eq!(t.events()[1].phase, "p");
    }

    #[test]
    fn every_rollup_partitions_the_total() {
        let t = phased_transcript();
        let total = t.total_bits().get();
        let y = t.tally();
        for rollup in [y.by_phase(), y.by_player(), y.by_round(), y.by_direction()] {
            assert_eq!(rollup.iter().map(|r| r.bits).sum::<u64>(), total);
            assert_eq!(
                rollup.iter().map(|r| r.messages).sum::<u64>(),
                t.events().len() as u64
            );
        }
    }

    #[test]
    fn rollup_keys_and_order() {
        let transcript = phased_transcript();
        let t = transcript.tally();
        let phases: Vec<String> = t.by_phase().into_iter().map(|r| r.key).collect();
        assert_eq!(
            phases,
            ["close-triangle", "sample-edges"],
            "descending bits"
        );
        let players: Vec<String> = t.by_player().into_iter().map(|r| r.key).collect();
        assert_eq!(players, ["player-0", "player-2", "broadcast"]);
        let rounds: Vec<String> = t.by_round().into_iter().map(|r| r.key).collect();
        assert_eq!(rounds, ["round-0", "round-1"]);
        let dirs: Vec<String> = t.by_direction().into_iter().map(|r| r.key).collect();
        assert_eq!(dirs, ["to_player", "to_coordinator", "broadcast"]);
        assert_eq!(t.bits_for_phase("sample-edges"), 13);
        assert_eq!(t.bits_for_phase("close-triangle"), 17);
    }

    #[test]
    fn json_round_trip() {
        let t = phased_transcript();
        let mut buf = Vec::new();
        t.write_events_json(&mut buf).unwrap();
        let parsed = parse_events_json(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed.len(), t.events().len());
        for (p, e) in parsed.iter().zip(t.events()) {
            assert_eq!(p.round, e.round);
            assert_eq!(p.player, e.player);
            assert_eq!(p.direction, e.direction);
            assert_eq!(p.bits, e.bits);
            assert_eq!(p.phase, e.phase);
            assert_eq!(p.label, e.label);
        }
    }

    #[test]
    fn the_writer_refuses_an_unregistered_phase_and_every_registered_one_round_trips() {
        let mut t = Transcript::new(2);
        for (i, phase) in PHASES.iter().enumerate() {
            t.set_phase(phase);
            t.record(Some(i % 2), Direction::ToPlayer, BitCost(i as u64), "req");
            t.next_round();
        }
        let mut buf = Vec::new();
        t.write_events_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_events_json(&text).unwrap();
        let phases: Vec<&str> = parsed.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases, PHASES);

        t.set_phase("made up");
        t.record(None, Direction::Broadcast, BitCost(1), "req");
        let mut out = Vec::new();
        let err = t.write_events_json(&mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!(
                "event {} has phase \"made up\", which is not registered",
                PHASES.len()
            )
        );
        assert!(out.is_empty(), "nothing is written");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_events_json("not json").is_err());
        assert!(
            parse_events_json("{\"round\":1}").is_err(),
            "missing fields"
        );
        assert!(
            parse_events_json(
                "{\"round\":0,\"player\":0,\"direction\":\"sideways\",\"bits\":1,\
                 \"phase\":\"p\",\"label\":\"l\"}"
            )
            .is_err(),
            "unknown direction"
        );
    }

    #[test]
    fn parse_accepts_only_what_the_writer_writes() {
        let mut buf = Vec::new();
        phased_transcript().write_events_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let events = parse_events_json(&text).unwrap();
        assert_eq!(encode_events_json(&events), text);
        let line = "{\"round\":0,\"player\":0,\"direction\":\"to_player\",\"bits\":4,\
                    \"phase\":\"sample-edges\",\"label\":\"req\"}";
        let alone = |line: &str| format!("[\n  {line}\n]\n");
        assert!(parse_events_json(&alone(line)).is_ok());
        for (bad, why) in [
            (
                line.replace("\"bits\":4", "\"bits\":\"4\""),
                "quoted number",
            ),
            (
                line.replace("\"round\":0", "\"round\":\"0\""),
                "quoted round",
            ),
            (
                line.replace("\"player\":0", "\"player\":\"0\""),
                "quoted player",
            ),
            (line.replace("{", "{\"extra\":1,"), "unknown key"),
            (line.replace("{", "{\"bits\":4,"), "repeated key"),
            (
                line.replace("sample-edges", "made up"),
                "unregistered phase",
            ),
            (line.replace("\"bits\":4", "\"bits\":04"), "leading zero"),
            (line.replace("\"bits\":4", "\"bits\":+4"), "plus sign"),
            (line.replace(",\"bits\"", ", \"bits\""), "extra space"),
            (line.replace("to_player", "\"to_player\""), "doubled quotes"),
        ] {
            let err = parse_events_json(&alone(&bad)).expect_err(why);
            assert!(!err.message.is_empty(), "{why}");
        }
        for framing in [
            format!("[\n  {line},\n]\n"),
            format!("[\n{line}\n]\n"),
            format!("[\n  {line}\n]"),
            format!("  {line}\n"),
            format!("[\n\n  {line}\n]\n"),
        ] {
            assert!(parse_events_json(&framing).is_err(), "{framing:?}");
        }
    }

    #[test]
    fn absorb_concatenates_rounds_and_totals() {
        let mut a = phased_transcript();
        let b = phased_transcript();
        let total = a.total_bits() + b.total_bits();
        a.absorb(&b);
        assert_eq!(a.total_bits(), total);
        assert_eq!(a.round(), 3, "rounds 0..=1 then 2..=3");
        assert_eq!(a.events().len(), 8);
        assert_eq!(
            a.events()[4].round,
            2,
            "absorbed events start a fresh round"
        );
        assert_eq!(a.tally().per_player_sent(), &[18, 0, 12]);
        let mut empty = Transcript::new(3);
        empty.absorb(&b);
        assert_eq!(
            empty.round(),
            1,
            "absorbing into empty keeps round numbering"
        );
        assert_eq!(empty.total_bits(), b.total_bits());
    }

    #[test]
    fn absorbing_a_pristine_transcript_is_a_no_op() {
        let mut a = phased_transcript();
        let before_round = a.round();
        let before_events = a.events().len();
        let before_total = a.total_bits();
        a.absorb(&Transcript::new(3));
        assert_eq!(a.round(), before_round, "no phantom round added");
        assert_eq!(a.events().len(), before_events);
        assert_eq!(a.total_bits(), before_total);
        // Associativity witness: (a ⊕ empty) ⊕ b == a ⊕ (empty ⊕ b).
        let b = phased_transcript();
        let mut left = phased_transcript();
        left.absorb(&Transcript::new(3));
        left.absorb(&b);
        let mut mid = Transcript::new(3);
        mid.absorb(&b);
        let mut right = phased_transcript();
        right.absorb(&mid);
        assert_eq!(left.round(), right.round());
        assert_eq!(left.events(), right.events());
        assert_eq!(left.tally(), right.tally());
    }
}
