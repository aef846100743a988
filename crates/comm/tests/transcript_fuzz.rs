//! Adversarial input for the transcript importer: a seeded mutation
//! fuzzer over `parse_events_json`, the reader of `triad report
//! --transcript` files, and the allocation bound it checks, measured by
//! a counting global allocator in this test binary.
//!
//! Every case starts from the `write_events_json` output of a generated
//! transcript and applies one to three mutations: byte flips to the
//! format's structural characters, truncation, deleted and duplicated
//! ranges, lines spliced in from another transcript, numbers replaced
//! by out-of-range values, runs of empty fields, removed fields and
//! multi-byte characters. Four invariants must hold:
//!
//! 1. parsing never panics;
//! 2. its peak allocation stays within [`bound`], a fixed multiple of
//!    the input length;
//! 3. every unmutated transcript parses back to exactly its events;
//! 4. every accepted text re-encodes to itself byte for byte, so the
//!    parser accepts only what `write_events_json` writes.
//!
//! A failure names the case's seed; `check_case(seed)` replays it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use triad_comm::{
    encode_events_json, mix64, parse_events_json, BitCost, Direction, OwnedEvent, Recorder,
    Transcript, PHASES,
};

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;
use fuzz::{peak_of, Rng};

/// What parsing may allocate per input byte. A line's fields are
/// borrowed `(key, value)` pairs of 32 bytes, and a field takes at least
/// two bytes (`:` and `,`), so with vector growth a line may hold 32
/// bytes of pairs per byte; the events already parsed add their own
/// strings and slots, and the form check re-encodes them into a text
/// about as long as the input.
const PER_BYTE: usize = 40;
/// Fixed allowance: the first slots of the event and pair vectors, and
/// error strings.
const SLACK: usize = 4 << 10;

/// The allocation bound for parsing `len` bytes.
fn bound(len: usize) -> usize {
    PER_BYTE * len + SLACK
}

const LABELS: [&str; 5] = [
    "suspect_sample",
    "find_closing",
    "edges",
    "bit",
    "retransmit",
];

/// A transcript of up to `max_events` events drawn from `seed`: every
/// direction, broadcast postings, several rounds, registered phases and
/// bit counts up to 2⁵⁶, so that the total of a hundred still fits.
fn transcript(seed: u64, max_events: usize) -> Transcript {
    let mut rng = Rng(seed);
    let k = 1 + rng.below(6);
    let mut t = Transcript::new(k);
    for _ in 0..rng.below(max_events + 1) {
        match rng.below(8) {
            0 => t.next_round(),
            1 => t.set_phase(PHASES[rng.below(PHASES.len())]),
            _ => {}
        }
        let bits = match rng.below(4) {
            0 => u64::MAX >> 8,
            1 => 0,
            _ => rng.next() % 100_000,
        };
        let label = LABELS[rng.below(LABELS.len())];
        match rng.below(3) {
            0 => t.record(None, Direction::Broadcast, BitCost(bits), label),
            1 => t.record(
                Some(rng.below(k)),
                Direction::ToPlayer,
                BitCost(bits),
                label,
            ),
            _ => t.record(
                Some(rng.below(k)),
                Direction::ToCoordinator,
                BitCost(bits),
                label,
            ),
        }
    }
    t
}

/// The `write_events_json` text of `t`.
fn export(t: &Transcript) -> String {
    let mut buf = Vec::new();
    t.write_events_json(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Whether `parsed` holds exactly the events of `t`.
fn same_events(parsed: &[OwnedEvent], t: &Transcript) -> bool {
    parsed.len() == t.events().len()
        && parsed.iter().zip(t.events()).all(|(p, e)| {
            p.round == e.round
                && p.player == e.player
                && p.direction == e.direction
                && p.bits == e.bits
                && p.phase == e.phase
                && p.label == e.label
        })
}

/// The seeds the mutations start from: an empty transcript and
/// transcripts of a few to a hundred events.
fn corpus() -> Vec<Vec<u8>> {
    [(1, 0), (2, 3), (3, 12), (4, 40), (5, 100)]
        .iter()
        .map(|&(seed, max_events)| export(&transcript(seed, max_events)).into_bytes())
        .collect()
}

/// A value a number field should never hold, or one next to it.
fn odd_number(rng: &mut Rng) -> &'static str {
    const NUMBERS: [&str; 8] = [
        "18446744073709551616",
        "-1",
        "0x10",
        "1e9",
        "",
        "99999999999999999999999999",
        "+7",
        "3.5",
    ];
    NUMBERS[rng.below(NUMBERS.len())]
}

/// One fuzz case: a corpus text with one to three mutations, made valid
/// UTF-8 again as a reader of the file would require.
fn case(seed: u64, corpus: &[Vec<u8>]) -> String {
    const STRUCTURE: &[u8] = b"{}[]:,\"\\\n 0123456789-";
    let mut rng = Rng(seed);
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        let at = rng.below(len + 1);
        match rng.below(9) {
            0 if len > 0 => {
                bytes[at.min(len - 1)] = STRUCTURE[rng.below(STRUCTURE.len())];
            }
            1 => bytes.truncate(at),
            2 => {
                let end = (at + rng.below(64)).min(len);
                bytes.drain(at..end);
            }
            3 => {
                // Duplicate a range in place.
                let end = (at + rng.below(256)).min(len);
                let chunk = bytes[at..end].to_vec();
                bytes.splice(at..at, chunk);
            }
            4 => {
                // Splice the lines of another transcript in.
                let other = &corpus[rng.below(corpus.len())];
                let from = rng.below(other.len() + 1);
                let to = (from + rng.below(512)).min(other.len());
                bytes.splice(at..at, other[from..to].iter().copied());
            }
            5 => {
                // Replace the digits after some `:` with an odd number.
                if let Some(colon) = bytes[at..].iter().position(|&b| b == b':') {
                    let start = at + colon + 1;
                    let end = bytes[start..]
                        .iter()
                        .position(|b| !b.is_ascii_digit())
                        .map_or(bytes.len(), |n| start + n);
                    bytes.splice(start..end, odd_number(&mut rng).bytes());
                }
            }
            6 => {
                // A run of empty and key-only fields.
                let run = [",", ":", ",:", "\"\":\"\","][rng.below(4)].repeat(1 + rng.below(200));
                bytes.splice(at..at, run.into_bytes());
            }
            7 => {
                // Drop one field of some line.
                if let Some(comma) = bytes[at..].iter().position(|&b| b == b',') {
                    let start = at + comma;
                    let end = bytes[start + 1..]
                        .iter()
                        .position(|&b| b == b',' || b == b'}')
                        .map_or(bytes.len(), |n| start + 1 + n);
                    bytes.drain(start..end);
                }
            }
            _ => {
                let text = ["é", "\u{1D518}", "\u{0}", "\t", "\r\n"][rng.below(5)];
                bytes.splice(at..at, text.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses one case and checks invariants 1, 2 and 4, naming `seed` in
/// any failure. Returns the parsed events of an accepted text.
fn check(seed: u64, text: &str) -> Option<Vec<OwnedEvent>> {
    let replay = format!("replay with check_case({seed:#018x})");
    let limit = bound(text.len());
    let (parsed, peak) = peak_of(|| catch_unwind(AssertUnwindSafe(|| parse_events_json(text))));
    let parsed = parsed.unwrap_or_else(|_| {
        panic!("transcript fuzz case {seed:#018x}: the parser panicked; {replay}")
    });
    assert!(
        peak <= limit,
        "transcript fuzz case {seed:#018x}: parsing {} bytes allocated {peak} bytes, bound \
         {limit}; {replay}",
        text.len()
    );
    let parsed = parsed.ok()?;
    assert!(
        encode_events_json(&parsed) == text,
        "transcript fuzz case {seed:#018x}: an accepted text does not re-encode to itself; \
         {replay}"
    );
    Some(parsed)
}

/// Replays one fuzz case by its seed.
#[allow(dead_code)]
fn check_case(seed: u64) {
    check(seed, &case(seed, &corpus()));
}

/// Cases per `cargo test` run: a fixed budget, the same cases each run.
const ITERATIONS: u64 = 20_000;

#[test]
fn mutated_transcripts_never_panic_or_overallocate() {
    let corpus = corpus();
    let mut accepted = 0;
    for i in 0..ITERATIONS {
        let seed = mix64(0x5452_414E_5346_555A ^ i);
        accepted += usize::from(check(seed, &case(seed, &corpus)).is_some());
    }
    // Some mutations must leave the text readable, or the bound is
    // never checked on a successful parse.
    assert!(
        accepted > ITERATIONS as usize / 50,
        "only {accepted} mutated transcripts parsed"
    );
}

#[test]
fn unmutated_transcripts_parse_back_to_their_events() {
    for i in 0..500 {
        let seed = mix64(0x4556_454E_5453_0000 ^ i);
        let t = transcript(seed, 60);
        let text = export(&t);
        let parsed = check(seed, &text).unwrap_or_else(|| {
            panic!(
                "transcript {seed:#018x} does not parse; replay with transcript({seed:#018x}, 60)"
            )
        });
        assert!(
            same_events(&parsed, &t),
            "transcript {seed:#018x} parses to other events; replay with transcript({seed:#018x}, 60)"
        );
    }
}

#[test]
fn a_line_of_empty_fields_allocates_within_the_bound() {
    // The densest input for the pair table: one object of empty fields.
    for field in [":,", ":", "\"\":\"\","] {
        let text = format!("{{{}}}", field.repeat(50_000));
        assert!(
            check(0, &text).is_none(),
            "{field}: no event without fields"
        );
    }
}
