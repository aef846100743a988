//! Adversarial input for the wire decoder: a seeded mutation fuzzer and
//! the allocation bounds it checks, measured by a counting global
//! allocator in this test binary.
//!
//! Every case starts from one seed frame (a valid frame of some type,
//! or a `SimResponse` with an unregistered phase that must be
//! rejected), applies one to three mutations — bit flips, truncation,
//! inflated length and count fields, duplicated chunks and splices of
//! two frames — to the framed bytes (version, type and body), re-seals
//! them with a fresh length prefix and checksum so the mutation reaches
//! the body decoder, and decodes them with `read_frame`. Three
//! invariants must hold:
//!
//! 1. the decoder never panics;
//! 2. its peak allocation stays within [`bound`]: a fixed multiple of
//!    the frame length, plus one `MAX_BITSET_VERTICES`-row table for the
//!    frames that may carry bitsets. `SimResponse` is the recorded
//!    exception: each of its entries may declare a full-size bitset, so
//!    its bound is one table per entry the frame could hold;
//! 3. an accepted frame re-encodes to exactly the bytes it came from.
//!
//! A failure names the case's seed; `check_case(seed)` replays it.

use std::borrow::Cow;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use triad_comm::wire::{
    checksum_bytes, read_frame, write_frame, ErrorCode, ResumeClaim, Welcome, WireError,
    WireMessage, MAX_BITSET_VERTICES, MAX_FRAME_BYTES, WIRE_VERSION,
};
use triad_comm::{mix64, CostModel, Payload, PlayerRequest, SimMessage};
use triad_graph::kernels::EdgeBitset;
use triad_graph::{Edge, Triangle, VertexId};

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;
use fuzz::{peak_of, Rng};

/// What decoding may allocate per frame byte: the largest decoded item
/// per byte of input (a one-byte request or payload tag becomes one
/// enum slot), with room for vector growth.
const PER_BYTE: usize = 64;
/// Fixed allowance for small bookkeeping (error strings).
const SLACK: usize = 64 << 10;

/// The bytes of one `MAX_BITSET_VERTICES`-row table, measured.
fn row_table() -> usize {
    peak_of(|| EdgeBitset::new(MAX_BITSET_VERTICES as usize)).1
}

/// The allocation bound for a sealed frame of `len` bytes and frame
/// type `type_byte`.
fn bound(type_byte: u8, len: usize, table: usize) -> usize {
    let tables = match type_byte {
        // Response and BatchResponse: one bitset budget per frame.
        0x04 | 0x0C => 1,
        // SimResponse: one budget per entry; an entry that declares a
        // bitset costs at least a phase length, a tag, n and a row
        // count (13 bytes).
        0x06 => len / 13 + 1,
        _ => 0,
    };
    PER_BYTE * len + SLACK + tables * table
}

fn e(a: u32, b: u32) -> Edge {
    Edge::new(VertexId(a), VertexId(b))
}

/// One valid frame of every type. The batch frames carry every request
/// and every payload variant, sparse and dense bitset rows included.
fn corpus() -> Vec<WireMessage> {
    let requests = vec![
        PlayerRequest::HasEdge(e(0, 1)),
        PlayerRequest::FirstIncidentEdge {
            v: VertexId(3),
            perm_tag: 42,
        },
        PlayerRequest::FirstEdge { perm_tag: 7 },
        PlayerRequest::LocalDegree { v: VertexId(1) },
        PlayerRequest::LocalEdgeCount,
        PlayerRequest::EdgeCountMsb,
        PlayerRequest::GlobalSampleHit { tag: 9, p: 0.25 },
        PlayerRequest::DegreeMsb { v: VertexId(2) },
        PlayerRequest::DegreePrefix {
            v: VertexId(5),
            prefix_bits: 3,
        },
        PlayerRequest::SampleHit {
            v: VertexId(4),
            tag: 11,
            p: 0.5,
        },
        PlayerRequest::FirstSuspectInBucket {
            bucket: 2,
            k: 4,
            perm_tag: 13,
        },
        PlayerRequest::SuspectSample {
            bucket: 1,
            k: 3,
            perm_tag: 17,
            count: 6,
        },
        PlayerRequest::IncidentEdgesSampled {
            v: VertexId(6),
            tag: 19,
            p: 0.125,
            cap: 32,
        },
        PlayerRequest::FindClosingTriangle {
            edges: vec![e(0, 1), e(1, 2)],
        },
        PlayerRequest::InducedEdges {
            tag: 23,
            p: 0.75,
            cap: 64,
        },
        PlayerRequest::RsEdges {
            r_tag: 29,
            p_r: 0.1,
            s_tag: 31,
            p_s: 0.9,
            cap: 128,
        },
    ];
    // Row 0 is a hub (dense at n = 100), rows 2 and 5 stay sparse.
    let mut bitset = EdgeBitset::from_edges(100, (1..100u32).map(|v| e(0, v)));
    bitset.insert(e(2, 7));
    bitset.insert(e(5, 99));
    bitset.insert(e(5, 6));
    let payloads = vec![
        Payload::Empty,
        Payload::Bit(true),
        Payload::Bit(false),
        Payload::Bits(0b1011, 4),
        Payload::Count(123_456),
        Payload::Vertex(None),
        Payload::Vertex(Some(VertexId(7))),
        Payload::Vertices(vec![VertexId(1), VertexId(2)]),
        Payload::Edge(None),
        Payload::Edge(Some(e(3, 4))),
        Payload::Edges(vec![e(0, 1), e(2, 3)].into()),
        Payload::EdgeBits(Cow::Owned(bitset)),
        Payload::EdgeBits(Cow::Owned(EdgeBitset::new(5))),
        Payload::Triangle(None),
        Payload::Triangle(Some(Triangle::new(VertexId(0), VertexId(1), VertexId(2)))),
        Payload::Probability(0.375),
    ];
    let mut sim = SimMessage::empty();
    sim.push_phased(Payload::Edges(vec![e(0, 1)].into()), "induced-sample");
    sim.push_phased(
        Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(40, [e(1, 39)]))),
        "oblivious-high-guess",
    );
    vec![
        WireMessage::Hello {
            slot: Some(1),
            token: Some("s3cret".into()),
            resume: Some(ResumeClaim {
                slot: 2,
                nonce: 0xDEAD_5EED,
                last_acked: 17,
            }),
        },
        WireMessage::Welcome(Welcome {
            player: 2,
            k: 4,
            n: 1024,
            seed: 0xDEAD_BEEF,
            cost_model: CostModel::Blackboard,
            protocol: "low".into(),
            params: "eps=0.2 d=8".into(),
            resume_nonce: 0x5EED_D00D,
        }),
        WireMessage::Request {
            id: 3,
            req: PlayerRequest::FindClosingTriangle {
                edges: vec![e(0, 1), e(1, 2), e(4, 9)],
            },
        },
        WireMessage::Response {
            id: 3,
            payload: Payload::Vertices(vec![VertexId(8), VertexId(9)]),
        },
        WireMessage::SimRequest { id: 4 },
        WireMessage::SimResponse {
            id: 4,
            message: sim,
        },
        WireMessage::AdoptShared { seed: 77 },
        WireMessage::Ack,
        WireMessage::Error {
            code: ErrorCode::SlotAttached,
            reason: "slot 2 is still attached".into(),
        },
        WireMessage::Goodbye {
            summary: "accepted (no triangle found)".into(),
        },
        WireMessage::Batch {
            id: 5,
            reqs: requests,
        },
        WireMessage::BatchResponse { id: 5, payloads },
    ]
}

/// Well-formed frames the decoder must reject: a `SimResponse` whose
/// phase is outside the registry.
fn rejected() -> Vec<WireMessage> {
    let mut sim = SimMessage::empty();
    sim.push_phased(Payload::Bit(true), "induced-sample");
    sim.push_phased(Payload::Bit(false), "bitset-guess");
    vec![WireMessage::SimResponse {
        id: 6,
        message: sim,
    }]
}

/// The framed bytes of every seed the mutations start from.
fn seeds() -> Vec<Vec<u8>> {
    corpus().iter().chain(&rejected()).map(framed).collect()
}

/// The framed bytes of `msg`: version, type and body, without the
/// length prefix and checksum.
fn framed(msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).unwrap();
    buf[4..buf.len() - 8].to_vec()
}

/// Length prefix, `framed`, checksum: a frame `read_frame` will decode.
fn seal(framed: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(framed.len() + 12);
    out.extend_from_slice(&(framed.len() as u32).to_be_bytes());
    out.extend_from_slice(framed);
    out.extend_from_slice(&checksum_bytes(framed).to_be_bytes());
    out
}

/// Overwrites the big-endian `u32` at `at` with a value a length or
/// count field should never hold.
fn inflate(bytes: &mut [u8], at: usize, rng: &mut Rng) {
    let old = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
    let rest = (bytes.len() - at - 4) as u32;
    let value = match rng.below(7) {
        0 => u32::MAX,
        1 => rest,
        2 => rest + 1,
        3 => old.saturating_mul(2).saturating_add(1),
        4 => MAX_BITSET_VERTICES,
        5 => MAX_BITSET_VERTICES + 1,
        _ => rng.next() as u32,
    };
    bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
}

/// One fuzz case: a corpus frame, one to three mutations, re-sealed.
fn case(seed: u64, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..1 + rng.below(3) {
        match rng.below(6) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            2 if bytes.len() >= 4 => {
                // Prefer the plausible length and count fields: u32s no
                // larger than what follows them.
                let fields: Vec<usize> = (0..=bytes.len() - 4)
                    .filter(|&at| {
                        let v = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
                        v as usize <= bytes.len() - at - 4
                    })
                    .collect();
                let at = match fields.len() {
                    0 => rng.below(bytes.len() - 3),
                    n => fields[rng.below(n)],
                };
                inflate(&mut bytes, at, &mut rng);
            }
            3 if !bytes.is_empty() => {
                let from = rng.below(bytes.len());
                let to = from + rng.below(bytes.len() - from) + 1;
                let chunk = bytes[from..to].to_vec();
                let at = rng.below(bytes.len() + 1);
                bytes.splice(at..at, chunk);
            }
            4 => {
                let other = &corpus[rng.below(corpus.len())];
                let cut = rng.below(bytes.len() + 1);
                let from = rng.below(other.len() + 1);
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[from..]);
            }
            _ => {
                if let Some(b) = bytes.get_mut(1) {
                    // Any frame type, known or not.
                    *b = rng.below(16) as u8;
                }
            }
        }
    }
    seal(&bytes)
}

/// Decodes one case and checks the three invariants, naming `seed` in
/// any failure.
fn check(seed: u64, frame: &[u8], table: usize) -> bool {
    let type_byte = frame.get(5).copied().unwrap_or(0);
    let limit = bound(type_byte, frame.len(), table);
    let (decoded, peak) =
        peak_of(|| catch_unwind(AssertUnwindSafe(|| read_frame(&mut &frame[..]))));
    let decoded = decoded.unwrap_or_else(|_| {
        panic!("wire fuzz case {seed:#018x}: the decoder panicked; replay with check_case({seed:#018x})")
    });
    assert!(
        peak <= limit,
        "wire fuzz case {seed:#018x}: decoding a {}-byte frame of type {type_byte:#04x} allocated \
         {peak} bytes, bound {limit}; replay with check_case({seed:#018x})",
        frame.len()
    );
    match decoded {
        Ok(msg) => {
            let mut again = Vec::new();
            write_frame(&mut again, &msg).unwrap();
            assert!(
                again == frame,
                "wire fuzz case {seed:#018x}: an accepted {} frame re-encodes to different \
                 bytes; replay with check_case({seed:#018x})",
                msg.kind()
            );
            true
        }
        Err(_) => false,
    }
}

/// Replays one fuzz case by its seed.
#[allow(dead_code)]
fn check_case(seed: u64) {
    check(seed, &case(seed, &seeds()), row_table());
}

/// Cases per `cargo test` run: a fixed budget, the same cases each run.
const ITERATIONS: u64 = 20_000;

#[test]
fn mutated_frames_never_panic_overallocate_or_reencode_differently() {
    let messages = corpus();
    let corpus = seeds();
    let table = row_table();
    // Every corpus frame decodes back to itself, unmutated, and every
    // rejected seed is refused.
    for (msg, bytes) in messages.iter().zip(&corpus) {
        assert!(
            check(0, &seal(bytes), table),
            "{} does not decode",
            msg.kind()
        );
    }
    for (msg, bytes) in rejected().iter().zip(&corpus[messages.len()..]) {
        assert!(
            !check(0, &seal(bytes), table),
            "{} with an unregistered phase decodes",
            msg.kind()
        );
    }
    let mut accepted = 0;
    for i in 0..ITERATIONS {
        let seed = mix64(0x5749_5245_4655_5A5A ^ i);
        accepted += usize::from(check(seed, &case(seed, &corpus), table));
    }
    // The mutations must leave some frames valid, or invariant 3 checks
    // nothing.
    assert!(
        accepted > 100,
        "only {accepted} mutated frames were accepted"
    );
}

#[test]
fn raw_truncations_and_checksum_flips_are_typed_errors() {
    // Mutations the re-sealing above never makes: a frame cut short on
    // the socket, or one whose checksum no longer matches.
    for msg in corpus() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "{}: cut at {cut}",
                msg.kind()
            );
        }
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(read_frame(&mut Cursor::new(buf)).is_err(), "{}", msg.kind());
    }
}

#[test]
fn a_vertices_frame_allocates_no_more_than_its_length_allows() {
    // A 27-byte Response whose Vertices payload (tag 5) declares 2³²−1
    // ids: the decoder may reserve only what the body can hold.
    let mut body = vec![WIRE_VERSION, 0x04];
    body.extend_from_slice(&1u64.to_be_bytes());
    body.push(5);
    body.extend_from_slice(&u32::MAX.to_be_bytes());
    let frame = seal(&body);
    assert_eq!(frame.len(), 27);
    let (decoded, peak) = peak_of(|| read_frame(&mut &frame[..]));
    assert!(decoded.is_err(), "the ids are missing");
    assert!(
        peak <= PER_BYTE * frame.len() + SLACK,
        "a {}-byte frame allocated {peak} bytes",
        frame.len()
    );
}

#[test]
fn a_batch_of_bitsets_allocates_at_most_one_row_table() {
    // 1 000 empty bitsets at n = 2²⁰: one response's worth of row slots,
    // not one table per item.
    let mut body = vec![WIRE_VERSION, 0x0C];
    body.extend_from_slice(&1u64.to_be_bytes());
    body.extend_from_slice(&1000u32.to_be_bytes());
    for _ in 0..1000 {
        body.push(10);
        body.extend_from_slice(&MAX_BITSET_VERTICES.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
    }
    let frame = seal(&body);
    let table = row_table();
    let (decoded, peak) = peak_of(|| read_frame(&mut &frame[..]));
    assert!(
        decoded.is_err(),
        "the items overspend the frame's bitset budget"
    );
    assert!(
        peak <= PER_BYTE * frame.len() + SLACK + table,
        "a {}-byte frame allocated {peak} bytes (one table is {table})",
        frame.len()
    );
}

#[test]
fn a_bare_length_prefix_allocates_no_more_than_the_preallocation() {
    // A peer announces the largest legal frame and sends nothing more:
    // the reader may reserve 64 KiB, not the 64 MiB it was promised.
    let prefix = MAX_FRAME_BYTES.to_be_bytes();
    let (decoded, peak) = peak_of(|| read_frame(&mut &prefix[..]));
    match decoded {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a bodiless frame was not an i/o error: {other:?}"),
    }
    assert!(
        peak <= (64 << 10) + 1024,
        "a 4-byte prefix allocated {peak} bytes"
    );
}

#[test]
fn frames_past_the_preallocation_still_round_trip() {
    // 40 000 edges: a ~320 KiB body read through the growing buffer.
    let edges: Vec<Edge> = (0..40_000u32).map(|i| e(i, i + 1)).collect();
    let msg = WireMessage::Response {
        id: 9,
        payload: Payload::Edges(edges.into()),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    assert!(buf.len() > 256 << 10);
    let decoded = read_frame(&mut Cursor::new(&buf)).unwrap();
    let mut again = Vec::new();
    write_frame(&mut again, &decoded).unwrap();
    assert_eq!(again, buf);
    // Cut anywhere in the body, it is an error, not a short frame.
    for cut in [5, 64 << 10, (64 << 10) + 1, buf.len() - 9] {
        assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
    }
}
