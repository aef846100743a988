//! The `triad` wire protocol: length-prefixed, checksummed binary frames
//! for networked coordinator runs (`triad serve` / `triad connect`).
//!
//! This module is the **reference codec** for the format specified
//! normatively in `docs/NETWORKING.md`. Every frame is
//!
//! ```text
//! [len: u32 BE] [version: u8] [type: u8] [body: len-2 bytes] [checksum: u64 BE]
//! ```
//!
//! where `len` counts the version byte, the type byte and the body, and
//! `checksum` is [`checksum_bytes`] over exactly those `len` bytes. A
//! frame that fails its checksum or cannot be decoded surfaces as
//! [`WireError::Corrupt`] — mapped to
//! [`RunError::Corrupt`](crate::runtime::RunError::Corrupt) by the TCP
//! transport — instead of desynchronizing the stream silently.
//!
//! The codec is hand-rolled: this build environment vendors a no-op
//! `serde` shim (see `vendor/README.md`), so nothing here may rely on
//! derived serialization. All integers are big-endian; floats travel as
//! their IEEE-754 bit patterns; strings are UTF-8 with a `u32` length
//! prefix.
//!
//! Wire overhead (length prefixes, checksums, correlation ids) is
//! transport bookkeeping and is **never** charged to a protocol's
//! communication cost: the recorder charges the model costs
//! [`PlayerRequest::bit_len`] / [`Payload::bit_len`], which is why a
//! fault-free TCP run is bit-for-bit identical to
//! [`LocalTransport`](crate::runtime::LocalTransport) accounting.

use crate::message::Payload;
use crate::rand::mix64;
use crate::request::PlayerRequest;
use crate::runtime::CostModel;
use crate::simultaneous::SimMessage;
use crate::transcript::PHASES;
use std::borrow::Cow;
use std::io::{Read, Write};
use triad_graph::kernels::{EdgeBitset, RowRef};
use triad_graph::{Edge, Triangle, VertexId};

/// The protocol version carried by every frame. Peers speaking a
/// different version are rejected during the handshake with
/// [`WireError::Version`]. Version 2 extended the handshake with
/// authentication and resume credentials: `Hello` carries an optional
/// auth token and an optional [`ResumeClaim`], `Welcome` issues a
/// per-session resume nonce, and `Error` carries a typed [`ErrorCode`]
/// alongside its human-readable reason. Version 3 added the
/// [`Batch`](WireMessage::Batch) and
/// [`BatchResponse`](WireMessage::BatchResponse) frames that carry one
/// round of independent requests per player (see `docs/NETWORKING.md`).
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on the framed length (version + type + body) a peer may
/// announce. Larger lengths are treated as corruption before any
/// allocation happens.
pub const MAX_FRAME_BYTES: u32 = 1 << 26; // 64 MiB

/// The most [`read_frame`] allocates before a frame's body arrives.
/// A frame up to this size fills one exact allocation; a larger one
/// grows its buffer only as its bytes are read, so a bare length prefix
/// costs its reader at most this much.
const FRAME_PREALLOC_BYTES: usize = 64 << 10;

/// Upper bound on the vertex-count a bitset payload (tag 10) may
/// declare — and on the vertex-counts of all bitset items of one
/// [`BatchResponse`](WireMessage::BatchResponse) together. Decoding an
/// [`EdgeBitset`] allocates one row slot per vertex, so the `n` field is
/// attacker-sized unless capped. Larger values are corruption, rejected
/// before any allocation.
pub const MAX_BITSET_VERTICES: u32 = 1 << 20;

/// Checksum of a byte string: a [`mix64`] fold over 8-byte chunks with
/// the length mixed in last. It is what catches a frame corrupted on a
/// real connection.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0x5452_4941_4457_4952u64; // "TRIADWIR"
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_be_bytes(buf));
    }
    mix64(h ^ bytes.len() as u64)
}

/// Everything that can go wrong encoding, decoding or transporting a
/// frame. The TCP transport maps these onto the
/// [`RunError`](crate::runtime::RunError) taxonomy (see
/// `docs/NETWORKING.md`).
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying socket failed (includes unexpected EOF and read
    /// deadlines; see [`WireError::is_timeout`]).
    Io(std::io::Error),
    /// The frame failed its checksum, declared an impossible length, or
    /// its body did not decode.
    Corrupt(String),
    /// The peer speaks a different protocol version.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
    /// A structurally valid frame arrived where it makes no sense (e.g.
    /// a `Welcome` sent to the coordinator).
    Protocol(String),
}

impl WireError {
    /// `true` when the error is a read deadline expiring rather than a
    /// dead or garbled connection — the retryable case.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }

    fn corrupt(what: impl Into<String>) -> Self {
        WireError::Corrupt(what.into())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::Version { got } => {
                write!(f, "peer speaks wire version {got}, expected {WIRE_VERSION}")
            }
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A machine-readable cause carried by [`WireMessage::Error`] so peers
/// can react to a rejection without parsing the human-readable reason
/// (e.g. retry a rejoin on [`ErrorCode::SlotAttached`], give up on
/// [`ErrorCode::Unauthorized`]). The `u8` values are normative wire
/// bytes; an unknown byte decodes as [`WireError::Corrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// An unclassified failure; the reason string is the only detail.
    Generic,
    /// The credential presented in `Hello` was rejected: wrong or
    /// missing auth token, or an invalid resume nonce.
    Unauthorized,
    /// A resume claim arrived after the slot's reconnect window had
    /// already expired.
    WindowExpired,
    /// A resume claim named a slot that is still attached to a live
    /// connection. Transient: a claimant racing the coordinator's
    /// detach detection should back off and retry.
    SlotAttached,
}

impl ErrorCode {
    /// The normative wire byte for this code.
    pub fn wire_byte(self) -> u8 {
        match self {
            ErrorCode::Generic => 0,
            ErrorCode::Unauthorized => 1,
            ErrorCode::WindowExpired => 2,
            ErrorCode::SlotAttached => 3,
        }
    }

    fn from_wire_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => ErrorCode::Generic,
            1 => ErrorCode::Unauthorized,
            2 => ErrorCode::WindowExpired,
            3 => ErrorCode::SlotAttached,
            other => return Err(WireError::corrupt(format!("unknown error code {other}"))),
        })
    }
}

/// A player's claim, inside [`WireMessage::Hello`], to resume a slot it
/// already registered this session: the slot index, the resume nonce the
/// coordinator issued in that slot's [`Welcome`], and the last
/// correlation id the player answered before losing the connection
/// (diagnostic; replay is driven by fresh correlation ids, see
/// `docs/NETWORKING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeClaim {
    /// The slot being resumed.
    pub slot: u32,
    /// The per-session resume nonce issued in the slot's `Welcome`.
    pub nonce: u64,
    /// The highest correlation id the player acknowledged before the
    /// connection dropped.
    pub last_acked: u64,
}

/// The coordinator's greeting to a player that completed the handshake:
/// everything the player needs to participate without any out-of-band
/// agreement beyond its share file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// The player index `j` assigned to this connection (`0..k`).
    pub player: u32,
    /// Total number of players the run expects.
    pub k: u32,
    /// Number of vertices `n` of the global graph.
    pub n: u64,
    /// The shared-randomness seed in force for the run.
    pub seed: u64,
    /// The charging model of the run.
    pub cost_model: CostModel,
    /// The protocol name (`unrestricted`, `low`, `high`, `oblivious`,
    /// `exact`).
    pub protocol: String,
    /// Free-form `key=value` parameters (e.g. `eps=0.2 d=8`), parsed by
    /// the player to reconstruct the protocol object exactly.
    pub params: String,
    /// Per-session resume credential for this slot: a later `Hello`
    /// carrying a [`ResumeClaim`] with this nonce may reattach to the
    /// slot while its reconnect window is open. `0` when the session
    /// layer is disabled.
    pub resume_nonce: u64,
}

/// One frame of the wire protocol. The `u8` tags are part of the
/// normative format — see the frame-type table in `docs/NETWORKING.md`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Player → coordinator: request registration, optionally claiming
    /// an explicit slot (`None` = any free slot), optionally presenting
    /// an auth token, or — instead of fresh registration — a
    /// [`ResumeClaim`] to reattach to a detached slot.
    Hello {
        /// Explicit player index to claim, if any. Ignored when
        /// `resume` is present (the claim names its own slot).
        slot: Option<u32>,
        /// The shared secret for daemons started with an auth token.
        token: Option<String>,
        /// A claim to resume a previously registered slot.
        resume: Option<ResumeClaim>,
    },
    /// Coordinator → player: registration accepted.
    Welcome(Welcome),
    /// Coordinator → player: one [`PlayerRequest`], tagged with a
    /// correlation id the response must echo.
    Request {
        /// Correlation id (monotonic per connection).
        id: u64,
        /// The request itself.
        req: PlayerRequest,
    },
    /// Player → coordinator: the response to the [`WireMessage::Request`]
    /// with the same id. Stale ids (from a delivery the coordinator
    /// already timed out) are discarded by the receiver.
    Response {
        /// Correlation id being answered.
        id: u64,
        /// The response payload.
        payload: Payload<'static>,
    },
    /// Coordinator → player: compute and send your one-shot simultaneous
    /// message.
    SimRequest {
        /// Correlation id (monotonic per connection).
        id: u64,
    },
    /// Player → coordinator: the simultaneous message (payloads with
    /// their phase tags).
    SimResponse {
        /// Correlation id being answered.
        id: u64,
        /// The player's one-shot message.
        message: SimMessage<'static>,
    },
    /// Coordinator → player: switch to a new shared-randomness seed
    /// (Newman's conversion). The player must answer [`WireMessage::Ack`].
    AdoptShared {
        /// The new seed.
        seed: u64,
    },
    /// Player → coordinator: control acknowledgement.
    Ack,
    /// Either direction: the sender cannot continue; the connection is
    /// dead afterwards.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable cause.
        reason: String,
    },
    /// Coordinator → player: the run is over; carries a one-line result
    /// summary, after which both sides close.
    Goodbye {
        /// The run's verdict line.
        summary: String,
    },
    /// Coordinator → player: one round of independent requests under one
    /// correlation id, answered in order by one
    /// [`WireMessage::BatchResponse`].
    Batch {
        /// Correlation id (monotonic per connection).
        id: u64,
        /// The round's requests, in the order the coordinator charges them.
        reqs: Vec<PlayerRequest>,
    },
    /// Player → coordinator: the answers to the [`WireMessage::Batch`]
    /// with the same id, one payload per request, in request order.
    BatchResponse {
        /// Correlation id being answered.
        id: u64,
        /// One payload per request of the batch.
        payloads: Vec<Payload<'static>>,
    },
}

impl WireMessage {
    /// The frame-type byte (normative; see `docs/NETWORKING.md`).
    pub fn type_byte(&self) -> u8 {
        match self {
            WireMessage::Hello { .. } => 0x01,
            WireMessage::Welcome(_) => 0x02,
            WireMessage::Request { .. } => 0x03,
            WireMessage::Response { .. } => 0x04,
            WireMessage::SimRequest { .. } => 0x05,
            WireMessage::SimResponse { .. } => 0x06,
            WireMessage::AdoptShared { .. } => 0x07,
            WireMessage::Ack => 0x08,
            WireMessage::Error { .. } => 0x09,
            WireMessage::Goodbye { .. } => 0x0A,
            WireMessage::Batch { .. } => 0x0B,
            WireMessage::BatchResponse { .. } => 0x0C,
        }
    }

    /// A short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMessage::Hello { .. } => "hello",
            WireMessage::Welcome(_) => "welcome",
            WireMessage::Request { .. } => "request",
            WireMessage::Response { .. } => "response",
            WireMessage::SimRequest { .. } => "sim-request",
            WireMessage::SimResponse { .. } => "sim-response",
            WireMessage::AdoptShared { .. } => "adopt-shared",
            WireMessage::Ack => "ack",
            WireMessage::Error { .. } => "error",
            WireMessage::Goodbye { .. } => "goodbye",
            WireMessage::Batch { .. } => "batch",
            WireMessage::BatchResponse { .. } => "batch-response",
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn vertex(&mut self, v: VertexId) {
        self.u32(v.0);
    }

    fn edge(&mut self, e: Edge) {
        self.vertex(e.u());
        self.vertex(e.v());
    }

    fn edges(&mut self, es: &[Edge]) {
        self.u32(es.len() as u32);
        for e in es {
            self.edge(*e);
        }
    }
}

fn encode_request(enc: &mut Enc, req: &PlayerRequest) {
    match req {
        PlayerRequest::HasEdge(e) => {
            enc.u8(0);
            enc.edge(*e);
        }
        PlayerRequest::FirstIncidentEdge { v, perm_tag } => {
            enc.u8(1);
            enc.vertex(*v);
            enc.u64(*perm_tag);
        }
        PlayerRequest::FirstEdge { perm_tag } => {
            enc.u8(2);
            enc.u64(*perm_tag);
        }
        PlayerRequest::LocalDegree { v } => {
            enc.u8(3);
            enc.vertex(*v);
        }
        PlayerRequest::LocalEdgeCount => enc.u8(4),
        PlayerRequest::EdgeCountMsb => enc.u8(5),
        PlayerRequest::GlobalSampleHit { tag, p } => {
            enc.u8(6);
            enc.u64(*tag);
            enc.f64(*p);
        }
        PlayerRequest::DegreeMsb { v } => {
            enc.u8(7);
            enc.vertex(*v);
        }
        PlayerRequest::DegreePrefix { v, prefix_bits } => {
            enc.u8(8);
            enc.vertex(*v);
            enc.u32(*prefix_bits);
        }
        PlayerRequest::SampleHit { v, tag, p } => {
            enc.u8(9);
            enc.vertex(*v);
            enc.u64(*tag);
            enc.f64(*p);
        }
        PlayerRequest::FirstSuspectInBucket {
            bucket,
            k,
            perm_tag,
        } => {
            enc.u8(10);
            enc.u64(*bucket as u64);
            enc.u64(*k as u64);
            enc.u64(*perm_tag);
        }
        PlayerRequest::SuspectSample {
            bucket,
            k,
            perm_tag,
            count,
        } => {
            enc.u8(11);
            enc.u64(*bucket as u64);
            enc.u64(*k as u64);
            enc.u64(*perm_tag);
            enc.u64(*count as u64);
        }
        PlayerRequest::IncidentEdgesSampled { v, tag, p, cap } => {
            enc.u8(12);
            enc.vertex(*v);
            enc.u64(*tag);
            enc.f64(*p);
            enc.u64(*cap as u64);
        }
        PlayerRequest::FindClosingTriangle { edges } => {
            enc.u8(13);
            enc.edges(edges);
        }
        PlayerRequest::InducedEdges { tag, p, cap } => {
            enc.u8(14);
            enc.u64(*tag);
            enc.f64(*p);
            enc.u64(*cap as u64);
        }
        PlayerRequest::RsEdges {
            r_tag,
            p_r,
            s_tag,
            p_s,
            cap,
        } => {
            enc.u8(15);
            enc.u64(*r_tag);
            enc.f64(*p_r);
            enc.u64(*s_tag);
            enc.f64(*p_s);
            enc.u64(*cap as u64);
        }
    }
}

fn encode_payload(enc: &mut Enc, p: &Payload<'_>) {
    match p {
        Payload::Empty => enc.u8(0),
        Payload::Bit(b) => {
            enc.u8(1);
            enc.u8(u8::from(*b));
        }
        Payload::Bits(v, w) => {
            enc.u8(2);
            enc.u64(*v);
            enc.u32(*w);
        }
        Payload::Count(c) => {
            enc.u8(3);
            enc.u64(*c);
        }
        Payload::Vertex(o) => {
            enc.u8(4);
            match o {
                None => enc.u8(0),
                Some(v) => {
                    enc.u8(1);
                    enc.vertex(*v);
                }
            }
        }
        Payload::Vertices(vs) => {
            enc.u8(5);
            enc.u32(vs.len() as u32);
            for v in vs {
                enc.vertex(*v);
            }
        }
        Payload::Edge(o) => {
            enc.u8(6);
            match o {
                None => enc.u8(0),
                Some(e) => {
                    enc.u8(1);
                    enc.edge(*e);
                }
            }
        }
        Payload::Edges(es) => {
            enc.u8(7);
            enc.edges(es);
        }
        Payload::EdgeBits(set) => {
            // Normative bitset body (docs/NETWORKING.md): n, the number
            // of non-empty rows, then each row as (u, kind, data) with
            // kind 0 = sparse ascending ids, kind 1 = ⌈n/64⌉ packed
            // words. Rows travel in ascending u order.
            enc.u8(10);
            enc.u32(set.n() as u32);
            enc.u32(set.rows().count() as u32);
            for (u, row) in set.rows() {
                enc.u32(u);
                match row {
                    RowRef::Sparse(ids) => {
                        enc.u8(0);
                        enc.u32(ids.len() as u32);
                        for &id in ids {
                            enc.u32(id);
                        }
                    }
                    RowRef::Dense(words) => {
                        enc.u8(1);
                        enc.u32(words.len() as u32);
                        for &w in words {
                            enc.u64(w);
                        }
                    }
                }
            }
        }
        Payload::Triangle(o) => {
            enc.u8(8);
            match o {
                None => enc.u8(0),
                Some(t) => {
                    enc.u8(1);
                    for v in t.vertices() {
                        enc.vertex(v);
                    }
                }
            }
        }
        Payload::Probability(p) => {
            enc.u8(9);
            enc.f64(*p);
        }
    }
}

fn encode_sim_message(enc: &mut Enc, m: &SimMessage<'_>) {
    enc.u32(m.payloads().len() as u32);
    for (payload, phase) in m.payloads().iter().zip(m.phases()) {
        enc.str(phase);
        encode_payload(enc, payload);
    }
}

fn cost_model_byte(m: CostModel) -> u8 {
    match m {
        CostModel::Coordinator => 0,
        CostModel::Blackboard => 1,
        CostModel::MessagePassing => 2,
    }
}

fn encode_body(enc: &mut Enc, msg: &WireMessage) {
    match msg {
        WireMessage::Hello {
            slot,
            token,
            resume,
        } => {
            match slot {
                None => enc.u8(0),
                Some(s) => {
                    enc.u8(1);
                    enc.u32(*s);
                }
            }
            match token {
                None => enc.u8(0),
                Some(t) => {
                    enc.u8(1);
                    enc.str(t);
                }
            }
            match resume {
                None => enc.u8(0),
                Some(claim) => {
                    enc.u8(1);
                    enc.u32(claim.slot);
                    enc.u64(claim.nonce);
                    enc.u64(claim.last_acked);
                }
            }
        }
        WireMessage::Welcome(w) => {
            enc.u32(w.player);
            enc.u32(w.k);
            enc.u64(w.n);
            enc.u64(w.seed);
            enc.u8(cost_model_byte(w.cost_model));
            enc.str(&w.protocol);
            enc.str(&w.params);
            enc.u64(w.resume_nonce);
        }
        WireMessage::Request { id, req } => {
            enc.u64(*id);
            encode_request(enc, req);
        }
        WireMessage::Response { id, payload } => {
            enc.u64(*id);
            encode_payload(enc, payload);
        }
        WireMessage::SimRequest { id } => enc.u64(*id),
        WireMessage::SimResponse { id, message } => {
            enc.u64(*id);
            encode_sim_message(enc, message);
        }
        WireMessage::AdoptShared { seed } => enc.u64(*seed),
        WireMessage::Ack => {}
        WireMessage::Error { code, reason } => {
            enc.u8(code.wire_byte());
            enc.str(reason);
        }
        WireMessage::Goodbye { summary } => enc.str(summary),
        WireMessage::Batch { id, reqs } => encode_batch(enc, *id, reqs),
        WireMessage::BatchResponse { id, payloads } => {
            enc.u64(*id);
            enc.u32(payloads.len() as u32);
            for payload in payloads {
                encode_payload(enc, payload);
            }
        }
    }
}

fn encode_batch(enc: &mut Enc, id: u64, reqs: &[PlayerRequest]) {
    enc.u64(id);
    enc.u32(reqs.len() as u32);
    for req in reqs {
        encode_request(enc, req);
    }
}

/// Encodes `msg` as one complete frame (length prefix, version, type,
/// body, checksum) and writes it to `w`, flushing afterwards.
///
/// # Errors
///
/// Propagates any I/O failure from the writer.
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMessage) -> std::io::Result<()> {
    write_framed(w, msg.type_byte(), |enc| encode_body(enc, msg))
}

/// Writes a [`WireMessage::Batch`] frame of `reqs` under correlation id
/// `id`, encoded from the borrowed requests: the same bytes as
/// `write_frame(w, &WireMessage::Batch { id, reqs: reqs.to_vec() })`.
///
/// # Errors
///
/// Propagates any I/O failure from the writer.
pub fn write_batch<W: Write>(w: &mut W, id: u64, reqs: &[PlayerRequest]) -> std::io::Result<()> {
    write_framed(w, 0x0B, |enc| encode_batch(enc, id, reqs))
}

/// Builds a frame in one buffer: a length placeholder, version, type,
/// the body `body` encodes, then the length and checksum filled in.
fn write_framed<W: Write>(
    w: &mut W,
    type_byte: u8,
    body: impl FnOnce(&mut Enc),
) -> std::io::Result<()> {
    let mut enc = Enc::new();
    enc.u32(0); // the length, filled in below
    enc.u8(WIRE_VERSION);
    enc.u8(type_byte);
    body(&mut enc);
    let len = (enc.buf.len() - 4) as u32;
    enc.buf[..4].copy_from_slice(&len.to_be_bytes());
    let sum = checksum_bytes(&enc.buf[4..]);
    enc.u64(sum);
    w.write_all(&enc.buf)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Decoding

struct Dec<'b> {
    buf: &'b [u8],
    /// Vertices the bitset payloads still to be decoded may declare
    /// between them; each tag-10 body spends its `n` from it.
    bitset_budget: u32,
}

impl<'b> Dec<'b> {
    fn new(buf: &'b [u8]) -> Self {
        Dec {
            buf,
            bitset_budget: MAX_BITSET_VERTICES,
        }
    }

    fn take(&mut self, len: usize) -> Result<&'b [u8], WireError> {
        if self.buf.len() < len {
            return Err(WireError::corrupt("truncated body"));
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A boolean byte: encoders write exactly 0 or 1, so any other value
    /// is corruption (and would not re-encode to the same bytes).
    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::corrupt(format!(
                "flag byte {other} is not 0 or 1"
            ))),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::corrupt("count overflows usize"))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::corrupt("non-UTF-8 string"))
    }

    fn vertex(&mut self) -> Result<VertexId, WireError> {
        Ok(VertexId(self.u32()?))
    }

    fn edge(&mut self) -> Result<Edge, WireError> {
        let u = self.vertex()?;
        let v = self.vertex()?;
        if u == v {
            return Err(WireError::corrupt("self-loop edge"));
        }
        if u > v {
            return Err(WireError::corrupt("edge endpoints out of canonical order"));
        }
        Ok(Edge::new(u, v))
    }

    fn edges(&mut self) -> Result<Vec<Edge>, WireError> {
        let len = self.u32()? as usize;
        // The length is attacker-sized only up to the checked frame
        // bound; an edge costs 8 body bytes, so this cannot overshoot.
        let mut out = Vec::with_capacity(len.min(self.buf.len() / 8 + 1));
        for _ in 0..len {
            out.push(self.edge()?);
        }
        Ok(out)
    }

    /// The item count of a batch frame. Every item costs at least one
    /// body byte (its tag), so a count past the remaining bytes is
    /// corruption — rejected before the item vector is allocated.
    fn count(&mut self) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count > self.buf.len() {
            return Err(WireError::corrupt("batch item count exceeds frame"));
        }
        Ok(count)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::corrupt("trailing bytes after body"))
        }
    }
}

fn decode_request(d: &mut Dec<'_>) -> Result<PlayerRequest, WireError> {
    Ok(match d.u8()? {
        0 => PlayerRequest::HasEdge(d.edge()?),
        1 => PlayerRequest::FirstIncidentEdge {
            v: d.vertex()?,
            perm_tag: d.u64()?,
        },
        2 => PlayerRequest::FirstEdge { perm_tag: d.u64()? },
        3 => PlayerRequest::LocalDegree { v: d.vertex()? },
        4 => PlayerRequest::LocalEdgeCount,
        5 => PlayerRequest::EdgeCountMsb,
        6 => PlayerRequest::GlobalSampleHit {
            tag: d.u64()?,
            p: d.f64()?,
        },
        7 => PlayerRequest::DegreeMsb { v: d.vertex()? },
        8 => PlayerRequest::DegreePrefix {
            v: d.vertex()?,
            prefix_bits: d.u32()?,
        },
        9 => PlayerRequest::SampleHit {
            v: d.vertex()?,
            tag: d.u64()?,
            p: d.f64()?,
        },
        10 => PlayerRequest::FirstSuspectInBucket {
            bucket: d.usize()?,
            k: d.usize()?,
            perm_tag: d.u64()?,
        },
        11 => PlayerRequest::SuspectSample {
            bucket: d.usize()?,
            k: d.usize()?,
            perm_tag: d.u64()?,
            count: d.usize()?,
        },
        12 => PlayerRequest::IncidentEdgesSampled {
            v: d.vertex()?,
            tag: d.u64()?,
            p: d.f64()?,
            cap: d.usize()?,
        },
        13 => PlayerRequest::FindClosingTriangle { edges: d.edges()? },
        14 => PlayerRequest::InducedEdges {
            tag: d.u64()?,
            p: d.f64()?,
            cap: d.usize()?,
        },
        15 => PlayerRequest::RsEdges {
            r_tag: d.u64()?,
            p_r: d.f64()?,
            s_tag: d.u64()?,
            p_s: d.f64()?,
            cap: d.usize()?,
        },
        tag => return Err(WireError::corrupt(format!("unknown request tag {tag}"))),
    })
}

fn decode_payload(d: &mut Dec<'_>) -> Result<Payload<'static>, WireError> {
    Ok(match d.u8()? {
        0 => Payload::Empty,
        1 => Payload::Bit(d.flag()?),
        2 => {
            let v = d.u64()?;
            Payload::Bits(v, d.u32()?)
        }
        3 => Payload::Count(d.u64()?),
        4 => Payload::Vertex(match d.flag()? {
            false => None,
            true => Some(d.vertex()?),
        }),
        5 => {
            let len = d.u32()? as usize;
            // A vertex costs 4 body bytes: the capacity never exceeds
            // what the frame can actually hold.
            let mut vs = Vec::with_capacity(len.min(d.buf.len() / 4));
            for _ in 0..len {
                vs.push(d.vertex()?);
            }
            Payload::Vertices(vs)
        }
        6 => Payload::Edge(match d.flag()? {
            false => None,
            true => Some(d.edge()?),
        }),
        7 => Payload::Edges(d.edges()?.into()),
        8 => Payload::Triangle(match d.flag()? {
            false => None,
            true => {
                let a = d.vertex()?;
                let b = d.vertex()?;
                let c = d.vertex()?;
                if a == b || b == c || a == c {
                    return Err(WireError::corrupt("degenerate triangle"));
                }
                if !(a < b && b < c) {
                    return Err(WireError::corrupt(
                        "triangle vertices out of canonical order",
                    ));
                }
                Some(Triangle::new(a, b, c))
            }
        }),
        9 => Payload::Probability(d.f64()?),
        10 => Payload::EdgeBits(Cow::Owned(decode_edge_bitset(d)?)),
        tag => return Err(WireError::corrupt(format!("unknown payload tag {tag}"))),
    })
}

/// Decodes the tag-10 bitset body, validating every declared size and
/// every id range *before* the allocation it would drive: `n` is capped
/// by what is left of the decoder's bitset budget (at most
/// [`MAX_BITSET_VERTICES`] per frame), row and id counts are checked
/// against the bytes actually remaining in the frame, row indices are
/// strictly ascending and in range, sparse ids are strictly ascending
/// inside `(u, n)` and no longer than the row the encoder's set would
/// have kept sparse, and dense rows must be exactly `⌈n/64⌉` words with
/// no bit at or below `u` and no bit at or past `n`.
fn decode_edge_bitset(d: &mut Dec<'_>) -> Result<EdgeBitset, WireError> {
    let n = d.u32()?;
    if n > d.bitset_budget {
        return Err(WireError::corrupt(format!(
            "bitset vertex count {n} exceeds the frame's remaining budget of {}",
            d.bitset_budget
        )));
    }
    d.bitset_budget -= n;
    let n = n as usize;
    let rows = d.u32()? as usize;
    if rows > n {
        return Err(WireError::corrupt(
            "bitset declares more rows than vertices",
        ));
    }
    // A row costs at least u(4) + kind(1) + count(4) = 9 body bytes.
    if rows * 9 > d.buf.len() {
        return Err(WireError::corrupt("bitset row count exceeds frame"));
    }
    let words = n.div_ceil(64);
    let mut set = EdgeBitset::new(n);
    let mut prev_row: Option<u32> = None;
    for _ in 0..rows {
        let u = d.u32()?;
        if u as usize >= n {
            return Err(WireError::corrupt("bitset row index out of range"));
        }
        if prev_row.is_some_and(|p| u <= p) {
            return Err(WireError::corrupt("bitset rows not strictly ascending"));
        }
        prev_row = Some(u);
        match d.u8()? {
            0 => {
                let count = d.u32()? as usize;
                if count == 0 {
                    return Err(WireError::corrupt("empty sparse bitset row"));
                }
                if count > EdgeBitset::max_sparse_row(n) {
                    // The encoder's set would hold this row dense.
                    return Err(WireError::corrupt(
                        "sparse bitset row longer than the dense threshold",
                    ));
                }
                if count * 4 > d.buf.len() {
                    return Err(WireError::corrupt("sparse bitset row exceeds frame"));
                }
                let mut prev = u;
                for _ in 0..count {
                    let v = d.u32()?;
                    if v <= prev {
                        return Err(WireError::corrupt(
                            "sparse bitset ids not strictly ascending above the row",
                        ));
                    }
                    if v as usize >= n {
                        return Err(WireError::corrupt("sparse bitset id out of range"));
                    }
                    prev = v;
                    set.insert(Edge::new(VertexId(u), VertexId(v)));
                }
            }
            1 => {
                let wc = d.u32()? as usize;
                if wc != words {
                    return Err(WireError::corrupt(format!(
                        "dense bitset row is {wc} words, expected {words}"
                    )));
                }
                if wc * 8 > d.buf.len() {
                    return Err(WireError::corrupt("dense bitset row exceeds frame"));
                }
                let mut row = vec![0u64; wc].into_boxed_slice();
                for w in row.iter_mut() {
                    *w = d.u64()?;
                }
                // Every set bit must name a neighbor in (u, n): bits at
                // or below the row index would break canonical order,
                // bits at or past n are trailing garbage.
                for (wi, &word) in row.iter().enumerate() {
                    let base = wi * 64;
                    let lo = (u as usize + 1).max(base);
                    let hi = n.min(base + 64);
                    let allowed = if lo >= hi {
                        0u64
                    } else if hi - lo == 64 {
                        !0u64
                    } else {
                        ((1u64 << (hi - lo)) - 1) << (lo - base)
                    };
                    if word & !allowed != 0 {
                        return Err(WireError::corrupt(
                            "dense bitset row has bits outside (u, n)",
                        ));
                    }
                }
                if row.iter().all(|&w| w == 0) {
                    return Err(WireError::corrupt("empty dense bitset row"));
                }
                set.set_dense_row(u, row);
            }
            kind => {
                return Err(WireError::corrupt(format!(
                    "unknown bitset row kind {kind}"
                )));
            }
        }
    }
    Ok(set)
}

fn decode_sim_message(d: &mut Dec<'_>) -> Result<SimMessage<'static>, WireError> {
    let len = d.u32()? as usize;
    let mut m = SimMessage::empty();
    for _ in 0..len {
        // Phases form a closed registry: a name outside it is corrupt,
        // and a registered one decodes to its `'static` table entry.
        let name = d.str()?;
        let phase = PHASES.into_iter().find(|p| *p == name).ok_or_else(|| {
            WireError::corrupt(format!("unregistered phase name of {} bytes", name.len()))
        })?;
        // An honest message may carry one full-size bitset per entry
        // (one per guess of `oblivious`), so each entry gets the whole
        // budget. Until a bitset stops allocating a slot for every row,
        // a frame of many small entries can still make the decoder
        // build one n-row table per entry.
        d.bitset_budget = MAX_BITSET_VERTICES;
        let payload = decode_payload(d)?;
        m.push_phased(payload, phase);
    }
    Ok(m)
}

fn decode_cost_model(b: u8) -> Result<CostModel, WireError> {
    Ok(match b {
        0 => CostModel::Coordinator,
        1 => CostModel::Blackboard,
        2 => CostModel::MessagePassing,
        other => return Err(WireError::corrupt(format!("unknown cost model {other}"))),
    })
}

fn decode_body(type_byte: u8, body: &[u8]) -> Result<WireMessage, WireError> {
    let mut d = Dec::new(body);
    let msg = match type_byte {
        0x01 => WireMessage::Hello {
            slot: match d.flag()? {
                false => None,
                true => Some(d.u32()?),
            },
            token: match d.flag()? {
                false => None,
                true => Some(d.str()?),
            },
            resume: match d.flag()? {
                false => None,
                true => Some(ResumeClaim {
                    slot: d.u32()?,
                    nonce: d.u64()?,
                    last_acked: d.u64()?,
                }),
            },
        },
        0x02 => WireMessage::Welcome(Welcome {
            player: d.u32()?,
            k: d.u32()?,
            n: d.u64()?,
            seed: d.u64()?,
            cost_model: decode_cost_model(d.u8()?)?,
            protocol: d.str()?,
            params: d.str()?,
            resume_nonce: d.u64()?,
        }),
        0x03 => WireMessage::Request {
            id: d.u64()?,
            req: decode_request(&mut d)?,
        },
        0x04 => WireMessage::Response {
            id: d.u64()?,
            payload: decode_payload(&mut d)?,
        },
        0x05 => WireMessage::SimRequest { id: d.u64()? },
        0x06 => WireMessage::SimResponse {
            id: d.u64()?,
            message: decode_sim_message(&mut d)?,
        },
        0x07 => WireMessage::AdoptShared { seed: d.u64()? },
        0x08 => WireMessage::Ack,
        0x09 => WireMessage::Error {
            code: ErrorCode::from_wire_byte(d.u8()?)?,
            reason: d.str()?,
        },
        0x0A => WireMessage::Goodbye { summary: d.str()? },
        0x0B => {
            let id = d.u64()?;
            let count = d.count()?;
            let mut reqs = Vec::with_capacity(count);
            for _ in 0..count {
                reqs.push(decode_request(&mut d)?);
            }
            WireMessage::Batch { id, reqs }
        }
        0x0C => {
            // All items share one bitset budget, so a batch can make the
            // decoder build no more row slots than one response can.
            let id = d.u64()?;
            let count = d.count()?;
            let mut payloads = Vec::with_capacity(count);
            for _ in 0..count {
                payloads.push(decode_payload(&mut d)?);
            }
            WireMessage::BatchResponse { id, payloads }
        }
        other => return Err(WireError::corrupt(format!("unknown frame type {other}"))),
    };
    d.done()?;
    Ok(msg)
}

/// Reads one complete frame from `r`, verifying length bounds, version
/// and checksum before decoding.
///
/// # Errors
///
/// [`WireError::Io`] on socket failure or EOF (a read deadline surfaces
/// as an `Io` error for which [`WireError::is_timeout`] is `true`),
/// [`WireError::Corrupt`] on checksum or decode failure, and
/// [`WireError::Version`] on a version mismatch.
pub fn read_frame<R: Read>(r: &mut R) -> Result<WireMessage, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if !(2..=MAX_FRAME_BYTES).contains(&len) {
        return Err(WireError::corrupt(format!("impossible frame length {len}")));
    }
    let len = len as usize;
    let mut framed = Vec::with_capacity(len.min(FRAME_PREALLOC_BYTES));
    if r.by_ref().take(len as u64).read_to_end(&mut framed)? < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let mut sum_buf = [0u8; 8];
    r.read_exact(&mut sum_buf)?;
    if u64::from_be_bytes(sum_buf) != checksum_bytes(&framed) {
        return Err(WireError::corrupt("checksum mismatch"));
    }
    if framed[0] != WIRE_VERSION {
        return Err(WireError::Version { got: framed[0] });
    }
    decode_body(framed[1], &framed[2..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::DEFAULT_PHASE;
    use std::io::Cursor;

    fn roundtrip(msg: &WireMessage) -> WireMessage {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    fn every_request() -> Vec<PlayerRequest> {
        vec![
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
        ]
    }

    #[test]
    fn every_request_variant_roundtrips() {
        for req in every_request() {
            let back = roundtrip(&WireMessage::Request {
                id: 99,
                req: req.clone(),
            });
            assert_eq!(
                back,
                WireMessage::Request { id: 99, req },
                "request failed wire roundtrip"
            );
        }
    }

    fn every_payload() -> Vec<Payload<'static>> {
        vec![
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
            Payload::Edges(Vec::new().into()),
            Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(
                16,
                vec![e(0, 1), e(2, 3), e(0, 15)],
            ))),
            // A hub row over many vertices promotes to dense, so this
            // exercises the kind-1 word body.
            Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(
                200,
                (1..200u32).map(|v| e(0, v)).collect::<Vec<_>>(),
            ))),
            Payload::EdgeBits(Cow::Owned(EdgeBitset::new(5))),
            Payload::EdgeBits(Cow::Owned(EdgeBitset::new(0))),
            Payload::Triangle(None),
            Payload::Triangle(Some(Triangle::new(VertexId(0), VertexId(1), VertexId(2)))),
            Payload::Probability(0.375),
        ]
    }

    #[test]
    fn every_payload_variant_roundtrips() {
        for payload in every_payload() {
            let back = roundtrip(&WireMessage::Response {
                id: 5,
                payload: payload.clone(),
            });
            assert_eq!(back, WireMessage::Response { id: 5, payload });
        }
    }

    #[test]
    fn batch_frames_roundtrip_every_variant_in_order() {
        for msg in [
            WireMessage::Batch {
                id: 7,
                reqs: every_request(),
            },
            WireMessage::Batch {
                id: 8,
                reqs: Vec::new(),
            },
            WireMessage::BatchResponse {
                id: 7,
                payloads: every_payload(),
            },
            WireMessage::BatchResponse {
                id: 8,
                payloads: Vec::new(),
            },
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn write_batch_writes_the_bytes_write_frame_writes_for_every_request_kind() {
        let reqs = every_request();
        let batches = reqs
            .iter()
            .map(std::slice::from_ref)
            .chain([&reqs[..], &[]]);
        for (id, batch) in batches.enumerate() {
            let id = id as u64;
            let (mut borrowed, mut owned) = (Vec::new(), Vec::new());
            write_batch(&mut borrowed, id, batch).unwrap();
            let msg = WireMessage::Batch {
                id,
                reqs: batch.to_vec(),
            };
            write_frame(&mut owned, &msg).unwrap();
            assert_eq!(borrowed, owned, "{batch:?}");
            // The one-buffer writer frames exactly as a separate
            // length prefix and checksum would.
            assert_eq!(owned, sealed(0x0B, |enc| encode_body(enc, &msg)));
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    /// Seals `body` (type byte first) as one frame of this version.
    fn sealed(type_byte: u8, build: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u8(WIRE_VERSION);
        enc.u8(type_byte);
        build(&mut enc);
        let framed = enc.buf;
        let mut out = Vec::new();
        out.extend_from_slice(&(framed.len() as u32).to_be_bytes());
        out.extend_from_slice(&framed);
        out.extend_from_slice(&checksum_bytes(&framed).to_be_bytes());
        out
    }

    fn expect_corrupt(what: &str, frame: Vec<u8>) {
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert!(
            matches!(err, WireError::Corrupt(_)),
            "{what}: expected Corrupt, got {err}"
        );
    }

    #[test]
    fn batch_counts_past_the_frame_are_rejected_before_allocation() {
        for type_byte in [0x0B, 0x0C] {
            expect_corrupt(
                "count past the body",
                sealed(type_byte, |enc| {
                    enc.u64(1);
                    enc.u32(u32::MAX);
                    enc.u8(4);
                }),
            );
            // One byte short of the items the count declares.
            expect_corrupt(
                "truncated items",
                sealed(type_byte, |enc| {
                    enc.u64(1);
                    enc.u32(3);
                    enc.u8(4);
                    enc.u8(4);
                }),
            );
        }
    }

    #[test]
    fn bitset_items_of_one_batch_share_one_vertex_budget() {
        let empty_bitsets = |n: u32, items: u32| {
            sealed(0x0C, |enc| {
                enc.u64(1);
                enc.u32(items);
                for _ in 0..items {
                    enc.u8(10);
                    enc.u32(n);
                    enc.u32(0);
                }
            })
        };
        let half = MAX_BITSET_VERTICES / 2;
        match read_frame(&mut Cursor::new(empty_bitsets(half, 2))).unwrap() {
            WireMessage::BatchResponse { payloads, .. } => assert_eq!(payloads.len(), 2),
            other => panic!("expected a batch response, got {other:?}"),
        }
        expect_corrupt("budget overspent", empty_bitsets(half + 1, 2));
        expect_corrupt(
            "one full table, then another",
            empty_bitsets(MAX_BITSET_VERTICES, 2),
        );
    }

    #[test]
    fn non_canonical_bytes_are_corruption() {
        // Every encoder writes flags as 0 or 1, edges as (u < v) and
        // triangles sorted; anything else would decode to a value that
        // re-encodes differently.
        let response = |payload: &[u8]| {
            let payload = payload.to_vec();
            sealed(0x04, move |enc| {
                enc.u64(1);
                enc.buf.extend_from_slice(&payload);
            })
        };
        expect_corrupt("bit 2", response(&[1, 2]));
        expect_corrupt("vertex presence 2", response(&[4, 2, 0, 0, 0, 7]));
        expect_corrupt("edge presence 2", response(&[6, 2, 0, 0, 0, 1, 0, 0, 0, 2]));
        expect_corrupt("edge (2, 1)", response(&[6, 1, 0, 0, 0, 2, 0, 0, 0, 1]));
        expect_corrupt(
            "triangle presence 2",
            response(&[8, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]),
        );
        expect_corrupt(
            "triangle (1, 3, 2)",
            response(&[8, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 2]),
        );
        expect_corrupt(
            "hello slot flag 2",
            sealed(0x01, |enc| {
                enc.u8(2);
                enc.u32(0);
                enc.u8(0);
                enc.u8(0);
            }),
        );
        expect_corrupt(
            "hello token flag 2",
            sealed(0x01, |enc| {
                enc.u8(0);
                enc.u8(2);
                enc.u8(0);
            }),
        );
        expect_corrupt(
            "hello resume flag 2",
            sealed(0x01, |enc| {
                enc.u8(0);
                enc.u8(0);
                enc.u8(2);
            }),
        );
        // A sparse row longer than the set would keep sparse.
        let n = 64u32;
        let long = EdgeBitset::max_sparse_row(n as usize) as u32 + 1;
        expect_bitset_reject("over-long sparse row", |enc| {
            enc.u32(n);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(long);
            for v in 1..=long {
                enc.u32(v);
            }
        });
    }

    #[test]
    fn handshake_and_control_frames_roundtrip() {
        let welcome = Welcome {
            player: 2,
            k: 4,
            n: 1024,
            seed: 0xDEAD_BEEF,
            cost_model: CostModel::Blackboard,
            protocol: "low".into(),
            params: "eps=0.2 d=8".into(),
            resume_nonce: 0x5EED_D00D,
        };
        for msg in [
            WireMessage::Hello {
                slot: None,
                token: None,
                resume: None,
            },
            WireMessage::Hello {
                slot: Some(3),
                token: None,
                resume: None,
            },
            WireMessage::Hello {
                slot: Some(1),
                token: Some("s3cret".into()),
                resume: None,
            },
            WireMessage::Hello {
                slot: None,
                token: Some("s3cret".into()),
                resume: Some(ResumeClaim {
                    slot: 2,
                    nonce: 0xDEAD_5EED,
                    last_acked: 17,
                }),
            },
            WireMessage::Welcome(welcome),
            WireMessage::SimRequest { id: 1 },
            WireMessage::AdoptShared { seed: 77 },
            WireMessage::Ack,
            WireMessage::Error {
                code: ErrorCode::Generic,
                reason: "no such slot".into(),
            },
            WireMessage::Error {
                code: ErrorCode::Unauthorized,
                reason: "invalid auth token".into(),
            },
            WireMessage::Error {
                code: ErrorCode::WindowExpired,
                reason: "slot 2 reconnect window expired".into(),
            },
            WireMessage::Error {
                code: ErrorCode::SlotAttached,
                reason: "slot 2 is still attached".into(),
            },
            WireMessage::Goodbye {
                summary: "accepted (no triangle found)".into(),
            },
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn unknown_error_codes_are_corruption_not_panics() {
        expect_corrupt(
            "unknown code byte",
            sealed(0x09, |enc| {
                enc.u8(200);
                enc.str("made up");
            }),
        );
    }

    #[test]
    fn sim_messages_roundtrip_with_registered_phases() {
        let mut m = SimMessage::empty();
        m.push_phased(Payload::Edges(vec![e(0, 1)].into()), "induced-sample");
        m.push_phased(Payload::Bit(true), DEFAULT_PHASE);
        let back = roundtrip(&WireMessage::SimResponse {
            id: 8,
            message: m.clone(),
        });
        match back {
            WireMessage::SimResponse { id, message } => {
                assert_eq!(id, 8);
                assert_eq!(message.payloads(), m.payloads());
                assert_eq!(message.phases(), m.phases());
            }
            other => panic!("expected SimResponse, got {other:?}"),
        }
        assert_eq!(m.bit_len(16), m.clone().into_owned().bit_len(16));
    }

    #[test]
    fn an_unregistered_phase_is_corrupt() {
        let mut m = SimMessage::empty();
        m.push_phased(Payload::Bit(true), "induced-sample");
        m.push_phased(Payload::Bit(false), "made-up-phase");
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMessage::SimResponse { id: 1, message: m }).unwrap();
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)), "{err}");
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMessage::AdoptShared { seed: 4 }).unwrap();
        // Flip one body bit: the checksum must catch it.
        let flip = buf.len() - 9;
        buf[flip] ^= 0x10;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)), "{err}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMessage::Ack).unwrap();
        // Patch the version byte and re-seal the checksum so only the
        // version is wrong.
        buf[4] = WIRE_VERSION + 1;
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        let sum = checksum_bytes(&buf[4..4 + len]);
        let at = 4 + len;
        buf[at..at + 8].copy_from_slice(&sum.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(err, WireError::Version { got } if got == WIRE_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn truncated_streams_and_absurd_lengths_error_cleanly() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &WireMessage::Goodbye {
                summary: "bye".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            WireError::Io(_)
        ));
        let absurd = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(absurd)).unwrap_err(),
            WireError::Corrupt(_)
        ));
    }

    /// Builds a correctly framed, correctly checksummed `Response` whose
    /// payload is a hand-written tag-10 bitset body — so the only thing
    /// under test is the bitset decoder's validation, not the checksum.
    fn sealed_bitset_frame(build: impl FnOnce(&mut Enc)) -> Vec<u8> {
        sealed(0x04, |enc| {
            enc.u64(1); // correlation id
            enc.u8(10); // EdgeBits payload tag
            build(enc);
        })
    }

    fn expect_bitset_reject(what: &str, build: impl FnOnce(&mut Enc)) {
        expect_corrupt(what, sealed_bitset_frame(build));
    }

    #[test]
    fn malformed_bitset_bodies_are_rejected_before_allocation() {
        // Vertex count past the cap: rejected before EdgeBitset::new.
        expect_bitset_reject("oversized n", |enc| {
            enc.u32(MAX_BITSET_VERTICES + 1);
            enc.u32(0);
        });
        // Row count the frame cannot possibly hold.
        expect_bitset_reject("rows exceed frame", |enc| {
            enc.u32(1000);
            enc.u32(900);
        });
        // More rows than vertices.
        expect_bitset_reject("rows exceed vertices", |enc| {
            enc.u32(2);
            enc.u32(3);
        });
        // Rows out of ascending order.
        expect_bitset_reject("rows not ascending", |enc| {
            enc.u32(10);
            enc.u32(2);
            for u in [3u32, 2] {
                enc.u32(u);
                enc.u8(0);
                enc.u32(1);
                enc.u32(u + 1);
            }
        });
        // Row index past n.
        expect_bitset_reject("row index out of range", |enc| {
            enc.u32(4);
            enc.u32(1);
            enc.u32(7);
            enc.u8(0);
            enc.u32(1);
            enc.u32(8);
        });
        // Sparse count the frame cannot hold: rejected before the ids
        // would be read (or any buffer allocated).
        expect_bitset_reject("sparse count exceeds frame", |enc| {
            enc.u32(100);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(1_000_000);
        });
        // Sparse ids out of order, at/below the row, or past n.
        expect_bitset_reject("sparse ids not ascending", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(2);
            enc.u32(5);
            enc.u32(3);
        });
        expect_bitset_reject("sparse id at the row index", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(4);
            enc.u8(0);
            enc.u32(1);
            enc.u32(4);
        });
        expect_bitset_reject("sparse id past n", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(1);
            enc.u32(10);
        });
        // Dense row with the wrong word count (n = 100 needs 2 words).
        expect_bitset_reject("oversized dense word count", |enc| {
            enc.u32(100);
            enc.u32(1);
            enc.u32(0);
            enc.u8(1);
            enc.u32(3);
            for _ in 0..3 {
                enc.u64(2);
            }
        });
        // Dense word count the frame cannot hold.
        expect_bitset_reject("dense words exceed frame", |enc| {
            enc.u32(1 << 19);
            enc.u32(1);
            enc.u32(0);
            enc.u8(1);
            enc.u32((1usize << 19).div_ceil(64) as u32);
        });
        // Trailing bit at position 70 with n = 70: past the vertex space.
        expect_bitset_reject("trailing bits past n", |enc| {
            enc.u32(70);
            enc.u32(1);
            enc.u32(0);
            enc.u8(1);
            enc.u32(2);
            enc.u64(2);
            enc.u64(1 << (70 - 64));
        });
        // Bit at or below the row index breaks canonical order.
        expect_bitset_reject("bit at or below the row", |enc| {
            enc.u32(70);
            enc.u32(1);
            enc.u32(5);
            enc.u8(1);
            enc.u32(2);
            enc.u64(1 << 3);
            enc.u64(0);
        });
        // Encodings of nothing: empty rows may not travel.
        expect_bitset_reject("empty sparse row", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(0);
        });
        expect_bitset_reject("empty dense row", |enc| {
            enc.u32(70);
            enc.u32(1);
            enc.u32(0);
            enc.u8(1);
            enc.u32(2);
            enc.u64(0);
            enc.u64(0);
        });
        // Unknown row kind.
        expect_bitset_reject("unknown row kind", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(0);
            enc.u8(7);
            enc.u32(1);
            enc.u32(1);
        });
        // Truncated mid-row: the body ends before the declared id.
        expect_bitset_reject("truncated sparse row", |enc| {
            enc.u32(10);
            enc.u32(1);
            enc.u32(0);
            enc.u8(0);
            enc.u32(2);
            enc.u32(3);
        });
    }

    #[test]
    fn checksum_mixes_length_and_content() {
        assert_ne!(checksum_bytes(b""), checksum_bytes(b"\0"));
        assert_ne!(checksum_bytes(b"\0\0"), checksum_bytes(b"\0"));
        assert_ne!(checksum_bytes(b"ab"), checksum_bytes(b"ba"));
        assert_eq!(checksum_bytes(b"triad"), checksum_bytes(b"triad"));
    }
}
