//! # triad-comm
//!
//! The coordinator-model communication substrate for the `triad`
//! reproduction of *"On the Multiparty Communication Complexity of Testing
//! Triangle-Freeness"* (PODC 2017).
//!
//! The paper's model: `k` players hold private edge sets `E_1..E_k`
//! (possibly overlapping) whose union is the input graph; a coordinator
//! with no input exchanges messages with the players over private
//! channels, and the cost of a protocol is the number of bits exchanged.
//! This crate provides:
//!
//! * an exact bit-cost model ([`bits`], [`message::Payload`]),
//! * transcripts and statistics ([`transcript`]),
//! * pluggable cost recorders — an allocation-free counter tally, or the
//!   full event log over one ([`recorder`]),
//! * free shared randomness realized as a PRF ([`rand`]),
//! * player state with typed request handlers ([`player`], [`request`]),
//! * runtimes — sequential in-process and TCP — under a common
//!   cost-accounting [`runtime::Runtime`], with coordinator and blackboard
//!   charging models,
//! * the one-round simultaneous framework ([`simultaneous`]),
//! * a deterministic parallel execution engine ([`pool`]) for sharding
//!   independent runs (amplification repetitions, seed sweeps) without
//!   perturbing transcripts or cost accounting,
//! * a multi-tenant session scheduler ([`scheduler`]) multiplexing many
//!   independent query sessions over one pool with cross-session work
//!   stealing and per-session serial-prefix early exit.
//!
//! # Example
//!
//! ```
//! use triad_comm::{Runtime, CostModel, SharedRandomness, PlayerRequest, Payload};
//! use triad_graph::{Edge, VertexId};
//!
//! let e = |a, b| Edge::new(VertexId(a), VertexId(b));
//! let shares = vec![vec![e(0, 1)], vec![e(1, 2)]];
//! let mut rt = Runtime::local(3, &shares, SharedRandomness::new(7), CostModel::Coordinator);
//! let resp = rt.request(0, PlayerRequest::HasEdge(e(0, 1)));
//! assert_eq!(resp, Payload::Bit(true));
//! assert!(rt.stats().total_bits > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bits;
pub mod daemon;
pub mod fault;
pub mod message;
pub mod oneway;
pub mod player;
pub mod pool;
pub mod rand;
pub mod recorder;
pub mod report;
pub mod request;
pub mod runtime;
pub mod scheduler;
pub mod simultaneous;
pub mod streaming;
pub mod transcript;
pub mod wire;

pub use bits::BitCost;
pub use daemon::{
    ConnectOptions, NetError, PlayerSession, ServeConfig, ServeSummary, SessionOptions,
    TcpCoordinator, ACCEPT_POLL_INTERVAL,
};
pub use fault::{
    corrupt_payload, run_simultaneous_chaos, FaultKind, FaultPlan, FaultRates, FaultStats,
    SimChaos, RETRANSMIT_LABEL,
};
pub use message::{Payload, PayloadEdges, PayloadRepr};
pub use oneway::{run_one_way, OneWayProtocol, OneWayRun};
pub use player::PlayerState;
pub use pool::Pool;
pub use rand::{mix64, SharedRandomness, VertexSet};
pub use recorder::{Recorder, Tally};
pub use report::{
    write_reports_json, CostReport, PredictedBound, ReportParams, REPORT_SCHEMA_VERSION,
};
pub use request::PlayerRequest;
pub use runtime::{
    CostModel, LocalTransport, RunError, RunErrorKind, Runtime, SharedTransport, TcpTransport,
    Transport, TransportError, DEFAULT_NET_TIMEOUT, DEFAULT_RETRY_BUDGET, MAX_FRAME_REQUESTS,
};
pub use scheduler::{
    run_session, run_sessions, FnSession, SessionHandle, SessionJob, SessionPrefixes,
};
pub use simultaneous::{
    run_simultaneous, run_simultaneous_collected, run_simultaneous_prepared, SimMessage, SimRun,
    SimultaneousProtocol,
};
pub use streaming::{
    run_stream, stream_as_one_way, EdgeReservoir, StreamAlgorithm, StreamOneWayRun, StreamRun,
};
pub use transcript::{
    encode_events_json, parse_events_json, CommStats, Direction, Event, LabelTotals, OwnedEvent,
    ParseError, Rollup, Transcript, DEFAULT_PHASE, PHASES,
};
pub use wire::{
    ErrorCode, ResumeClaim, Welcome, WireError, WireMessage, MAX_BITSET_VERTICES, MAX_FRAME_BYTES,
    WIRE_VERSION,
};
