//! # triad-protocols
//!
//! The protocols of *"On the Multiparty Communication Complexity of
//! Testing Triangle-Freeness"* (Fischer, Gershtein, Oshman — PODC 2017),
//! implemented over the [`triad_comm`] coordinator-model substrate.
//!
//! * [`blocks`] — the §3.1 building blocks: edge queries, unbiased random
//!   edges under duplication, random walks, Theorem 3.1's degree
//!   approximation, Lemma 3.2's no-duplication variant, induced-subgraph
//!   exposure and BFS.
//! * [`unrestricted`] — the §3.3 tester: bucket search for full vertices,
//!   birthday-paradox edge sampling, vee closing across players.
//!   `Õ(k·(nd)^{1/4} + k²)` bits, one-sided error.
//! * [`simultaneous`] — the §3.4 one-round testers: [`simultaneous::AlgHigh`]
//!   (`Õ(k·(nd)^{1/3})` for `d = Ω(√n)`), [`simultaneous::AlgLow`]
//!   (`Õ(k·√n)` for `d = O(√n)`) and the degree-oblivious combination
//!   [`simultaneous::Oblivious`] (Theorem 3.32).
//! * [`baseline`] — exact triangle detection (the `Θ(k·n·d)`
//!   send-everything regime the paper improves on).
//! * [`chaos`] — quorum-gated amplification under deterministic fault
//!   injection: failed repetitions are tallied per error kind, recovery
//!   traffic is charged as retransmitted bits, and a lost quorum yields
//!   an explicit `Inconclusive` instead of a silently wrong accept.
//! * [`config`] — all sample-size constants, with paper-faithful and
//!   practical presets.
//!
//! All testers have one-sided error: a reported triangle always exists.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use triad_graph::generators::far_graph;
//! use triad_graph::partition::random_disjoint;
//! use triad_protocols::{Tuning, UnrestrictedTester};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = far_graph(300, 6.0, 0.2, &mut rng)?;
//! let parts = random_disjoint(&g, 4, &mut rng);
//! let run = UnrestrictedTester::new(Tuning::practical(0.2)).run(&g, &parts, 7)?;
//! assert!(run.outcome.found_triangle());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod amplify;
pub mod baseline;
pub mod blocks;
pub mod chaos;
pub mod config;
pub mod counting;
pub mod outcome;
pub mod session;
pub mod simultaneous;
pub mod subgraphs;
pub mod unrestricted;

pub use amplify::{PreparedInput, Repeatable};
pub use chaos::{
    run_chaos_amplified, single_run_verdict, ChaosOutcome, ChaosRun, FailureBreakdown,
    DEFAULT_QUORUM,
};
pub use config::{Preset, Tuning};
pub use outcome::{ProtocolError, ProtocolRun, Rep, TallyRun, TestOutcome};
pub use session::{SessionBatch, SessionResults, SessionSpec, SessionTester};
pub use simultaneous::{SimProtocolKind, SimultaneousTester};
pub use triad_comm::scheduler::SessionHandle;
pub use unrestricted::UnrestrictedTester;
