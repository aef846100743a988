//! Differential suite for the recorder fast path: the counters-only
//! [`Tally`] sweep must agree with a serial loop over each tester's
//! full-[`Transcript`] `run` on every protocol, every seed, every player
//! count, and every thread count — field by field, not just in total.
//!
//! Also pins the exported `BENCH_costs.json` (schema v1) bytes against
//! the checked-in golden file, so recorder and prepared-input plumbing
//! can never silently shift the observable cost schema.

use proptest::prelude::*;
use triad::comm::pool::Pool;
use triad::comm::{CommStats, PayloadRepr, Recorder, Tally, Transcript};
use triad::graph::generators::gnp_with_average_degree;
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::Graph;
use triad::protocols::amplify::{rep_seed, run_amplified_prepared, PreparedInput};
use triad::protocols::baseline::{run_send_everything, SendEverything};
use triad::protocols::{
    ProtocolRun, SessionTester, SimProtocolKind, SimultaneousTester, TallyRun, TestOutcome, Tuning,
    UnrestrictedTester,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small pinned workload: dense enough that protocols exchange real
/// bits, small enough that proptest cases stay fast.
fn workload(n: usize, k: usize, graph_seed: u64) -> (Graph, Partition) {
    let mut rng = ChaCha8Rng::seed_from_u64(graph_seed);
    let g = gnp_with_average_degree(n, 6.0, &mut rng);
    let parts = random_disjoint(&g, k, &mut rng);
    (g, parts)
}

/// Asserts a tally-path run agrees with a transcript-path run on every
/// comparable field.
fn assert_equivalent(label: &str, reference: &ProtocolRun, fast: &TallyRun, threads: usize) {
    let t: &Tally = reference.transcript.tally();
    let y: &Tally = &fast.transcript;
    assert_eq!(
        fast.outcome, reference.outcome,
        "{label}@{threads}: outcome"
    );
    assert_eq!(fast.stats, reference.stats, "{label}@{threads}: stats");
    assert_eq!(
        y.total_bits(),
        t.total_bits(),
        "{label}@{threads}: total bits"
    );
    assert_eq!(
        y.per_player_sent(),
        t.per_player_sent(),
        "{label}@{threads}: per-player bits"
    );
    assert_eq!(y.by_phase(), t.by_phase(), "{label}@{threads}: by_phase");
    assert_eq!(y.by_player(), t.by_player(), "{label}@{threads}: by_player");
    assert_eq!(y.by_round(), t.by_round(), "{label}@{threads}: by_round");
    assert_eq!(
        y.by_direction(),
        t.by_direction(),
        "{label}@{threads}: by_direction"
    );
    assert_eq!(y.breakdown(), t.breakdown(), "{label}@{threads}: breakdown");
}

/// The reference: a hand-written serial loop over each tester's public
/// full-transcript `run`, absorbing transcripts in repetition order and
/// stopping at the first witness.
fn serial_transcript_sweep(
    label: &str,
    tester: &SessionTester,
    g: &Graph,
    parts: &Partition,
    reps: u32,
    base_seed: u64,
) -> ProtocolRun {
    let mut stats = CommStats::default();
    let mut transcript = Transcript::new(parts.players());
    for r in 0..reps.max(1) {
        let seed = rep_seed(base_seed, r);
        let run = match tester {
            SessionTester::Unrestricted(t) => t.run(g, parts, seed),
            SessionTester::Simultaneous(t) => t.run(g, parts, seed),
            SessionTester::Exact(t) => {
                assert_eq!(t.repr, PayloadRepr::Auto, "{label}: the default baseline");
                run_send_everything(g, parts, seed)
            }
        }
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
        stats = stats.merged(run.stats);
        transcript.absorb(&run.transcript);
        if run.outcome.found_triangle() {
            return ProtocolRun {
                outcome: run.outcome,
                stats,
                transcript,
            };
        }
    }
    ProtocolRun {
        outcome: TestOutcome::NoTriangleFound,
        stats,
        transcript,
    }
}

/// Runs one tester both ways at several thread counts and compares.
fn check_tester(
    label: &str,
    tester: &SessionTester,
    g: &Graph,
    parts: &Partition,
    reps: u32,
    seed: u64,
) {
    let reference = serial_transcript_sweep(label, tester, g, parts, reps, seed);
    let input = PreparedInput::new(g, parts).unwrap();
    for threads in [1usize, 2, 4] {
        let fast = run_amplified_prepared(&Pool::new(threads), tester, &input, reps, seed)
            .unwrap_or_else(|e| panic!("{label}@{threads}: fast run failed: {e}"));
        assert_equivalent(label, &reference, &fast, threads);
    }
}

/// Dispatches a protocol index to a concrete tester (the vendored
/// proptest shim has no trait-object strategies).
fn check_protocol(idx: usize, g: &Graph, parts: &Partition, reps: u32, seed: u64) {
    let tuning = Tuning::practical(0.2);
    let d = g.average_degree().max(0.1);
    let sim = |kind| SessionTester::Simultaneous(SimultaneousTester::new(tuning, kind));
    let (label, tester) = match idx {
        0 => ("exact", SessionTester::Exact(SendEverything::default())),
        1 => ("sim-low", sim(SimProtocolKind::Low { avg_degree: d })),
        2 => ("sim-high", sim(SimProtocolKind::High { avg_degree: d })),
        3 => ("sim-oblivious", sim(SimProtocolKind::Oblivious)),
        _ => (
            "unrestricted",
            SessionTester::Unrestricted(UnrestrictedTester::new(tuning)),
        ),
    };
    check_tester(label, &tester, g, parts, reps, seed);
}

proptest! {
    /// The headline differential property: for random (protocol, seed,
    /// player count), the Tally fast path is indistinguishable from the
    /// Transcript path at 1, 2 and 4 threads.
    #[test]
    fn tally_sweep_matches_transcript_sweep(
        idx in 0..5usize,
        k in 2..6usize,
        seed in 0..1_000_000u64,
        graph_seed in 0..4u64,
    ) {
        let (g, parts) = workload(80, k, graph_seed);
        check_protocol(idx, &g, &parts, 3, seed);
    }
}

/// Deterministic anchor for the property above: every protocol at a
/// pinned workload, so a differential failure reproduces without a
/// proptest seed.
#[test]
fn every_protocol_is_recorder_invariant_at_pinned_seed() {
    let (g, parts) = workload(150, 4, 9);
    for idx in 0..5 {
        check_protocol(idx, &g, &parts, 4, 42);
    }
}

/// `BENCH_costs.json` (schema v1) must stay byte-identical to the golden
/// file generated before the recorder fast path existed — the Tally
/// plumbing is observably free.
#[test]
fn bench_costs_json_matches_pre_recorder_golden() {
    let reports = triad_bench::report::standard_suite_with(
        &Pool::serial(),
        triad_bench::experiments::Scale::Quick,
    );
    let mut fresh = Vec::new();
    triad::comm::write_reports_json(&reports, &mut fresh).unwrap();
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/BENCH_costs_quick.json"
    ))
    .expect("golden BENCH_costs_quick.json is checked in");
    assert_eq!(
        fresh, golden,
        "BENCH_costs.json bytes drifted from the pre-recorder golden"
    );
}

/// The golden bytes are also thread-count invariant.
#[test]
fn bench_costs_json_is_thread_invariant() {
    let quick = triad_bench::experiments::Scale::Quick;
    let serial = triad_bench::report::standard_suite_with(&Pool::serial(), quick);
    for threads in [2usize, 4] {
        let pooled = triad_bench::report::standard_suite_with(&Pool::new(threads), quick);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        triad::comm::write_reports_json(&serial, &mut a).unwrap();
        triad::comm::write_reports_json(&pooled, &mut b).unwrap();
        assert_eq!(a, b, "BENCH_costs.json bytes depend on {threads} threads");
    }
}
