//! Differential conformance: the deterministic parallel engine must be
//! byte-identical to the serial path.
//!
//! The contract under test (docs/PARALLELISM.md): for any thread count,
//! amplified runs, the standard cost suite, and the `reproduce
//! --json-dir` export produce the same outcomes, the same `CommStats`,
//! and the same `CostReport` JSON bytes as a plain serial loop —
//! including early-exit cost accounting.

use triad::comm::pool::Pool;
use triad::comm::{CommStats, CostReport, PayloadRepr, Recorder, Transcript};
use triad::graph::partition::Partition;
use triad::graph::Graph;
use triad::protocols::amplify::{rep_seed, run_amplified_prepared, PreparedInput};
use triad::protocols::baseline::{run_send_everything, SendEverything};
use triad::protocols::{
    ProtocolRun, SessionTester, SimProtocolKind, SimultaneousTester, TestOutcome, Tuning,
    UnrestrictedTester,
};
use triad_bench::experiments::Scale;
use triad_bench::report::{standard_suite_with, write_bench_json};
use triad_bench::workloads::planted_far;

const EPS: f64 = 0.2;
const REPS: u32 = 4;

/// The reference implementation: a plain serial loop over each tester's
/// public full-transcript `run`, written out by hand so the test does
/// not trust `Pool::serial` to define "serial".
fn serial_amplified(
    tester: &SessionTester,
    g: &Graph,
    partition: &Partition,
    repetitions: u32,
    base_seed: u64,
) -> ProtocolRun {
    let mut stats = CommStats::default();
    let mut transcript = Transcript::new(partition.players());
    for r in 0..repetitions.max(1) {
        let seed = rep_seed(base_seed, r);
        let run = match tester {
            SessionTester::Unrestricted(t) => t.run(g, partition, seed),
            SessionTester::Simultaneous(t) => t.run(g, partition, seed),
            SessionTester::Exact(t) => {
                assert_eq!(t.repr, PayloadRepr::Auto, "the default baseline");
                run_send_everything(g, partition, seed)
            }
        }
        .expect("reference run failed");
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

/// Every amplifiable protocol in the matrix: both tester families (the
/// multi-round unrestricted tester and the one-round simultaneous ones)
/// plus the exact baseline.
fn protocol_matrix(d: f64) -> Vec<(&'static str, SessionTester)> {
    let sim =
        |kind| SessionTester::Simultaneous(SimultaneousTester::new(Tuning::practical(EPS), kind));
    vec![
        (
            "unrestricted",
            SessionTester::Unrestricted(UnrestrictedTester::new(Tuning::practical(EPS))),
        ),
        ("sim-low", sim(SimProtocolKind::Low { avg_degree: d })),
        ("sim-high", sim(SimProtocolKind::High { avg_degree: d })),
        ("sim-oblivious", sim(SimProtocolKind::Oblivious)),
        ("exact", SessionTester::Exact(SendEverything::default())),
    ]
}

#[test]
fn amplified_cost_reports_are_byte_identical_across_thread_counts() {
    // seed × protocol × k matrix, per the ISSUE acceptance criteria:
    // the CostReport JSON at 1, 2, and 8 threads must equal the serial
    // reference byte for byte, for both tester families and the baseline.
    let n = 240;
    let d = 6.0;
    for k in [2usize, 4, 8] {
        for seed in [1u64, 5] {
            let w = planted_far(n, d, EPS, k, seed);
            let input = PreparedInput::new(&w.graph, &w.partition).unwrap();
            for (name, tester) in protocol_matrix(w.d) {
                let reference = serial_amplified(&tester, &w.graph, &w.partition, REPS, seed);
                let params = || triad::comm::ReportParams {
                    protocol: name.to_string(),
                    generator: "planted".to_string(),
                    n,
                    k,
                    d: w.d,
                    eps: EPS,
                    seed,
                };
                let ref_json = CostReport::from_tally(
                    params(),
                    reference.outcome_str(),
                    reference.stats,
                    reference.transcript.tally(),
                )
                .to_json();
                for threads in [1usize, 2, 8] {
                    let run =
                        run_amplified_prepared(&Pool::new(threads), &tester, &input, REPS, seed)
                            .expect("parallel run failed");
                    assert_eq!(
                        run.outcome, reference.outcome,
                        "{name} k={k} seed={seed} t={threads}: outcome"
                    );
                    assert_eq!(
                        run.stats, reference.stats,
                        "{name} k={k} seed={seed} t={threads}: stats"
                    );
                    let json = CostReport::from_tally(
                        params(),
                        run.outcome_str(),
                        run.stats,
                        &run.transcript,
                    )
                    .to_json();
                    assert_eq!(
                        json.as_bytes(),
                        ref_json.as_bytes(),
                        "{name} k={k} seed={seed} t={threads}: CostReport JSON"
                    );
                }
            }
        }
    }
}

#[test]
fn early_exit_charges_the_serial_prefix_exactly() {
    // A weak tester on an ε-far instance misses often, so different
    // repetitions stop the run at different indices across seeds; the
    // parallel engine must charge exactly the serial prefix every time.
    let w = planted_far(320, 6.0, EPS, 4, 3);
    let weak = SessionTester::Simultaneous(SimultaneousTester::new(
        Tuning::practical(EPS).with_scale(0.25),
        SimProtocolKind::Low { avg_degree: 6.0 },
    ));
    let input = PreparedInput::new(&w.graph, &w.partition).unwrap();
    for seed in 0..12u64 {
        let reference = serial_amplified(&weak, &w.graph, &w.partition, 8, seed);
        for threads in [2usize, 8] {
            let run = run_amplified_prepared(&Pool::new(threads), &weak, &input, 8, seed).unwrap();
            assert_eq!(run.stats, reference.stats, "seed {seed} t{threads}");
            assert_eq!(run.outcome, reference.outcome, "seed {seed} t{threads}");
        }
    }
}

#[test]
fn standard_suite_json_export_is_thread_count_invariant() {
    // This is the `reproduce --json-dir` payload: BENCH_costs.json must
    // not depend on --threads.
    let mut exports = Vec::new();
    for threads in [1usize, 2, 8] {
        let reports = standard_suite_with(&Pool::new(threads), Scale::Quick);
        let dir =
            std::env::temp_dir().join(format!("triad-par-eq-{}-t{threads}", std::process::id()));
        let path = write_bench_json(&dir, "costs", &reports).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        exports.push((threads, bytes));
    }
    let (_, reference) = &exports[0];
    assert!(!reference.is_empty());
    for (threads, bytes) in &exports[1..] {
        assert_eq!(
            bytes, reference,
            "BENCH_costs.json differs between --threads 1 and --threads {threads}"
        );
    }
}

/// ISSUE acceptance: ≥ 2× wall-clock speedup at 4 threads for amplified
/// runs with ≥ 8 repetitions on a far-graph workload.
///
/// Ignored by default: the test container exposes a single CPU, where no
/// wall-clock speedup is physically possible. Run on a multi-core host:
/// `cargo test --release -- --ignored parallel_speedup`.
#[test]
#[ignore = "needs >= 4 physical cores; run with -- --ignored on a multicore host"]
fn parallel_speedup_at_four_threads() {
    let w = planted_far(4000, 8.0, EPS, 4, 7);
    // Weak tester: most of the 16 repetitions actually run, so there is
    // parallel work to shard.
    let weak = SimultaneousTester::new(
        Tuning::practical(EPS).with_scale(0.2),
        SimProtocolKind::Low { avg_degree: 8.0 },
    );
    let input = PreparedInput::new(&w.graph, &w.partition).unwrap();
    let time = |pool: &Pool| {
        let started = std::time::Instant::now();
        for seed in 0..6u64 {
            let _ = run_amplified_prepared(pool, &weak, &input, 16, seed).unwrap();
        }
        started.elapsed()
    };
    // Warm up caches/allocator once before timing.
    let _ = time(&Pool::serial());
    let serial = time(&Pool::serial());
    let parallel = time(&Pool::new(4));
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "expected >= 2x at 4 threads, got {speedup:.2}x ({serial:?} vs {parallel:?})"
    );
}
