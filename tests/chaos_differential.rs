//! Differential suite for the chaos (fault-injection) path.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Fault-free transparency** — `run_chaos_amplified` with
//!    [`FaultPlan::fault_free`] is byte-identical to the plain amplified
//!    sweep: same verdict, same stats, same cost rollups, field by
//!    field, at every thread count. The chaos machinery must cost
//!    nothing when no faults are injected.
//! 2. **One-sided degradation** — under omission faults at the default
//!    (unanimous) quorum, a chaos run may report the fault-free verdict
//!    or an explicit `Inconclusive`, but never the *opposite* verdict:
//!    a reported triangle always exists, and a lost quorum never decays
//!    into an accept.
//!
//! The quick chaos matrix is also pinned byte for byte
//! (`tests/data/BENCH_chaos_quick.json`), so any moved fault, retry or
//! retransmit bill fails here.

use proptest::prelude::*;
use triad::comm::pool::Pool;
use triad::comm::{FaultPlan, FaultRates, PayloadRepr, Recorder, Tally};
use triad::graph::generators::gnp_with_average_degree;
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::Graph;
use triad::protocols::amplify::{run_amplified_prepared, PreparedInput};
use triad::protocols::baseline::SendEverything;
use triad::protocols::{
    run_chaos_amplified, ChaosRun, Repeatable, SimProtocolKind, SimultaneousTester, TallyRun,
    Tuning, UnrestrictedTester, DEFAULT_QUORUM,
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

/// Asserts a fault-free chaos run agrees with the plain amplified run on
/// every comparable field — the chaos decorator is observably free at
/// fault rate zero.
fn assert_transparent(label: &str, reference: &TallyRun, chaos: &ChaosRun, threads: usize) {
    assert_eq!(
        chaos.outcome.triangle(),
        reference.outcome.triangle(),
        "{label}@{threads}: outcome"
    );
    assert_eq!(chaos.stats, reference.stats, "{label}@{threads}: stats");
    let t: &Tally = &reference.transcript;
    let y: &Tally = &chaos.tally;
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
    assert_eq!(chaos.failures.total(), 0, "{label}@{threads}: failures");
    assert_eq!(chaos.injected.total(), 0, "{label}@{threads}: injections");
    assert_eq!(chaos.retransmit_bits(), 0, "{label}@{threads}: retransmit");
    assert_eq!(
        chaos.survived, chaos.attempted,
        "{label}@{threads}: survivors"
    );
}

/// Runs one tester fault-free both ways at several thread counts.
fn check_transparency<T: Repeatable + Sync>(
    label: &str,
    tester: &T,
    g: &Graph,
    parts: &Partition,
    reps: u32,
    seed: u64,
) {
    let input = PreparedInput::new(g, parts).unwrap();
    let reference = run_amplified_prepared(&Pool::serial(), tester, &input, reps, seed)
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
    let plan = FaultPlan::fault_free(seed ^ 0x5EED);
    for threads in [1usize, 2, 4] {
        let chaos = run_chaos_amplified(
            &Pool::new(threads),
            tester,
            &input,
            reps,
            seed,
            &plan,
            DEFAULT_QUORUM,
        );
        assert_transparent(label, &reference, &chaos, threads);
    }
}

/// The knobs of one omission-degradation case, bundled so the checker's
/// signature stays readable.
struct OmissionCase {
    reps: u32,
    seed: u64,
    rate: f64,
    fault_seed: u64,
}

/// Runs one tester under omission faults and checks the verdict can
/// degrade only to `Inconclusive`, never flip.
fn check_omission_degradation<T: Repeatable + Sync>(
    label: &str,
    tester: &T,
    g: &Graph,
    parts: &Partition,
    case: &OmissionCase,
) {
    let input = PreparedInput::new(g, parts).unwrap();
    let plain = run_amplified_prepared(&Pool::serial(), tester, &input, case.reps, case.seed)
        .unwrap_or_else(|e| panic!("{label}: plain run failed: {e}"));
    let plan = FaultPlan::new(case.fault_seed, FaultRates::omission(case.rate));
    let chaos = run_chaos_amplified(
        &Pool::serial(),
        tester,
        &input,
        case.reps,
        case.seed,
        &plan,
        DEFAULT_QUORUM,
    );
    if let Some(t) = chaos.outcome.triangle() {
        // One-sided error survives chaos: a reported witness is real.
        assert!(t.exists_in(g), "{label}: fabricated witness {t}");
    }
    if plain.outcome.found_triangle() {
        // The fault-free sweep finds a triangle; faults may hide it
        // (Inconclusive at the unanimous quorum) but can never launder
        // the loss into a confident accept.
        assert_ne!(
            chaos.outcome.as_str(),
            "accepted",
            "{label}: omission faults flipped a triangle into an accept"
        );
    } else {
        // The fault-free sweep accepts; faults can only degrade that to
        // an explicit refusal, never conjure a triangle.
        assert!(
            !chaos.outcome.found_triangle(),
            "{label}: omission faults conjured a witness"
        );
    }
}

/// Dispatches a protocol index to a concrete tester (the vendored
/// proptest shim has no trait-object strategies). `repr` selects the
/// edge-set payload representation, so every chaos property below can
/// be checked on edge lists, bitsets, and the auto gate alike.
fn with_protocol(
    idx: usize,
    d: f64,
    repr: PayloadRepr,
    f: impl FnOnce(&str, &(dyn Repeatable + Sync)),
) {
    let tuning = Tuning::practical(0.2).with_repr(repr);
    match idx {
        0 => f("exact", &SendEverything::with_repr(repr)),
        1 => f(
            "sim-low",
            &SimultaneousTester::new(tuning, SimProtocolKind::Low { avg_degree: d }),
        ),
        2 => f(
            "sim-high",
            &SimultaneousTester::new(tuning, SimProtocolKind::High { avg_degree: d }),
        ),
        3 => f(
            "sim-oblivious",
            &SimultaneousTester::new(tuning, SimProtocolKind::Oblivious),
        ),
        _ => f("unrestricted", &UnrestrictedTester::new(tuning)),
    }
}

proptest! {
    /// For random (protocol, seed, player count), the fault-free chaos
    /// path is indistinguishable from the plain amplified sweep at 1, 2
    /// and 4 threads.
    #[test]
    fn fault_free_chaos_matches_plain_sweep(
        idx in 0..5usize,
        k in 2..6usize,
        seed in 0..1_000_000u64,
        graph_seed in 0..4u64,
    ) {
        let (g, parts) = workload(80, k, graph_seed);
        let d = g.average_degree().max(0.1);
        with_protocol(idx, d, PayloadRepr::Auto, |label, tester| {
            check_transparency(label, &tester, &g, &parts, 3, seed);
        });
    }

    /// For random (protocol, seed, drop rate), an omission-fault run at
    /// the unanimous quorum reports the fault-free verdict or an
    /// explicit `Inconclusive` — never the opposite verdict.
    #[test]
    fn omission_faults_never_flip_the_verdict(
        idx in 0..5usize,
        k in 2..6usize,
        seed in 0..1_000_000u64,
        graph_seed in 0..4u64,
        rate_pct in 0..80u32,
        fault_seed in 0..1_000_000u64,
        repr_idx in 0..3usize,
    ) {
        let (g, parts) = workload(80, k, graph_seed);
        let d = g.average_degree().max(0.1);
        let repr = [PayloadRepr::Auto, PayloadRepr::Edges, PayloadRepr::Bits][repr_idx];
        with_protocol(idx, d, repr, |label, tester| {
            check_omission_degradation(
                label,
                &tester,
                &g,
                &parts,
                &OmissionCase {
                    reps: 4,
                    seed,
                    rate: f64::from(rate_pct) / 100.0,
                    fault_seed,
                },
            );
        });
    }
}

/// Deterministic anchor for the transparency property: every protocol at
/// a pinned workload, so a differential failure reproduces without a
/// proptest seed.
#[test]
fn every_protocol_is_chaos_transparent_at_pinned_seed() {
    let (g, parts) = workload(150, 4, 9);
    let d = g.average_degree().max(0.1);
    for idx in 0..5 {
        for repr in [PayloadRepr::Edges, PayloadRepr::Bits] {
            with_protocol(idx, d, repr, |label, tester| {
                check_transparency(label, &tester, &g, &parts, 4, 42);
            });
        }
    }
}

/// Deterministic anchor for the degradation property, sweeping drop
/// rates from mild to total blackout.
#[test]
fn omission_sweep_never_flips_at_pinned_seed() {
    let (g, parts) = workload(150, 4, 9);
    let d = g.average_degree().max(0.1);
    for idx in 0..5 {
        for rate in [0.05, 0.3, 1.0] {
            with_protocol(idx, d, PayloadRepr::Bits, |label, tester| {
                let case = OmissionCase {
                    reps: 4,
                    seed: 42,
                    rate,
                    fault_seed: 7,
                };
                check_omission_degradation(label, &tester, &g, &parts, &case);
            });
        }
    }
}

/// Corruption of bitset frames is detected, typed, and one-sided: a
/// dense workload forced onto (or auto-gated into) the packed
/// representation, under a corruption-only fault plan, kills exactly
/// the corrupted repetitions with `RunError::Corrupt` — and the
/// quorum verdict may degrade but never flip relative to the
/// fault-free sweep.
#[test]
fn bitset_frame_corruption_is_typed_and_never_flips() {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let g = gnp_with_average_degree(120, 40.0, &mut rng);
    let parts = random_disjoint(&g, 3, &mut rng);
    let d = g.average_degree().max(0.1);
    let input = PreparedInput::new(&g, &parts).unwrap();
    let seed = 42u64;
    for repr in [PayloadRepr::Bits, PayloadRepr::Auto] {
        with_protocol(0, d, repr, |label, tester| {
            let plain = run_amplified_prepared(&Pool::serial(), &tester, &input, 4, seed)
                .unwrap_or_else(|e| panic!("{label}: plain run failed: {e}"));
            for rate in [0.3, 1.0] {
                let plan = FaultPlan::new(
                    9,
                    FaultRates {
                        corrupt: rate,
                        ..FaultRates::none()
                    },
                );
                let chaos = run_chaos_amplified(
                    &Pool::serial(),
                    &tester,
                    &input,
                    4,
                    seed,
                    &plan,
                    DEFAULT_QUORUM,
                );
                // Every kill is a typed Corrupt — corruption of a
                // tag-10 bitset body never surfaces as a panic, a
                // timeout, or (worst) a silently wrong verdict.
                assert_eq!(
                    chaos.failures.total(),
                    chaos.failures.corrupt,
                    "{label}@{rate}: only Corrupt failures expected"
                );
                assert_eq!(
                    chaos.injected.drops + chaos.injected.crashes,
                    0,
                    "{label}@{rate}: corruption-only plan"
                );
                if rate == 1.0 {
                    assert!(
                        chaos.failures.corrupt > 0,
                        "{label}: total corruption must kill repetitions"
                    );
                }
                if let Some(t) = chaos.outcome.triangle() {
                    assert!(t.exists_in(&g), "{label}@{rate}: fabricated witness");
                }
                if plain.outcome.found_triangle() {
                    assert_ne!(
                        chaos.outcome.as_str(),
                        "accepted",
                        "{label}@{rate}: corruption flipped a triangle into an accept"
                    );
                } else {
                    assert!(
                        !chaos.outcome.found_triangle(),
                        "{label}@{rate}: corruption conjured a witness"
                    );
                }
            }
        });
    }
}

/// The quick chaos matrix (no reconnect rows) is byte-identical to the
/// checked-in golden: every injected fault, failure and retransmitted
/// bit of its nine cells, on the multi-round and the one-round path.
#[test]
fn bench_chaos_quick_json_matches_golden() {
    let cells = triad_bench::chaos::chaos_suite(triad_bench::experiments::Scale::Quick);
    let dir = std::env::temp_dir().join(format!("triad-chaos-quick-{}", std::process::id()));
    let path = triad_bench::chaos::write_chaos_json(&dir, &cells, &[]).unwrap();
    let fresh = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/BENCH_chaos_quick.json"
    ))
    .expect("golden BENCH_chaos_quick.json is checked in");
    assert_eq!(
        String::from_utf8(fresh).unwrap(),
        String::from_utf8(golden).unwrap(),
        "BENCH_chaos.json bytes drifted from the quick golden"
    );
}
