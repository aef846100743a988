//! Differential suite for the session scheduler.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Batch transparency** — `N` sessions multiplexed over one worker
//!    pool by [`SessionBatch`] produce *bit-identical* results to the
//!    same `N` sweeps run standalone through
//!    [`run_amplified_prepared`], field by field (verdict, stats, and
//!    every tally rollup), at 1, 2 and 4 threads, across mixed testers
//!    and graphs sharing one batch. Interleaving work and sharing the
//!    prepared-input cache must be observably free, and the cache is
//!    keyed by content: equal inputs at different addresses share one
//!    preparation.
//! 2. **Absorb algebra** — [`Recorder::absorb`] on [`Tally`] is
//!    associative in full (every rollup, including round structure),
//!    and commutative on the order-insensitive rollups (total bits,
//!    per-phase, per-player, per-direction, per-label, aggregate
//!    stats). The scheduler's per-session serial-prefix reduction
//!    relies on exactly this algebra: it folds in rep order, so
//!    associativity is what makes "merge as they finish" legal.

use proptest::prelude::*;
use triad::comm::pool::Pool;
use triad::comm::{BitCost, Direction, Recorder, Tally};
use triad::graph::generators::{far_graph, gnp_with_average_degree};
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::{Edge, Graph, VertexId};
use triad::protocols::amplify::{rep_seed, run_amplified_prepared, PreparedInput, Repeatable};
use triad::protocols::session::{SessionBatch, SessionSpec, SessionTester};
use triad::protocols::{SimProtocolKind, SimultaneousTester, TallyRun, Tuning, UnrestrictedTester};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Asserts two runs agree on every comparable field.
fn assert_identical(label: &str, reference: &TallyRun, batched: &TallyRun, threads: usize) {
    assert_eq!(
        batched.outcome.triangle(),
        reference.outcome.triangle(),
        "{label}@{threads}: outcome"
    );
    assert_eq!(batched.stats, reference.stats, "{label}@{threads}: stats");
    let t: &Tally = &reference.transcript;
    let y: &Tally = &batched.transcript;
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

/// The repetition a standalone sweep of `spec` stops at (its first
/// witness or error), or `None` when it runs every repetition.
fn stopping_rep(spec: &SessionSpec<'_>) -> Option<u32> {
    let input = PreparedInput::new(spec.graph, spec.partition).expect("valid input");
    (0..spec.reps).find(|&r| {
        spec.tester
            .run_prepared(&input, rep_seed(spec.seed, r), None)
            .map_or(true, |rep| rep.run.outcome.found_triangle())
    })
}

/// The mixed workload: two graphs (one ε-far, one plain G(n,p)), three
/// testers, sessions cycling over every (graph, tester) combination,
/// then every tester twice more on a triangle-free graph. Sessions stop
/// at repetition 0, at a later repetition, or never, so the scheduler's
/// waves are cut at every depth.
#[test]
fn batched_sessions_are_bit_identical_to_standalone_sweeps() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let far = far_graph(260, 6.0, 0.2, &mut rng).expect("far graph");
    let far_parts = random_disjoint(&far, 3, &mut rng);
    let gnp = gnp_with_average_degree(200, 5.0, &mut rng);
    let gnp_parts = random_disjoint(&gnp, 4, &mut rng);
    let inputs: [(&Graph, &Partition); 2] = [(&far, &far_parts), (&gnp, &gnp_parts)];
    // Bipartite across the halves, so triangle-free.
    let free = Graph::from_edges(
        200,
        gnp.edges()
            .iter()
            .filter(|e| (e.u().0 < 100) != (e.v().0 < 100))
            .map(|e| (e.u().0, e.v().0)),
    );
    let free_parts = random_disjoint(&free, 3, &mut rng);
    let tuning = Tuning::practical(0.2);
    let testers = [
        SessionTester::Unrestricted(UnrestrictedTester::new(tuning)),
        SessionTester::Simultaneous(SimultaneousTester::new(
            tuning,
            SimProtocolKind::Low { avg_degree: 6.0 },
        )),
        SessionTester::Exact(Default::default()),
    ];

    // Twelve sessions: every (input, tester) pair twice, distinct seeds.
    let mut batch = SessionBatch::new();
    let mut specs = Vec::new();
    for s in 0..12usize {
        let (g, parts) = inputs[s % 2];
        let spec = SessionSpec {
            graph: g,
            partition: parts,
            tester: testers[s % 3].clone(),
            seed: 40 + s as u64,
            reps: 3,
        };
        batch.submit(spec.clone());
        specs.push(spec);
    }
    // Six more on the triangle-free input: every tester twice.
    for s in 12..18usize {
        let spec = SessionSpec {
            graph: &free,
            partition: &free_parts,
            tester: testers[s % 3].clone(),
            seed: 40 + s as u64,
            reps: 3,
        };
        batch.submit(spec.clone());
        specs.push(spec);
    }
    let stops: Vec<_> = specs.iter().map(stopping_rep).collect();
    assert!(stops.contains(&Some(0)), "{stops:?}: none stop at rep 0");
    assert!(
        stops.iter().any(|&s| s > Some(0)),
        "{stops:?}: none stop at a later rep"
    );
    assert!(stops.contains(&None), "{stops:?}: every session stops");

    // Standalone references: one amplified sweep per session, serial.
    let serial = Pool::serial();
    let references: Vec<TallyRun> = specs
        .iter()
        .map(|spec| {
            let input = PreparedInput::new(spec.graph, spec.partition).expect("valid input");
            run_amplified_prepared(&serial, &spec.tester, &input, spec.reps, spec.seed)
                .expect("reference sweep")
        })
        .collect();

    for threads in [1, 2, 4] {
        let results = batch.run(&Pool::new(threads));
        // Three distinct (graph, partition) inputs, built once each;
        // the other fifteen sessions are cache hits.
        assert_eq!(results.cache_misses, 3, "@{threads}: cache misses");
        assert_eq!(results.cache_hits, 15, "@{threads}: cache hits");
        for (s, (got, reference)) in results.iter().zip(&references).enumerate() {
            let got = got.as_ref().expect("batched session");
            assert_identical(&format!("session {s}"), reference, got, threads);
        }
    }
}

/// The prepared-input cache is keyed by content, not by address: two
/// separately allocated clones of one (graph, partition) share a single
/// preparation, and each session still matches its standalone sweep.
#[test]
fn equal_inputs_at_different_addresses_share_one_preparation() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let g = far_graph(150, 6.0, 0.2, &mut rng).expect("far graph");
    let parts = random_disjoint(&g, 3, &mut rng);
    let (g2, parts2) = (g.clone(), parts.clone());
    assert!(!std::ptr::eq(&g, &g2) && !std::ptr::eq(&parts, &parts2));
    let tester = SessionTester::Simultaneous(SimultaneousTester::new(
        Tuning::practical(0.2),
        SimProtocolKind::Low { avg_degree: 6.0 },
    ));
    let mut batch = SessionBatch::new();
    for s in 0..4u64 {
        let (g, parts) = if s % 2 == 0 {
            (&g, &parts)
        } else {
            (&g2, &parts2)
        };
        batch.submit(SessionSpec {
            graph: g,
            partition: parts,
            tester: tester.clone(),
            seed: s,
            reps: 2,
        });
    }
    let input = PreparedInput::new(&g, &parts).expect("valid input");
    for threads in [1, 2] {
        let results = batch.run(&Pool::new(threads));
        assert_eq!(results.cache_misses, 1, "@{threads}: cache misses");
        assert_eq!(results.cache_hits, 3, "@{threads}: cache hits");
        for (s, got) in results.iter().enumerate() {
            let got = got.as_ref().expect("batched session");
            let reference =
                run_amplified_prepared(&Pool::serial(), &tester, &input, 2, s as u64).unwrap();
            assert_identical(&format!("clone session {s}"), &reference, got, threads);
        }
    }
}

/// An invalid session must fail alone: its slot carries the error while
/// every valid session in the same batch still matches its standalone
/// sweep.
#[test]
fn invalid_session_fails_without_poisoning_the_batch() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = gnp_with_average_degree(120, 5.0, &mut rng);
    let parts = random_disjoint(&g, 3, &mut rng);
    // A share referencing a vertex outside the graph.
    let bad = Partition::new(vec![
        vec![Edge::new(VertexId(0), VertexId(5000))],
        vec![],
        vec![],
    ]);
    let tester = SessionTester::Exact(Default::default());

    let mut batch = SessionBatch::new();
    let ok_before = batch.submit(SessionSpec {
        graph: &g,
        partition: &parts,
        tester: tester.clone(),
        seed: 1,
        reps: 2,
    });
    let broken = batch.submit(SessionSpec {
        graph: &g,
        partition: &bad,
        tester: tester.clone(),
        seed: 2,
        reps: 2,
    });
    let ok_after = batch.submit(SessionSpec {
        graph: &g,
        partition: &parts,
        tester: tester.clone(),
        seed: 3,
        reps: 2,
    });

    let results = batch.run(&Pool::new(2));
    assert!(results.get(broken).is_err(), "invalid input must error");
    let serial = Pool::serial();
    let input = PreparedInput::new(&g, &parts).unwrap();
    for (handle, seed) in [(ok_before, 1), (ok_after, 3)] {
        let got = results.get(handle).as_ref().expect("valid session");
        let reference = run_amplified_prepared(&serial, &tester, &input, 2, seed).unwrap();
        assert_identical("valid-beside-invalid", &reference, got, 2);
    }
}

/// One recorded tally operation: `(player, bits, label index,
/// direction index, advance round first)`.
type TallyOp = (usize, u64, usize, usize, bool);

const LABELS: [&str; 3] = ["probe", "sample", "reply"];

/// Strategy: an arbitrary tally script over 4 players, including empty
/// scripts (a pristine tally — the absorb identity element).
fn tally_ops(max_ops: usize) -> impl Strategy<Value = Vec<TallyOp>> {
    // The vendored proptest shim implements `Strategy` for tuples of at
    // most four elements, so the five fields are nested and flattened.
    prop::collection::vec(
        ((0..4usize, 0..64u64), (0..3usize, 0..3usize, any::<bool>()))
            .prop_map(|((p, bits), (li, di, advance))| (p, bits, li, di, advance)),
        0..max_ops,
    )
}

fn build_tally(ops: &[TallyOp]) -> Tally {
    let k = 4;
    let mut t = Tally::with_players(k);
    for &(p, bits, li, di, advance) in ops {
        if advance {
            t.next_round();
        }
        let dir = match di {
            0 => Direction::ToPlayer,
            1 => Direction::ToCoordinator,
            _ => Direction::Broadcast,
        };
        let player = if dir == Direction::Broadcast {
            None
        } else {
            Some(p)
        };
        t.record(player, dir, BitCost(bits), LABELS[li]);
    }
    t
}

fn absorbed(a: &Tally, b: &Tally) -> Tally {
    let mut out = Tally::with_players(4);
    out.absorb(a);
    out.absorb(b);
    out
}

/// Full equality: every rollup, including the order-sensitive round
/// structure.
fn assert_tally_eq(label: &str, x: &Tally, y: &Tally) {
    assert_eq!(x.total_bits(), y.total_bits(), "{label}: total bits");
    assert_eq!(x.stats(), y.stats(), "{label}: stats");
    assert_eq!(
        x.per_player_sent(),
        y.per_player_sent(),
        "{label}: per-player"
    );
    assert_eq!(x.by_phase(), y.by_phase(), "{label}: by_phase");
    assert_eq!(x.by_player(), y.by_player(), "{label}: by_player");
    assert_eq!(x.by_round(), y.by_round(), "{label}: by_round");
    assert_eq!(x.by_direction(), y.by_direction(), "{label}: by_direction");
    assert_eq!(x.breakdown(), y.breakdown(), "{label}: breakdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` in full — this is the property the
    /// scheduler's ordered per-session reduction rests on.
    #[test]
    fn tally_absorb_is_associative(
        a in tally_ops(24),
        b in tally_ops(24),
        c in tally_ops(24),
    ) {
        let (a, b, c) = (build_tally(&a), build_tally(&b), build_tally(&c));
        let left = absorbed(&absorbed(&a, &b), &c);
        let right = absorbed(&a, &absorbed(&b, &c));
        assert_tally_eq("associativity", &left, &right);
    }

    /// `a ⊕ b` and `b ⊕ a` agree on every order-insensitive rollup.
    /// Round *structure* legitimately differs (absorb appends the other
    /// tally's rounds after its own), so `by_round` is exempt — but the
    /// totals it rolls up are not.
    #[test]
    fn tally_absorb_commutes_on_order_insensitive_rollups(
        a in tally_ops(24),
        b in tally_ops(24),
    ) {
        let (a, b) = (build_tally(&a), build_tally(&b));
        let ab = absorbed(&a, &b);
        let ba = absorbed(&b, &a);
        prop_assert_eq!(ab.total_bits(), ba.total_bits(), "total bits");
        prop_assert_eq!(ab.stats(), ba.stats(), "stats");
        prop_assert_eq!(ab.per_player_sent(), ba.per_player_sent(), "per-player");
        prop_assert_eq!(ab.by_direction(), ba.by_direction(), "by_direction");
        for label in LABELS {
            prop_assert_eq!(
                ab.bits_for_label(label),
                ba.bits_for_label(label),
                "label {}", label
            );
        }
        // Rollup vectors may list entries in different orders; compare
        // them as sorted sets.
        let sorted = |mut v: Vec<triad::comm::Rollup>| {
            v.sort_by(|x, y| x.key.cmp(&y.key));
            v
        };
        prop_assert_eq!(sorted(ab.by_phase()), sorted(ba.by_phase()), "by_phase");
        prop_assert_eq!(sorted(ab.by_player()), sorted(ba.by_player()), "by_player");
    }
}
