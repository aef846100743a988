//! Property-based tests (proptest) on the substrate invariants the
//! protocols rely on.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use triad::comm::pool::Pool;
use triad::comm::{
    bits, mix64, run_sessions, BitCost, CommStats, Direction, Event, FnSession, Payload, Recorder,
    Rollup, SharedRandomness, Transcript, DEFAULT_PHASE,
};
use triad::graph::{buckets, distance, triangles, Edge, Graph, GraphBuilder, VertexId};

/// Strategy: a random edge list over `n` vertices.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

fn build(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for (a, bb) in pairs {
        b.add_edge(Edge::new(VertexId(*a), VertexId(*bb)));
    }
    b.build()
}

/// One recorded transcript operation: `(player, bits, label index,
/// direction index, advance round first)`.
type TranscriptOp = (usize, u64, usize, usize, bool);

/// Strategy: an arbitrary transcript script over `k` players, including
/// empty scripts and rounds with no events.
fn transcript_ops(max_ops: usize) -> impl Strategy<Value = Vec<TranscriptOp>> {
    // The vendored proptest shim implements `Strategy` for tuples of at
    // most four elements, so the five fields are nested and flattened.
    prop::collection::vec(
        ((0..8usize, 0..64u64), (0..3usize, 0..3usize, any::<bool>()))
            .prop_map(|((p, bits), (li, di, advance))| (p, bits, li, di, advance)),
        0..max_ops,
    )
}

const LABELS: [&str; 3] = ["probe", "sample", "reply"];
const PHASES: [&str; 3] = [DEFAULT_PHASE, "estimate", "verify"];

fn build_transcript(k: usize, ops: &[TranscriptOp]) -> Transcript {
    let mut t = Transcript::new(k);
    for &(p, bits, li, di, advance) in ops {
        if advance {
            t.next_round();
        }
        t.set_phase(PHASES[(p + di) % PHASES.len()]);
        let dir = match di {
            0 => Direction::ToPlayer,
            1 => Direction::ToCoordinator,
            _ => Direction::Broadcast,
        };
        let player = if dir == Direction::Broadcast {
            None
        } else {
            Some(p % k.max(1))
        };
        t.record(player, dir, BitCost(bits), LABELS[li]);
    }
    t
}

/// The rollup rules written out as a fold over an event log, keyed by
/// `key` (sort key, rollup name) and returned in sort-key order: the
/// oracle the counters of `Tally` are checked against.
fn fold_events<K: Ord>(events: &[Event], key: impl Fn(&Event) -> (K, String)) -> Vec<Rollup> {
    let mut groups: BTreeMap<K, Rollup> = BTreeMap::new();
    for e in events {
        let (sort_key, name) = key(e);
        let row = groups.entry(sort_key).or_insert(Rollup {
            key: name,
            bits: 0,
            messages: 0,
        });
        row.bits += e.bits;
        row.messages += 1;
    }
    groups.into_values().collect()
}

/// Strategy: arbitrary (bounded) communication statistics.
fn comm_stats() -> impl Strategy<Value = CommStats> {
    (0..1u64 << 40, 0..1u64 << 20, 0..1u64 << 20, 0..1u64 << 40).prop_map(
        |(total_bits, rounds, messages, max_player_sent_bits)| CommStats {
            total_bits,
            rounds,
            messages,
            max_player_sent_bits,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_degrees_sum_to_twice_edges(pairs in edge_list(40, 120)) {
        let g = build(40, &pairs);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn has_edge_agrees_with_edge_list(pairs in edge_list(30, 80)) {
        let g = build(30, &pairs);
        let set: HashSet<Edge> = g.edges().iter().copied().collect();
        for a in 0..30u32 {
            for b in (a + 1)..30 {
                let e = Edge::new(VertexId(a), VertexId(b));
                prop_assert_eq!(g.has_edge(e), set.contains(&e));
            }
        }
    }

    #[test]
    fn triangle_count_matches_enumeration(pairs in edge_list(25, 100)) {
        let g = build(25, &pairs);
        let ts = triangles::enumerate_triangles(&g);
        prop_assert_eq!(ts.len() as u64, triangles::count_triangles(&g));
        let unique: HashSet<_> = ts.iter().collect();
        prop_assert_eq!(unique.len(), ts.len(), "no duplicate triangles");
        for t in &ts {
            prop_assert!(t.exists_in(&g));
        }
    }

    #[test]
    fn packing_is_edge_disjoint_and_certifies(pairs in edge_list(25, 100)) {
        let g = build(25, &pairs);
        let packing = triangles::greedy_triangle_packing(&g);
        let mut used = HashSet::new();
        for t in &packing {
            prop_assert!(t.exists_in(&g));
            for e in t.edges() {
                prop_assert!(used.insert(e), "edge reused across packed triangles");
            }
        }
        // Packing is maximal: after removing one edge per packed triangle
        // *all three*, no triangle may remain that is edge-disjoint from
        // the packing. Weaker checkable fact: if there is any triangle,
        // and the packing is empty, that is a bug.
        if triangles::contains_triangle(&g) {
            prop_assert!(!packing.is_empty());
        }
        let bounds = distance::distance_bounds(&g);
        prop_assert!(bounds.lower <= bounds.upper);
    }

    #[test]
    fn hitting_set_removal_destroys_all_triangles(pairs in edge_list(20, 60)) {
        let g = build(20, &pairs);
        let removed: HashSet<Edge> =
            distance::greedy_hitting_removal(&g).into_iter().collect();
        prop_assert!(distance::is_triangle_free(&g.without_edges(&removed)));
    }

    #[test]
    fn bucketing_is_a_partition_of_non_isolated(pairs in edge_list(40, 120)) {
        let g = build(40, &pairs);
        let b = buckets::Bucketing::new(&g);
        let mut assigned = 0usize;
        for i in 0..b.num_buckets() {
            for v in b.bucket(i) {
                let d = g.degree(*v);
                prop_assert!(d as u64 >= buckets::d_minus(i));
                prop_assert!((d as u64) < buckets::d_plus(i));
                assigned += 1;
            }
        }
        let non_isolated = g.vertices().filter(|v| g.degree(*v) > 0).count();
        prop_assert_eq!(assigned, non_isolated);
    }

    #[test]
    fn payload_bit_len_is_monotone_in_content(
        edges_a in edge_list(64, 20),
        edges_b in edge_list(64, 20),
    ) {
        let to_edges = |pairs: &[(u32, u32)]| -> Vec<Edge> {
            pairs.iter().map(|(a, b)| Edge::new(VertexId(*a), VertexId(*b))).collect()
        };
        let a = to_edges(&edges_a);
        let mut both = a.clone();
        both.extend(to_edges(&edges_b));
        let n = 64;
        prop_assert!(
            Payload::Edges(a.into()).bit_len(n) <= Payload::Edges(both.into()).bit_len(n)
        );
    }

    #[test]
    fn bits_per_vertex_is_sufficient(n in 2usize..100_000) {
        let width = bits::bits_per_vertex(n);
        prop_assert!(1u64 << width >= n as u64, "width {width} cannot address {n}");
        prop_assert!(width <= 17);
    }

    #[test]
    fn shared_randomness_is_pure(seed in any::<u64>(), tag in any::<u64>(), item in any::<u64>()) {
        let s1 = SharedRandomness::new(seed);
        let s2 = SharedRandomness::new(seed);
        prop_assert_eq!(s1.value(tag, item), s2.value(tag, item));
        let u = s1.unit(tag, item);
        prop_assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn partition_union_has_no_new_edges(pairs in edge_list(30, 80), k in 1usize..6) {
        let g = build(30, &pairs);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        use rand::SeedableRng;
        let parts = triad::graph::partition::random_disjoint(&g, k, &mut rng);
        prop_assert!(parts.covers(&g));
        prop_assert!(parts.is_disjoint());
        let all: HashSet<Edge> = g.edges().iter().copied().collect();
        for share in parts.shares() {
            for e in share {
                prop_assert!(all.contains(e));
            }
        }
    }

    #[test]
    fn comm_stats_merged_is_associative_with_identity(
        a in comm_stats(), b in comm_stats(), c in comm_stats(),
    ) {
        // The parallel engine folds per-repetition stats in repetition
        // order; associativity is what makes the grouping irrelevant.
        prop_assert_eq!(a.merged(b).merged(c), a.merged(b.merged(c)));
        prop_assert_eq!(a.merged(CommStats::default()), a);
        prop_assert_eq!(CommStats::default().merged(a), a);
    }

    #[test]
    fn transcript_absorb_is_associative(
        k in 1usize..4,
        ops_a in transcript_ops(12),
        ops_b in transcript_ops(12),
        ops_c in transcript_ops(12),
    ) {
        // ((a ⊕ b) ⊕ c) — transcripts are rebuilt per side because
        // `absorb` mutates in place.
        let mut left = build_transcript(k, &ops_a);
        left.absorb(&build_transcript(k, &ops_b));
        left.absorb(&build_transcript(k, &ops_c));
        // (a ⊕ (b ⊕ c))
        let mut bc = build_transcript(k, &ops_b);
        bc.absorb(&build_transcript(k, &ops_c));
        let mut right = build_transcript(k, &ops_a);
        right.absorb(&bc);
        prop_assert_eq!(left.round(), right.round());
        prop_assert_eq!(left.events(), right.events());
        prop_assert_eq!(left.stats(), right.stats());
    }

    #[test]
    fn transcript_absorbing_pristine_is_identity(
        k in 1usize..4,
        ops in transcript_ops(12),
    ) {
        let reference = build_transcript(k, &ops);
        let mut absorbed = build_transcript(k, &ops);
        absorbed.absorb(&Transcript::new(k));
        prop_assert_eq!(absorbed.round(), reference.round());
        prop_assert_eq!(absorbed.events(), reference.events());
        prop_assert_eq!(absorbed.stats(), reference.stats());
    }

    #[test]
    fn tally_rollups_match_a_fold_over_the_events(
        k in 1usize..4,
        ops_a in transcript_ops(12),
        ops_b in transcript_ops(12),
        ops_c in transcript_ops(12),
    ) {
        let mut t = build_transcript(k, &ops_a);
        t.absorb(&build_transcript(k, &ops_b));
        t.absorb(&build_transcript(k, &ops_c));
        let (y, events) = (t.tally(), t.events());

        // Phases and labels: descending bits, ties by ascending name.
        let by_bits = |mut rows: Vec<Rollup>| {
            rows.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.key.cmp(&b.key)));
            rows
        };
        let by_phase = fold_events(events, |e| (e.phase, e.phase.to_string()));
        prop_assert_eq!(y.by_phase(), by_bits(by_phase));
        let breakdown: Vec<Rollup> = y
            .breakdown()
            .into_iter()
            .map(|row| Rollup {
                key: row.label.to_string(),
                bits: row.bits,
                messages: row.messages,
            })
            .collect();
        let by_label = fold_events(events, |e| (e.label, e.label.to_string()));
        prop_assert_eq!(breakdown, by_bits(by_label));
        let by_player = fold_events(events, |e| match e.player {
            Some(j) => ((0, j), format!("player-{j}")),
            None => ((1, 0), "broadcast".to_string()),
        });
        prop_assert_eq!(y.by_player(), by_player);
        let by_round = fold_events(events, |e| (e.round, format!("round-{}", e.round)));
        prop_assert_eq!(y.by_round(), by_round);
        let by_direction =
            fold_events(events, |e| (e.direction as u8, e.direction.as_str().to_string()));
        prop_assert_eq!(y.by_direction(), by_direction);

        for name in PHASES.iter().chain(&LABELS).chain(&["absent"]) {
            let sum = |of: fn(&Event) -> &str| -> u64 {
                events.iter().filter(|e| of(e) == *name).map(|e| e.bits).sum()
            };
            prop_assert_eq!(y.bits_for_phase(name), sum(|e| e.phase));
            prop_assert_eq!(y.bits_for_label(name), sum(|e| e.label));
        }

        // Rounds: a script of r advances ends in round r, an empty script
        // is pristine and absorbs as nothing, and a later script starts
        // one round after the last one.
        let last_round = [&ops_a, &ops_b, &ops_c]
            .into_iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| ops.iter().filter(|op| op.4).count() as u64)
            .fold(None, |last, r| Some(last.map_or(r, |last: u64| last + 1 + r)));
        let mut sent = vec![0u64; k];
        for e in events.iter().filter(|e| e.direction == Direction::ToCoordinator) {
            sent[e.player.expect("a player sent it")] += e.bits;
        }
        prop_assert_eq!(y.per_player_sent(), &sent[..]);
        let stats = CommStats {
            total_bits: events.iter().map(|e| e.bits).sum(),
            rounds: last_round.unwrap_or(0) + 1,
            messages: events.len() as u64,
            max_player_sent_bits: sent.iter().copied().max().unwrap_or(0),
        };
        prop_assert_eq!(y.stats(), stats);
    }

    #[test]
    fn vee_closing_matches_graph(pairs in edge_list(15, 40)) {
        let g = build(15, &pairs);
        // Every vee of every vertex closes iff the closing edge exists.
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            for (i, a) in nbrs.iter().enumerate() {
                for b in &nbrs[i + 1..] {
                    let vee = triangles::Vee::new(v, *a, *b);
                    let closed = vee.close_in(&g).is_some();
                    prop_assert_eq!(closed, g.has_edge(Edge::new(*a, *b)));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn protocol_witnesses_are_sound_on_arbitrary_inputs(
        pairs in edge_list(40, 160),
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        // The one-sided guarantee must hold for ARBITRARY inputs, not just
        // promise-respecting ones.
        let g = build(40, &pairs);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        use rand::SeedableRng;
        let parts = triad::graph::partition::random_disjoint(&g, k, &mut rng);
        let tuning = triad::protocols::Tuning::practical(0.25);
        let run = triad::protocols::UnrestrictedTester::new(tuning)
            .run(&g, &parts, seed)
            .unwrap();
        if let Some(t) = run.outcome.triangle() {
            prop_assert!(t.exists_in(&g));
        }
        let sim = triad::protocols::SimultaneousTester::new(
            tuning,
            triad::protocols::SimProtocolKind::Oblivious,
        )
        .run(&g, &parts, seed)
        .unwrap();
        if let Some(t) = sim.outcome.triangle() {
            prop_assert!(t.exists_in(&g));
        }
    }

    #[test]
    fn pool_ordered_map_is_thread_count_invariant(n in 0usize..40, salt in any::<u64>()) {
        let f = |i: usize| mix64(salt ^ i as u64);
        let serial: Vec<u64> = (0..n).map(f).collect();
        for threads in [1usize, 2, 3, 8] {
            prop_assert_eq!(
                Pool::new(threads).ordered_map(n, f),
                serial.clone(),
                "threads = {}",
                threads
            );
        }
    }

    #[test]
    fn one_session_schedule_returns_the_serial_prefix(
        n in 0usize..40,
        salt in any::<u64>(),
        modulus in 1u64..9,
    ) {
        // Whatever the interleaving, a one-session schedule must return
        // exactly what a serial loop stopping at the first hit returns.
        let f = |i: usize| mix64(salt ^ i as u64);
        let stop = |v: &u64| v.is_multiple_of(modulus);
        let mut expected = Vec::new();
        for i in 0..n {
            let v = f(i);
            let hit = stop(&v);
            expected.push(v);
            if hit {
                break;
            }
        }
        let job = [FnSession::new(n, f, stop)];
        for threads in [1usize, 2, 3, 8] {
            prop_assert_eq!(
                run_sessions(&Pool::new(threads), &job).prefixes,
                vec![expected.clone()],
                "threads = {}",
                threads
            );
        }
    }

    #[test]
    fn triangle_kernels_agree_with_naive_at_every_thread_count(
        pairs in edge_list(32, 180),
        n in 32usize..40,
    ) {
        use triad::graph::kernels::{self, naive};
        let g = build(n, &pairs);
        let count = naive::count_triangles(&g);
        prop_assert_eq!(kernels::count_triangles(&g), count);
        prop_assert_eq!(kernels::enumerate_triangles(&g), naive::enumerate_triangles(&g));
        prop_assert_eq!(kernels::triangle_edges(&g), naive::triangle_edges(&g));
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            prop_assert_eq!(
                kernels::count_triangles_par(&g, &pool),
                count,
                "threads = {}",
                threads
            );
            prop_assert_eq!(
                kernels::triangle_edges_par(&g, &pool),
                naive::triangle_edges(&g),
                "threads = {}",
                threads
            );
        }
    }

    #[test]
    fn view_hitting_removal_is_deterministic_and_leaves_triangle_free(
        pairs in edge_list(28, 140),
    ) {
        let g = build(28, &pairs);
        let removed = distance::greedy_hitting_removal(&g);
        // Determinism: a second run reproduces the exact sequence.
        prop_assert_eq!(&removed, &distance::greedy_hitting_removal(&g));
        // The sequence matches the rebuild-per-removal reference loop.
        prop_assert_eq!(
            &removed,
            &triad::graph::kernels::naive::greedy_hitting_removal(&g)
        );
        // And it is a hitting set: no triangle survives.
        let rm: HashSet<Edge> = removed.into_iter().collect();
        prop_assert!(distance::is_triangle_free(&g.without_edges(&rm)));
    }

    #[test]
    fn bm_reduction_dichotomy(n_pairs in 2usize..24, seed in 0u64..500, zero_side in any::<bool>()) {
        use triad::graph::generators::{BmInstance, BmSide};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        use rand::SeedableRng;
        let side = if zero_side { BmSide::AllZero } else { BmSide::AllOne };
        let inst = BmInstance::sample(n_pairs, side, &mut rng);
        let g = inst.reduction_graph();
        match side {
            BmSide::AllOne => prop_assert!(distance::is_triangle_free(&g)),
            BmSide::AllZero => {
                let packing = triangles::greedy_triangle_packing(&g);
                prop_assert!(packing.len() >= n_pairs);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random graph, split into player shares, survives the round
    /// trip through the bitset payload exactly: packing a share into
    /// `Payload::EdgeBits` and reading it back yields the player's
    /// deduplicated share, edge for edge, at every density the
    /// strategy reaches (n = 80 with up to 400 edges spans both sides
    /// of the `dense_kernel_wins` gate at 50 edges).
    #[test]
    fn bitset_payload_roundtrips_each_share_exactly(
        pairs in edge_list(80, 400),
        k in 1usize..5,
    ) {
        use std::borrow::Cow;
        use triad::comm::{PayloadRepr, PlayerState};
        let n = 80usize;
        let g = build(n, &pairs);
        // Deterministic share split: edge i goes to player i mod k.
        let mut shares = vec![Vec::new(); k];
        for (i, e) in g.edges().iter().enumerate() {
            shares[i % k].push(*e);
        }
        for share in &shares {
            let player = PlayerState::new(0, n, share);
            let payload = Payload::edge_set(
                PayloadRepr::Bits,
                n,
                Cow::Borrowed(player.share()),
            );
            prop_assert!(matches!(payload, Payload::EdgeBits(_)));
            let back: Vec<Edge> = payload.iter_edges().collect();
            // Canonical bitset order is sorted; the share is sorted too.
            prop_assert_eq!(&back, &player.share().to_vec());
            // And the player's cached bitset agrees with the payload.
            prop_assert_eq!(
                player.share_bitset().len(),
                player.share().len()
            );
        }
    }

    /// `bit_len` follows the closed form `bits_for_count(m) +
    /// m·bits_per_edge(n)` for BOTH representations at every density,
    /// and `Auto` — whichever side of the gate it lands on — never
    /// changes the cost. Representation is invisible to accounting.
    #[test]
    fn edge_set_bit_len_matches_closed_form_at_every_density(
        pairs in edge_list(80, 400),
        small_pairs in edge_list(24, 60),
    ) {
        use std::borrow::Cow;
        use triad::comm::PayloadRepr;
        for (n, ps) in [(80usize, &pairs), (24usize, &small_pairs)] {
            let g = build(n, ps);
            let m = g.edge_count() as u64;
            let expected = bits::bits_for_count(m) + m * bits::bits_per_edge(n);
            let mut costs = Vec::new();
            for repr in [PayloadRepr::Edges, PayloadRepr::Bits, PayloadRepr::Auto] {
                let p = Payload::edge_set(repr, n, Cow::Borrowed(g.edges()));
                prop_assert_eq!(
                    p.bit_len(n).get(),
                    expected,
                    "repr {} at n={} m={}",
                    repr,
                    n,
                    m
                );
                costs.push(p.bit_len(n).get());
            }
            prop_assert!(costs.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
