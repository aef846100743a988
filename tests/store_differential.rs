//! The out-of-core CSR differential campaign.
//!
//! The contract under test (docs/IO.md + docs/KERNELS.md): a graph
//! served from a `.csr` file — memory-mapped or decoded into owned
//! vectors — is **observably identical** to the same graph materialized
//! in memory. Same triangle counts, same witnesses, same protocol
//! verdicts, same `CommStats`, same per-phase/player tallies, bit for
//! bit, across
//!
//!   protocol × seed × threads × {mapped, owned, in-memory}.
//!
//! The suite also pins the file format itself: a proptest round-trip
//! (arbitrary graph → file → store → graph) and a rejection battery
//! that corrupts one field at a time and demands the precise
//! `StoreError` *before* any kernel or protocol ever sees the bytes.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use triad::comm::pool::Pool;
use triad::graph::kernels::{self, Forward};
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::store::{
    write_csr, FarStream, GnpStream, StoreError, HEADER_BYTES, MAGIC, VERSION,
};
use triad::graph::{CsrStore, Graph};
use triad::protocols::amplify::{run_amplified_prepared, PreparedInput};
use triad::protocols::baseline::SendEverything;
use triad::protocols::{
    run_chaos_amplified, Repeatable, SimProtocolKind, SimultaneousTester, TallyRun, Tuning,
    UnrestrictedTester, DEFAULT_QUORUM,
};

const EPS: f64 = 0.2;
const REPS: u32 = 3;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("triad-store-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every tester the CLI exposes, by its `--protocol` name.
fn testers(d: f64) -> Vec<(&'static str, Box<dyn Repeatable + Sync>)> {
    let tuning = Tuning::practical(EPS);
    vec![
        (
            "unrestricted",
            Box::new(UnrestrictedTester::new(tuning)) as Box<dyn Repeatable + Sync>,
        ),
        (
            "low",
            Box::new(SimultaneousTester::new(
                tuning,
                SimProtocolKind::Low { avg_degree: d },
            )),
        ),
        (
            "high",
            Box::new(SimultaneousTester::new(
                tuning,
                SimProtocolKind::High { avg_degree: d },
            )),
        ),
        (
            "oblivious",
            Box::new(SimultaneousTester::new(tuning, SimProtocolKind::Oblivious)),
        ),
        ("exact", Box::new(SendEverything::default())),
    ]
}

fn assert_runs_identical(label: &str, a: &TallyRun, b: &TallyRun) {
    assert_eq!(a.outcome, b.outcome, "{label}: verdicts diverged");
    assert_eq!(a.stats, b.stats, "{label}: stats diverged");
    assert_eq!(a.transcript, b.transcript, "{label}: tallies diverged");
}

// ---------------------------------------------------------------------
// Mapped vs owned vs in-memory: the protocol matrix.
// ---------------------------------------------------------------------

/// One workload: write the stream to disk, open it both ways, and run
/// the full protocol × seed × threads matrix over (a) the materialized
/// graph, (b) the mapped store, (c) the owned-backing store — all three
/// must agree bit for bit. The partitions are built from each backing
/// independently with the same seed, which also pins edge-enumeration
/// order across backings.
fn protocol_matrix_over(tag: &str, stream: &dyn triad::graph::store::EdgeStream, k: usize) {
    let dir = tempdir(tag);
    let path = dir.join("g.csr");
    write_csr(&path, stream).unwrap();

    let mapped = CsrStore::open(&path).unwrap();
    let owned = CsrStore::open_owned(&path).unwrap();
    assert!(!owned.mapped());
    let g = mapped.to_graph();
    assert_eq!(g.vertex_count(), mapped.vertex_count());
    assert_eq!(g.edge_count(), mapped.edge_count());

    let parts_g = random_disjoint(&g, k, &mut ChaCha8Rng::seed_from_u64(5));
    let parts_mapped = random_disjoint(&mapped, k, &mut ChaCha8Rng::seed_from_u64(5));
    let parts_owned = random_disjoint(&owned, k, &mut ChaCha8Rng::seed_from_u64(5));
    assert_eq!(
        parts_g.shares(),
        parts_mapped.shares(),
        "{tag}: partitioning a store must enumerate edges exactly like the graph"
    );
    assert_eq!(parts_mapped.shares(), parts_owned.shares());

    let in_memory = PreparedInput::new(&g, &parts_g).unwrap();
    let graph_free = PreparedInput::from_partition(mapped.vertex_count(), &parts_mapped).unwrap();
    assert!(graph_free.graph().is_none());

    let d = mapped.average_degree();
    for (name, tester) in &testers(d) {
        for seed in [1u64, 9] {
            for threads in [1usize, 2, 4] {
                let pool = Pool::new(threads);
                let label = format!("{tag}/{name}/seed{seed}/t{threads}");
                let reference =
                    run_amplified_prepared(&pool, &&**tester, &in_memory, REPS, seed).unwrap();
                let over_store =
                    run_amplified_prepared(&pool, &&**tester, &graph_free, REPS, seed).unwrap();
                assert_runs_identical(&label, &reference, &over_store);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocols_are_backing_invariant_on_a_triangle_rich_input() {
    protocol_matrix_over(
        "gnp",
        &GnpStream::with_average_degree(220, 7.0, 31).unwrap(),
        4,
    );
}

#[test]
fn protocols_are_backing_invariant_on_a_far_input() {
    protocol_matrix_over("far", &FarStream::new(180, 6.0, EPS, 13).unwrap(), 3);
}

#[test]
fn chaos_runs_are_backing_invariant() {
    let dir = tempdir("chaos");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(200, 6.0, 17).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let g = store.to_graph();
    let parts = random_disjoint(&store, 4, &mut ChaCha8Rng::seed_from_u64(3));
    let in_memory = PreparedInput::new(&g, &parts).unwrap();
    let graph_free = PreparedInput::from_partition(store.vertex_count(), &parts).unwrap();
    let tester = SimultaneousTester::new(
        Tuning::practical(EPS),
        SimProtocolKind::Low {
            avg_degree: store.average_degree(),
        },
    );
    let plan = triad::comm::FaultPlan::new(29, triad::comm::FaultRates::mixed(0.15));
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let a = run_chaos_amplified(&pool, &tester, &in_memory, 6, 11, &plan, DEFAULT_QUORUM);
        let b = run_chaos_amplified(&pool, &tester, &graph_free, 6, 11, &plan, DEFAULT_QUORUM);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "t{threads}: chaos runs diverged across backings"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kernels_agree_across_backings_and_thread_counts() {
    let dir = tempdir("kernels");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(300, 9.0, 41).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let owned = CsrStore::open_owned(&path).unwrap();
    let g = store.to_graph();

    let reference = kernels::count_triangles(&g);
    let fwd = Forward::build(&store);
    assert_eq!(fwd.count_range(&store, 0..store.edge_count()), reference);
    let fwd_owned = Forward::build(&owned);
    assert_eq!(
        fwd_owned.count_range(&owned, 0..owned.edge_count()),
        reference
    );
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        assert_eq!(kernels::count_triangles_par(&store, &pool), reference);
        assert_eq!(kernels::count_triangles_par(&owned, &pool), reference);
    }
    assert_eq!(
        kernels::find_triangle(&store).is_some(),
        reference > 0,
        "witness presence must match the count"
    );

    // Allocation evidence: the mapped store owns only the (n+1)-word
    // forward index; the adjacency lives in the mapping.
    if store.mapped() {
        assert_eq!(store.owned_bytes(), (store.vertex_count() + 1) * 8);
    }
    assert!(owned.owned_bytes() > store.vertex_count() * 8);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Round-trip: arbitrary graph → file → store → graph.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_graph_round_trips_through_the_container(
        n in 1usize..48,
        raw in proptest::collection::vec((0u32..48, 0u32..48), 0..120),
        seed in 0u64..u64::MAX,
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .filter(|(u, v)| u != v && (*u as usize) < n && (*v as usize) < n)
            .collect();
        let g = Graph::from_edges(n, edges.iter().copied());
        let dir = tempdir(&format!("prop-{}", seed % 1024));
        let path = dir.join(format!("{seed:x}.csr"));
        write_csr(&path, &g).unwrap();

        let mapped = CsrStore::open(&path).unwrap();
        let owned = CsrStore::open_owned(&path).unwrap();
        prop_assert_eq!(mapped.to_graph(), g.clone());
        prop_assert_eq!(owned.to_graph(), g.clone());
        prop_assert_eq!(mapped.checksum(), owned.checksum());
        prop_assert_eq!(mapped.edge_count(), g.edge_count());

        // Writing the same graph again is byte-identical (the format
        // has exactly one encoding per graph).
        let again = dir.join(format!("{seed:x}-again.csr"));
        write_csr(&again, &g).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&again).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Rejection battery: one corruption at a time, one precise error each.
// ---------------------------------------------------------------------

/// A valid triangle file (n = 3, edges 01/02/12) whose layout the
/// corruption cases patch byte-by-byte: header 0..40, four u64 offsets
/// `[0, 2, 4, 6]` at 40..72, six u32 adjacency slots
/// `[1,2, 0,2, 0,1]` at 72..96.
fn triangle_bytes(dir: &Path) -> Vec<u8> {
    graph_bytes(
        dir,
        "tri",
        &Graph::from_edges(3, [(0u32, 1u32), (0, 2), (1, 2)]),
    )
}

/// A valid path file (n = 3, edges 01/12): offsets `[0, 1, 3, 4]`,
/// adjacency `[1, 0,2, 1]` — the seed for the asymmetry case.
fn path_bytes(dir: &Path) -> Vec<u8> {
    graph_bytes(dir, "path", &Graph::from_edges(3, [(0u32, 1u32), (1, 2)]))
}

/// The container bytes `write_csr` produces for `g`.
fn graph_bytes(dir: &Path, tag: &str, g: &Graph) -> Vec<u8> {
    let path = dir.join(format!("{tag}-source.csr"));
    write_csr(&path, g).unwrap();
    std::fs::read(&path).unwrap()
}

fn open_bytes(dir: &Path, tag: &str, bytes: &[u8]) -> Result<CsrStore, StoreError> {
    let path = dir.join(format!("{tag}.csr"));
    std::fs::write(&path, bytes).unwrap();
    // Both backings must reject identically; return one for matching.
    let owned = CsrStore::open_owned(&path);
    let auto = CsrStore::open(&path);
    assert_eq!(
        owned.is_err(),
        auto.is_err(),
        "{tag}: backings disagree on validity"
    );
    auto
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn every_corruption_is_rejected_with_the_precise_error() {
    let dir = tempdir("reject");
    let tri = triangle_bytes(&dir);
    assert_eq!(tri.len(), HEADER_BYTES + 4 * 8 + 6 * 4);
    assert_eq!(&tri[0..8], &MAGIC);
    assert!(open_bytes(&dir, "valid", &tri).is_ok());

    let offsets_at = |i: usize| HEADER_BYTES + i * 8;
    let adj_at = |i: usize| HEADER_BYTES + 4 * 8 + i * 4;

    // -- header geometry ------------------------------------------------
    assert!(matches!(
        open_bytes(&dir, "empty", &[]),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        open_bytes(&dir, "short-header", &tri[..20]),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        open_bytes(&dir, "cut-body", &tri[..tri.len() - 1]),
        Err(StoreError::Truncated { .. })
    ));
    let mut b = tri.clone();
    b.push(0);
    match open_bytes(&dir, "trailing", &b) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("trailing byte accepted: {other:?}"),
    }

    // -- header fields ---------------------------------------------------
    let mut b = tri.clone();
    b[0] = b'X';
    assert!(matches!(
        open_bytes(&dir, "magic", &b),
        Err(StoreError::BadMagic)
    ));
    for bad_version in [0u32, VERSION + 1] {
        let mut b = tri.clone();
        put_u32(&mut b, 8, bad_version);
        assert!(matches!(
            open_bytes(&dir, &format!("version-{bad_version}"), &b),
            Err(StoreError::BadVersion(v)) if v == bad_version
        ));
    }
    let mut b = tri.clone();
    put_u32(&mut b, 12, 0x8000_0001);
    assert!(matches!(
        open_bytes(&dir, "flags", &b),
        Err(StoreError::BadFlags(_))
    ));
    let mut b = tri.clone();
    let declared = u64::from_le_bytes(tri[32..40].try_into().unwrap());
    put_u64(&mut b, 32, declared.wrapping_add(1));
    match open_bytes(&dir, "checksum", &b) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("bad checksum accepted: {other:?}"),
    }

    // -- oversized geometry must be refused before any allocation --------
    let mut b = tri[..HEADER_BYTES].to_vec();
    put_u64(&mut b, 16, u64::from(u32::MAX) + 1); // n beyond the id space
    match open_bytes(&dir, "huge-n", &b) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("u32"), "{msg}"),
        other => panic!("oversized n accepted: {other:?}"),
    }
    let mut b = tri[..HEADER_BYTES].to_vec();
    put_u64(&mut b, 24, u64::MAX); // m whose slot count overflows
    assert!(open_bytes(&dir, "huge-m", &b).is_err());
    let mut b = tri[..HEADER_BYTES].to_vec();
    put_u64(&mut b, 16, 1_000_000_000); // plausible n, 40-byte file
    assert!(matches!(
        open_bytes(&dir, "giant-truncated", &b),
        Err(StoreError::Truncated { .. })
    ));

    // -- offset section ----------------------------------------------------
    for (tag, word, value, needle) in [
        ("offsets-first", 0usize, 1u64, "offsets[0]"),
        ("offsets-last", 3, 5, "offsets[n]"),
        ("offsets-decrease", 2, 1, "decrease"),
        // An offset past a later row's start is also a decrease —
        // monotonicity plus the pinned final offset bound every row,
        // and both are checked before any adjacency byte is sliced
        // (a decreasing mate-row offset once panicked here).
        ("offsets-overrun", 1, 7, "decrease"),
    ] {
        let mut b = tri.clone();
        put_u64(&mut b, offsets_at(word), value);
        match open_bytes(&dir, tag, &b) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains(needle), "{tag}: {msg}"),
            other => panic!("{tag} accepted: {other:?}"),
        }
    }

    // -- adjacency section -------------------------------------------------
    for (tag, slot, value, needle) in [
        ("neighbor-range", 1usize, 5u32, "≥ n"),
        ("self-loop", 0, 0, "self-loop"),
        ("row-unsorted", 0, 2, "strictly increasing"),
    ] {
        let mut b = tri.clone();
        put_u32(&mut b, adj_at(slot), value);
        if tag == "row-unsorted" {
            put_u32(&mut b, adj_at(1), 1); // row 0 becomes [2, 1]
        }
        match open_bytes(&dir, tag, &b) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains(needle), "{tag}: {msg}"),
            other => panic!("{tag} accepted: {other:?}"),
        }
    }
    // Asymmetry needs the path graph: rewriting row 0 from [1] to [2]
    // leaves every row sorted and in range, but 0 ∉ row 2.
    let path = path_bytes(&dir);
    let mut b = path.clone();
    put_u32(&mut b, HEADER_BYTES + 4 * 8, 2);
    match open_bytes(&dir, "asymmetric", &b) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("asymmetric"), "{msg}"),
        other => panic!("asymmetric edge accepted: {other:?}"),
    }
    // The first defect reached is an unmatched backward entry: edges
    // 02/23 (rows [2], [], [0,3], [2]) with row 2's 3 rewritten to 1.
    // Row 0 names 2 and is matched, row 1 names nothing, so on reaching
    // row 2 its cursor stops at the 1 that no row named.
    let g = Graph::from_edges(4, [(0u32, 2u32), (2, 3)]);
    let mut b = graph_bytes(&dir, "unmatched-backward", &g);
    put_u32(&mut b, HEADER_BYTES + 5 * 8 + 2 * 4, 1);
    match open_bytes(&dir, "unmatched-backward", &b) {
        Err(StoreError::Corrupt(msg)) => assert_eq!(
            msg, "asymmetric edge: 1 ∈ row 2 but 2 ∉ row 1",
            "the row-completeness check must name the pair"
        ),
        other => panic!("unmatched backward entry accepted: {other:?}"),
    }
    // A cursor that runs past the end of its row: edges 02/13 (rows [2],
    // [3], [0], [1]) with row 1's 3 rewritten to 2. Row 1's entry 2
    // finds row 2 fully matched and matches the 1 just past it (row 3's
    // first slot), so the overrun shows when the walk reaches row 2.
    let g = Graph::from_edges(4, [(0u32, 2u32), (1, 3)]);
    let mut b = graph_bytes(&dir, "cursor-overrun", &g);
    put_u32(&mut b, HEADER_BYTES + 5 * 8 + 4, 2);
    match open_bytes(&dir, "cursor-overrun", &b) {
        Err(StoreError::Corrupt(msg)) => {
            assert_eq!(msg, "asymmetric edge: 2 ∈ row 1 but 1 ∉ row 2")
        }
        other => panic!("overrun cursor accepted: {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The docs/IO.md checksum chain over a file's payload, for re-patching
/// the header after a corruption so the structural checks alone must
/// catch it.
fn payload_checksum(bytes: &[u8]) -> u64 {
    let mix64 = |mut x: u64| {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let n = word(16) as usize;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for w in [word(16), word(24)] {
        state = mix64(state ^ w);
    }
    let adj_at = HEADER_BYTES + (n + 1) * 8;
    for at in (HEADER_BYTES..adj_at).step_by(8) {
        state = mix64(state ^ word(at));
    }
    for c in bytes[adj_at..].chunks_exact(4) {
        state = mix64(state ^ u64::from(u32::from_le_bytes(c.try_into().unwrap())));
    }
    state
}

#[test]
fn every_one_word_adjacency_corruption_is_rejected_truthfully() {
    let dir = tempdir("mutate");
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut cases = 0;
    while cases < 150 {
        let n: usize = rng.gen_range(2..24);
        let pairs: Vec<(u32, u32)> = (0..rng.gen_range(1..3 * n))
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(n, pairs);
        if g.edge_count() == 0 {
            continue;
        }
        let bytes = graph_bytes(&dir, "mutate", &g);
        let offsets_at = |v: usize| HEADER_BYTES + v * 8;
        let offset = |v: usize| {
            u64::from_le_bytes(bytes[offsets_at(v)..offsets_at(v) + 8].try_into().unwrap()) as usize
        };
        let slot_at = |i: usize| HEADER_BYTES + (n + 1) * 8 + i * 4;
        let slot = |b: &[u8], i: usize| {
            u32::from_le_bytes(b[slot_at(i)..slot_at(i) + 4].try_into().unwrap())
        };

        // One adjacency word moved to another value that keeps its row
        // strictly increasing and in range.
        let i = rng.gen_range(0..2 * g.edge_count());
        let row = (0..n)
            .find(|&v| offset(v) <= i && i < offset(v + 1))
            .unwrap();
        let below = if i > offset(row) {
            slot(&bytes, i - 1) + 1
        } else {
            0
        };
        let above = if i + 1 < offset(row + 1) {
            slot(&bytes, i + 1)
        } else {
            n as u32
        };
        let old = slot(&bytes, i);
        let choices: Vec<u32> = (below..above).filter(|&x| x != old).collect();
        if choices.is_empty() {
            continue;
        }
        cases += 1;
        let mut corrupt = bytes.clone();
        put_u32(
            &mut corrupt,
            slot_at(i),
            choices[rng.gen_range(0..choices.len())],
        );
        let rows: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|v| {
                (offset(v)..offset(v + 1))
                    .map(|j| slot(&corrupt, j))
                    .collect()
            })
            .collect();

        let mut patched = corrupt.clone();
        put_u64(&mut patched, 32, payload_checksum(&corrupt));
        for (tag, b) in [("stale", &corrupt), ("patched", &patched)] {
            let path = dir.join(format!("mutate-{tag}.csr"));
            std::fs::write(&path, b).unwrap();
            let (mapped, owned) = (CsrStore::open(&path), CsrStore::open_owned(&path));
            let msg = match (mapped, owned) {
                (Err(StoreError::Corrupt(a)), Err(StoreError::Corrupt(o))) => {
                    assert_eq!(a, o, "backings disagree on the defect");
                    a
                }
                other => panic!("case {cases} ({tag}): corruption not rejected: {other:?}"),
            };
            // The structural battery fires, never the checksum: one moved
            // word always breaks symmetry (or makes a self-loop).
            if let Some(pair) = msg.strip_prefix("asymmetric edge: ") {
                let num = |s: &str| s.trim().parse::<u32>().unwrap();
                let (a, rest) = pair.split_once(" ∈ row ").unwrap();
                let (b, _) = rest.split_once(" but ").unwrap();
                let (a, b) = (num(a), num(b));
                assert!(
                    rows[b as usize].contains(&a) && !rows[a as usize].contains(&b),
                    "case {cases} ({tag}): \"{msg}\" is false of the bytes"
                );
            } else {
                assert!(msg.starts_with("self-loop"), "case {cases} ({tag}): {msg}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_single_edge_graphs_survive_the_full_pipeline() {
    let dir = tempdir("tiny");
    for (tag, n, edges) in [
        ("empty", 1usize, vec![]),
        ("one-edge", 2, vec![(0u32, 1u32)]),
    ] {
        let path = dir.join(format!("{tag}.csr"));
        let g = Graph::from_edges(n, edges.iter().copied());
        write_csr(&path, &g).unwrap();
        let store = CsrStore::open(&path).unwrap();
        assert_eq!(store.to_graph(), g);
        let parts = Partition::new(vec![store.to_graph().edges().to_vec(); 2]);
        let input = PreparedInput::from_partition(store.vertex_count(), &parts).unwrap();
        let run = run_amplified_prepared(&Pool::serial(), &SendEverything::default(), &input, 1, 7)
            .unwrap();
        assert!(run.outcome.accepts(), "{tag}: no triangle exists");
    }
    std::fs::remove_dir_all(&dir).ok();
}
