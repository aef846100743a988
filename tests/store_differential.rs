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
use triad::graph::kernels::{self, BitsetAdjacency, Forward};
use triad::graph::partition::{by_vertex, random_disjoint, Partition};
use triad::graph::store::{
    write_csr, FarStream, GnpStream, StoreError, HEADER_BYTES, MAGIC, VERSION,
};
use triad::graph::{AsCsr, CsrStore, Graph, VertexId};
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
    // Allocation evidence: a mapped store owns no heap until a kernel
    // asks for full rows; the owned backing holds exactly its sections.
    let (n, m) = (store.vertex_count(), store.edge_count());
    if store.mapped() {
        assert_eq!(store.owned_bytes(), 0);
    }
    assert_eq!(owned.owned_bytes(), (n + 1) * 8 + m * 4);

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

    // The kernels read degrees and forward rows only, so both stores
    // now hold their degree table (`4n` bytes) and no transpose.
    let table = 4 * n;
    if store.mapped() {
        assert_eq!(store.owned_bytes(), table);
    }
    assert_eq!(owned.owned_bytes(), (n + 1) * 8 + m * 4 + table);
    for v in g.vertices() {
        assert_eq!(store.neighbors(v), g.neighbors(v));
        assert_eq!(owned.neighbors(v), g.neighbors(v));
    }
    // The first full-row read built the transpose: `n + 1` offsets and
    // `2m` neighbor slots.
    let rows = (n + 1) * std::mem::size_of::<usize>() + 2 * m * 4;
    if store.mapped() {
        assert_eq!(store.owned_bytes(), table + rows);
    }
    assert_eq!(owned.owned_bytes(), (n + 1) * 8 + m * 4 + table + rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kernels_over_a_mapped_store_grow_it_by_the_degree_table_only() {
    let dir = tempdir("degree-table");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(500, 14.0, 43).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let g = store.to_graph();
    let owned_before = store.owned_bytes();
    if store.mapped() {
        assert_eq!(owned_before, 0);
    }
    let reference = Forward::build(&g).count_range(&g, 0..g.edge_count());
    assert!(reference > 0, "the input must have triangles");
    assert_eq!(
        Forward::build(&store).count_range(&store, 0..store.edge_count()),
        reference
    );
    assert_eq!(
        kernels::count_triangles_par(&store, &Pool::new(2)),
        reference
    );
    assert_eq!(
        BitsetAdjacency::build(&store).count_all(&store),
        reference,
        "the bitset kernel over the store"
    );
    // A borrowed store forwards `degree` rather than reading full rows.
    assert_eq!(
        kernels::count_triangles_par(&&store, &Pool::serial()),
        reference
    );
    for v in g.vertices() {
        assert_eq!(store.degree(v), g.degree(v));
    }
    assert_eq!(
        store.owned_bytes(),
        owned_before + 4 * store.vertex_count(),
        "the kernels built more than the degree table"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prepared_players_share_the_partition_lists() {
    let dir = tempdir("shared-shares");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(300, 8.0, 47).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let parts = by_vertex(&store, 4);
    let input = PreparedInput::from_partition(store.vertex_count(), &parts).unwrap();
    for (j, player) in input.players().iter().enumerate() {
        assert!(
            std::ptr::eq(player.share(), parts.share(j)),
            "player {j} copied its share"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_unsorted_shares_give_sorted_players_and_the_same_bits() {
    let dir = tempdir("explicit-shares");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(240, 9.0, 53).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let n = store.vertex_count();
    let canonical = random_disjoint(&store, 4, &mut ChaCha8Rng::seed_from_u64(8));
    // The same lists reversed, with every third edge repeated.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let messy = Partition::new(
        canonical
            .shares()
            .iter()
            .map(|share| {
                let mut s: Vec<_> = share.iter().rev().copied().collect();
                s.extend(share.iter().step_by(3).copied());
                if s.len() > 1 {
                    let at = rng.gen_range(0..s.len());
                    s.swap(0, at);
                }
                s
            })
            .collect(),
    );
    let twin = PreparedInput::from_partition(n, &canonical).unwrap();
    let input = PreparedInput::from_partition(n, &messy).unwrap();
    for (a, b) in twin.players().iter().zip(input.players()) {
        assert!(b.share().is_sorted_by(|x, y| x < y), "sorted and distinct");
        assert_eq!(a.share(), b.share());
    }
    for (name, tester) in &testers(store.average_degree()) {
        let a = run_amplified_prepared(&Pool::serial(), &&**tester, &twin, REPS, 4).unwrap();
        let b = run_amplified_prepared(&Pool::serial(), &&**tester, &input, REPS, 4).unwrap();
        assert_runs_identical(name, &a, &b);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_graph_file_query_path_never_builds_the_transpose() {
    // What `triad test --graph-file --scheme vertex` does: open, partition
    // by vertex, prepare, run, and check a witness against the store.
    let dir = tempdir("no-transpose");
    let path = dir.join("g.csr");
    write_csr(
        &path,
        &GnpStream::with_average_degree(400, 12.0, 23).unwrap(),
    )
    .unwrap();
    let store = CsrStore::open(&path).unwrap();
    let g = store.to_graph();
    let owned_before = store.owned_bytes();
    if store.mapped() {
        assert_eq!(owned_before, 0, "a mapped store owns no heap after open");
    }
    let parts = by_vertex(&store, 4);
    assert_eq!(parts, by_vertex(&g, 4), "by_vertex is backing-invariant");
    let input = PreparedInput::from_partition(store.vertex_count(), &parts).unwrap();
    let tester = SimultaneousTester::new(
        Tuning::practical(EPS),
        SimProtocolKind::Low {
            avg_degree: store.average_degree(),
        },
    );
    let run = run_amplified_prepared(&Pool::serial(), &tester, &input, REPS, 7).unwrap();
    for &e in g.edges() {
        assert!(store.edge_index(e).is_some() && store.has_edge(e));
    }
    if let Some(t) = run.outcome.triangle() {
        assert!(t.edges().iter().all(|&e| store.edge_index(e).is_some()));
    }
    assert_eq!(
        store.owned_bytes(),
        owned_before,
        "the query path built the transpose"
    );
    // The first full-row read builds it, once.
    let (n, m) = (store.vertex_count(), store.edge_count());
    let rows = (n + 1) * std::mem::size_of::<usize>() + 2 * m * 4;
    assert_eq!(store.neighbors(VertexId(0)), g.neighbors(VertexId(0)));
    assert_eq!(store.owned_bytes(), owned_before + rows);
    assert_eq!(store.degree(VertexId(5)), g.degree(VertexId(5)));
    assert_eq!(store.owned_bytes(), owned_before + rows);
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
/// `[0, 2, 3, 3]` at 40..72, three u32 adjacency slots `[1, 2, 2]` (rows
/// `[1, 2]`, `[2]`, `[]`) at 72..84.
fn triangle_bytes(dir: &Path) -> Vec<u8> {
    graph_bytes(
        dir,
        "tri",
        &Graph::from_edges(3, [(0u32, 1u32), (0, 2), (1, 2)]),
    )
}

/// The container bytes `write_csr` produces for `g`.
fn graph_bytes(dir: &Path, tag: &str, g: &Graph) -> Vec<u8> {
    let path = dir.join(format!("{tag}-source.csr"));
    write_csr(&path, g).unwrap();
    std::fs::read(&path).unwrap()
}

/// The same triangle in the version 1 layout (both copies of every edge,
/// `offsets[n] = 2m`, one serial checksum chain), as the v1 writer
/// produced it.
fn triangle_v1_bytes() -> Vec<u8> {
    let (n, m) = (3u64, 3u64);
    let offsets = [0u64, 2, 4, 6];
    let adj = [1u32, 2, 0, 2, 0, 1];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for w in [n, m].into_iter().chain(offsets).chain(adj.map(u64::from)) {
        state = mix64(state ^ w);
    }
    let mut b = MAGIC.to_vec();
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&0u32.to_le_bytes());
    for w in [n, m, state].into_iter().chain(offsets) {
        b.extend_from_slice(&w.to_le_bytes());
    }
    for w in adj {
        b.extend_from_slice(&w.to_le_bytes());
    }
    b
}

fn open_bytes(dir: &Path, tag: &str, bytes: &[u8]) -> Result<CsrStore, StoreError> {
    let path = dir.join(format!("{tag}.csr"));
    std::fs::write(&path, bytes).unwrap();
    // Both backings must reject identically; return one for matching.
    let owned = CsrStore::open_owned(&path);
    let auto = CsrStore::open(&path);
    assert_eq!(
        owned.as_ref().err().map(ToString::to_string),
        auto.as_ref().err().map(ToString::to_string),
        "{tag}: backings disagree"
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
    assert_eq!(tri.len(), HEADER_BYTES + 4 * 8 + 3 * 4);
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
    for bad_version in [0u32, 1, VERSION + 1] {
        let mut b = tri.clone();
        put_u32(&mut b, 8, bad_version);
        assert!(matches!(
            open_bytes(&dir, &format!("version-{bad_version}"), &b),
            Err(StoreError::BadVersion(v)) if v == bad_version
        ));
    }
    // A genuine version 1 file is refused by its version word, before
    // its geometry (which v2 would read as trailing bytes) is looked at.
    assert!(matches!(
        open_bytes(&dir, "v1-file", &triangle_v1_bytes()),
        Err(StoreError::BadVersion(1))
    ));
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
    put_u64(&mut b, 24, u64::MAX); // m whose section size overflows
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
        // and both are checked before any adjacency byte is sliced.
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
    for (tag, patch, expected) in [
        (
            "neighbor-range",
            &[(1usize, 5u32)][..],
            "row 0 references vertex 5 ≥ n = 3",
        ),
        ("self-loop", &[(2, 1)][..], "self-loop at vertex 1"),
        (
            "below-row",
            &[(2, 0)][..],
            "row 1 holds 0, below 1: a row holds only higher neighbors",
        ),
        (
            "row-unsorted",
            &[(0, 2), (1, 1)][..],
            "row 0 is not strictly increasing (2 then 1)",
        ),
        (
            "row-duplicate",
            &[(0, 2)][..],
            "row 0 is not strictly increasing (2 then 2)",
        ),
    ] {
        let mut b = tri.clone();
        for &(slot, value) in patch {
            put_u32(&mut b, adj_at(slot), value);
        }
        match open_bytes(&dir, tag, &b) {
            Err(StoreError::Corrupt(msg)) => assert_eq!(msg, expected, "{tag}"),
            other => panic!("{tag} accepted: {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The docs/IO.md lane checksum over a file's payload, for re-sealing
/// the header after a corruption so the structural checks alone must
/// catch it.
fn payload_checksum(bytes: &[u8]) -> u64 {
    const IV: u64 = 0x9E37_79B9_7F4A_7C15;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let n = word(16) as usize;
    let adj_at = HEADER_BYTES + (n + 1) * 8;
    let words = [word(16), word(24)]
        .into_iter()
        .chain((HEADER_BYTES..adj_at).step_by(8).map(word))
        .chain(
            bytes[adj_at..]
                .chunks_exact(4)
                .map(|c| u64::from(u32::from_le_bytes(c.try_into().unwrap()))),
        );
    let mut lanes = [IV, IV + 1, IV + 2, IV + 3];
    for (i, w) in words.enumerate() {
        lanes[i % 4] = mix64(lanes[i % 4] ^ w);
    }
    lanes
        .into_iter()
        .fold(IV, |state, lane| mix64(state ^ lane))
}

/// The splitmix64 finalizer the checksum is built from.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[test]
fn every_one_word_adjacency_corruption_is_rejected_truthfully() {
    // One adjacency word moved to any other value in `0..=n`. With the
    // header's checksum left stale, every such file is rejected. Re-sealed
    // with a valid checksum, the structural checks alone decide: a
    // rejection must name a defect the bytes really have, and a file
    // that keeps every rule (the word moved within its row's gap) is
    // another graph, accepted as exactly the graph its rows name.
    let dir = tempdir("mutate");
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let (mut rejected, mut accepted) = (0, 0);
    for case in 0..300 {
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
        let offset = |v: usize| {
            let at = HEADER_BYTES + v * 8;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
        };
        let slot_at = |i: usize| HEADER_BYTES + (n + 1) * 8 + i * 4;
        let i = rng.gen_range(0..g.edge_count());
        let old = u32::from_le_bytes(bytes[slot_at(i)..slot_at(i) + 4].try_into().unwrap());
        let new = loop {
            let x = rng.gen_range(0..n as u32 + 1);
            if x != old {
                break x;
            }
        };
        let mut corrupt = bytes.clone();
        put_u32(&mut corrupt, slot_at(i), new);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                (offset(v)..offset(v + 1))
                    .map(|j| {
                        u32::from_le_bytes(corrupt[slot_at(j)..slot_at(j) + 4].try_into().unwrap())
                    })
                    .collect()
            })
            .collect();
        let mut sealed = corrupt.clone();
        put_u64(&mut sealed, 32, payload_checksum(&corrupt));

        let stale = open_bytes(&dir, "mutate-stale", &corrupt);
        assert!(stale.is_err(), "case {case}: a stale checksum was accepted");
        match open_bytes(&dir, "mutate-sealed", &sealed) {
            Ok(store) => {
                accepted += 1;
                assert!(
                    matches!(stale, Err(StoreError::Corrupt(ref m)) if m.contains("checksum")),
                    "case {case}: a structurally valid file failed otherwise: {stale:?}"
                );
                let named = Graph::from_edges(
                    n,
                    rows.iter()
                        .enumerate()
                        .flat_map(|(u, row)| row.iter().map(move |&w| (u as u32, w))),
                );
                assert_eq!(store.to_graph(), named, "case {case}");
                let again = graph_bytes(&dir, "mutate-again", &named);
                assert_eq!(again, sealed, "case {case}: two encodings of one graph");
            }
            Err(StoreError::Corrupt(msg)) => {
                rejected += 1;
                assert!(
                    defect_is_true(&msg, &rows, n),
                    "case {case}: \"{msg}\" is false of the bytes {rows:?}"
                );
            }
            Err(other) => panic!("case {case}: unexpected rejection {other}"),
        }
    }
    assert!(
        rejected > 50 && accepted > 10,
        "{rejected} rejected, {accepted} accepted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether the validator's message `msg` describes a defect `rows` has.
fn defect_is_true(msg: &str, rows: &[Vec<u32>], n: usize) -> bool {
    let nums: Vec<usize> = msg
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let row = |u: usize| &rows[u][..];
    if msg.starts_with("self-loop at vertex") {
        row(nums[0]).contains(&(nums[0] as u32))
    } else if msg.contains("references vertex") {
        nums[2] == n && nums[1] >= n && row(nums[0]).contains(&(nums[1] as u32))
    } else if msg.contains("below") {
        nums[1] < nums[0] && row(nums[0]).contains(&(nums[1] as u32))
    } else if msg.contains("not strictly increasing") {
        row(nums[0])
            .windows(2)
            .any(|w| w[0] as usize == nums[1] && w[1] as usize == nums[2] && w[1] <= w[0])
    } else {
        false
    }
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
