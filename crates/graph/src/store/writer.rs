//! The streaming `.csr` writer: many cheap replays, bounded memory.
//!
//! The writer never holds the full edge list. It consumes an
//! [`EdgeStream`] — a *replayable* edge source (generators replay by
//! reseeding their RNG; a materialized [`Graph`] replays by iterating
//! its slice) — in passes:
//!
//! 1. **Degree pass**: one replay counts per-vertex emission-inclusive
//!    forward degrees (each edge counts at its lower endpoint, the one
//!    whose row stores it) and validates endpoints. No edges are stored.
//! 2. **Window passes**: vertex rows are grouped into windows whose
//!    total entry count fits the memory budget; one replay per window
//!    collects only that window's canonical `(u, v)` pairs, sorts and
//!    deduplicates them, and appends the `v` words to a temporary
//!    adjacency file. Duplicate emissions (overlapping triangles,
//!    colliding extras) are eliminated here, per row, so any emission
//!    order and multiplicity yields the identical file.
//! 3. **Assembly pass**: header + offsets are written, the temporary
//!    adjacency is copied through while the `docs/IO.md` lane checksum
//!    absorbs every word, and the digest is patched into the header.
//!
//! Peak memory is `O(n + window)` — the two degree arrays plus one
//! window's pairs — independent of `m`.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::{Checksum, StoreError, CHECKSUM_OFFSET, MAGIC, VERSION};
use crate::{Edge, Graph};

/// A replayable edge source with a declared vertex count.
///
/// `replay` must emit the **same multiset of edges** on every call —
/// generators guarantee this by constructing a fresh seeded RNG per
/// replay. Emission order and duplicates are irrelevant: the writer
/// sorts and deduplicates per row, so equal edge sets yield
/// byte-identical files.
pub trait EdgeStream {
    /// Number of vertices `n`; every emitted endpoint must be `< n`.
    fn vertex_count(&self) -> usize;

    /// Emits every edge (in any order, duplicates allowed) to `emit`.
    fn replay(&self, emit: &mut dyn FnMut(Edge));
}

/// A materialized graph is the trivial stream: replay iterates the
/// canonical edge slice.
impl EdgeStream for Graph {
    fn vertex_count(&self) -> usize {
        Graph::vertex_count(self)
    }

    fn replay(&self, emit: &mut dyn FnMut(Edge)) {
        for &e in self.edges() {
            emit(e);
        }
    }
}

/// What one [`write_csr`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Vertices declared in the header.
    pub vertices: usize,
    /// Deduplicated edge count written.
    pub edges: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Row windows the adjacency was built in (each cost one replay).
    pub windows: usize,
}

/// Default window budget: 4Mi `(row, neighbor)` entries ≈ 32 MiB of
/// transient pair storage, regardless of graph size.
pub const DEFAULT_WINDOW_ENTRIES: usize = 1 << 22;

/// Streams `stream` into a `.csr` file at `path` with the default
/// memory budget. See [`write_csr_with_budget`].
///
/// # Errors
///
/// Filesystem errors, endpoints outside `0..vertex_count()`
/// ([`StoreError::InvalidGraph`]) or a vertex count exceeding the `u32`
/// id space.
pub fn write_csr(
    path: impl AsRef<Path>,
    stream: &dyn EdgeStream,
) -> Result<WriteSummary, StoreError> {
    write_csr_with_budget(path, stream, DEFAULT_WINDOW_ENTRIES)
}

/// [`write_csr`] with an explicit window budget (in adjacency entries;
/// clamped to at least 2). Smaller budgets mean more windows and more
/// replays but strictly less memory — the output file is byte-identical
/// at any budget, which `tests` below pin.
///
/// # Errors
///
/// As [`write_csr`].
pub fn write_csr_with_budget(
    path: impl AsRef<Path>,
    stream: &dyn EdgeStream,
    window_entries: usize,
) -> Result<WriteSummary, StoreError> {
    let path = path.as_ref();
    let n = stream.vertex_count();
    if n > u32::MAX as usize {
        return Err(StoreError::InvalidGraph(format!(
            "vertex count {n} exceeds the u32 id space"
        )));
    }
    let tmp_path = adjacency_tmp_path(path);
    let result = write_inner(path, &tmp_path, stream, n, window_entries.max(2));
    std::fs::remove_file(&tmp_path).ok();
    result
}

fn adjacency_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".adj.tmp");
    PathBuf::from(os)
}

fn write_inner(
    path: &Path,
    tmp_path: &Path,
    stream: &dyn EdgeStream,
    n: usize,
    window_entries: usize,
) -> Result<WriteSummary, StoreError> {
    // Pass 1: emission-inclusive forward degrees + endpoint validation.
    let mut deg_dup = vec![0u64; n];
    let mut bad: Option<String> = None;
    stream.replay(&mut |e| {
        // Edge guarantees u < v, so checking v covers both endpoints.
        if e.v().index() >= n {
            if bad.is_none() {
                bad = Some(format!(
                    "edge {}–{} outside the declared vertex range 0..{n}",
                    e.u(),
                    e.v()
                ));
            }
            return;
        }
        deg_dup[e.u().index()] += 1;
    });
    if let Some(msg) = bad {
        return Err(StoreError::InvalidGraph(msg));
    }

    // Row windows sized by the budget (at least one row each).
    let mut windows: Vec<(usize, usize)> = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let mut hi = lo;
        let mut acc = 0u64;
        while hi < n && (hi == lo || acc + deg_dup[hi] <= window_entries as u64) {
            acc += deg_dup[hi];
            hi += 1;
        }
        windows.push((lo, hi));
        lo = hi;
    }

    // Pass 2 (× windows): collect, sort, dedup and append each window's
    // rows to the temporary adjacency file. A pair packs as `u << 32 | v`,
    // so numeric order is canonical edge order.
    let mut deg = vec![0u64; n];
    {
        let mut tmp = std::io::BufWriter::new(File::create(tmp_path)?);
        for &(lo, hi) in &windows {
            let cap = deg_dup[lo..hi].iter().sum::<u64>();
            let mut pairs: Vec<u64> =
                Vec::with_capacity(usize::try_from(cap).unwrap_or(usize::MAX));
            stream.replay(&mut |e| {
                if (lo..hi).contains(&e.u().index()) {
                    pairs.push(u64::from(e.u().0) << 32 | u64::from(e.v().0));
                }
            });
            pairs.sort_unstable();
            pairs.dedup();
            for &pair in &pairs {
                deg[(pair >> 32) as usize] += 1;
                tmp.write_all(&(pair as u32).to_le_bytes())?;
            }
        }
        tmp.flush()?;
    }
    drop(deg_dup);
    let m: u64 = deg.iter().sum();

    // Pass 3: assemble header + offsets + adjacency, absorbing the
    // payload words in spec order, then patch the digest in.
    let mut w = std::io::BufWriter::new(File::create(path)?);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?; // checksum patched below
    let mut checksum = Checksum::new();
    checksum.absorb(n as u64);
    checksum.absorb(m);
    let mut acc = 0u64;
    checksum.absorb(acc);
    w.write_all(&acc.to_le_bytes())?;
    for &d in &deg {
        acc += d;
        checksum.absorb(acc);
        w.write_all(&acc.to_le_bytes())?;
    }
    drop(deg);

    let mut tmp = File::open(tmp_path)?;
    let actual = tmp.metadata()?.len();
    if actual != m * 4 {
        return Err(StoreError::Corrupt(format!(
            "temporary adjacency holds {actual} bytes, expected {}",
            m * 4
        )));
    }
    const CHUNK: usize = 1 << 16; // multiple of 4
    let mut buf = vec![0u8; CHUNK];
    let mut words = Vec::with_capacity(CHUNK / 4);
    let mut remaining = usize::try_from(m * 4).map_err(|_| {
        StoreError::InvalidGraph("adjacency section does not fit this platform".into())
    })?;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        tmp.read_exact(&mut buf[..take])?;
        words.clear();
        words.extend(
            buf[..take]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        checksum.absorb_slice(&words);
        w.write_all(&buf[..take])?;
        remaining -= take;
    }
    w.flush()?;
    let mut file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
    file.seek(SeekFrom::Start(CHECKSUM_OFFSET))?;
    file.write_all(&checksum.finish().to_le_bytes())?;
    let file_bytes = 40 + (n as u64 + 1) * 8 + m * 4;

    Ok(WriteSummary {
        vertices: n,
        edges: usize::try_from(m).expect("m fits: its pairs were materialized"),
        file_bytes,
        windows: windows.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CsrStore;
    use crate::VertexId;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triad-writer-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn graph_round_trips_through_the_file() {
        let dir = tempdir("roundtrip");
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (2, 5)]);
        let path = dir.join("g.csr");
        let summary = write_csr(&path, &g).unwrap();
        assert_eq!(summary.vertices, 6);
        assert_eq!(summary.edges, 5);
        assert_eq!(summary.file_bytes, std::fs::metadata(&path).unwrap().len());
        let store = CsrStore::open(&path).unwrap();
        assert_eq!(store.to_graph(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_bytes_are_identical_at_any_window_budget() {
        let dir = tempdir("windows");
        let g = Graph::from_edges(
            40,
            (0..39u32)
                .map(|i| (i, i + 1))
                .chain([(0, 20), (5, 30), (1, 39)]),
        );
        let single = dir.join("one.csr");
        let many = dir.join("many.csr");
        let s1 = write_csr_with_budget(&single, &g, usize::MAX >> 8).unwrap();
        let s2 = write_csr_with_budget(&many, &g, 2).unwrap();
        assert_eq!(s1.windows, 1);
        assert!(s2.windows > 5, "tiny budget must split: {}", s2.windows);
        assert_eq!(
            std::fs::read(&single).unwrap(),
            std::fs::read(&many).unwrap(),
            "window count must not leak into the bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    struct DupStream;

    impl EdgeStream for DupStream {
        fn vertex_count(&self) -> usize {
            4
        }

        fn replay(&self, emit: &mut dyn FnMut(Edge)) {
            // Duplicates, shuffled order.
            for (u, v) in [(2, 3), (0, 1), (2, 3), (1, 2), (0, 1), (0, 1)] {
                emit(Edge::new(VertexId(u), VertexId(v)));
            }
        }
    }

    #[test]
    fn duplicate_emissions_dedup_to_the_canonical_file() {
        let dir = tempdir("dups");
        let a = dir.join("dup.csr");
        let b = dir.join("clean.csr");
        write_csr(&a, &DupStream).unwrap();
        write_csr(&b, &Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    struct OutOfRange;

    impl EdgeStream for OutOfRange {
        fn vertex_count(&self) -> usize {
            3
        }

        fn replay(&self, emit: &mut dyn FnMut(Edge)) {
            emit(Edge::new(VertexId(0), VertexId(7)));
        }
    }

    #[test]
    fn out_of_range_endpoints_are_rejected() {
        let dir = tempdir("oob");
        let err = write_csr(dir.join("bad.csr"), &OutOfRange).unwrap_err();
        assert!(matches!(err, StoreError::InvalidGraph(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    struct TooManyVertices;

    impl EdgeStream for TooManyVertices {
        fn vertex_count(&self) -> usize {
            u32::MAX as usize + 2
        }

        fn replay(&self, _emit: &mut dyn FnMut(Edge)) {}
    }

    #[test]
    fn oversized_vertex_counts_fail_before_allocating() {
        let dir = tempdir("huge");
        let err = write_csr(dir.join("huge.csr"), &TooManyVertices).unwrap_err();
        assert!(matches!(err, StoreError::InvalidGraph(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graphs_round_trip() {
        let dir = tempdir("empty");
        let path = dir.join("empty.csr");
        let g = Graph::from_edges(0, []);
        let s = write_csr(&path, &g).unwrap();
        assert_eq!(s.file_bytes, 48);
        let store = CsrStore::open(&path).unwrap();
        assert_eq!(store.vertex_count(), 0);
        assert_eq!(store.edge_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
