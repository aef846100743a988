//! Out-of-core graph storage: the versioned, checksummed binary CSR
//! file format and the [`CsrStore`] that serves it to the kernels.
//!
//! The normative byte-level specification lives in `docs/IO.md`; in
//! brief, a `.csr` file is
//!
//! ```text
//! magic "TRIADCSR" | version u32 | flags u32 | n u64 | m u64 | checksum u64
//! offsets: (n+1) × u64            // offsets[0] = 0, offsets[n] = 2m
//! adjacency: 2m × u32             // row v = adjacency[offsets[v]..offsets[v+1]]
//! ```
//!
//! all little-endian. Files are written **once** by the streaming
//! [`writer`] (generators emit edges chunk-by-chunk; the full edge list
//! is never resident) and then opened read-only: [`CsrStore::open`]
//! memory-maps the file on little-endian unix targets (raw
//! `mmap`/`munmap`, see the `mmap` module's docs) and falls back to
//! a buffered read into owned `Vec`s everywhere else — behind the same
//! [`crate::AsCsr`] surface, with bit-identical results (pinned by
//! `tests/store_differential.rs`).
//!
//! Like the `wire.rs` frame codec in `triad-comm`, the reader is
//! paranoid *before* it commits resources: header, declared geometry and
//! file size are checked before any mapping or allocation, and the full
//! structural battery (monotone offsets, strictly sorted rows, symmetry,
//! checksum) runs before a store is handed to callers. Setting the
//! `TRIAD_NO_MMAP` environment variable forces the owned fallback — CI
//! uses it to exercise that path on hosts where mmap works fine.

use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

use crate::csr::AsCsr;
use crate::{Edge, Graph, VertexId};

#[cfg(all(unix, target_endian = "little"))]
mod mmap;
pub mod streams;
pub mod writer;

pub use streams::{ChungLuStream, DenseCoreStream, FarStream, GnpStream};
pub use writer::{write_csr, write_csr_with_budget, EdgeStream, WriteSummary};

/// The 8-byte magic at offset 0 of every `.csr` file.
pub const MAGIC: [u8; 8] = *b"TRIADCSR";

/// The current (and only) format version.
pub const VERSION: u32 = 1;

/// Fixed header size in bytes: magic + version + flags + n + m + checksum.
pub const HEADER_BYTES: usize = 40;

/// Byte offset of the checksum field within the header.
pub(crate) const CHECKSUM_OFFSET: u64 = 32;

/// splitmix64 finalizer — the checksum's mixing function. Kept local so
/// `triad-graph` stays independent of `triad-comm` (which pins the same
/// constants for seed derivation).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The sequential checksum chain of `docs/IO.md`: starting from a fixed
/// IV, each 64-bit word (in spec order: `n`, `m`, every offset word,
/// every adjacency `u32` zero-extended) is folded in as
/// `state = mix64(state ^ word)`. Order-sensitive by construction, so
/// swapped rows or reordered neighbors change the digest.
#[derive(Debug, Clone)]
pub(crate) struct Checksum(u64);

impl Checksum {
    pub(crate) fn new() -> Checksum {
        Checksum(0x9E37_79B9_7F4A_7C15)
    }

    pub(crate) fn absorb(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything that can go wrong opening, validating or writing a `.csr`
/// file. Mirrors the granularity of `io::ReadError` so tests can pin the
/// precise rejection, not just "it failed".
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file is shorter than its header and declared geometry demand.
    Truncated {
        /// Bytes the header (or the fixed header size) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The first eight bytes are not `TRIADCSR`.
    BadMagic,
    /// A version this build does not speak.
    BadVersion(u32),
    /// Nonzero reserved flags.
    BadFlags(u32),
    /// Structurally invalid contents: offset/row/symmetry/checksum
    /// violations, oversized geometry, or trailing bytes.
    Corrupt(String),
    /// A graph handed to the writer that cannot be encoded (endpoint out
    /// of the declared vertex range, vertex count exceeding `u32`).
    InvalidGraph(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "csr store i/o error: {e}"),
            StoreError::Truncated { expected, actual } => {
                write!(
                    f,
                    "csr file truncated: need {expected} bytes, have {actual}"
                )
            }
            StoreError::BadMagic => write!(f, "not a csr file (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported csr version {v}"),
            StoreError::BadFlags(v) => write!(f, "unsupported csr flags {v:#x}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt csr file: {msg}"),
            StoreError::InvalidGraph(msg) => write!(f, "cannot encode graph: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Parsed header fields (already range-checked).
struct Header {
    n: usize,
    m: usize,
    checksum: u64,
}

fn parse_header(bytes: &[u8; HEADER_BYTES]) -> Result<Header, StoreError> {
    if bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if flags != 0 {
        return Err(StoreError::BadFlags(flags));
    }
    let n = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let m = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
    if n > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!(
            "vertex count {n} exceeds the u32 id space"
        )));
    }
    let n = usize::try_from(n)
        .map_err(|_| StoreError::Corrupt(format!("vertex count {n} does not fit this platform")))?;
    let m = usize::try_from(m)
        .ok()
        .filter(|m| m.checked_mul(2).is_some())
        .ok_or_else(|| StoreError::Corrupt(format!("edge count {m} does not fit this platform")))?;
    Ok(Header { n, m, checksum })
}

/// Exact byte length a well-formed file with this geometry must have.
fn expected_len(n: usize, m: usize) -> Result<u64, StoreError> {
    let words = (n as u64)
        .checked_add(1)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| StoreError::Corrupt("offset section size overflow".into()))?;
    let slots = (m as u64)
        .checked_mul(8)
        .ok_or_else(|| StoreError::Corrupt("adjacency section size overflow".into()))?;
    (HEADER_BYTES as u64)
        .checked_add(words)
        .and_then(|t| t.checked_add(slots))
        .ok_or_else(|| StoreError::Corrupt("file size overflow".into()))
}

/// The two ways a validated file's sections can be held.
enum Backing {
    /// Borrowed straight from a read-only memory mapping.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped {
        map: mmap::Mapping,
        words: usize,
        slots: usize,
    },
    /// Decoded into owned vectors — the portable fallback.
    Owned { offsets: Vec<u64>, adj: Vec<u32> },
}

impl Backing {
    fn offsets(&self) -> &[u64] {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { map, words, .. } => map.u64s(HEADER_BYTES, *words),
            Backing::Owned { offsets, .. } => offsets,
        }
    }

    fn adj(&self) -> &[u32] {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { map, words, slots } => map.u32s(HEADER_BYTES + words * 8, *slots),
            Backing::Owned { adj, .. } => adj,
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { .. } => true,
            Backing::Owned { .. } => false,
        }
    }

    /// Heap bytes owned by the backing itself (0 when mapped).
    fn owned_bytes(&self) -> usize {
        match self {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { .. } => 0,
            Backing::Owned { offsets, adj } => offsets.len() * 8 + adj.len() * 4,
        }
    }
}

/// The VertexId slice cast — isolated so the `unsafe` is one function
/// with one invariant, usable by both backings.
#[allow(unsafe_code)]
mod cast {
    use crate::VertexId;

    /// Reinterprets sorted neighbor words as vertex ids.
    pub(super) fn vertex_ids(raw: &[u32]) -> &[VertexId] {
        // SAFETY: `VertexId` is `#[repr(transparent)]` over `u32`, so the
        // two slices have identical layout, and the lifetime is inherited.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<VertexId>(), raw.len()) }
    }
}

/// How [`CsrStore::open_with`] should obtain the file's sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Map if the platform can (and `TRIAD_NO_MMAP` is unset), else read.
    Auto,
    /// Require the memory mapping; error out if it fails.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped,
    /// Always decode into owned vectors.
    Owned,
}

/// A validated, read-only CSR graph backed by a `.csr` file — mapped
/// when possible, owned otherwise. Implements [`AsCsr`], so every kernel
/// and partition scheme runs over it directly; the only heap the mapped
/// variant allocates is the `(n+1)`-word forward-edge index that gives
/// the canonical edge order in `O(log n)` per lookup.
pub struct CsrStore {
    n: usize,
    m: usize,
    checksum: u64,
    file_bytes: u64,
    backing: Backing,
    /// `edge_starts[u]` = number of canonical edges `(x, y)` with `x < u`;
    /// equivalently a prefix sum of forward degrees. Length `n + 1`,
    /// `edge_starts[n] = m`.
    edge_starts: Vec<u64>,
}

impl std::fmt::Debug for CsrStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrStore")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("mapped", &self.backing.is_mapped())
            .field("file_bytes", &self.file_bytes)
            .finish()
    }
}

impl CsrStore {
    /// Opens and fully validates a `.csr` file, preferring the memory
    /// mapping and falling back to the owned read when mapping is
    /// unavailable (non-unix, big-endian, `TRIAD_NO_MMAP` set, or the
    /// `mmap` call itself failing).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: i/o, header, geometry or structural-validation
    /// failures. Format errors are identical whichever backing serves the
    /// bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<CsrStore, StoreError> {
        Self::open_with(path.as_ref(), Mode::Auto)
    }

    /// Opens with the memory-mapped backing, erroring if mapping fails.
    /// Only available on little-endian unix targets.
    ///
    /// # Errors
    ///
    /// As [`CsrStore::open`], plus the OS error when `mmap` refuses.
    #[cfg(all(unix, target_endian = "little"))]
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<CsrStore, StoreError> {
        Self::open_with(path.as_ref(), Mode::Mapped)
    }

    /// Opens with the portable owned backing (buffered read into `Vec`s),
    /// regardless of platform capabilities.
    ///
    /// # Errors
    ///
    /// As [`CsrStore::open`].
    pub fn open_owned(path: impl AsRef<Path>) -> Result<CsrStore, StoreError> {
        Self::open_with(path.as_ref(), Mode::Owned)
    }

    fn open_with(path: &Path, mode: Mode) -> Result<CsrStore, StoreError> {
        let mut file = File::open(path)?;
        let actual = file.metadata()?.len();
        if actual < HEADER_BYTES as u64 {
            return Err(StoreError::Truncated {
                expected: HEADER_BYTES as u64,
                actual,
            });
        }
        let mut head = [0u8; HEADER_BYTES];
        file.read_exact(&mut head)?;
        let header = parse_header(&head)?;
        let expected = expected_len(header.n, header.m)?;
        if actual < expected {
            return Err(StoreError::Truncated { expected, actual });
        }
        if actual > expected {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes past the declared geometry",
                actual - expected
            )));
        }
        let words = header.n + 1;
        let slots = header.m * 2;
        let backing = match mode {
            #[cfg(all(unix, target_endian = "little"))]
            Mode::Mapped => Backing::Mapped {
                map: mmap::Mapping::map(&file, expected as usize)?,
                words,
                slots,
            },
            Mode::Owned => read_owned(&mut file, words, slots)?,
            Mode::Auto => {
                #[cfg(all(unix, target_endian = "little"))]
                {
                    if std::env::var_os("TRIAD_NO_MMAP").is_none() {
                        match mmap::Mapping::map(&file, expected as usize) {
                            Ok(map) => Backing::Mapped { map, words, slots },
                            Err(_) => read_owned(&mut file, words, slots)?,
                        }
                    } else {
                        read_owned(&mut file, words, slots)?
                    }
                }
                #[cfg(not(all(unix, target_endian = "little")))]
                {
                    read_owned(&mut file, words, slots)?
                }
            }
        };
        let edge_starts = validate(header.n, header.m, &backing, header.checksum)?;
        Ok(CsrStore {
            n: header.n,
            m: header.m,
            checksum: header.checksum,
            file_bytes: expected,
            backing,
            edge_starts,
        })
    }

    /// Number of vertices `n`.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Average degree `2m/n`.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / self.n as f64
        }
    }

    /// `true` when the adjacency is served straight from the mapping.
    pub fn mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// The validated file's checksum (as stored in its header).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Total size of the backing file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Heap bytes this store owns: the forward-edge index plus, for the
    /// owned backing, the decoded sections. For a mapped store this is
    /// `≈ 8·(n+1)` regardless of `m` — the allocation-side evidence that
    /// kernels run over the mapping, not a materialized copy.
    pub fn owned_bytes(&self) -> usize {
        self.edge_starts.len() * 8 + self.backing.owned_bytes()
    }

    /// Materializes the store as an in-memory [`Graph`] — the
    /// differential suites compare kernels over both representations.
    pub fn to_graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        AsCsr::for_each_edge(self, &mut |_, e| edges.push(e));
        Graph::from_sorted_dedup_edges(self.n, edges)
    }

    fn row(&self, v: usize) -> &[VertexId] {
        let offsets = self.backing.offsets();
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        cast::vertex_ids(&self.backing.adj()[lo..hi])
    }

    /// The forward suffix of row `u`: neighbors strictly greater than `u`,
    /// i.e. the canonical edges `(u, v)` in order.
    fn forward_row(&self, u: usize) -> &[VertexId] {
        let row = self.row(u);
        let fwd = (self.edge_starts[u + 1] - self.edge_starts[u]) as usize;
        &row[row.len() - fwd..]
    }
}

impl AsCsr for CsrStore {
    fn vertex_count(&self) -> usize {
        self.n
    }

    fn edge_count(&self) -> usize {
        self.m
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.row(v.index())
    }

    fn adj_start(&self, v: VertexId) -> usize {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.backing.offsets()[v.index()] as usize
    }

    fn edge_at(&self, i: usize) -> Edge {
        assert!(i < self.m, "edge index {i} out of range");
        let u = self.edge_starts.partition_point(|&s| s <= i as u64) - 1;
        let v = self.forward_row(u)[i - self.edge_starts[u] as usize];
        Edge::new(VertexId(u as u32), v)
    }

    fn edge_index(&self, e: Edge) -> Option<usize> {
        let (u, v) = e.endpoints();
        if v.index() >= self.n {
            return None;
        }
        let fwd = self.forward_row(u.index());
        fwd.binary_search(&v)
            .ok()
            .map(|pos| self.edge_starts[u.index()] as usize + pos)
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(usize, Edge) -> bool) {
        if range.start >= range.end {
            return;
        }
        assert!(range.end <= self.m, "edge range out of bounds");
        let mut u = self
            .edge_starts
            .partition_point(|&s| s <= range.start as u64)
            - 1;
        let mut i = range.start;
        while i < range.end {
            let fwd = self.forward_row(u);
            let skip = i - self.edge_starts[u] as usize;
            for &v in &fwd[skip..] {
                if i >= range.end {
                    return;
                }
                if !f(i, Edge::new(VertexId(u as u32), v)) {
                    return;
                }
                i += 1;
            }
            u += 1;
        }
    }
}

fn read_owned(file: &mut File, words: usize, slots: usize) -> Result<Backing, StoreError> {
    // Decode in bounded chunks so the transient byte buffer stays small
    // even for multi-million-edge files.
    const CHUNK: usize = 1 << 16;
    let mut buf = vec![0u8; CHUNK];
    let mut offsets = Vec::with_capacity(words);
    let mut remaining = words * 8;
    while remaining > 0 {
        let take = remaining.min(CHUNK & !7);
        file.read_exact(&mut buf[..take])?;
        offsets.extend(
            buf[..take]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        remaining -= take;
    }
    let mut adj = Vec::with_capacity(slots);
    let mut remaining = slots * 4;
    while remaining > 0 {
        let take = remaining.min(CHUNK & !3);
        file.read_exact(&mut buf[..take])?;
        adj.extend(
            buf[..take]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        remaining -= take;
    }
    Ok(Backing::Owned { offsets, adj })
}

/// The structural battery: offsets, rows, symmetry, checksum. Returns the
/// forward-edge prefix index on success.
fn validate(n: usize, m: usize, backing: &Backing, declared: u64) -> Result<Vec<u64>, StoreError> {
    let offsets = backing.offsets();
    let adj = backing.adj();
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert_eq!(adj.len(), 2 * m);
    if offsets[0] != 0 {
        return Err(StoreError::Corrupt(format!(
            "offsets[0] = {}, expected 0",
            offsets[0]
        )));
    }
    if offsets[n] != 2 * m as u64 {
        return Err(StoreError::Corrupt(format!(
            "offsets[n] = {}, expected 2m = {}",
            offsets[n],
            2 * m
        )));
    }
    // The whole offset section must be validated before any row is
    // sliced: the symmetry check below reads the mate row of a forward
    // edge, which can sit arbitrarily far ahead of the cursor, so a
    // decreasing offset there would otherwise panic instead of erroring.
    // Monotone + `offsets[n] == 2m` also bounds every row, so no
    // per-row overrun check is needed.
    for u in 0..n {
        if offsets[u] > offsets[u + 1] {
            return Err(StoreError::Corrupt(format!(
                "offsets decrease at vertex {u} ({} > {})",
                offsets[u],
                offsets[u + 1]
            )));
        }
    }
    // Symmetry by cursor matching. Rows are walked in order and are
    // strictly increasing, so the forward entries `(u, v)` naming one `v`
    // arrive with `u` ascending, and each must be the next unmatched
    // backward entry of row `v`. Until row `v` is reached, that entry's
    // position (the cursor) lives in the not-yet-written slot `v + 1` of
    // the forward-edge index; on reaching row `v` the cursor must sit
    // exactly at its first forward entry. A forward entry then always
    // names a backward entry and every backward entry is named, so
    // `u ∈ row v ⟺ v ∈ row u`. A cursor is not bounded by its row's end:
    // a match can never take a forward entry (each exceeds the rows that
    // match), so a cursor only runs past the end of a row that has none,
    // and that row's own check then fails.
    let mut edge_starts = Vec::with_capacity(n + 1);
    edge_starts.push(0);
    edge_starts.extend_from_slice(&offsets[..n]);
    let mut forward = 0u64;
    for u in 0..n {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        let fwd_start = lo + check_row(u, &adj[lo..hi], n)?;
        let cursor = edge_starts[u + 1] as usize;
        if cursor < fwd_start {
            // Stopped at a backward entry whose row did not name `u`.
            return Err(asymmetric(adj[cursor], u));
        }
        if cursor > fwd_start {
            // Ran off the end of row `u`: the first entry past it is the
            // row that named `u` with no slot left for it.
            return Err(asymmetric(u as u32, adj[fwd_start] as usize));
        }
        for &v in &adj[fwd_start..hi] {
            let slot = &mut edge_starts[v as usize + 1];
            if adj.get(*slot as usize) == Some(&(u as u32)) {
                *slot += 1;
            } else {
                return Err(unmatched(n, offsets, adj, u, v as usize, *slot as usize));
            }
        }
        forward += (hi - fwd_start) as u64;
        edge_starts[u + 1] = forward;
    }
    if forward != m as u64 {
        return Err(StoreError::Corrupt(format!(
            "forward-edge count {forward} disagrees with declared m = {m}"
        )));
    }
    // The checksum chain, last and in a pass of its own: the chain is
    // serial, and inside the row walk it would stall the walk's
    // independent mate-row loads.
    let mut checksum = Checksum::new();
    checksum.absorb(n as u64);
    checksum.absorb(m as u64);
    for &o in offsets {
        checksum.absorb(o);
    }
    for &v in adj {
        checksum.absorb(u64::from(v));
    }
    let computed = checksum.finish();
    if computed != declared {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch: header declares {declared:#018x}, contents hash to {computed:#018x}"
        )));
    }
    Ok(edge_starts)
}

/// The per-row checks: entries `< n`, no self-loop, strictly increasing.
/// Returns the number of backward entries (those `< u`).
fn check_row(u: usize, row: &[u32], n: usize) -> Result<usize, StoreError> {
    let mut prev: Option<u32> = None;
    let mut backward = 0;
    for &v in row {
        if v as usize >= n {
            return Err(StoreError::Corrupt(format!(
                "row {u} references vertex {v} ≥ n = {n}"
            )));
        }
        if v as usize == u {
            return Err(StoreError::Corrupt(format!("self-loop at vertex {u}")));
        }
        if let Some(p) = prev {
            if v <= p {
                return Err(StoreError::Corrupt(format!(
                    "row {u} is not strictly increasing ({p} then {v})"
                )));
            }
        }
        prev = Some(v);
        backward += usize::from((v as usize) < u);
    }
    Ok(backward)
}

/// The error for a pair with `a ∈ row b` but `b ∉ row a`.
fn asymmetric(a: u32, b: usize) -> StoreError {
    StoreError::Corrupt(format!("asymmetric edge: {a} ∈ row {b} but {b} ∉ row {a}"))
}

/// Names the defect behind a forward entry `v` of row `u` that does not
/// match slot `at`, the cursor of row `v`. Row `v` lies ahead of the
/// walk, so its own checks run first; once it is known to be strictly
/// increasing, its slots before `at` hold the rows `< u` that named `v`.
/// If the entry at `at` is below `u`, its row did not name `v`; otherwise
/// (a larger entry, or none left in the row) `u` is missing from row `v`.
fn unmatched(n: usize, offsets: &[u64], adj: &[u32], u: usize, v: usize, at: usize) -> StoreError {
    let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
    if let Err(e) = check_row(v, &adj[lo..hi], n) {
        return e;
    }
    match adj.get(at..hi).and_then(<[u32]>::first) {
        Some(&w) if (w as usize) < u => asymmetric(w, v),
        _ => asymmetric(v as u32, u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = Checksum::new();
        a.absorb(1);
        a.absorb(2);
        let mut b = Checksum::new();
        b.absorb(2);
        b.absorb(1);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(Checksum::new().finish(), 0);
    }

    #[test]
    fn expected_len_matches_geometry_and_overflows_cleanly() {
        assert_eq!(expected_len(0, 0).unwrap(), 48);
        assert_eq!(expected_len(4, 5).unwrap(), 40 + 5 * 8 + 10 * 4);
        assert!(expected_len(usize::MAX - 1, usize::MAX / 2).is_err());
    }

    #[test]
    fn header_rejections_are_precise() {
        let mut good = [0u8; HEADER_BYTES];
        good[0..8].copy_from_slice(&MAGIC);
        good[8..12].copy_from_slice(&VERSION.to_le_bytes());
        assert!(parse_header(&good).is_ok());

        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(parse_header(&bad), Err(StoreError::BadMagic)));

        let mut bad = good;
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(parse_header(&bad), Err(StoreError::BadVersion(7))));

        let mut bad = good;
        bad[12..16].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(parse_header(&bad), Err(StoreError::BadFlags(1))));

        let mut bad = good;
        bad[16..24].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(matches!(parse_header(&bad), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn error_display_and_source() {
        let e = StoreError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        let t = StoreError::Truncated {
            expected: 48,
            actual: 10,
        };
        assert!(t.to_string().contains("48"));
        assert!(std::error::Error::source(&t).is_none());
    }
}
