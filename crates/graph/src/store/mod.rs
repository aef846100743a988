//! Out-of-core graph storage: the versioned, checksummed binary CSR
//! file format and the [`CsrStore`] that serves it to the kernels.
//!
//! The normative byte-level specification lives in `docs/IO.md`; in
//! brief, a `.csr` file (format version 2) is
//!
//! ```text
//! magic "TRIADCSR" | version u32 | flags u32 | n u64 | m u64 | checksum u64
//! offsets: (n+1) × u64            // offsets[0] = 0, offsets[n] = m
//! adjacency: m × u32              // row v = adjacency[offsets[v]..offsets[v+1]]
//! ```
//!
//! all little-endian. Row `v` holds only the neighbors `w > v`, so each
//! edge is stored once, the adjacency section *is* the canonical edge
//! order, and symmetry holds by construction. Files are written **once**
//! by the streaming [`writer`] (generators emit edges chunk-by-chunk;
//! the full edge list is never resident) and then opened read-only:
//! [`CsrStore::open`] memory-maps the file on little-endian unix targets
//! (raw `mmap`/`munmap`, see the `mmap` module's docs) and falls back to
//! a buffered read into owned `Vec`s everywhere else — behind the same
//! [`crate::AsCsr`] surface, with bit-identical results (pinned by
//! `tests/store_differential.rs`).
//!
//! Like the `wire.rs` frame codec in `triad-comm`, the reader is
//! paranoid *before* it commits resources: header, declared geometry and
//! file size are checked before any mapping or allocation, and the full
//! structural battery (monotone offsets, rows strictly increasing above
//! their vertex, checksum) runs before a store is handed to callers.
//! Full neighbor rows, which no kernel's triangle search reads, are the
//! transpose the store builds on first use; degrees come from a table
//! built on first use by one pass over the forward rows. Setting the
//! `TRIAD_NO_MMAP` environment variable forces the owned fallback — CI
//! uses it to exercise that path on hosts where mmap works fine.

use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

use crate::csr::AsCsr;
use crate::{CsrAdjacency, Edge, Graph, VertexId};

#[cfg(all(unix, target_endian = "little"))]
mod mmap;
pub mod streams;
pub mod writer;

pub use streams::{ChungLuStream, DenseCoreStream, FarStream, GnpStream};
pub use writer::{write_csr, write_csr_with_budget, EdgeStream, WriteSummary};

/// The 8-byte magic at offset 0 of every `.csr` file.
pub const MAGIC: [u8; 8] = *b"TRIADCSR";

/// The format version this build reads and writes. Version 1 (every
/// edge stored in both endpoints' rows) is rejected as
/// [`StoreError::BadVersion`]`(1)`.
pub const VERSION: u32 = 2;

/// Fixed header size in bytes: magic + version + flags + n + m + checksum.
pub const HEADER_BYTES: usize = 40;

/// Byte offset of the checksum field within the header.
pub(crate) const CHECKSUM_OFFSET: u64 = 32;

/// splitmix64 finalizer — the checksum's mixing function and
/// [`by_vertex`](crate::partition::by_vertex)'s owner hash. Kept local so
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

/// Interleaved checksum lanes (see `docs/IO.md`).
const LANES: usize = 4;

/// The checksum's initial value, and the base of every lane's.
const CHECKSUM_IV: u64 = 0x9E37_79B9_7F4A_7C15;

/// The lane checksum of `docs/IO.md`: the 64-bit words of the payload
/// (in spec order: `n`, `m`, every offset word, every adjacency `u32`
/// zero-extended) are dealt round-robin to four splitmix64 chains, each
/// folding its words in as `lane = mix64(lane ^ word)`, and the digest
/// folds the four lane states the same way. The lanes are independent,
/// so one core runs them interleaved; each is order-sensitive, so
/// swapped rows or reordered neighbors change the digest.
#[derive(Debug, Clone)]
pub(crate) struct Checksum {
    lanes: [u64; LANES],
    /// The lane the next word goes to.
    next: usize,
}

impl Checksum {
    pub(crate) fn new() -> Checksum {
        Checksum {
            lanes: std::array::from_fn(|l| CHECKSUM_IV.wrapping_add(l as u64)),
            next: 0,
        }
    }

    pub(crate) fn absorb(&mut self, word: u64) {
        let lane = &mut self.lanes[self.next];
        *lane = mix64(*lane ^ word);
        self.next = (self.next + 1) % LANES;
    }

    /// Absorbs `words` in order, four lanes at a time.
    pub(crate) fn absorb_slice<T: Copy + Into<u64>>(&mut self, words: &[T]) {
        let mut words = words;
        while self.next != 0 {
            let Some((&w, rest)) = words.split_first() else {
                return;
            };
            self.absorb(w.into());
            words = rest;
        }
        let mut quads = words.chunks_exact(LANES);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for q in &mut quads {
            a = mix64(a ^ q[0].into());
            b = mix64(b ^ q[1].into());
            c = mix64(c ^ q[2].into());
            d = mix64(d ^ q[3].into());
        }
        self.lanes = [a, b, c, d];
        for &w in quads.remainder() {
            self.absorb(w.into());
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(CHECKSUM_IV, |state, &lane| mix64(state ^ lane))
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
    /// Structurally invalid contents: offset/row/checksum violations,
    /// oversized geometry, or trailing bytes.
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
        .map_err(|_| StoreError::Corrupt(format!("edge count {m} does not fit this platform")))?;
    Ok(Header { n, m, checksum })
}

/// Exact byte length a well-formed file with this geometry must have.
fn expected_len(n: usize, m: usize) -> Result<u64, StoreError> {
    let words = (n as u64)
        .checked_add(1)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| StoreError::Corrupt("offset section size overflow".into()))?;
    let slots = (m as u64)
        .checked_mul(4)
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
/// and partition scheme runs over it directly. The canonical edge order
/// is the file's adjacency section, so edge lookups are offset
/// arithmetic and a mapped store owns no heap until a caller asks for
/// full neighbor rows ([`AsCsr::neighbors`], [`CsrStore::full_rows`]) or
/// degrees ([`AsCsr::degree`]); each is built once, on first use.
pub struct CsrStore {
    n: usize,
    m: usize,
    checksum: u64,
    file_bytes: u64,
    backing: Backing,
    /// Full sorted neighbor rows: the forward rows plus their transpose.
    rows: OnceLock<CsrAdjacency>,
    /// Every vertex's degree, counted from the forward rows on first use.
    degrees: OnceLock<Vec<u32>>,
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
        let slots = header.m;
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
        validate(header.n, header.m, &backing, header.checksum)?;
        Ok(CsrStore {
            n: header.n,
            m: header.m,
            checksum: header.checksum,
            file_bytes: expected,
            backing,
            rows: OnceLock::new(),
            degrees: OnceLock::new(),
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

    /// Heap bytes this store owns: the decoded sections for the owned
    /// backing, plus the full rows and the degree table once something
    /// has asked for them. A mapped store owns nothing until then — the
    /// allocation-side evidence that a caller ran over the mapping, not a
    /// copy.
    pub fn owned_bytes(&self) -> usize {
        self.backing.owned_bytes()
            + self.rows.get().map_or(0, CsrAdjacency::heap_bytes)
            + self.degrees.get().map_or(0, |d| d.len() * 4)
    }

    /// Full sorted neighbor rows, built from the forward rows on the
    /// first call (`O(n + m)` time, `8·(n+1) + 8m` bytes on 64-bit
    /// targets) and kept for the store's lifetime.
    pub fn full_rows(&self) -> &CsrAdjacency {
        self.rows.get_or_init(|| {
            let edges = (0..self.n).flat_map(move |u| {
                let u_id = VertexId(u as u32);
                self.forward_row(u).iter().map(move |&v| (u_id, v))
            });
            CsrAdjacency::from_canonical_edges(self.n, edges)
        })
    }

    /// Every vertex's degree, counted on the first call by one pass over
    /// the forward rows (`4n` bytes) and kept for the store's lifetime.
    fn degrees(&self) -> &[u32] {
        self.degrees.get_or_init(|| {
            let (offsets, adj) = (self.backing.offsets(), self.backing.adj());
            let mut degrees: Vec<u32> = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
            for &v in adj {
                degrees[v as usize] += 1;
            }
            degrees
        })
    }

    /// Materializes the store as an in-memory [`Graph`] — the
    /// differential suites compare kernels over both representations.
    pub fn to_graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        AsCsr::for_each_edge(self, &mut |_, e| edges.push(e));
        Graph::from_sorted_dedup_edges(self.n, edges)
    }

    /// Row `u` of the file: `u`'s neighbors above `u`, ascending, i.e.
    /// the canonical edges `(u, v)` in order.
    fn forward_row(&self, u: usize) -> &[VertexId] {
        let offsets = self.backing.offsets();
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        cast::vertex_ids(&self.backing.adj()[lo..hi])
    }

    /// The row holding canonical edge `i < m`: the last `u` with
    /// `offsets[u] <= i` (empty rows share their successor's offset).
    fn row_of(&self, i: usize) -> usize {
        self.backing.offsets().partition_point(|&o| o <= i as u64) - 1
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
        self.full_rows().neighbors(v)
    }

    fn forward_neighbors(&self, v: VertexId) -> &[VertexId] {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.forward_row(v.index())
    }

    fn adj_start(&self, v: VertexId) -> usize {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.full_rows().start(v)
    }

    /// From the full rows when they exist, else from the degree table,
    /// so kernels that read only degrees and edges build no transpose.
    fn degree(&self, v: VertexId) -> usize {
        assert!(v.index() < self.n, "vertex {v} out of range");
        match self.rows.get() {
            Some(rows) => rows.degree(v),
            None => self.degrees()[v.index()] as usize,
        }
    }

    fn edge_at(&self, i: usize) -> Edge {
        assert!(i < self.m, "edge index {i} out of range");
        let u = VertexId(self.row_of(i) as u32);
        Edge::new(u, VertexId(self.backing.adj()[i]))
    }

    fn edge_index(&self, e: Edge) -> Option<usize> {
        let (u, v) = e.endpoints();
        if v.index() >= self.n {
            return None;
        }
        let pos = self.forward_row(u.index()).binary_search(&v).ok()?;
        Some(self.backing.offsets()[u.index()] as usize + pos)
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(usize, Edge) -> bool) {
        if range.start >= range.end {
            return;
        }
        assert!(range.end <= self.m, "edge range out of bounds");
        let (offsets, adj) = (self.backing.offsets(), self.backing.adj());
        let mut u = self.row_of(range.start);
        let mut i = range.start;
        while i < range.end {
            let row_end = (offsets[u + 1] as usize).min(range.end);
            for &v in &adj[i..row_end] {
                if !f(i, Edge::new(VertexId(u as u32), VertexId(v))) {
                    return;
                }
                i += 1;
            }
            u += 1;
        }
    }

    fn has_edge(&self, e: Edge) -> bool {
        self.edge_index(e).is_some()
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

/// The structural battery: offsets, rows, checksum.
fn validate(n: usize, m: usize, backing: &Backing, declared: u64) -> Result<(), StoreError> {
    let offsets = backing.offsets();
    let adj = backing.adj();
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert_eq!(adj.len(), m);
    if offsets[0] != 0 {
        return Err(StoreError::Corrupt(format!(
            "offsets[0] = {}, expected 0",
            offsets[0]
        )));
    }
    if offsets[n] != m as u64 {
        return Err(StoreError::Corrupt(format!(
            "offsets[n] = {}, expected m = {m}",
            offsets[n]
        )));
    }
    // Monotone offsets ending at `m` bound every row, so no row slice
    // below can overrun the adjacency section.
    if let Some(u) = (0..n).find(|&u| offsets[u] > offsets[u + 1]) {
        return Err(StoreError::Corrupt(format!(
            "offsets decrease at vertex {u} ({} > {})",
            offsets[u],
            offsets[u + 1]
        )));
    }
    // A well-formed file passes the one-pass test; only a file that fails
    // it walks the per-entry ladder, which names its first defect.
    if !rows_are_canonical(n, offsets, adj) {
        for u in 0..n {
            check_row(u, &adj[offsets[u] as usize..offsets[u + 1] as usize], n)?;
        }
    }
    let mut checksum = Checksum::new();
    checksum.absorb(n as u64);
    checksum.absorb(m as u64);
    checksum.absorb_slice(offsets);
    checksum.absorb_slice(adj);
    let computed = checksum.finish();
    if computed != declared {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch: header declares {declared:#018x}, contents hash to {computed:#018x}"
        )));
    }
    Ok(())
}

/// The row checks in one branch-light pass over monotone `offsets`:
/// every nonempty row's first entry is above its vertex and its last is
/// below `n`, and every descent of the adjacency section (an entry not
/// above its predecessor) falls at the start of a row. The last holds
/// exactly when every row is strictly increasing, so this is `true`
/// exactly when every row passes [`check_row`].
fn rows_are_canonical(n: usize, offsets: &[u64], adj: &[u32]) -> bool {
    let descents = adj.windows(2).filter(|w| w[1] <= w[0]).count();
    let mut ends_ok = true;
    let mut descents_at_starts = 0;
    for u in 0..n {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        if lo < hi {
            ends_ok &= adj[lo] as usize > u && (adj[hi - 1] as usize) < n;
            descents_at_starts += usize::from(lo > 0 && adj[lo] <= adj[lo - 1]);
        }
    }
    ends_ok && descents == descents_at_starts
}

/// The per-entry checks of row `u`, in order: entry `< n`, no
/// self-loop, no neighbor below `u`, strictly increasing.
fn check_row(u: usize, row: &[u32], n: usize) -> Result<(), StoreError> {
    let mut prev: Option<u32> = None;
    for &w in row {
        let defect = if w as usize >= n {
            format!("row {u} references vertex {w} ≥ n = {n}")
        } else if w as usize == u {
            format!("self-loop at vertex {u}")
        } else if (w as usize) < u {
            format!("row {u} holds {w}, below {u}: a row holds only higher neighbors")
        } else if let Some(p) = prev.filter(|&p| w <= p) {
            format!("row {u} is not strictly increasing ({p} then {w})")
        } else {
            prev = Some(w);
            continue;
        };
        return Err(StoreError::Corrupt(defect));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The offsets and adjacency sections of `rows`.
    fn sections(rows: &[Vec<u32>]) -> (Vec<u64>, Vec<u32>) {
        let mut offsets = vec![0u64];
        for row in rows {
            offsets.push(offsets.last().unwrap() + row.len() as u64);
        }
        (offsets, rows.concat())
    }

    /// Both row verdicts on `rows`: the one-pass test's and the ladder's.
    fn verdicts(rows: &[Vec<u32>]) -> (bool, bool) {
        let n = rows.len();
        let (offsets, adj) = sections(rows);
        let ladder = (0..n)
            .all(|u| check_row(u, &adj[offsets[u] as usize..offsets[u + 1] as usize], n).is_ok());
        (rows_are_canonical(n, &offsets, &adj), ladder)
    }

    #[test]
    fn the_one_pass_row_test_agrees_with_the_ladder() {
        // Empty rows between nonempty ones, and legal descents at the
        // starts of rows 3 (5 → 4), 5 (7 → 6) and 6 (7 → 7).
        let good: Vec<Vec<u32>> = vec![
            vec![1, 3, 5],
            vec![],
            vec![],
            vec![4, 6, 7],
            vec![],
            vec![6, 7],
            vec![7],
            vec![],
        ];
        let n = good.len() as u32;
        assert_eq!(verdicts(&good), (true, true));
        // Every defect at a row's first, middle and last entry: out of
        // range, a self-loop, below the row's vertex, equal to or below
        // its predecessor, and equal to or above its successor.
        let mut rejected = 0;
        for u in [0usize, 3] {
            for at in 0..3usize {
                let row = &good[u];
                let mut values = vec![n, n + 9, u32::MAX, u as u32, u.saturating_sub(1) as u32];
                values.extend(at.checked_sub(1).map(|i| row[i]));
                values.extend(row.get(at + 1).copied());
                values.extend([0, 1, 2]);
                for value in values {
                    let mut rows = good.clone();
                    rows[u][at] = value;
                    let (fast, ladder) = verdicts(&rows);
                    assert_eq!(fast, ladder, "row {u} entry {at} = {value}");
                    rejected += usize::from(!ladder);
                }
            }
        }
        assert!(rejected >= 40, "only {rejected} crafted defects");
        // A descent one slot inside a row, and one at its end.
        for row in [vec![4, 7, 6], vec![6, 4, 7], vec![4, 6, 6]] {
            let mut rows = good.clone();
            rows[3] = row;
            assert_eq!(verdicts(&rows), (false, false));
        }
        // A row-start descent after empty rows stays legal.
        let mut rows = good.clone();
        rows[3] = vec![];
        rows[4] = vec![5];
        assert_eq!(verdicts(&rows), (true, true));
    }

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
        // Two words of one lane, swapped.
        let words = [1u64, 0, 0, 0, 2];
        let mut swapped = words;
        swapped.swap(0, 4);
        let mut a = Checksum::new();
        a.absorb_slice(&words);
        let mut b = Checksum::new();
        b.absorb_slice(&swapped);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn bulk_absorption_equals_word_by_word_at_any_lane_offset() {
        let words: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut one = Checksum::new();
        for &w in &words {
            one.absorb(w);
        }
        for lead in 0..5 {
            let mut bulk = Checksum::new();
            for &w in &words[..lead] {
                bulk.absorb(w);
            }
            bulk.absorb_slice(&words[lead..]);
            assert_eq!(bulk.finish(), one.finish(), "lead {lead}");
        }
        let narrow: Vec<u32> = (0..9u32).collect();
        let mut a = Checksum::new();
        a.absorb_slice(&narrow);
        let mut b = Checksum::new();
        b.absorb_slice(&narrow.iter().map(|&w| u64::from(w)).collect::<Vec<_>>());
        assert_eq!(a.finish(), b.finish(), "u32 words are zero-extended");
    }

    #[test]
    fn expected_len_matches_geometry_and_overflows_cleanly() {
        assert_eq!(expected_len(0, 0).unwrap(), 48);
        assert_eq!(expected_len(4, 5).unwrap(), 40 + 5 * 8 + 5 * 4);
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
