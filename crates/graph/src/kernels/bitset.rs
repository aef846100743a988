//! Word-parallel edge bitsets — the dense-graph triangle kernel and the
//! container behind `triad-comm`'s bitset payloads.
//!
//! Two structures live here, one per job:
//!
//! * [`EdgeBitset`] — a *transportable* edge-set container over the
//!   vertex-id space: one upper-triangle row per vertex (`row u` holds a
//!   bit per neighbor `v > u`), each row stored either as a sorted
//!   sparse id list or as packed `u64` words, promoted per row at a
//!   memory break-even threshold (a roaring-style hybrid). Iteration
//!   yields edges in canonical order, so an `EdgeBitset` and a sorted
//!   edge list describing the same set are interchangeable everywhere a
//!   deterministic order matters. Unions are word-parallel on dense
//!   rows.
//! * [`BitsetAdjacency`] — the *counting* structure: the full symmetric
//!   adjacency packed into `⌈n/64⌉`-word rows over the degree-ordered
//!   **rank** space (the same `(degree, id)`-ascending order
//!   [`super::Forward`] uses). Per base edge, the triangles it closes
//!   are exactly the set bits of `row(rank u) AND row(rank v)` masked to
//!   ranks above both endpoints — one AND-popcount sweep per edge,
//!   `O(m·n/64)` total, which beats the `O(m^{3/2})` merge kernel once
//!   the graph is dense and beats the naive `Θ(m·Δ)` merges far sooner.
//!
//! Witness discipline: [`BitsetAdjacency`] ranks vertices with the
//! identical sort key as [`super::Forward`] and scans base edges in the
//! same canonical order, so `find_triangle` returns the **same witness**
//! — the triangle closing the first base edge at its smallest closing
//! rank. The equivalence is pinned by the tests below and leaned on by
//! the payload differential suite (`tests/payload_differential.rs`).

use crate::{AsCsr, Edge, Triangle, VertexId};

/// Words needed for `n` bits.
#[inline]
const fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// One upper-triangle row of an [`EdgeBitset`]: the neighbors `v > u`
/// of row `u`, sparse (sorted ids) or dense (packed words).
#[derive(Debug, Clone, PartialEq)]
enum Row {
    /// Strictly ascending neighbor ids, all `> u` for row `u`.
    Sparse(Vec<u32>),
    /// Bit `v` set ⇔ edge `(u, v)` present; `⌈n/64⌉` words.
    Dense(Box<[u64]>),
}

impl Row {
    fn count(&self) -> usize {
        match self {
            Row::Sparse(ids) => ids.len(),
            Row::Dense(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn contains(&self, v: u32) -> bool {
        match self {
            Row::Sparse(ids) => ids.binary_search(&v).is_ok(),
            Row::Dense(words) => (words[v as usize / 64] >> (v as usize % 64)) & 1 == 1,
        }
    }
}

/// A set of edges over `n` vertices, packed for word-parallel unions.
///
/// Semantically this is exactly a sorted, deduplicated edge list — and
/// it compares equal ([`PartialEq`]) to any `EdgeBitset` over the same
/// `n` holding the same edges, *regardless* of which rows happen to be
/// sparse or dense. Representation is a runtime choice, never a
/// semantic one (the same rule `triad-comm` applies to borrowed vs
/// owned `Cow<[Edge]>` payloads).
#[derive(Debug, Clone)]
pub struct EdgeBitset {
    n: usize,
    count: usize,
    rows: Vec<Row>,
}

impl EdgeBitset {
    /// The longest row a set over `n` vertices keeps sparse: longer
    /// rows promote to dense words. The break-even is memory-exact: a
    /// sparse entry is one `u32`, so a row of `2·⌈n/64⌉` ids occupies
    /// the same bytes as the full dense row, and anything longer is
    /// strictly smaller (and faster to union) packed.
    pub fn max_sparse_row(n: usize) -> usize {
        2 * words_for(n)
    }

    /// An empty set over `n` vertices.
    pub fn new(n: usize) -> EdgeBitset {
        EdgeBitset {
            n,
            count: 0,
            rows: vec![Row::Sparse(Vec::new()); n],
        }
    }

    /// Builds the set from edges (duplicates are absorbed).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range for `n`.
    pub fn from_edges<I: IntoIterator<Item = Edge>>(n: usize, edges: I) -> EdgeBitset {
        let mut set = EdgeBitset::new(n);
        for e in edges {
            set.insert(e);
        }
        set
    }

    /// The vertex-count this set is defined over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges in the set.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` iff the set holds no edges.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Inserts `e`; returns `true` iff it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range for `n`.
    pub fn insert(&mut self, e: Edge) -> bool {
        let (u, v) = (e.u().index(), e.v().0);
        assert!(
            (v as usize) < self.n,
            "edge {e} out of range for n = {}",
            self.n
        );
        let promote = Self::max_sparse_row(self.n);
        let row = &mut self.rows[u];
        let inserted = match row {
            Row::Sparse(ids) => match ids.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    ids.insert(pos, v);
                    if ids.len() > promote {
                        let mut words = vec![0u64; words_for(self.n)].into_boxed_slice();
                        for &id in ids.iter() {
                            words[id as usize / 64] |= 1u64 << (id as usize % 64);
                        }
                        *row = Row::Dense(words);
                    }
                    true
                }
            },
            Row::Dense(words) => {
                let (w, b) = (v as usize / 64, v as usize % 64);
                let fresh = (words[w] >> b) & 1 == 0;
                words[w] |= 1u64 << b;
                fresh
            }
        };
        self.count += usize::from(inserted);
        inserted
    }

    /// `true` iff `e` is in the set.
    pub fn contains(&self, e: Edge) -> bool {
        let u = e.u().index();
        u < self.n && (e.v().index()) < self.n && self.rows[u].contains(e.v().0)
    }

    /// Word-parallel union: absorbs every edge of `other` into `self`.
    /// Dense-row pairs merge by one OR sweep; mixed pairs set bits.
    ///
    /// # Panics
    ///
    /// Panics if the two sets disagree on `n`.
    pub fn union_with(&mut self, other: &EdgeBitset) {
        assert_eq!(self.n, other.n, "union of bitsets over different n");
        let promote = Self::max_sparse_row(self.n);
        for (row, theirs) in self.rows.iter_mut().zip(&other.rows) {
            match (&mut *row, theirs) {
                (_, Row::Sparse(ids)) if ids.is_empty() => {}
                (Row::Dense(mine), Row::Dense(words)) => {
                    self.count -= mine.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                    for (a, b) in mine.iter_mut().zip(words.iter()) {
                        *a |= *b;
                    }
                    self.count += mine.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                }
                (Row::Dense(mine), Row::Sparse(ids)) => {
                    for &id in ids {
                        let (w, b) = (id as usize / 64, id as usize % 64);
                        self.count += usize::from((mine[w] >> b) & 1 == 0);
                        mine[w] |= 1u64 << b;
                    }
                }
                (Row::Sparse(mine), theirs) => {
                    // Merge into a fresh sorted list, then keep or
                    // promote depending on the merged length.
                    let merged: Vec<u32> = match theirs {
                        Row::Sparse(ids) => {
                            let mut out = Vec::with_capacity(mine.len() + ids.len());
                            let (mut i, mut j) = (0, 0);
                            while i < mine.len() && j < ids.len() {
                                match mine[i].cmp(&ids[j]) {
                                    std::cmp::Ordering::Less => {
                                        out.push(mine[i]);
                                        i += 1;
                                    }
                                    std::cmp::Ordering::Greater => {
                                        out.push(ids[j]);
                                        j += 1;
                                    }
                                    std::cmp::Ordering::Equal => {
                                        out.push(mine[i]);
                                        i += 1;
                                        j += 1;
                                    }
                                }
                            }
                            out.extend_from_slice(&mine[i..]);
                            out.extend_from_slice(&ids[j..]);
                            out
                        }
                        Row::Dense(words) => {
                            let mut out: Vec<u32> = iter_words(words).collect();
                            for &id in mine.iter() {
                                if let Err(pos) = out.binary_search(&id) {
                                    out.insert(pos, id);
                                }
                            }
                            out
                        }
                    };
                    self.count += merged.len() - mine.len();
                    if merged.len() > promote {
                        let mut words = vec![0u64; words_for(self.n)].into_boxed_slice();
                        for &id in &merged {
                            words[id as usize / 64] |= 1u64 << (id as usize % 64);
                        }
                        *row = Row::Dense(words);
                    } else {
                        *row = Row::Sparse(merged);
                    }
                }
            }
        }
    }

    /// The edges in canonical (sorted) order.
    pub fn edges(&self) -> EdgeBitsetIter<'_> {
        EdgeBitsetIter {
            set: self,
            row: 0,
            sparse_pos: 0,
            word: 0,
            bits: 0,
            primed: false,
        }
    }

    /// Collects the set into a sorted edge list.
    pub fn to_edges(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Degree of every vertex under this edge set (both endpoints of
    /// each edge are counted, exactly as [`Graph::degree`](crate::Graph::degree) would).
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in self.edges() {
            deg[e.u().index()] += 1;
            deg[e.v().index()] += 1;
        }
        deg
    }

    /// Number of rows currently stored dense (diagnostic; exercised by
    /// the promotion tests and the runtime docs).
    pub fn dense_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, Row::Dense(_)))
            .count()
    }

    /// Visits the non-empty rows as `(u, representation)` pairs in
    /// ascending `u` order — the raw view the wire codec serialises
    /// (`docs/NETWORKING.md`). Sparse rows expose their strictly
    /// ascending neighbor ids; dense rows expose their `⌈n/64⌉` packed
    /// words verbatim.
    pub fn rows(&self) -> impl Iterator<Item = (u32, RowRef<'_>)> {
        self.rows.iter().enumerate().filter_map(|(u, row)| {
            let r = match row {
                Row::Sparse(ids) if ids.is_empty() => return None,
                Row::Sparse(ids) => RowRef::Sparse(ids),
                Row::Dense(words) => RowRef::Dense(words),
            };
            Some((u as u32, r))
        })
    }

    /// Installs a fully validated dense row at `u`, replacing whatever
    /// the row held. The decoder's fast path: `words` must be exactly
    /// `⌈n/64⌉` long with every set bit in `(u, n)` — the caller (the
    /// wire codec) checks both *before* allocating.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n` or `words` has the wrong length.
    pub fn set_dense_row(&mut self, u: u32, words: Box<[u64]>) {
        assert_eq!(words.len(), words_for(self.n), "dense row width mismatch");
        let row = &mut self.rows[u as usize];
        self.count -= row.count();
        self.count += words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        *row = Row::Dense(words);
    }
}

/// Borrowed view of one [`EdgeBitset`] row, as yielded by
/// [`EdgeBitset::rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowRef<'a> {
    /// Strictly ascending neighbor ids `> u`.
    Sparse(&'a [u32]),
    /// `⌈n/64⌉` packed words; bit `v` set ⇔ edge `(u, v)` present.
    Dense(&'a [u64]),
}

impl PartialEq for EdgeBitset {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.count == other.count && self.edges().eq(other.edges())
    }
}

impl Eq for EdgeBitset {}

/// Ascending set-bit indices of a dense row.
fn iter_words(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros();
            rest &= rest - 1;
            Some((w as u32) * 64 + b)
        })
    })
}

/// Canonical-order edge iterator over an [`EdgeBitset`].
#[derive(Debug, Clone)]
pub struct EdgeBitsetIter<'a> {
    set: &'a EdgeBitset,
    row: usize,
    sparse_pos: usize,
    word: usize,
    bits: u64,
    primed: bool,
}

impl Iterator for EdgeBitsetIter<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        while self.row < self.set.n {
            match &self.set.rows[self.row] {
                Row::Sparse(ids) => {
                    if self.sparse_pos < ids.len() {
                        let v = ids[self.sparse_pos];
                        self.sparse_pos += 1;
                        return Some(Edge::new(VertexId(self.row as u32), VertexId(v)));
                    }
                }
                Row::Dense(words) => {
                    if !self.primed {
                        self.word = 0;
                        self.bits = words[0];
                        self.primed = true;
                    }
                    loop {
                        if self.bits != 0 {
                            let b = self.bits.trailing_zeros();
                            self.bits &= self.bits - 1;
                            let v = (self.word as u32) * 64 + b;
                            return Some(Edge::new(VertexId(self.row as u32), VertexId(v)));
                        }
                        self.word += 1;
                        if self.word >= words.len() {
                            break;
                        }
                        self.bits = words[self.word];
                    }
                }
            }
            self.row += 1;
            self.sparse_pos = 0;
            self.primed = false;
        }
        None
    }
}

/// The full symmetric adjacency packed into `⌈n/64⌉`-word rows over the
/// degree-ordered rank space — the word-parallel triangle kernel.
///
/// `rows[r]` has bit `s` set iff the rank-`r` and rank-`s` vertices are
/// adjacent. For a base edge with endpoint ranks `lo < hi`, the closing
/// vertices of its triangles are the common neighbors of rank `> hi`:
/// one masked AND-popcount sweep. Scanning base edges in canonical edge
/// order reproduces [`super::Forward`]'s counting partition and its
/// exact `find_triangle` witness.
#[derive(Debug, Clone)]
pub struct BitsetAdjacency {
    /// `rank[v]` = position of vertex `v` in the degree-ascending order.
    rank: Vec<u32>,
    /// `order[r]` = vertex with rank `r`.
    order: Vec<VertexId>,
    /// Words per row.
    words: usize,
    /// `n · words` packed adjacency bits, rank-indexed both ways.
    rows: Vec<u64>,
}

impl BitsetAdjacency {
    /// Builds the packed adjacency of `g`.
    pub fn build<G: AsCsr + ?Sized>(g: &G) -> BitsetAdjacency {
        let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        Self::assemble(
            g.vertex_count(),
            &degrees,
            (0..g.edge_count()).map(|i| g.edge_at(i)),
        )
    }

    /// Builds the packed adjacency of an [`EdgeBitset`], ranking by the
    /// degrees the edge set itself induces — identical to
    /// [`BitsetAdjacency::build`] on a [`Graph`](crate::Graph) holding the same edges.
    pub fn from_edge_bitset(set: &EdgeBitset) -> BitsetAdjacency {
        Self::assemble(set.n(), &set.degrees(), set.edges())
    }

    fn assemble<I>(n: usize, degrees: &[usize], edges: I) -> BitsetAdjacency
    where
        I: Iterator<Item = Edge>,
    {
        let mut order: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        order.sort_unstable_by_key(|v| (degrees[v.index()], *v));
        let mut rank = vec![0u32; n];
        for (r, v) in order.iter().enumerate() {
            rank[v.index()] = r as u32;
        }
        let words = words_for(n);
        let mut rows = vec![0u64; n * words];
        for e in edges {
            let (ru, rv) = (rank[e.u().index()] as usize, rank[e.v().index()] as usize);
            rows[ru * words + rv / 64] |= 1u64 << (rv % 64);
            rows[rv * words + ru / 64] |= 1u64 << (ru % 64);
        }
        BitsetAdjacency {
            rank,
            order,
            words,
            rows,
        }
    }

    #[inline]
    fn row(&self, r: u32) -> &[u64] {
        let base = r as usize * self.words;
        &self.rows[base..base + self.words]
    }

    /// Ranks of an edge's endpoints as `(lo, hi)`.
    #[inline]
    fn edge_ranks(&self, e: Edge) -> (u32, u32) {
        let (ru, rv) = (self.rank[e.u().index()], self.rank[e.v().index()]);
        if ru < rv {
            (ru, rv)
        } else {
            (rv, ru)
        }
    }

    /// Number of triangles closed by the base edge with endpoint ranks
    /// `(lo, hi)`: popcount of the AND of both rows masked to ranks
    /// `> hi`.
    #[inline]
    fn closing_count(&self, lo: u32, hi: u32) -> u64 {
        let (a, b) = (self.row(lo), self.row(hi));
        let start = hi as usize + 1;
        let mut w = start / 64;
        if w >= self.words {
            return 0;
        }
        let mut mask = !0u64 << (start % 64);
        let mut count = 0u64;
        while w < self.words {
            count += u64::from((a[w] & b[w] & mask).count_ones());
            mask = !0;
            w += 1;
        }
        count
    }

    /// Smallest closing rank `> hi` of the base edge, or `None`.
    #[inline]
    fn first_closing(&self, lo: u32, hi: u32) -> Option<u32> {
        let (a, b) = (self.row(lo), self.row(hi));
        let start = hi as usize + 1;
        let mut w = start / 64;
        if w >= self.words {
            return None;
        }
        let mut mask = !0u64 << (start % 64);
        while w < self.words {
            let hits = a[w] & b[w] & mask;
            if hits != 0 {
                return Some((w as u32) * 64 + hits.trailing_zeros());
            }
            mask = !0;
            w += 1;
        }
        None
    }

    /// Counts the triangles whose base edge appears in `edges` (each
    /// edge of the graph exactly once ⇒ each triangle exactly once,
    /// the same partition [`super::Forward::count_range`] uses).
    pub fn count_edges<I: IntoIterator<Item = Edge>>(&self, edges: I) -> u64 {
        edges
            .into_iter()
            .map(|e| {
                let (lo, hi) = self.edge_ranks(e);
                self.closing_count(lo, hi)
            })
            .sum()
    }

    /// Counts all triangles of `g` (whose adjacency this was built from).
    pub fn count_all<G: AsCsr + ?Sized>(&self, g: &G) -> u64 {
        self.count_edges((0..g.edge_count()).map(|i| g.edge_at(i)))
    }

    /// Returns the triangle closing the first base edge of `edges` (in
    /// the order given — pass canonical edge order for the
    /// [`super::Forward`]-identical witness) at its smallest closing
    /// rank, or `None` if no edge closes.
    pub fn find_triangle_in<I: IntoIterator<Item = Edge>>(&self, edges: I) -> Option<Triangle> {
        for e in edges {
            let (lo, hi) = self.edge_ranks(e);
            if let Some(r) = self.first_closing(lo, hi) {
                return Some(Triangle::new(e.u(), e.v(), self.order[r as usize]));
            }
        }
        None
    }
}

/// Returns some triangle of `set`, or `None` if triangle-free — the
/// **same witness** `kernels::find_triangle` returns on a [`Graph`](crate::Graph)
/// holding the same edges (pinned by tests), in `O(m·n/64)` word work.
pub fn find_triangle(set: &EdgeBitset) -> Option<Triangle> {
    BitsetAdjacency::from_edge_bitset(set).find_triangle_in(set.edges())
}

/// Counts the triangles of `set` by word-parallel AND-popcount.
pub fn count_triangles(set: &EdgeBitset) -> u64 {
    BitsetAdjacency::from_edge_bitset(set).count_edges(set.edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{self, naive, Forward};
    use crate::Graph;

    /// Deterministic pseudo-random edge pairs (splitmix-style), dense
    /// enough to exercise row promotion.
    fn scrambled_pairs(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut out = Vec::with_capacity(m);
        while out.len() < m {
            let a = (next() % u64::from(n)) as u32;
            let b = (next() % u64::from(n)) as u32;
            if a != b {
                out.push((a, b));
            }
        }
        out
    }

    #[test]
    fn insert_iterate_roundtrips_in_canonical_order() {
        let n = 50;
        let g = Graph::from_edges(n, scrambled_pairs(50, 300, 7));
        let set = EdgeBitset::from_edges(n, g.edges().iter().copied());
        assert_eq!(set.len(), g.edge_count());
        assert_eq!(set.to_edges(), g.edges());
        for e in g.edges() {
            assert!(set.contains(*e));
        }
        assert!(!set.is_empty());
        assert_eq!(
            set.degrees(),
            g.vertices().map(|v| g.degree(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicates_are_absorbed_and_len_is_exact() {
        let mut set = EdgeBitset::new(10);
        let e = Edge::new(VertexId(2), VertexId(7));
        assert!(set.insert(e));
        assert!(!set.insert(e));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn dense_rows_promote_and_stay_equal_to_sparse() {
        // One hub with every neighbor: its row must promote, and the
        // set must stay equal to a sparse-built set with the same edges.
        let n = 200;
        let pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let hub = EdgeBitset::from_edges(
            n,
            pairs
                .iter()
                .map(|&(a, b)| Edge::new(VertexId(a), VertexId(b))),
        );
        assert!(hub.dense_rows() >= 1, "hub row must promote to dense");
        let mut sparse = EdgeBitset::new(n);
        for &(a, b) in pairs.iter().rev() {
            sparse.insert(Edge::new(VertexId(a), VertexId(b)));
        }
        assert_eq!(hub, sparse, "representation must not affect equality");
        assert_eq!(hub.to_edges(), sparse.to_edges());
    }

    #[test]
    fn union_matches_set_union_across_representations() {
        let n = 120;
        let a_pairs = scrambled_pairs(120, 900, 3); // dense: promotes rows
        let b_pairs = scrambled_pairs(120, 60, 4); // sparse
        let ga = Graph::from_edges(n, a_pairs.clone());
        let gb = Graph::from_edges(n, b_pairs.clone());
        let mut both = a_pairs;
        both.extend(b_pairs);
        let reference = Graph::from_edges(n, both);

        // All four (dense|sparse) × (dense|sparse) orderings agree.
        for (x, y) in [(&ga, &gb), (&gb, &ga)] {
            let mut u = EdgeBitset::from_edges(n, x.edges().iter().copied());
            u.union_with(&EdgeBitset::from_edges(n, y.edges().iter().copied()));
            assert_eq!(u.to_edges(), reference.edges());
            assert_eq!(u.len(), reference.edge_count());
        }
        let mut u = EdgeBitset::from_edges(n, ga.edges().iter().copied());
        u.union_with(&EdgeBitset::new(n));
        assert_eq!(u.to_edges(), ga.edges());
    }

    #[test]
    fn counts_match_forward_and_naive_across_densities() {
        for (n, m, seed) in [(30, 40, 1), (40, 200, 2), (60, 1200, 3), (16, 120, 4)] {
            let g = Graph::from_edges(n, scrambled_pairs(n as u32, m, seed));
            let adj = BitsetAdjacency::build(&g);
            assert_eq!(adj.count_all(&g), naive::count_triangles(&g), "n={n} m={m}");
            let set = EdgeBitset::from_edges(n, g.edges().iter().copied());
            assert_eq!(count_triangles(&set), naive::count_triangles(&g));
        }
    }

    #[test]
    fn witness_is_bit_for_bit_the_forward_witness() {
        for (n, m, seed) in [(25, 60, 5), (40, 300, 6), (80, 2000, 7), (50, 90, 8)] {
            let g = Graph::from_edges(n, scrambled_pairs(n as u32, m, seed));
            let fwd = Forward::build(&g).find_triangle(&g);
            let adj = BitsetAdjacency::build(&g);
            assert_eq!(
                adj.find_triangle_in(g.edges().iter().copied()),
                fwd,
                "n={n} m={m}: adjacency witness"
            );
            let set = EdgeBitset::from_edges(n, g.edges().iter().copied());
            assert_eq!(find_triangle(&set), fwd, "n={n} m={m}: bitset witness");
        }
    }

    #[test]
    fn triangle_free_and_degenerate_inputs() {
        let path = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let set = EdgeBitset::from_edges(6, path.edges().iter().copied());
        assert_eq!(find_triangle(&set), None);
        assert_eq!(count_triangles(&set), 0);
        let empty = EdgeBitset::new(0);
        assert_eq!(find_triangle(&empty), None);
        assert_eq!(empty.to_edges(), vec![]);
        // Ranks at a word boundary: n just past 64 with a closing vertex
        // whose rank lands in the second word.
        let mut pairs: Vec<(u32, u32)> = (0..66u32)
            .flat_map(|i| [(i, (i + 1) % 70), (i, (i + 2) % 70)])
            .collect();
        pairs.push((68, 69));
        let g = Graph::from_edges(70, pairs);
        let set = EdgeBitset::from_edges(70, g.edges().iter().copied());
        assert_eq!(count_triangles(&set), naive::count_triangles(&g));
        assert_eq!(find_triangle(&set), kernels::find_triangle(&g));
    }

    #[test]
    fn rows_view_reconstructs_the_set_and_dense_install_matches_insert() {
        let n = 150;
        let g = Graph::from_edges(n, scrambled_pairs(150, 1200, 9));
        let set = EdgeBitset::from_edges(n, g.edges().iter().copied());
        // Rebuild through the raw row view, exercising both arms.
        let mut rebuilt = EdgeBitset::new(n);
        let mut saw_sparse = false;
        let mut saw_dense = false;
        for (u, row) in set.rows() {
            match row {
                RowRef::Sparse(ids) => {
                    saw_sparse = true;
                    assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    for &v in ids {
                        rebuilt.insert(Edge::new(VertexId(u), VertexId(v)));
                    }
                }
                RowRef::Dense(words) => {
                    saw_dense = true;
                    rebuilt.set_dense_row(u, words.to_vec().into_boxed_slice());
                }
            }
        }
        assert!(
            saw_sparse && saw_dense,
            "workload must exercise both row kinds"
        );
        assert_eq!(rebuilt, set);
        assert_eq!(rebuilt.len(), set.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_are_rejected() {
        let mut set = EdgeBitset::new(4);
        set.insert(Edge::new(VertexId(1), VertexId(9)));
    }
}
