//! The CSR borrow abstraction: one trait, many backings.
//!
//! Every triangle kernel in this crate ([`crate::kernels`]) and every
//! partition scheme ([`crate::partition`]) is written against [`AsCsr`]
//! rather than [`Graph`], so the same code runs over
//!
//! * a heap-resident [`Graph`] (adjacency in `Vec`s), or
//! * an out-of-core [`crate::store::CsrStore`] whose forward rows live in
//!   a read-only `mmap` of a `.csr` file (see `docs/IO.md`),
//!
//! with **identical results**: the trait exposes the canonical edge order
//! (sorted `(u, v)` pairs with `u < v`, which equals row-major forward
//! order), so seed-driven consumers — partitioners, samplers, kernels —
//! observe the same edge sequence whichever backing is underneath. The
//! mapped-vs-in-memory differential suite (`tests/store_differential.rs`)
//! pins this bit-for-bit.
//!
//! The trait is deliberately *slice-shaped*: [`AsCsr::neighbors`] and
//! [`AsCsr::forward_neighbors`] return borrowed `&[VertexId]`s, never
//! owned lists, so kernels built on it cannot accidentally materialize
//! per-vertex copies of a mapped file. A store holds forward rows only
//! and builds full rows on the first [`AsCsr::neighbors`] call, so a
//! caller that needs only the edges walks [`AsCsr::forward_neighbors`]
//! or the canonical edge order.

use std::ops::Range;

use crate::{Edge, Graph, VertexId};

/// Read-only access to an undirected simple graph in CSR form.
///
/// Invariants every implementation must uphold (the [`Graph`] builder and
/// the [`crate::store`] validator both enforce them at construction):
///
/// * adjacency rows are strictly increasing (sorted, deduplicated, no
///   self-loops) and symmetric (`v ∈ row(u)` ⇔ `u ∈ row(v)`);
/// * edge indices `0..edge_count()` enumerate the canonical sorted edge
///   order: `(u, v)` pairs with `u < v`, lexicographically.
///
/// `Sync` is a supertrait because the parallel kernels shard edge ranges
/// across pool workers that borrow the backing concurrently.
pub trait AsCsr: Sync {
    /// Number of vertices `n`.
    fn vertex_count(&self) -> usize;

    /// Number of edges `m`.
    fn edge_count(&self) -> usize;

    /// Sorted neighbors of `v`, borrowed from the backing.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Sorted neighbors of `v` above `v`: the second endpoints of the
    /// canonical edges `(v, w)`, in canonical order. Walking these rows
    /// for `v = 0..n` visits every edge once, in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn forward_neighbors(&self, v: VertexId) -> &[VertexId];

    /// Start of `v`'s slice in the flat CSR adjacency array: slot `i` of
    /// `neighbors(v)` lives at flat index `adj_start(v) + i`. Used by the
    /// tombstone overlay in [`crate::kernels::DeletionView`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn adj_start(&self, v: VertexId) -> usize;

    /// The `i`-th edge in canonical sorted order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= edge_count()`.
    fn edge_at(&self, i: usize) -> Edge;

    /// Position of `e` in the canonical sorted edge order, if present.
    fn edge_index(&self, e: Edge) -> Option<usize>;

    /// Visits edges `range` of the canonical order as `(index, edge)`
    /// pairs, stopping early when `f` returns `false`.
    ///
    /// The default calls [`edge_at`](Self::edge_at) per index;
    /// implementations override it with a sequential row walk (the store)
    /// or a slice iteration (the graph) — same sequence, less work.
    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(usize, Edge) -> bool) {
        for i in range {
            if !f(i, self.edge_at(i)) {
                return;
            }
        }
    }

    /// Visits every edge in canonical order as `(index, edge)` pairs.
    fn for_each_edge(&self, f: &mut dyn FnMut(usize, Edge)) {
        self.for_each_edge_in(0..self.edge_count(), &mut |i, e| {
            f(i, e);
            true
        });
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Total number of flat CSR adjacency slots (`2m`).
    fn adj_len(&self) -> usize {
        2 * self.edge_count()
    }

    /// Average degree `d = 2m/n` (0 for the empty graph).
    fn average_degree(&self) -> f64 {
        let n = self.vertex_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / n as f64
        }
    }

    /// Iterator over all vertex ids `0..n`.
    fn vertices(&self) -> VertexRange {
        VertexRange {
            range: 0..self.vertex_count() as u32,
        }
    }

    /// `O(log d)` membership test, probing the smaller endpoint's row.
    fn has_edge(&self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        let n = self.vertex_count();
        if u.index() >= n || v.index() >= n {
            return false;
        }
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).binary_search(&target).is_ok()
    }
}

/// Iterator over vertex ids `0..n` — the concrete type behind
/// [`AsCsr::vertices`] (trait methods cannot return `impl Iterator` and
/// stay dyn-compatible for downstream object-safe wrappers).
#[derive(Debug, Clone)]
pub struct VertexRange {
    range: Range<u32>,
}

impl Iterator for VertexRange {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        self.range.next().map(VertexId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for VertexRange {}

impl AsCsr for Graph {
    fn vertex_count(&self) -> usize {
        Graph::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        Graph::neighbors(self, v)
    }

    fn forward_neighbors(&self, v: VertexId) -> &[VertexId] {
        // The suffix of the sorted row past `v` (no self-loops).
        let row = Graph::neighbors(self, v);
        &row[row.partition_point(|w| *w < v)..]
    }

    fn adj_start(&self, v: VertexId) -> usize {
        // Inherent (pub(crate)) accessor; inherent methods shadow the
        // trait method of the same name, so this does not recurse.
        Graph::adj_start(self, v)
    }

    fn edge_at(&self, i: usize) -> Edge {
        self.edges()[i]
    }

    fn edge_index(&self, e: Edge) -> Option<usize> {
        Graph::edge_index(self, e)
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(usize, Edge) -> bool) {
        for (i, e) in range.clone().zip(&self.edges()[range]) {
            if !f(i, *e) {
                return;
            }
        }
    }
}

// A `&G` forwards to `G`, so generic kernels accept both owned handles
// and borrows without extra turbofish at the call sites.
impl<G: AsCsr + ?Sized> AsCsr for &G {
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).neighbors(v)
    }

    fn forward_neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).forward_neighbors(v)
    }

    fn adj_start(&self, v: VertexId) -> usize {
        (**self).adj_start(v)
    }

    fn edge_at(&self, i: usize) -> Edge {
        (**self).edge_at(i)
    }

    fn edge_index(&self, e: Edge) -> Option<usize> {
        (**self).edge_index(e)
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(usize, Edge) -> bool) {
        (**self).for_each_edge_in(range, f)
    }

    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    fn has_edge(&self, e: Edge) -> bool {
        (**self).has_edge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    fn csr_probe<G: AsCsr>(g: &G) -> (usize, usize, Vec<Edge>, f64) {
        let mut edges = Vec::new();
        g.for_each_edge(&mut |i, e| {
            assert_eq!(g.edge_at(i), e);
            assert_eq!(g.edge_index(e), Some(i));
            edges.push(e);
        });
        (g.vertex_count(), g.edge_count(), edges, g.average_degree())
    }

    #[test]
    fn graph_impl_matches_inherent_accessors() {
        let g = diamond();
        let (n, m, edges, d) = csr_probe(&g);
        assert_eq!(n, g.vertex_count());
        assert_eq!(m, g.edge_count());
        assert_eq!(edges, g.edges());
        assert_eq!(d, g.average_degree());
        for v in g.vertices() {
            assert_eq!(AsCsr::neighbors(&g, v), Graph::neighbors(&g, v));
            assert_eq!(AsCsr::degree(&g, v), Graph::degree(&g, v));
            let above: Vec<VertexId> = g
                .edges()
                .iter()
                .filter(|e| e.u() == v)
                .map(|e| e.v())
                .collect();
            assert_eq!(g.forward_neighbors(v), &above[..]);
        }
        assert_eq!(AsCsr::adj_len(&g), 2 * g.edge_count());
    }

    #[test]
    fn edge_iteration_ranges_and_early_exit() {
        let g = diamond();
        let mut seen = Vec::new();
        g.for_each_edge_in(1..4, &mut |i, e| {
            seen.push((i, e));
            true
        });
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[0].1, g.edges()[1]);

        let mut count = 0;
        g.for_each_edge_in(0..g.edge_count(), &mut |_, _| {
            count += 1;
            count < 2
        });
        assert_eq!(count, 2, "early exit stops the walk");
    }

    #[test]
    fn has_edge_and_missing_edges_via_trait() {
        let g = diamond();
        assert!(AsCsr::has_edge(&g, Edge::new(VertexId(3), VertexId(1))));
        assert!(!AsCsr::has_edge(&g, Edge::new(VertexId(0), VertexId(3))));
        assert_eq!(g.edge_index(Edge::new(VertexId(0), VertexId(3))), None);
    }

    #[test]
    fn reference_impl_forwards() {
        let g = diamond();
        let r = &g;
        assert_eq!(csr_probe(&r), csr_probe(&g));
    }
}
