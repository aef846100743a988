//! # triad-graph
//!
//! Graph substrate for the `triad` reproduction of *"On the Multiparty
//! Communication Complexity of Testing Triangle-Freeness"* (Fischer,
//! Gershtein, Oshman — PODC 2017).
//!
//! This crate provides everything the paper's protocols and lower bounds
//! need from graphs:
//!
//! * a compact immutable [`Graph`] representation with sorted adjacency,
//! * triangle machinery: enumeration, counting, triangle-vees and
//!   edge-disjoint triangle packings ([`triangles`]),
//! * the fast kernels behind it: degree-ordered forward adjacency,
//!   incremental edge-deletion views and pool-parallel counting
//!   ([`kernels`]),
//! * distance to triangle-freeness and ε-farness certification
//!   ([`distance`]),
//! * the degree-bucketing analysis of the paper's §3.2 ([`buckets`]),
//! * every input-distribution generator the paper uses or implies
//!   ([`generators`]),
//! * partitioning of edge sets among `k` players, with or without edge
//!   duplication ([`partition`]).
//!
//! # Example
//!
//! ```
//! use triad_graph::{GraphBuilder, Edge, VertexId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(Edge::new(VertexId(0), VertexId(1)));
//! b.add_edge(Edge::new(VertexId(1), VertexId(2)));
//! b.add_edge(Edge::new(VertexId(0), VertexId(2)));
//! let g = b.build();
//! assert_eq!(g.edge_count(), 3);
//! assert!(triad_graph::triangles::contains_triangle(&g));
//! ```

// `deny`, not `forbid`: the one exception is `store::mmap`, which declares
// the raw `mmap`/`munmap` FFI behind `#[allow(unsafe_code)]` (see
// `docs/IO.md`). Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod builder;
mod edge;
mod error;
mod graph;
mod vertex;

pub mod buckets;
pub mod csr;
pub mod distance;
pub mod generators;
pub mod io;
pub mod kernels;
pub mod partition;
pub mod store;
pub mod subgraphs;
pub mod triangles;

pub use builder::GraphBuilder;
pub use csr::AsCsr;
pub use edge::Edge;
pub use error::GraphError;
pub use graph::{CsrAdjacency, Graph};
pub use store::CsrStore;
pub use vertex::VertexId;

/// A triangle, stored with vertices in strictly increasing order.
///
/// Constructed through [`Triangle::new`], which canonicalizes the vertex
/// order, so two triangles over the same vertex set always compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triangle {
    a: VertexId,
    b: VertexId,
    c: VertexId,
}

impl Triangle {
    /// Creates a triangle from three distinct vertices, canonicalizing order.
    ///
    /// # Panics
    ///
    /// Panics if any two of the vertices are equal.
    pub fn new(a: VertexId, b: VertexId, c: VertexId) -> Self {
        assert!(
            a != b && b != c && a != c,
            "triangle vertices must be distinct"
        );
        let mut v = [a, b, c];
        v.sort_unstable();
        Triangle {
            a: v[0],
            b: v[1],
            c: v[2],
        }
    }

    /// The three vertices in increasing order.
    pub fn vertices(&self) -> [VertexId; 3] {
        [self.a, self.b, self.c]
    }

    /// The three edges of the triangle.
    pub fn edges(&self) -> [Edge; 3] {
        [
            Edge::new(self.a, self.b),
            Edge::new(self.b, self.c),
            Edge::new(self.a, self.c),
        ]
    }

    /// Returns `true` if `e` is one of the triangle's edges.
    pub fn contains_edge(&self, e: Edge) -> bool {
        self.edges().contains(&e)
    }

    /// Returns `true` if every edge of the triangle is present in `g`.
    pub fn exists_in(&self, g: &Graph) -> bool {
        self.edges().iter().all(|e| g.has_edge(*e))
    }
}

impl std::fmt::Display for Triangle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}, {}, {}}}", self.a, self.b, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_canonicalizes() {
        let t1 = Triangle::new(VertexId(3), VertexId(1), VertexId(2));
        let t2 = Triangle::new(VertexId(1), VertexId(2), VertexId(3));
        assert_eq!(t1, t2);
        assert_eq!(t1.vertices(), [VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn triangle_rejects_duplicates() {
        let _ = Triangle::new(VertexId(1), VertexId(1), VertexId(2));
    }

    #[test]
    fn triangle_edges_and_containment() {
        let t = Triangle::new(VertexId(0), VertexId(5), VertexId(9));
        assert!(t.contains_edge(Edge::new(VertexId(5), VertexId(0))));
        assert!(t.contains_edge(Edge::new(VertexId(9), VertexId(5))));
        assert!(!t.contains_edge(Edge::new(VertexId(0), VertexId(1))));
    }

    #[test]
    fn triangle_display() {
        let t = Triangle::new(VertexId(2), VertexId(0), VertexId(1));
        assert_eq!(t.to_string(), "{0, 1, 2}");
    }
}
