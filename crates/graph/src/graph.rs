use crate::{Edge, VertexId};

/// An immutable undirected simple graph in compressed sparse row form.
///
/// Adjacency lists are sorted, enabling `O(log d)` edge queries and linear
/// neighborhood intersection (the workhorse of triangle detection).
///
/// Construct with [`crate::GraphBuilder`], which deduplicates edges.
///
/// # Example
///
/// ```
/// use triad_graph::{Graph, Edge, VertexId};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(g.degree(VertexId(1)), 2);
/// assert!(g.has_edge(Edge::new(VertexId(2), VertexId(0))));
/// assert_eq!(g.average_degree(), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Sorted neighbor lists over `0..n`, built from `edges`.
    adjacency: CsrAdjacency,
    /// All edges in canonical order, sorted.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph directly from `(u, v)` index pairs. Convenience for
    /// tests and examples; panics on out-of-range vertices or self-loops.
    pub fn from_edges<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = crate::GraphBuilder::new(n);
        for (u, v) in pairs {
            b.add_edge(Edge::new(VertexId(u), VertexId(v)));
        }
        b.build()
    }

    pub(crate) fn from_sorted_dedup_edges(n: usize, edges: Vec<Edge>) -> Self {
        Graph {
            adjacency: CsrAdjacency::from_sorted_edges(n, &edges),
            edges,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adjacency.vertex_count()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Average degree `d = 2|E|/n`.
    ///
    /// This is the paper's density parameter; protocols are analyzed in
    /// terms of it and the degree-oblivious protocol estimates it.
    pub fn average_degree(&self) -> f64 {
        let n = self.vertex_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / n as f64
        }
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency.degree(v)
    }

    /// Sorted neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adjacency.neighbors(v)
    }

    /// Start of `v`'s slice in the flat CSR adjacency array; slot `i` of
    /// `neighbors(v)` lives at flat index `adj_start(v) + i`. Used by the
    /// tombstone overlays in [`crate::kernels`].
    #[inline]
    pub(crate) fn adj_start(&self, v: VertexId) -> usize {
        self.adjacency.start(v)
    }

    /// Position of `e` in the canonical sorted edge array, if present.
    #[inline]
    pub(crate) fn edge_index(&self, e: Edge) -> Option<usize> {
        self.edges.binary_search(&e).ok()
    }

    /// `O(log d)` membership test.
    pub fn has_edge(&self, e: Edge) -> bool {
        self.adjacency.has_edge(e)
    }

    /// All edges, in sorted canonical order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// Common neighbors of `u` and `v` (sorted), via linear list merge.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The subgraph induced by `keep` (same vertex-id space; edges with both
    /// endpoints in `keep`). `keep` need not be sorted.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> Graph {
        let mut inset = vec![false; self.vertex_count()];
        for v in keep {
            inset[v.index()] = true;
        }
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| inset[e.u().index()] && inset[e.v().index()])
            .collect();
        Graph::from_sorted_dedup_edges(self.vertex_count(), edges)
    }

    /// Union of this graph's edges with another edge set over the same
    /// vertex-id space.
    pub fn union_with(&self, extra: &[Edge]) -> Graph {
        let mut all: Vec<Edge> = self.edges.clone();
        all.extend_from_slice(extra);
        all.sort_unstable();
        all.dedup();
        Graph::from_sorted_dedup_edges(self.vertex_count(), all)
    }

    /// Graph with the given edges removed.
    pub fn without_edges(&self, remove: &std::collections::HashSet<Edge>) -> Graph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| !remove.contains(e))
            .collect();
        Graph::from_sorted_dedup_edges(self.vertex_count(), edges)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// Sorted CSR adjacency lists of an edge set on the vertex ids `0..n`:
/// the offsets and neighbor arrays behind a [`Graph`], without the edge
/// array itself.
///
/// Built from a sorted, deduplicated edge slice in one counting pass for
/// the offsets and one fill pass that leaves every list sorted, so a
/// holder that already keeps its sorted edges (a [`Graph`], or a
/// protocol player's share) adds only the lists.
///
/// # Example
///
/// ```
/// use triad_graph::{CsrAdjacency, Edge, VertexId};
/// let edges = [(0, 1), (0, 2), (1, 2)].map(|(u, v)| Edge::new(VertexId(u), VertexId(v)));
/// let adj = CsrAdjacency::from_sorted_edges(4, &edges);
/// assert_eq!(adj.neighbors(VertexId(2)), &[VertexId(0), VertexId(1)]);
/// assert_eq!(adj.degree(VertexId(3)), 0);
/// assert!(adj.has_edge(Edge::new(VertexId(2), VertexId(0))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// CSR offsets: `adj[offsets[v]..offsets[v+1]]` are v's neighbors, sorted.
    offsets: Vec<usize>,
    adj: Vec<VertexId>,
}

impl CsrAdjacency {
    /// Builds the adjacency lists of `edges` over the vertex ids `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is not strictly increasing (sorted and
    /// deduplicated) or an endpoint is `>= n`.
    pub fn from_sorted_edges(n: usize, edges: &[Edge]) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted and deduplicated"
        );
        Self::from_canonical_edges(n, edges.iter().map(|e| e.endpoints()))
    }

    /// Builds the lists from edges `(u, v)`, `u < v < n`, in canonical
    /// order (sorted, deduplicated): one counting pass for the offsets
    /// and one fill pass that leaves every list sorted.
    pub(crate) fn from_canonical_edges<I>(n: usize, edges: I) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId)> + Clone,
    {
        // `offsets[v + 1]` starts as deg(v).
        let mut offsets = vec![0usize; n + 1];
        for (u, v) in edges.clone() {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut adj = vec![VertexId(0); offsets[n]];
        // Canonical edges fill every list in ascending order: `w`'s lower
        // neighbors (edges `(x, w)`, `x < w`) all precede its upper ones
        // (edges `(w, y)`), and each run arrives ascending.
        for (u, v) in edges {
            adj[cursor[u.index()]] = v;
            cursor[u.index()] += 1;
            adj[cursor[v.index()]] = u;
            cursor[v.index()] += 1;
        }
        debug_assert!(
            (0..n).all(|v| adj[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])),
            "adjacency lists must come out sorted"
        );
        CsrAdjacency { offsets, adj }
    }

    /// Heap bytes held by the offsets and the lists.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<VertexId>()
    }

    /// Start of `v`'s list in the flat adjacency array.
    #[inline]
    pub(crate) fn start(&self, v: VertexId) -> usize {
        self.offsets[v.index()]
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Sorted neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// `O(log d)` membership test (`false` for endpoints outside `0..n`).
    pub fn has_edge(&self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        if v.index() >= self.vertex_count() {
            return false;
        }
        // Probe the smaller adjacency list.
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).binary_search(&target).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path4();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(VertexId(0)), 1);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.neighbors(VertexId(1)), &[VertexId(0), VertexId(2)]);
        assert_eq!(g.average_degree(), 1.5);
    }

    #[test]
    fn has_edge_both_orders_and_missing() {
        let g = path4();
        assert!(g.has_edge(Edge::new(VertexId(1), VertexId(0))));
        assert!(!g.has_edge(Edge::new(VertexId(0), VertexId(3))));
    }

    #[test]
    fn common_neighbors_merge() {
        let g = Graph::from_edges(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)]);
        assert_eq!(
            g.common_neighbors(VertexId(0), VertexId(1)),
            vec![VertexId(2), VertexId(3)]
        );
        assert!(g
            .common_neighbors(VertexId(2), VertexId(3))
            .iter()
            .eq([VertexId(0), VertexId(1)].iter()));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let h = g.induced_subgraph(&[VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(Edge::new(VertexId(1), VertexId(2))));
        assert!(!h.has_edge(Edge::new(VertexId(0), VertexId(1))));
    }

    #[test]
    fn union_and_removal() {
        let g = path4();
        let g2 = g.union_with(&[Edge::new(VertexId(0), VertexId(3))]);
        assert_eq!(g2.edge_count(), 4);
        let mut rm = std::collections::HashSet::new();
        rm.insert(Edge::new(VertexId(0), VertexId(1)));
        let g3 = g2.without_edges(&rm);
        assert_eq!(g3.edge_count(), 3);
        assert!(!g3.has_edge(Edge::new(VertexId(0), VertexId(1))));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn csr_adjacency_matches_the_graph_it_backs() {
        let g = Graph::from_edges(6, [(0, 3), (1, 2), (0, 1), (2, 5)]);
        let adj = CsrAdjacency::from_sorted_edges(6, g.edges());
        assert_eq!(adj.vertex_count(), 6);
        for v in g.vertices() {
            assert_eq!(adj.neighbors(v), g.neighbors(v));
            assert_eq!(adj.degree(v), g.degree(v));
        }
        assert!(adj.has_edge(Edge::new(VertexId(5), VertexId(2))));
        assert!(!adj.has_edge(Edge::new(VertexId(0), VertexId(9))));
    }

    #[test]
    #[should_panic(expected = "sorted and deduplicated")]
    fn csr_adjacency_rejects_unsorted_edges() {
        let e = |u, v| Edge::new(VertexId(u), VertexId(v));
        CsrAdjacency::from_sorted_edges(3, &[e(1, 2), e(0, 1)]);
    }

    #[test]
    fn max_degree() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.max_degree(), 4);
    }
}
