//! Degree-ordered forward adjacency — the `O(m^{3/2})` triangle kernel.
//!
//! Rank all vertices by `(degree, id)` ascending and orient every edge
//! from its lower-rank endpoint toward its higher-rank endpoint. A
//! vertex's *forward list* holds the ranks of its higher-rank neighbors,
//! sorted ascending. Two classical facts make this fast:
//!
//! 1. every forward list has length `O(√m)` — a vertex with forward
//!    degree `f` has `f` neighbors of degree ≥ its own, so its degree
//!    is at least `f` and those endpoints alone contribute `f²/2` edge
//!    endpoints;
//! 2. each triangle `{a, b, c}` with ranks `r_a < r_b < r_c` appears in
//!    **exactly one** forward intersection: `fwd(a) ∩ fwd(b)` at the
//!    *base edge* `{a, b}`, where both forward lists contain `r_c`.
//!
//! Summing the per-edge merge cost `|fwd(u)| + |fwd(v)|` over all edges
//! therefore gives the `O(m^{3/2})` bound the docs promise (Itai–Rodeh /
//! Schank–Wagner; the same bound "Tri, Tri again" exploits in the
//! distributed setting).

use crate::{AsCsr, Triangle, VertexId};
use std::ops::Range;

/// The degree-ordered forward adjacency of any CSR backing.
///
/// Built once in `O(n + m log m)` from anything implementing [`AsCsr`] —
/// a heap [`Graph`](crate::Graph) or an mmap-backed [`crate::store::CsrStore`]; queries
/// then run over forward lists only. The structure borrows nothing — edge
/// iteration still goes through the host backing so sharded callers can
/// walk canonical edge ranges.
#[derive(Debug, Clone)]
pub struct Forward {
    /// `rank[v]` = position of vertex `v` in the degree-ascending order.
    rank: Vec<u32>,
    /// `order[r]` = vertex with rank `r` (inverse of `rank`).
    order: Vec<VertexId>,
    /// CSR offsets into `fwd`, indexed by **rank**.
    offsets: Vec<usize>,
    /// Forward neighbor ranks, ascending within each list.
    fwd: Vec<u32>,
}

impl Forward {
    /// Builds the forward adjacency of `g`.
    pub fn build<G: AsCsr + ?Sized>(g: &G) -> Forward {
        let n = g.vertex_count();
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_unstable_by_key(|v| (g.degree(*v), *v));
        let mut rank = vec![0u32; n];
        for (r, v) in order.iter().enumerate() {
            rank[v.index()] = r as u32;
        }
        // Forward out-degrees, then prefix sums, then fill + sort.
        let mut counts = vec![0usize; n];
        g.for_each_edge(&mut |_, e| {
            let (ru, rv) = (rank[e.u().index()], rank[e.v().index()]);
            counts[ru.min(rv) as usize] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut fwd = vec![0u32; acc];
        g.for_each_edge(&mut |_, e| {
            let (ru, rv) = (rank[e.u().index()], rank[e.v().index()]);
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            fwd[cursor[lo as usize]] = hi;
            cursor[lo as usize] += 1;
        });
        for r in 0..n {
            fwd[offsets[r]..offsets[r + 1]].sort_unstable();
        }
        Forward {
            rank,
            order,
            offsets,
            fwd,
        }
    }

    /// The forward list (ascending neighbor ranks) of the vertex with
    /// rank `r`.
    #[inline]
    fn list(&self, r: u32) -> &[u32] {
        &self.fwd[self.offsets[r as usize]..self.offsets[r as usize + 1]]
    }

    /// Forward out-degree of vertex `v` — `O(√m)` by construction.
    pub fn forward_degree(&self, v: VertexId) -> usize {
        self.list(self.rank[v.index()]).len()
    }

    /// Maximum forward out-degree over all vertices.
    pub fn max_forward_degree(&self) -> usize {
        (0..self.order.len())
            .map(|r| self.offsets[r + 1] - self.offsets[r])
            .max()
            .unwrap_or(0)
    }

    /// Counts the triangles whose base edge (the edge joining the two
    /// lowest-rank vertices) lies in `g.edges()[range]`. Summing over a
    /// partition of `0..m` counts every triangle exactly once.
    pub fn count_range<G: AsCsr + ?Sized>(&self, g: &G, range: Range<usize>) -> u64 {
        let mut count = 0u64;
        g.for_each_edge_in(range, &mut |_, e| {
            let (a, b) = self.oriented_lists(e.u(), e.v());
            count += merge_count(a, b);
            true
        });
        count
    }

    /// Calls `f` on every triangle whose base edge lies in
    /// `g.edges()[range]`, in (edge index, closing rank) order, holding
    /// none of them.
    pub(crate) fn for_each_in_range<G: AsCsr + ?Sized>(
        &self,
        g: &G,
        range: Range<usize>,
        mut f: impl FnMut(Triangle),
    ) {
        g.for_each_edge_in(range, &mut |_, e| {
            let (a, b) = self.oriented_lists(e.u(), e.v());
            merge_common(a, b, |r| {
                f(Triangle::new(e.u(), e.v(), self.order[r as usize]))
            });
            true
        });
    }

    /// Enumerates the triangles whose base edge lies in
    /// `g.edges()[range]`, in (edge index, closing rank) order.
    pub fn enumerate_range<G: AsCsr + ?Sized>(&self, g: &G, range: Range<usize>) -> Vec<Triangle> {
        let mut out = Vec::new();
        self.for_each_in_range(g, range, |t| out.push(t));
        out
    }

    /// Returns some triangle of `g`, or `None` if triangle-free: the
    /// triangle closing the first base edge (in canonical edge order)
    /// with a non-empty forward intersection, at its smallest closing
    /// rank — a deterministic function of the graph.
    pub fn find_triangle<G: AsCsr + ?Sized>(&self, g: &G) -> Option<Triangle> {
        let mut found = None;
        g.for_each_edge_in(0..g.edge_count(), &mut |_, e| {
            let (a, b) = self.oriented_lists(e.u(), e.v());
            match merge_first(a, b) {
                Some(r) => {
                    found = Some(Triangle::new(e.u(), e.v(), self.order[r as usize]));
                    false
                }
                None => true,
            }
        });
        found
    }

    /// The forward lists of an edge's endpoints (in either order — the
    /// intersection is symmetric, and only the base pair of a triangle
    /// yields hits).
    #[inline]
    fn oriented_lists(&self, u: VertexId, v: VertexId) -> (&[u32], &[u32]) {
        (
            self.list(self.rank[u.index()]),
            self.list(self.rank[v.index()]),
        )
    }
}

/// Number of common elements of two ascending slices (linear merge).
#[inline]
fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let mut count = 0u64;
    merge_common(a, b, |_| count += 1);
    count
}

/// First common element of two ascending slices.
#[inline]
fn merge_first(a: &[u32], b: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(a[i]),
        }
    }
    None
}

/// Calls `hit` for every common element of two ascending slices.
#[inline]
fn merge_common(a: &[u32], b: &[u32], mut hit: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::naive;
    use crate::Graph;

    fn k5() -> Graph {
        let mut pairs = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                pairs.push((a, b));
            }
        }
        Graph::from_edges(5, pairs)
    }

    #[test]
    fn counts_and_enumeration_match_naive_on_cliques_and_paths() {
        for g in [
            k5(),
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 3)]),
        ] {
            let fwd = Forward::build(&g);
            assert_eq!(
                fwd.count_range(&g, 0..g.edge_count()),
                naive::count_triangles(&g)
            );
            let mut ts = fwd.enumerate_range(&g, 0..g.edge_count());
            ts.sort_unstable();
            assert_eq!(ts, naive::enumerate_triangles(&g));
        }
    }

    #[test]
    fn range_counts_partition_the_total() {
        let g = k5();
        let fwd = Forward::build(&g);
        let m = g.edge_count();
        let total = fwd.count_range(&g, 0..m);
        let split: u64 = (0..m).map(|i| fwd.count_range(&g, i..i + 1)).sum();
        assert_eq!(total, split);
        assert_eq!(total, 10, "K5 has C(5,3) = 10 triangles");
    }

    #[test]
    fn find_returns_valid_witness_or_none() {
        let g = k5();
        let t = Forward::build(&g).find_triangle(&g).unwrap();
        assert!(t.exists_in(&g));
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(Forward::build(&path).find_triangle(&path).is_none());
    }

    #[test]
    fn forward_degrees_are_bounded_on_a_star_with_core() {
        // Hub 0 with 30 leaves plus a K4 core: the hub's forward list is
        // tiny even though its degree is large.
        let mut pairs: Vec<(u32, u32)> = (1..31).map(|i| (0, i)).collect();
        pairs.extend([(31, 32), (31, 33), (32, 33), (0, 31)]);
        let g = Graph::from_edges(34, pairs);
        let fwd = Forward::build(&g);
        assert!(fwd.forward_degree(VertexId(0)) <= 1);
        assert!(fwd.max_forward_degree() <= 4);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::from_edges(0, []);
        let fwd = Forward::build(&g);
        assert_eq!(fwd.count_range(&g, 0..0), 0);
        assert!(fwd.find_triangle(&g).is_none());
        assert_eq!(fwd.max_forward_degree(), 0);
    }
}
