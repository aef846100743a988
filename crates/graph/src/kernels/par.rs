//! Pool-parallel triangle kernels.
//!
//! Work is sharded over **fixed-size ranges of the canonical edge
//! array** — shard boundaries depend only on the edge count, never on
//! the thread count — and shard results are reduced in shard order by
//! the executor's ordered map. Counting reduces by summation
//! (commutative) and triangle-edge collection sets one shared mark per
//! edge (idempotent, so the order of the stores does not matter), then
//! emits in canonical edge order, so both functions are byte-identical
//! to the serial kernel at any thread count: the `docs/PARALLELISM.md`
//! contract, enforced by `tests/kernels_differential.rs`.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::kernels::{Forward, ParallelExecutor};
use crate::{AsCsr, Edge};

/// Edges per parallel shard. Fixed (not derived from the thread count)
/// so the shard decomposition — and hence any per-shard observable — is
/// the same no matter how many workers run it.
pub const PAR_EDGE_CHUNK: usize = 2048;

/// Number of shards covering `m` edges (at least 1, so the empty graph
/// still maps cleanly).
fn shard_count(m: usize) -> usize {
    m.div_ceil(PAR_EDGE_CHUNK).max(1)
}

/// The edge range of shard `s`.
fn shard_range(s: usize, m: usize) -> std::ops::Range<usize> {
    (s * PAR_EDGE_CHUNK).min(m)..((s + 1) * PAR_EDGE_CHUNK).min(m)
}

/// Counts triangles of `g` with per-shard forward intersections run on
/// `exec` — equal to [`crate::kernels::count_triangles`] (and to the
/// naive count) at any thread count.
pub fn count_triangles_par<G: AsCsr + ?Sized, E: ParallelExecutor>(g: &G, exec: &E) -> u64 {
    let fwd = Forward::build(g);
    let m = g.edge_count();
    exec.ordered_map_items(shard_count(m), |s| fwd.count_range(g, shard_range(s, m)))
        .into_iter()
        .sum()
}

/// All edges of `g` participating in at least one triangle, in
/// canonical order, computed by sharded forward enumeration on `exec`.
///
/// Each shard marks all three edges of every triangle based in its edge
/// range in one mark vector shared by every shard, so the extra memory
/// is one byte per edge whatever the triangle count. The marks are
/// emitted in canonical order, so the result equals the naive per-edge
/// filter (`kernels::naive::triangle_edges`) bit for bit.
pub fn triangle_edges_par<G: AsCsr + ?Sized, E: ParallelExecutor>(g: &G, exec: &E) -> Vec<Edge> {
    let fwd = Forward::build(g);
    let m = g.edge_count();
    let marked: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    exec.ordered_map_items(shard_count(m), |s| {
        fwd.for_each_in_range(g, shard_range(s, m), |t| {
            for e in t.edges() {
                let i = g.edge_index(e).expect("triangle edges are graph edges");
                marked[i].store(true, Ordering::Relaxed);
            }
        });
    });
    // The executor has joined every shard, so every store is visible.
    let mut out = Vec::new();
    g.for_each_edge(&mut |i, e| {
        if marked[i].load(Ordering::Relaxed) {
            out.push(e);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{naive, SerialExecutor};
    use crate::Graph;

    fn book_plus_pendant() -> Graph {
        Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (1, 3),
                (0, 4),
                (1, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn par_count_matches_naive_on_the_serial_executor() {
        let g = book_plus_pendant();
        assert_eq!(
            count_triangles_par(&g, &SerialExecutor),
            naive::count_triangles(&g)
        );
    }

    #[test]
    fn par_triangle_edges_match_naive_filter() {
        let g = book_plus_pendant();
        assert_eq!(
            triangle_edges_par(&g, &SerialExecutor),
            naive::triangle_edges(&g)
        );
    }

    #[test]
    fn sharding_covers_every_edge_exactly_once() {
        for m in [
            0usize,
            1,
            PAR_EDGE_CHUNK - 1,
            PAR_EDGE_CHUNK,
            PAR_EDGE_CHUNK + 1,
        ] {
            let mut covered = 0usize;
            for s in 0..shard_count(m) {
                let r = shard_range(s, m);
                assert!(r.start <= r.end && r.end <= m);
                covered += r.len();
            }
            assert_eq!(covered, m, "m = {m}");
        }
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = Graph::from_edges(3, []);
        assert_eq!(count_triangles_par(&g, &SerialExecutor), 0);
        assert!(triangle_edges_par(&g, &SerialExecutor).is_empty());
    }
}
