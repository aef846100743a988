//! Standard workloads for the experiments.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use triad_graph::generators::{dense_core, far_graph, DenseCore};
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::{Edge, Graph, GraphBuilder, VertexId};

/// A graph + partition instance with its parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Vertex count.
    pub n: usize,
    /// Target average degree.
    pub d: f64,
    /// Number of players.
    pub k: usize,
    /// The input graph (ε-far from triangle-free by construction).
    pub graph: Graph,
    /// The players' shares.
    pub partition: Partition,
}

/// A certified ε-far planted workload with a disjoint random partition.
pub fn planted_far(n: usize, d: f64, epsilon: f64, k: usize, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = far_graph(n, d, epsilon, &mut rng).expect("valid far-graph parameters");
    let partition = random_disjoint(&graph, k, &mut rng);
    Workload {
        n,
        d: graph.average_degree(),
        k,
        graph,
        partition,
    }
}

/// A deterministic triangle-free (bipartite) workload: `n/2 · d/2`
/// random cross edges, randomly partitioned across `k` players. The
/// chaos matrix ([`crate::chaos`]) runs on it: a triangle-free input
/// guarantees no early exit, so every scheduled repetition runs.
pub fn bipartite_workload(n: usize, d: f64, k: usize, seed: u64) -> (Graph, Partition) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let half = (n / 2) as u32;
    let target = (n as f64 * d / 2.0) as usize;
    let mut b = GraphBuilder::new(n);
    for _ in 0..target {
        let u = rng.gen_range(0..half);
        let v = rng.gen_range(half..n as u32);
        b.add_edge(Edge::new(VertexId(u), VertexId(v)));
    }
    let g = b.build();
    let partition = random_disjoint(&g, k, &mut rng);
    (g, partition)
}

/// The §3.4.2 dense-core adversarial workload.
pub fn dense_core_workload(n: usize, hubs: usize, k: usize, seed: u64) -> (DenseCore, Workload) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dc = dense_core(n, hubs, &mut rng).expect("valid dense-core parameters");
    let graph = dc.graph().clone();
    let partition = random_disjoint(&graph, k, &mut rng);
    let d = graph.average_degree();
    (
        dc,
        Workload {
            n,
            d,
            k,
            graph,
            partition,
        },
    )
}

/// The E9 ablation instance: all triangles confined to a small
/// high-degree clique on the first `clique` vertices, the remainder a
/// triangle-free path — the "small dense subgraph contains all the
/// triangles" adversary of §3.3's narrative.
pub fn clique_plus_path(n: usize, clique: usize) -> Graph {
    use triad_graph::{Edge, GraphBuilder, VertexId};
    let mut b = GraphBuilder::new(n);
    for a in 0..clique as u32 {
        for c in (a + 1)..clique as u32 {
            b.add_edge(Edge::new(VertexId(a), VertexId(c)));
        }
    }
    for i in clique as u32..(n as u32 - 1) {
        b.add_edge(Edge::new(VertexId(i), VertexId(i + 1)));
    }
    b.build()
}

/// Mean over `trials` seeds of a per-run u64 metric.
///
/// Seeds are sharded across the configured thread pool
/// ([`triad_comm::pool::Pool::current`]); per-seed metrics are summed in
/// seed order, so the result is identical at any thread count.
pub fn mean_over_seeds<F: Fn(u64) -> u64 + Sync>(trials: u64, f: F) -> f64 {
    mean_over_seeds_with(&triad_comm::pool::Pool::current(), trials, f)
}

/// [`mean_over_seeds`] on an explicit pool.
pub fn mean_over_seeds_with<F: Fn(u64) -> u64 + Sync>(
    pool: &triad_comm::pool::Pool,
    trials: u64,
    f: F,
) -> f64 {
    pool.ordered_map(trials as usize, |s| f(s as u64))
        .into_iter()
        .sum::<u64>() as f64
        / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_workload_is_consistent() {
        let w = planted_far(300, 6.0, 0.2, 4, 1);
        assert_eq!(w.graph.vertex_count(), 300);
        assert_eq!(w.partition.players(), 4);
        assert!(w.partition.covers(&w.graph));
        assert!((w.d - 6.0).abs() < 1.5);
    }

    #[test]
    fn dense_core_workload_has_hubs() {
        let (dc, w) = dense_core_workload(200, 3, 4, 2);
        assert_eq!(dc.hubs().len(), 3);
        assert!(w.partition.covers(&w.graph));
    }

    #[test]
    fn mean_over_seeds_averages() {
        assert_eq!(mean_over_seeds(4, |s| s), 1.5);
    }

    #[test]
    fn mean_over_seeds_is_thread_count_invariant() {
        use triad_comm::pool::Pool;
        let metric = |s: u64| s.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial = mean_over_seeds_with(&Pool::serial(), 33, metric);
        for threads in [2, 8] {
            let par = mean_over_seeds_with(&Pool::new(threads), 33, metric);
            assert_eq!(par.to_bits(), serial.to_bits(), "threads = {threads}");
        }
    }
}
