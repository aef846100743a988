use super::Partition;
use crate::store::mix64;
use crate::{triangles, AsCsr, Edge, Graph};
use rand::Rng;

/// Assigns each edge to exactly one uniformly random player.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn random_disjoint<G: AsCsr + ?Sized, R: Rng + ?Sized>(
    g: &G,
    k: usize,
    rng: &mut R,
) -> Partition {
    assert!(k >= 1, "need at least one player");
    let mut shares = vec![Vec::new(); k];
    g.for_each_edge(&mut |_, e| {
        shares[rng.gen_range(0..k)].push(e);
    });
    Partition::canonical(shares, g.vertex_count())
}

/// Assigns each edge to one uniformly random owner, then additionally to
/// every other player independently with probability `dup_p` — the
/// duplicated-input regime the paper's building blocks must survive.
///
/// # Panics
///
/// Panics if `k == 0` or `dup_p` is outside `[0, 1]`.
pub fn with_duplication<G: AsCsr + ?Sized, R: Rng + ?Sized>(
    g: &G,
    k: usize,
    dup_p: f64,
    rng: &mut R,
) -> Partition {
    assert!(k >= 1, "need at least one player");
    assert!((0.0..=1.0).contains(&dup_p), "dup_p must be in [0,1]");
    let mut shares = vec![Vec::new(); k];
    g.for_each_edge(&mut |_, e| {
        let owner = rng.gen_range(0..k);
        for (j, share) in shares.iter_mut().enumerate() {
            if j == owner || rng.gen_bool(dup_p) {
                share.push(e);
            }
        }
    });
    Partition::canonical(shares, g.vertex_count())
}

/// Splits the three edges of each packed triangle across three distinct
/// players (round-robin over triangles), so no single player's share
/// contains a packed triangle; remaining edges are assigned uniformly.
///
/// With `k ≥ 3` and a graph whose triangles form a packing (e.g. the
/// planted workloads), the result typically has no local triangle at all,
/// forcing genuine communication.
///
/// # Panics
///
/// Panics if `k < 3`.
pub fn adversarial_triangle_split<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Partition {
    assert!(k >= 3, "adversarial split needs at least 3 players");
    let packing = triangles::greedy_triangle_packing(g);
    let mut assigned = std::collections::HashMap::new();
    for (t_idx, t) in packing.iter().enumerate() {
        for (e_idx, e) in t.edges().into_iter().enumerate() {
            // players t_idx, t_idx+1, t_idx+2 (mod k): distinct since k ≥ 3.
            assigned.insert(e, (t_idx + e_idx) % k);
        }
    }
    let mut shares = vec![Vec::new(); k];
    for e in g.edges() {
        let j = assigned
            .get(e)
            .copied()
            .unwrap_or_else(|| rng.gen_range(0..k));
        shares[j].push(*e);
    }
    Partition::canonical(shares, g.vertex_count())
}

/// Locality partition: every edge goes to the player owning its smaller
/// endpoint, so each vertex's edges concentrate on few players. Vertex
/// `u`'s owner is `mix64(u) % k`, the splitmix64 finalizer of the CSR
/// checksum: a fixed function, so a partition never changes with the
/// toolchain.
///
/// # Panics
///
/// Panics if `k == 0` or `k > u32::MAX`.
pub fn by_vertex<G: AsCsr + ?Sized>(g: &G, k: usize) -> Partition {
    assert!(k >= 1, "need at least one player");
    let k32 = u32::try_from(k).expect("at most u32::MAX players");
    // The edges `(u, ·)` are `u`'s forward row. One pass hashes each
    // vertex with a nonempty row and sizes every share exactly; a second
    // walks the rows in order, so each share keeps canonical order.
    let mut owners = Vec::with_capacity(g.vertex_count());
    let mut sizes = vec![0usize; k];
    for u in g.vertices() {
        let len = g.forward_neighbors(u).len();
        let j = if len == 0 {
            0
        } else {
            (mix64(u64::from(u.0)) % u64::from(k32)) as u32
        };
        owners.push(j);
        sizes[j as usize] += len;
    }
    let mut shares: Vec<Vec<Edge>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (u, &j) in g.vertices().zip(&owners) {
        shares[j as usize].extend(g.forward_neighbors(u).iter().map(|&v| Edge::new(u, v)));
    }
    Partition::canonical(shares, g.vertex_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{far_graph, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_graph() -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        gnp(60, 0.15, &mut rng)
    }

    #[test]
    fn random_disjoint_covers_and_is_disjoint() {
        let g = sample_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = random_disjoint(&g, 4, &mut rng);
        assert!(p.covers(&g));
        assert!(p.is_disjoint());
        assert_eq!(p.total_copies(), g.edge_count());
    }

    #[test]
    fn duplication_covers_and_duplicates() {
        let g = sample_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = with_duplication(&g, 4, 0.5, &mut rng);
        assert!(p.covers(&g));
        assert!(
            p.total_copies() > g.edge_count(),
            "expected duplicated copies"
        );
        assert!(!p.is_disjoint());
    }

    #[test]
    fn duplication_with_zero_prob_is_disjoint() {
        let g = sample_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = with_duplication(&g, 3, 0.0, &mut rng);
        assert!(p.covers(&g));
        assert!(p.is_disjoint());
    }

    #[test]
    fn adversarial_split_hides_planted_triangles() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = far_graph(90, 4.0, 0.2, &mut rng).unwrap();
        let p = adversarial_triangle_split(&g, 3, &mut rng);
        assert!(p.covers(&g));
        // Every packed triangle's edges are on three different players, so
        // the packing contributes no local triangle. Random leftover edges
        // could in principle close one, but with this seed they do not.
        assert!(!p.has_local_triangle(&g));
    }

    #[test]
    fn by_vertex_covers() {
        let g = sample_graph();
        let p = by_vertex(&g, 5);
        assert!(p.covers(&g));
        assert!(p.is_disjoint());
        // stability: same partition every time
        assert_eq!(p, by_vertex(&g, 5));
    }

    #[test]
    fn by_vertex_matches_per_edge_hashing_on_graph_and_store() {
        // The partition must be the one hashing every edge's `u` gives.
        let per_edge = |edges: &[crate::Edge], k: usize| {
            let mut shares = vec![Vec::new(); k];
            for e in edges {
                shares[(mix64(u64::from(e.u().0)) % k as u64) as usize].push(*e);
            }
            Partition::new(shares)
        };
        let g = sample_graph();
        let dir = std::env::temp_dir().join(format!("triad-by-vertex-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        crate::store::write_csr(&path, &g).unwrap();
        let store = crate::CsrStore::open(&path).unwrap();
        for k in [1, 2, 4, 7] {
            let expected = per_edge(g.edges(), k);
            assert_eq!(by_vertex(&g, k), expected, "graph, k = {k}");
            assert_eq!(by_vertex(&store, k), expected, "store, k = {k}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn by_vertex_owners_are_pinned() {
        // Golden owners of `mix64(u) % k`: a change to the owner
        // function moves every `--scheme vertex` partition.
        let sources = [0u32, 1, 2, 3, 7, 42];
        let g = Graph::from_edges(1001, sources.map(|u| (u, 1000)));
        for (k, owners) in [(4, [0, 1, 2, 0, 0, 2]), (7, [0, 6, 1, 4, 2, 3])] {
            let p = by_vertex(&g, k);
            for (&u, &j) in sources.iter().zip(&owners) {
                let e = Edge::new(crate::VertexId(u), crate::VertexId(1000));
                assert!(p.shares()[j].contains(&e), "vertex {u}, k = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn adversarial_needs_three_players() {
        let g = sample_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = adversarial_triangle_split(&g, 2, &mut rng);
    }
}
