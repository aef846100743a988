//! Partitioning the input graph's edges among `k` players.
//!
//! The paper's model hands each player `j` a subset `E_j ⊆ E`, with
//! `⋃_j E_j = E`; the sets need **not** be disjoint (edge duplication).
//! This module provides the partition schemes used by the experiments:
//!
//! * [`random_disjoint`] — every edge to exactly one uniform player (the
//!   "no-duplication variant" of the corollaries),
//! * [`with_duplication`] — one mandatory owner plus independent extra
//!   copies, exercising the duplication-robust building blocks,
//! * [`adversarial_triangle_split`] — the edges of each packed triangle
//!   scattered over three distinct players, so no player ever sees a local
//!   triangle (defeats trivial local short-circuits),
//! * [`by_vertex`] — locality partition (edges assigned by a fixed
//!   splitmix64 hash of their smaller endpoint).

mod schemes;

pub use schemes::{adversarial_triangle_split, by_vertex, random_disjoint, with_duplication};

use crate::{Edge, Graph};
use std::collections::HashSet;
use std::sync::Arc;

/// The edges held by each of `k` players.
///
/// The shares sit behind one [`Arc`], so player states built from a
/// partition share its lists instead of copying them. Equality compares
/// the shares only.
#[derive(Debug, Clone)]
pub struct Partition {
    shares: Arc<[Vec<Edge>]>,
    /// `Some(n)` when a scheme built the shares by walking a graph on `n`
    /// vertices in canonical order: every share is then strictly
    /// increasing with endpoints below `n`, by construction.
    canonical_n: Option<usize>,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.shares == other.shares
    }
}

impl Eq for Partition {}

impl Partition {
    /// Wraps explicit per-player edge lists, in any order and with any
    /// duplicates; consumers check and normalize them.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty.
    pub fn new(shares: Vec<Vec<Edge>>) -> Self {
        assert!(!shares.is_empty(), "need at least one player");
        Partition {
            shares: shares.into(),
            canonical_n: None,
        }
    }

    /// Wraps shares a scheme cut from the canonical edge order of a graph
    /// on `n` vertices.
    fn canonical(shares: Vec<Vec<Edge>>, n: usize) -> Self {
        Partition {
            canonical_n: Some(n),
            ..Partition::new(shares)
        }
    }

    /// Whether every share is known, without a scan, to be strictly
    /// increasing with every endpoint below `n`: `true` for the shares of
    /// the partition schemes over a graph on at most `n` vertices, `false`
    /// for [`Partition::new`]'s. Callers that would scan for these facts
    /// may skip the scan; debug builds re-check them here, on every call.
    pub fn canonical_below(&self, n: usize) -> bool {
        let canonical = self.canonical_n.is_some_and(|c| c <= n);
        debug_assert!(!canonical || self.shares.iter().all(|s| is_canonical_below(s, n)));
        canonical
    }

    /// A handle to the shares, for player states that hold them.
    pub fn shares_arc(&self) -> &Arc<[Vec<Edge>]> {
        &self.shares
    }

    /// Number of players `k`.
    pub fn players(&self) -> usize {
        self.shares.len()
    }

    /// The edge share of player `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn share(&self, j: usize) -> &[Edge] {
        &self.shares[j]
    }

    /// All shares in player order.
    pub fn shares(&self) -> &[Vec<Edge>] {
        &self.shares
    }

    /// Total number of edge copies across players (≥ `|E|` with duplication).
    pub fn total_copies(&self) -> usize {
        self.shares.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the union of shares is exactly the edge set of `g`.
    pub fn covers(&self, g: &Graph) -> bool {
        let mut union: HashSet<Edge> = HashSet::new();
        for s in self.shares.iter() {
            union.extend(s.iter().copied());
        }
        union.len() == g.edge_count() && g.edges().iter().all(|e| union.contains(e))
    }

    /// Returns `true` if no edge appears in more than one share.
    pub fn is_disjoint(&self) -> bool {
        let mut seen: HashSet<Edge> = HashSet::new();
        for s in self.shares.iter() {
            for e in s {
                if !seen.insert(*e) {
                    return false;
                }
            }
        }
        true
    }

    /// The §3.4.3 relevance mask: player `j` is *relevant* when its local
    /// average degree `d̄_j = 2|E_j|/n` is at least `(ε/4k)·d`. The
    /// degree-oblivious protocol's analysis discards irrelevant players:
    /// jointly they hold fewer than `ε·m/4` edges, so the graph restricted
    /// to relevant players stays `(ε/2)`-far whenever the input was ε-far.
    pub fn relevant_players(&self, g: &Graph, epsilon: f64) -> Vec<bool> {
        let k = self.players() as f64;
        let threshold = epsilon / (4.0 * k) * g.average_degree();
        let n = g.vertex_count().max(1) as f64;
        self.shares
            .iter()
            .map(|s| 2.0 * s.len() as f64 / n >= threshold)
            .collect()
    }

    /// The fraction of the graph's edges held *only* by irrelevant
    /// players — the paper's analysis needs this below `ε/2` (in fact it
    /// is below `ε/4`, since each of the `≤ k` irrelevant players holds
    /// fewer than `(ε/4k)·m` edges).
    pub fn irrelevant_only_edge_fraction(&self, g: &Graph, epsilon: f64) -> f64 {
        if g.edge_count() == 0 {
            return 0.0;
        }
        let mask = self.relevant_players(g, epsilon);
        let mut held_by_relevant: HashSet<Edge> = HashSet::new();
        for (j, share) in self.shares.iter().enumerate() {
            if mask[j] {
                held_by_relevant.extend(share.iter().copied());
            }
        }
        let lost = g
            .edges()
            .iter()
            .filter(|e| !held_by_relevant.contains(e))
            .count();
        lost as f64 / g.edge_count() as f64
    }

    /// Returns `true` if some player's share contains a triangle on its own
    /// (such inputs let a player detect a triangle with zero communication).
    pub fn has_local_triangle(&self, g: &Graph) -> bool {
        self.shares.iter().any(|s| {
            let local = crate::Graph::from_sorted_dedup_edges(g.vertex_count(), {
                let mut v = s.clone();
                v.sort_unstable();
                v.dedup();
                v
            });
            crate::triangles::contains_triangle(&local)
        })
    }
}

/// Whether `share` is strictly increasing with every endpoint below `n`
/// (canonical edges have `u < v`, so `v` bounds both).
fn is_canonical_below(share: &[Edge], n: usize) -> bool {
    share.is_sorted_by(|a, b| a < b) && share.iter().all(|e| e.v().index() < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, VertexId};

    fn g() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn covers_and_disjoint() {
        let g = g();
        let e = |a: u32, b: u32| Edge::new(VertexId(a), VertexId(b));
        let p = Partition::new(vec![vec![e(0, 1), e(1, 2)], vec![e(0, 2), e(2, 3)]]);
        assert!(p.covers(&g));
        assert!(p.is_disjoint());
        assert_eq!(p.players(), 2);
        assert_eq!(p.total_copies(), 4);
    }

    #[test]
    fn detects_non_covering() {
        let g = g();
        let e = |a: u32, b: u32| Edge::new(VertexId(a), VertexId(b));
        let p = Partition::new(vec![vec![e(0, 1)], vec![e(0, 2)]]);
        assert!(!p.covers(&g));
    }

    #[test]
    fn detects_duplication() {
        let e = |a: u32, b: u32| Edge::new(VertexId(a), VertexId(b));
        let p = Partition::new(vec![vec![e(0, 1)], vec![e(0, 1), e(1, 2)]]);
        assert!(!p.is_disjoint());
    }

    #[test]
    fn local_triangle_detection() {
        let g = g();
        let e = |a: u32, b: u32| Edge::new(VertexId(a), VertexId(b));
        let all_one = Partition::new(vec![g.edges().to_vec(), vec![]]);
        assert!(all_one.has_local_triangle(&g));
        let split = Partition::new(vec![vec![e(0, 1), e(2, 3)], vec![e(1, 2), e(0, 2)]]);
        assert!(!split.has_local_triangle(&g));
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn rejects_zero_players() {
        let _ = Partition::new(vec![]);
    }

    #[test]
    fn relevance_lemma_bound_holds() {
        use crate::generators::far_graph;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let g = far_graph(300, 8.0, 0.2, &mut rng).unwrap();
        // A skewed partition: players 0..3 split almost everything,
        // player 4 gets a handful of edges (irrelevant).
        let mut shares = vec![Vec::new(); 5];
        for (i, e) in g.edges().iter().enumerate() {
            if i < 5 {
                shares[4].push(*e);
            } else {
                shares[i % 4].push(*e);
            }
        }
        let p = Partition::new(shares);
        let eps = 0.2;
        let mask = p.relevant_players(&g, eps);
        assert_eq!(mask, vec![true, true, true, true, false]);
        let lost = p.irrelevant_only_edge_fraction(&g, eps);
        assert!(lost <= eps / 4.0 + 1e-9, "lost fraction {lost} exceeds ε/4");
    }

    #[test]
    fn balanced_partitions_have_no_irrelevant_players() {
        use crate::generators::far_graph;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        let g = far_graph(300, 8.0, 0.2, &mut rng).unwrap();
        let p = super::random_disjoint(&g, 6, &mut rng);
        assert!(p.relevant_players(&g, 0.2).iter().all(|r| *r));
        assert_eq!(p.irrelevant_only_edge_fraction(&g, 0.2), 0.0);
    }
}
