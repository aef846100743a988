//! The property-testing building blocks of §3.1, implemented as
//! coordinator-model subroutines.
//!
//! Each primitive the paper shows to be efficiently implementable in the
//! multiparty setting — even with edge duplication — lives here:
//!
//! * [`edge_exists`] — edge queries in `O(k)` bits,
//! * [`random_edge`] / [`random_incident_edge`] / [`random_walk`] —
//!   permutation-based unbiased sampling (duplication-safe),
//! * [`approx_degree`] / [`approx_degrees`] — Theorem 3.1's
//!   α-approximation under duplication, for one vertex or a lockstep wave,
//! * [`approx_degree_no_duplication`] — Lemma 3.2's cheaper no-duplication
//!   variant (also a distinct-elements estimator),
//! * [`induced_subgraph_edges`] / [`collect_incident_edges`] / [`bfs`] —
//!   subgraph exposure and breadth-first search.

mod degree;
mod induced;
mod random_edge;

pub use degree::{
    approx_degree, approx_degree_no_duplication, approx_degrees, approx_edge_count,
    total_edge_count_bound, DegreeEstimate,
};
pub use induced::{bfs, collect_incident_edges, induced_subgraph_edges};
pub use random_edge::{random_edge, random_incident_edge, random_walk};

use triad_comm::{Payload, PlayerRequest, Recorder, Runtime};
use triad_graph::Edge;

/// Queries whether `e` is in the (global) input graph: each player reports
/// one bit and the coordinator ORs them — `O(k)` bits, the dense-model
/// primitive.
pub fn edge_exists<R: Recorder>(rt: &mut Runtime<R>, e: Edge) -> bool {
    rt.broadcast(PlayerRequest::HasEdge(e))
        .into_iter()
        .any(|p| p == Payload::Bit(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_comm::{CostModel, SharedRandomness};
    use triad_graph::VertexId;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn edge_query_ors_across_players() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2)], vec![]];
        let mut rt = Runtime::local(4, &shares, SharedRandomness::new(1), CostModel::Coordinator);
        assert!(edge_exists(&mut rt, e(0, 1)));
        assert!(edge_exists(&mut rt, e(1, 2)));
        assert!(!edge_exists(&mut rt, e(0, 3)));
        // Cost is Θ(k) per query: 3 queries × 3 players × (edge + bit).
        let per_query = 3 * (4 + 1);
        assert_eq!(rt.stats().total_bits, 3 * per_query);
    }
}
