//! The coordinator-model RPC surface.
//!
//! Unrestricted protocols are expressed as sequences of typed requests
//! from the coordinator to players; each request and its response carry an
//! exact bit cost. Arguments that name shared-randomness objects (`tag`
//! fields) are free — the public random string is shared by assumption —
//! while graph-content arguments (vertices, edges, probabilities the
//! coordinator computed) are charged.

use crate::bits::{bits_for_count, bits_per_edge, bits_per_vertex, BitCost};
use triad_graph::{Edge, VertexId};

/// A request from the coordinator to a single player (or broadcast).
#[derive(Debug, Clone, PartialEq)]
pub enum PlayerRequest {
    /// "Is this edge in your input?" → [`Payload::Bit`](crate::message::Payload::Bit).
    HasEdge(Edge),
    /// "Your first edge incident to `v` under public permutation
    /// `perm_tag`" → [`Payload::Edge`](crate::message::Payload::Edge). The permutation ranks all
    /// potential edges, so duplicated edges are not over-weighted
    /// (the paper's random-neighbor primitive).
    FirstIncidentEdge {
        /// The vertex whose incident edges are ranked.
        v: VertexId,
        /// Shared-randomness tag naming the permutation (free).
        perm_tag: u64,
    },
    /// "Your first edge overall under permutation `perm_tag`" →
    /// [`Payload::Edge`](crate::message::Payload::Edge) (the uniform-random-edge primitive).
    FirstEdge {
        /// Shared-randomness tag naming the permutation (free).
        perm_tag: u64,
    },
    /// "Your local degree of `v`" → [`Payload::Count`](crate::message::Payload::Count)
    /// (exact; only sound without duplication).
    LocalDegree {
        /// The queried vertex.
        v: VertexId,
    },
    /// "How many edges do you hold?" → [`Payload::Count`](crate::message::Payload::Count).
    LocalEdgeCount,
    /// "The binary length of your local edge count" → [`Payload::Count`](crate::message::Payload::Count)
    /// (phase 1 of the distinct-edges estimator, the Theorem 3.1 remark
    /// on estimating distinct elements).
    EdgeCountMsb,
    /// "Does the public *edge* set (tag, p) intersect your input?" →
    /// [`Payload::Bit`](crate::message::Payload::Bit) (one sampling experiment of the distinct-edges
    /// estimator; charged one response bit like `SampleHit`).
    GlobalSampleHit {
        /// Shared-randomness tag naming the sampled pair set (free).
        tag: u64,
        /// Per-pair sampling probability.
        p: f64,
    },
    /// "The binary length (MSB index + 1) of your local degree of `v`" →
    /// [`Payload::Count`](crate::message::Payload::Count) (phase 1 of Theorem 3.1).
    DegreeMsb {
        /// The queried vertex.
        v: VertexId,
    },
    /// "Your local degree of `v`, truncated to its top `prefix_bits`
    /// bits" → [`Payload::Bits`](crate::message::Payload::Bits) (Lemma 3.2, no-duplication α-approx).
    DegreePrefix {
        /// The queried vertex.
        v: VertexId,
        /// How many leading bits of the degree to keep.
        prefix_bits: u32,
    },
    /// "Does the public vertex set (tag, p) contain a neighbor of `v` in
    /// your input?" → [`Payload::Bit`](crate::message::Payload::Bit) (one sampling experiment of
    /// Theorem 3.1 phase 2).
    SampleHit {
        /// The center vertex.
        v: VertexId,
        /// Shared-randomness tag naming the sampled set (free).
        tag: u64,
        /// Per-vertex sampling probability.
        p: f64,
    },
    /// "Your first vertex, under permutation `perm_tag`, in the suspect
    /// set `B̃_i^j = {v : 3^i/k ≤ d_j(v) ≤ 3^{i+1}}`" →
    /// [`Payload::Vertex`](crate::message::Payload::Vertex) (Algorithm 1).
    FirstSuspectInBucket {
        /// Bucket index `i`.
        bucket: usize,
        /// Number of players `k` (fixes the `3^i/k` lower cutoff).
        k: usize,
        /// Shared-randomness tag naming the permutation (free).
        perm_tag: u64,
    },
    /// "Your `count` first vertices, under permutation `perm_tag`, in the
    /// suspect set `B̃_i^j`" → [`Payload::Vertices`](crate::message::Payload::Vertices).
    ///
    /// The batched form of Algorithm 1: merging the players' lists by
    /// rank gives the `count` globally lowest-ranked suspects — a uniform
    /// sample *without replacement* from `B̃_i`, at the same total bit
    /// cost as `count` single-sample rounds (`q·k` vertex ids either
    /// way) but one pass over each player's input instead of `q`.
    SuspectSample {
        /// Bucket index `i`.
        bucket: usize,
        /// Number of players `k` (fixes the `3^i/k` lower cutoff).
        k: usize,
        /// Shared-randomness tag naming the permutation (free).
        perm_tag: u64,
        /// How many suspects each player reports at most.
        count: usize,
    },
    /// "Your edges at `v` whose other endpoint lies in the public set
    /// (tag, p), at most `cap` of them" → [`Payload::Edges`](crate::message::Payload::Edges)
    /// (Algorithm 4, SampleEdges).
    IncidentEdgesSampled {
        /// The center vertex.
        v: VertexId,
        /// Shared-randomness tag naming the sampled set (free).
        tag: u64,
        /// Per-vertex sampling probability.
        p: f64,
        /// Upper bound on edges returned (protocol constant, free).
        cap: usize,
    },
    /// "Here are candidate edges; if two of them form a vee whose closing
    /// edge is in your input, name the triangle" → [`Payload::Triangle`](crate::message::Payload::Triangle)
    /// (the final step of FindTriangleVee).
    FindClosingTriangle {
        /// The candidate edges the coordinator collected.
        edges: Vec<Edge>,
    },
    /// "Your edges with both endpoints in the public set (tag, p), at most
    /// `cap`" → [`Payload::Edges`](crate::message::Payload::Edges) (AlgHigh's induced sample).
    InducedEdges {
        /// Shared-randomness tag naming the sampled set (free).
        tag: u64,
        /// Per-vertex sampling probability.
        p: f64,
        /// Upper bound on edges returned.
        cap: usize,
    },
    /// "Your edges with one endpoint in R = (r_tag, p_r) and the other in
    /// R ∪ S, S = (s_tag, p_s), at most `cap`" → [`Payload::Edges`](crate::message::Payload::Edges)
    /// (AlgLow's sample).
    RsEdges {
        /// Tag of the small set `R` (free).
        r_tag: u64,
        /// Sampling probability of `R`.
        p_r: f64,
        /// Tag of the large set `S` (free).
        s_tag: u64,
        /// Sampling probability of `S`.
        p_s: f64,
        /// Upper bound on edges returned.
        cap: usize,
    },
}

impl PlayerRequest {
    /// The bit cost of sending this request to one player.
    pub fn bit_len(&self, n: usize) -> BitCost {
        let v = bits_per_vertex(n);
        let e = bits_per_edge(n);
        let cost = match self {
            PlayerRequest::HasEdge(_) => e,
            PlayerRequest::FirstIncidentEdge { .. } => v,
            PlayerRequest::FirstEdge { .. } => 0,
            PlayerRequest::LocalDegree { .. } => v,
            PlayerRequest::LocalEdgeCount => 0,
            PlayerRequest::EdgeCountMsb => 0,
            // Same accounting as SampleHit: the schedule is protocol
            // state, the set is shared randomness.
            PlayerRequest::GlobalSampleHit { .. } => 0,
            PlayerRequest::DegreeMsb { .. } => v,
            PlayerRequest::DegreePrefix { prefix_bits, .. } => {
                v + bits_for_count(u64::from(*prefix_bits))
            }
            // The center vertex and the guess schedule are fixed by the
            // enclosing degree-approximation instance (announced once by
            // the DegreeMsb round), and the sampled set comes from shared
            // randomness — so one experiment costs only the response bit,
            // matching Theorem 3.1's O(k) per experiment.
            PlayerRequest::SampleHit { .. } => 0,
            PlayerRequest::FirstSuspectInBucket { bucket, .. } => bits_for_count(*bucket as u64),
            PlayerRequest::SuspectSample { bucket, count, .. } => {
                bits_for_count(*bucket as u64) + bits_for_count(*count as u64)
            }
            PlayerRequest::IncidentEdgesSampled { .. } => v + 32,
            PlayerRequest::FindClosingTriangle { edges } => {
                bits_for_count(edges.len() as u64) + e * edges.len() as u64
            }
            PlayerRequest::InducedEdges { .. } => 32,
            PlayerRequest::RsEdges { .. } => 64,
        };
        BitCost(cost)
    }

    /// A short label for transcript breakdowns.
    pub fn label(&self) -> &'static str {
        match self {
            PlayerRequest::HasEdge(_) => "has_edge",
            PlayerRequest::FirstIncidentEdge { .. } => "first_incident",
            PlayerRequest::FirstEdge { .. } => "first_edge",
            PlayerRequest::LocalDegree { .. } => "local_degree",
            PlayerRequest::LocalEdgeCount => "edge_count",
            PlayerRequest::EdgeCountMsb => "edge_count_msb",
            PlayerRequest::GlobalSampleHit { .. } => "global_sample_hit",
            PlayerRequest::DegreeMsb { .. } => "degree_msb",
            PlayerRequest::DegreePrefix { .. } => "degree_prefix",
            PlayerRequest::SampleHit { .. } => "sample_hit",
            PlayerRequest::FirstSuspectInBucket { .. } => "suspect",
            PlayerRequest::SuspectSample { .. } => "suspect_batch",
            PlayerRequest::IncidentEdgesSampled { .. } => "incident_sampled",
            PlayerRequest::FindClosingTriangle { .. } => "close_triangle",
            PlayerRequest::InducedEdges { .. } => "induced",
            PlayerRequest::RsEdges { .. } => "rs_edges",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_costs() {
        let n = 1024; // 10-bit vertices
        let e = Edge::new(VertexId(0), VertexId(1));
        assert_eq!(PlayerRequest::HasEdge(e).bit_len(n), BitCost(20));
        assert_eq!(
            PlayerRequest::FirstIncidentEdge {
                v: VertexId(0),
                perm_tag: 9
            }
            .bit_len(n),
            BitCost(10)
        );
        assert_eq!(
            PlayerRequest::FirstEdge { perm_tag: 1 }.bit_len(n),
            BitCost(0)
        );
        assert_eq!(PlayerRequest::LocalEdgeCount.bit_len(n), BitCost(0));
        assert_eq!(
            PlayerRequest::SampleHit {
                v: VertexId(1),
                tag: 0,
                p: 0.5
            }
            .bit_len(n),
            BitCost(0)
        );
        assert_eq!(
            PlayerRequest::FindClosingTriangle { edges: vec![e, e] }.bit_len(n),
            BitCost(2 + 40)
        );
    }

    #[test]
    fn labels_are_distinct_enough() {
        let e = Edge::new(VertexId(0), VertexId(1));
        let reqs = [
            PlayerRequest::HasEdge(e),
            PlayerRequest::FirstEdge { perm_tag: 0 },
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::FindClosingTriangle { edges: vec![] },
        ];
        let labels: std::collections::HashSet<_> = reqs.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), reqs.len());
    }
}
