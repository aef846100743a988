//! The bucket-search machinery of §3.3: Algorithms 1 (uniform sampling
//! from `B̃_i`), 3 (GetFullCandidates), 4 (SampleEdges) and 5
//! (FindTriangleVee).

use crate::blocks::approx_degrees;
use crate::config::Tuning;
use std::collections::HashSet;
use triad_comm::{Payload, PlayerRequest, Recorder, Runtime};
use triad_graph::{buckets, Triangle, VertexId};

/// A candidate full vertex with its approximate degree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The sampled vertex.
    pub vertex: VertexId,
    /// Its Theorem-3.1 degree estimate.
    pub degree_estimate: f64,
}

/// Degree-filter widening: the Theorem 3.1 estimate is within a constant
/// factor, so candidates are kept when the estimate falls within this
/// factor of the bucket's degree window (paper: `√3` on each side; we
/// allow the estimator's full worst-case factor).
const FILTER_ALPHA: f64 = 3.0;

/// Algorithm 1: samples a uniformly random vertex from
/// `B̃_i = ⋃_j B̃_i^j` by taking the first suspect under a public random
/// permutation. Unbiased regardless of how many players suspect a vertex.
/// Returns `None` if no player has any suspect for this bucket.
pub fn sample_uniform_from_btilde<R: Recorder>(
    rt: &mut Runtime<R>,
    bucket: usize,
    perm_tag: u64,
) -> Option<VertexId> {
    let shared = rt.shared();
    let k = rt.k();
    rt.broadcast(PlayerRequest::FirstSuspectInBucket {
        bucket,
        k,
        perm_tag,
    })
    .into_iter()
    .filter_map(|p| match p {
        Payload::Vertex(v) => v,
        _ => None,
    })
    .min_by_key(|v| shared.vertex_rank(perm_tag, *v))
}

/// Algorithm 3: samples up to the tuning's budget of vertices from
/// `B̃_i`, approximates each one's degree, and keeps those whose estimate
/// matches the bucket window — stopping once the candidate target is hit.
///
/// Sampling uses the batched form of Algorithm 1 (one
/// [`PlayerRequest::SuspectSample`] round instead of `q` single-sample
/// rounds): each player reports its lowest-ranked suspects under the
/// public permutation and the merged prefix is a uniform sample without
/// replacement from `B̃_i` — same total bits, one pass per player. A
/// first small batch usually suffices; the full budget is fetched only
/// if the degree filter starves.
///
/// Suspects are estimated in waves ([`approx_degrees`]): the next
/// `min(target − found, budget − examined)` unseen ones together. One at
/// a time, the search would examine every one of them whatever their
/// estimates, so a wave sends no request it would not, and the
/// candidates come out in the same order.
pub fn get_full_candidates<R: Recorder>(
    rt: &mut Runtime<R>,
    bucket: usize,
    tuning: &Tuning,
) -> Vec<Candidate> {
    let n = rt.n();
    let k = rt.k();
    let budget = tuning.sample_budget(n, k);
    let target = tuning.candidate_target(n);
    let lo = buckets::d_minus(bucket) as f64 / FILTER_ALPHA;
    let hi = buckets::d_plus(bucket) as f64 * FILTER_ALPHA;
    let mut seen: HashSet<VertexId> = HashSet::new();
    let mut out = Vec::new();
    let mut batch = (4 * target).min(budget);
    let mut examined = 0usize;
    // One permutation for both batch rounds, so the larger batch extends
    // the first batch's prefix exactly and `skip(examined)` stays aligned.
    let tag = rt.fresh_tag();
    loop {
        let samples = suspect_batch(rt, bucket, tag, batch);
        let end = samples.len().min(budget);
        while out.len() < target && examined < end {
            let mut wave = Vec::new();
            while wave.len() < target - out.len() && examined < end {
                let v = samples[examined];
                examined += 1;
                if seen.insert(v) {
                    wave.push(v);
                }
            }
            let estimates = rt.phase("approx-degree", |rt| approx_degrees(rt, &wave, tuning));
            for (vertex, est) in wave.into_iter().zip(estimates) {
                if est.value >= lo && est.value <= hi {
                    out.push(Candidate {
                        vertex,
                        degree_estimate: est.value,
                    });
                }
            }
        }
        let exhausted = samples.len() < batch;
        if out.len() >= target || examined >= budget || batch >= budget || exhausted {
            break;
        }
        batch = budget;
    }
    out
}

/// One batched suspect round: the `count` globally lowest-ranked
/// suspects of `B̃_i` under the public permutation named by `tag`.
fn suspect_batch<R: Recorder>(
    rt: &mut Runtime<R>,
    bucket: usize,
    tag: u64,
    count: usize,
) -> Vec<VertexId> {
    let shared = rt.shared();
    let k = rt.k();
    let mut all: Vec<VertexId> = Vec::new();
    for resp in rt.broadcast(PlayerRequest::SuspectSample {
        bucket,
        k,
        perm_tag: tag,
        count,
    }) {
        if let Payload::Vertices(vs) = resp {
            all.extend(vs);
        }
    }
    all.sort_unstable_by_key(|v| shared.vertex_rank(tag, *v));
    all.dedup();
    all.truncate(count);
    all
}

/// Algorithm 4: samples each edge incident to `v` with the
/// birthday-paradox probability `p ≈ c·√(log n/(ε·d'))` and collects the
/// players' sampled edges (per-player cap per the cutoff rule).
pub fn sample_edges_at<R: Recorder>(
    rt: &mut Runtime<R>,
    candidate: Candidate,
    tuning: &Tuning,
) -> Vec<triad_graph::Edge> {
    let req = incident_sample(rt, candidate, tuning);
    rt.gather_edges(req)
}

/// Algorithm 4's request for one candidate, under a fresh tag.
fn incident_sample<R: Recorder>(
    rt: &mut Runtime<R>,
    candidate: Candidate,
    tuning: &Tuning,
) -> PlayerRequest {
    let n = rt.n();
    // The estimate may be up to ×3 high; sampling for the pessimistic
    // (smaller) degree only raises p, preserving the vee guarantee.
    let p = tuning.edge_sample_probability(n, candidate.degree_estimate / FILTER_ALPHA);
    let cap = tuning.edge_sample_cap(candidate.degree_estimate * FILTER_ALPHA, p);
    PlayerRequest::IncidentEdgesSampled {
        v: candidate.vertex,
        tag: rt.fresh_tag(),
        p,
        cap,
    }
}

/// Algorithm 5: for each candidate, sample its edges, post them to all
/// players, and let anyone holding a closing edge finish the triangle.
///
/// Candidates are tried in waves of 1, 2, 4, …: one round samples a
/// wave's edges (tags drawn in candidate order), one round posts every
/// sample of at least two edges, and the first witness in candidate
/// order wins. On a triangle-free input every candidate is tried, as one
/// at a time; when the `c`-th candidate closes, at most `c − 1` later
/// ones were sampled and posted with it, charged under their usual
/// labels because they crossed the wire.
pub fn find_triangle_vee<R: Recorder>(
    rt: &mut Runtime<R>,
    bucket: usize,
    tuning: &Tuning,
) -> Option<Triangle> {
    let candidates = rt.phase("find-candidates", |rt| {
        get_full_candidates(rt, bucket, tuning)
    });
    let mut rest = candidates.as_slice();
    let mut width = 1;
    while !rest.is_empty() {
        let (wave, later) = rest.split_at(width.min(rest.len()));
        rest = later;
        width *= 2;
        let sampled = rt.phase("sample-edges", |rt| {
            let reqs: Vec<PlayerRequest> = wave
                .iter()
                .map(|&c| incident_sample(rt, c, tuning))
                .collect();
            rt.gather_edges_all(reqs)
        });
        let closings: Vec<PlayerRequest> = sampled
            .into_iter()
            // No vee can exist among fewer than two edges.
            .filter(|edges| edges.len() >= 2)
            .map(|edges| PlayerRequest::FindClosingTriangle { edges })
            .collect();
        if closings.is_empty() {
            continue;
        }
        rt.next_round();
        let mut found = None;
        rt.phase("close-triangle", |rt| {
            rt.broadcast_each(closings, |row| {
                if found.is_none() {
                    found = row.into_iter().find_map(|resp| match resp {
                        Payload::Triangle(Some(t)) => Some(t),
                        _ => None,
                    });
                }
            });
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_comm::{CostModel, SharedRandomness};
    use triad_graph::Edge;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    /// Hub 0 with 12 leaves paired into 6 disjoint vees; the closing
    /// edges live on player 1 only.
    fn book_shares() -> Vec<Vec<Edge>> {
        let mut spokes = Vec::new();
        let mut pages = Vec::new();
        for i in 0..6u32 {
            let a = 1 + 2 * i;
            let b = 2 + 2 * i;
            spokes.push(e(0, a));
            spokes.push(e(0, b));
            pages.push(e(a, b));
        }
        vec![spokes, pages]
    }

    fn runtime(seed: u64) -> Runtime {
        Runtime::local(
            13,
            &book_shares(),
            SharedRandomness::new(seed),
            CostModel::Coordinator,
        )
    }

    #[test]
    fn sample_uniform_respects_bucket() {
        let mut rt = runtime(1);
        // Hub degree (player 0's view) = 12 ⇒ bucket 2 [9,27).
        let tag = rt.fresh_tag();
        let v = sample_uniform_from_btilde(&mut rt, 2, tag);
        assert_eq!(
            v,
            Some(VertexId(0)),
            "only the hub is suspected in bucket 2"
        );
        // Bucket 4 [81,243): nobody qualifies (k=2 ⇒ window [40.5, 243]).
        let tag = rt.fresh_tag();
        assert_eq!(sample_uniform_from_btilde(&mut rt, 4, tag), None);
    }

    #[test]
    fn candidates_include_hub() {
        let mut rt = runtime(2);
        let tuning = Tuning::practical(0.3);
        let cands = get_full_candidates(&mut rt, 2, &tuning);
        assert!(
            cands.iter().any(|c| c.vertex == VertexId(0)),
            "hub must be a candidate, got {cands:?}"
        );
        for c in &cands {
            assert!(c.degree_estimate > 0.0);
        }
    }

    #[test]
    fn candidate_filter_rejects_wrong_bucket() {
        let mut rt = runtime(3);
        let tuning = Tuning::practical(0.3);
        // Bucket 0 [1,3): the leaves qualify (local degree 1–2), and the
        // filter must reject any whose true degree estimate lands far out.
        let cands = get_full_candidates(&mut rt, 0, &tuning);
        for c in &cands {
            assert!(
                c.degree_estimate <= 3.0 * 3.0,
                "leaf estimates stay small: {c:?}"
            );
            assert_ne!(
                c.vertex,
                VertexId(0),
                "hub (degree 12) must be filtered out"
            );
        }
    }

    #[test]
    fn sample_edges_returns_incident_edges() {
        let mut rt = runtime(4);
        let tuning = Tuning::practical(0.3);
        let cand = Candidate {
            vertex: VertexId(0),
            degree_estimate: 12.0,
        };
        let edges = sample_edges_at(&mut rt, cand, &tuning);
        assert!(!edges.is_empty());
        for edge in &edges {
            assert!(edge.is_incident_to(VertexId(0)));
        }
    }

    #[test]
    fn find_triangle_vee_closes_across_players() {
        let mut rt = runtime(5);
        let tuning = Tuning::practical(0.3);
        let t = find_triangle_vee(&mut rt, 2, &tuning)
            .expect("the book graph's hub sources 6 disjoint vees");
        // Verify against the union graph.
        let union = {
            let mut b = triad_graph::GraphBuilder::new(13);
            for s in book_shares() {
                b.extend_edges(s);
            }
            b.build()
        };
        assert!(t.exists_in(&union));
    }

    #[test]
    fn find_triangle_vee_none_without_triangles() {
        // Star only: vees but no closing edges anywhere.
        let spokes: Vec<Edge> = (1..=12).map(|i| e(0, i)).collect();
        let mut rt = Runtime::local(
            13,
            &[spokes, vec![]],
            SharedRandomness::new(6),
            CostModel::Coordinator,
        );
        let tuning = Tuning::practical(0.3);
        assert_eq!(find_triangle_vee(&mut rt, 2, &tuning), None);
    }
}
