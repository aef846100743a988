//! A player's private state and its request handlers.

use crate::message::Payload;
use crate::rand::SharedRandomness;
use crate::request::PlayerRequest;
use std::sync::{Arc, OnceLock};
use triad_graph::kernels::EdgeBitset;
use triad_graph::partition::Partition;
use triad_graph::{CsrAdjacency, Edge, Triangle, VertexId};

/// One player's private input `E_j`: the deduplicated share in sorted
/// order, plus its local adjacency built on first use.
///
/// Every tester reads the sorted share; only requests about local
/// neighbourhoods, degrees or edge membership (the unrestricted
/// protocols') read the adjacency, so a one-round tester never builds it.
///
/// Players never see each other's state; all interaction flows through
/// [`PlayerRequest`]s (unrestricted protocols) or one-shot messages
/// (simultaneous protocols).
#[derive(Debug, Clone)]
pub struct PlayerState {
    id: usize,
    n: usize,
    /// `shares[index]` is the share over the global vertex-id space
    /// `0..n`, sorted and deduplicated: the stable slice the simultaneous
    /// baselines borrow into a [`Payload::Edges`] without cloning (see
    /// `docs/RUNTIME.md`). Players built from a [`Partition`] hold its
    /// lists; [`PlayerState::new`] holds a one-list copy.
    shares: Arc<[Vec<Edge>]>,
    index: usize,
    /// The share's local adjacency, built by the first call that reads a
    /// neighbourhood, a degree or edge membership.
    local: OnceLock<Local>,
    /// The share packed as an [`EdgeBitset`], built lazily on first use
    /// and reused for every repetition — the bitset counterpart of the
    /// borrowable [`share`](Self::share) slice, so dense-representation
    /// baselines stay allocation-free per run too.
    share_bits: OnceLock<EdgeBitset>,
}

/// The lazily built local index over a player's share.
#[derive(Debug, Clone)]
struct Local {
    adjacency: CsrAdjacency,
    /// Vertices with positive local degree, for suspect-set scans.
    occupied: Vec<VertexId>,
}

impl PlayerState {
    /// Builds player `id`'s state over a graph on `n` vertices from a
    /// sorted copy of its edge share (duplicates within the share are
    /// collapsed).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn new(id: usize, n: usize, share: &[Edge]) -> Self {
        let edges = if is_sorted_in_range(share, n) {
            share.to_vec()
        } else {
            sorted_copy(share)
        };
        Self::holding(id, n, Arc::new([edges]), 0)
    }

    /// Player `id` over `shares[index]`, which must be sorted and
    /// distinct with endpoints below `n`.
    fn holding(id: usize, n: usize, shares: Arc<[Vec<Edge>]>, index: usize) -> Self {
        PlayerState {
            id,
            n,
            shares,
            index,
            local: OnceLock::new(),
            share_bits: OnceLock::new(),
        }
    }

    /// The local adjacency, built on first use.
    fn local(&self) -> &Local {
        self.local.get_or_init(|| {
            let adjacency = CsrAdjacency::from_sorted_edges(self.n, self.share());
            let occupied = (0..self.n)
                .map(VertexId::from_index)
                .filter(|v| adjacency.degree(*v) > 0)
                .collect();
            Local {
                adjacency,
                occupied,
            }
        })
    }

    /// Whether the local adjacency has been built yet.
    #[cfg(test)]
    fn adjacency_built(&self) -> bool {
        self.local.get().is_some()
    }

    /// The player's distinct edges, sorted — the borrowable counterpart of
    /// [`edges`](Self::edges) for zero-copy message construction.
    pub fn share(&self) -> &[Edge] {
        &self.shares[self.index]
    }

    /// The share as a packed [`EdgeBitset`], built once per player and
    /// borrowable into a [`crate::Payload::EdgeBits`]
    /// without cloning — the dense-representation twin of
    /// [`share`](Self::share).
    pub fn share_bitset(&self) -> &EdgeBitset {
        self.share_bits
            .get_or_init(|| EdgeBitset::from_edges(self.n, self.share().iter().copied()))
    }

    /// The player's index `j ∈ 0..k`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of vertices in the (global) graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct edges this player holds.
    pub fn edge_count(&self) -> usize {
        self.share().len()
    }

    /// The player's local degree `d_j(v)`.
    pub fn local_degree(&self, v: VertexId) -> usize {
        self.local().adjacency.degree(v)
    }

    /// The player's local neighbors of `v`, sorted.
    pub fn local_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.local().adjacency.neighbors(v)
    }

    /// The average degree `d̄_j` of the player's own input — the quantity
    /// the degree-oblivious simultaneous protocol keys its guesses on.
    pub fn local_average_degree(&self) -> f64 {
        2.0 * self.edge_count() as f64 / self.n().max(1) as f64
    }

    /// Does the player hold `e`? (`false` for endpoints outside `0..n`.)
    pub fn has_edge(&self, e: Edge) -> bool {
        self.local().adjacency.has_edge(e)
    }

    /// Iterates the player's distinct edges in sorted order, so a capped
    /// scan posts the same prefix in every process.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.share().iter()
    }

    /// Handles one coordinator request. Pure with respect to the player's
    /// state; all randomness comes from the shared string. The response is
    /// owned (`'static`): it crosses the transport boundary, possibly over
    /// a channel to another thread.
    pub fn handle(&self, req: &PlayerRequest, shared: &SharedRandomness) -> Payload<'static> {
        match req {
            PlayerRequest::HasEdge(e) => Payload::Bit(self.has_edge(*e)),
            PlayerRequest::FirstIncidentEdge { v, perm_tag } => {
                let best = self
                    .local_neighbors(*v)
                    .iter()
                    .map(|u| Edge::new(*v, *u))
                    .min_by_key(|e| shared.edge_rank(*perm_tag, *e));
                Payload::Edge(best)
            }
            PlayerRequest::FirstEdge { perm_tag } => {
                let best = self
                    .edges()
                    .copied()
                    .min_by_key(|e| shared.edge_rank(*perm_tag, *e));
                Payload::Edge(best)
            }
            PlayerRequest::LocalDegree { v } => Payload::Count(self.local_degree(*v) as u64),
            PlayerRequest::LocalEdgeCount => Payload::Count(self.edge_count() as u64),
            PlayerRequest::EdgeCountMsb => {
                let c = self.edge_count() as u64;
                Payload::Count(if c == 0 {
                    0
                } else {
                    64 - c.leading_zeros() as u64
                })
            }
            PlayerRequest::GlobalSampleHit { tag, p } => {
                Payload::Bit(self.edges().any(|e| shared.edge_sampled(*tag, *e, *p)))
            }
            PlayerRequest::DegreeMsb { v } => {
                let d = self.local_degree(*v) as u64;
                Payload::Count(if d == 0 {
                    0
                } else {
                    64 - d.leading_zeros() as u64
                })
            }
            PlayerRequest::DegreePrefix { v, prefix_bits } => {
                let d = self.local_degree(*v) as u64;
                let width: u64 = 64 - u64::from(d.leading_zeros().min(63));
                let truncated = if width > u64::from(*prefix_bits) {
                    let drop = width - u64::from(*prefix_bits);
                    (d >> drop) << drop
                } else {
                    d
                };
                // Cost: the kept prefix plus the exponent (≈ loglog d).
                let cost = u64::from(*prefix_bits) + crate::bits::bits_for_count(width.max(1));
                Payload::Bits(truncated, cost as u32)
            }
            PlayerRequest::SampleHit { v, tag, p } => {
                let hit = self
                    .local_neighbors(*v)
                    .iter()
                    .any(|u| shared.vertex_sampled(*tag, *u, *p));
                Payload::Bit(hit)
            }
            PlayerRequest::FirstSuspectInBucket {
                bucket,
                k,
                perm_tag,
            } => {
                let best = self
                    .suspects(*bucket, *k)
                    .min_by_key(|v| shared.vertex_rank(*perm_tag, *v));
                Payload::Vertex(best)
            }
            PlayerRequest::SuspectSample {
                bucket,
                k,
                perm_tag,
                count,
            } => {
                let mut ranked: Vec<VertexId> = self.suspects(*bucket, *k).collect();
                ranked.sort_unstable_by_key(|v| shared.vertex_rank(*perm_tag, *v));
                ranked.truncate(*count);
                Payload::Vertices(ranked)
            }
            PlayerRequest::IncidentEdgesSampled { v, tag, p, cap } => {
                let mut out = Vec::new();
                for u in self.local_neighbors(*v) {
                    if shared.vertex_sampled(*tag, *u, *p) {
                        out.push(Edge::new(*v, *u));
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
            PlayerRequest::FindClosingTriangle { edges } => {
                Payload::Triangle(self.close_any_vee(edges))
            }
            PlayerRequest::InducedEdges { tag, p, cap } => {
                let mut out = Vec::new();
                for e in self.edges() {
                    if shared.vertex_sampled(*tag, e.u(), *p)
                        && shared.vertex_sampled(*tag, e.v(), *p)
                    {
                        out.push(*e);
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
            PlayerRequest::RsEdges {
                r_tag,
                p_r,
                s_tag,
                p_s,
                cap,
            } => {
                let in_r = |v: VertexId| shared.vertex_sampled(*r_tag, v, *p_r);
                let in_rs = |v: VertexId| in_r(v) || shared.vertex_sampled(*s_tag, v, *p_s);
                let mut out = Vec::new();
                for e in self.edges() {
                    let (u, v) = e.endpoints();
                    if (in_r(u) && in_rs(v)) || (in_r(v) && in_rs(u)) {
                        out.push(*e);
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
        }
    }

    /// The player's suspect set `B̃_i^j = {v : 3^i/k ≤ d_j(v) ≤ 3^{i+1}}`
    /// for bucket `i` (only vertices of positive local degree are
    /// scanned).
    fn suspects(&self, bucket: usize, k: usize) -> impl Iterator<Item = VertexId> + '_ {
        let lo = 3f64.powi(bucket as i32) / k as f64;
        let hi = 3f64.powi(bucket as i32 + 1);
        let local = self.local();
        local.occupied.iter().copied().filter(move |v| {
            let d = local.adjacency.degree(*v) as f64;
            d >= lo && d <= hi
        })
    }

    /// Scans candidate edges for a vee whose closing edge is in this
    /// player's input; returns the completed triangle if found.
    ///
    /// Local computation is free in the model; this is the step that makes
    /// vee-finding sufficient for triangle-finding in the communication
    /// setting (§3.3's key observation).
    pub fn close_any_vee(&self, candidates: &[Edge]) -> Option<Triangle> {
        // Group candidate edges by endpoint in vertex order, so the
        // triangle named depends only on the candidate set: sorted
        // (endpoint, other) pairs, then every pair within one endpoint.
        let mut ends: Vec<(VertexId, VertexId)> = candidates
            .iter()
            .flat_map(|e| [(e.u(), e.v()), (e.v(), e.u())])
            .collect();
        ends.sort_unstable();
        ends.dedup();
        let adjacency = &self.local().adjacency;
        for group in ends.chunk_by(|x, y| x.0 == y.0) {
            for (i, &(s, a)) in group.iter().enumerate() {
                for &(_, b) in &group[i + 1..] {
                    if adjacency.has_edge(Edge::new(a, b)) {
                        return Some(Triangle::new(s, a, b));
                    }
                }
            }
        }
        None
    }
}

/// Whether `share` is strictly increasing with every endpoint below `n`.
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
fn is_sorted_in_range(share: &[Edge], n: usize) -> bool {
    // Canonical edges have `u < v`, so `v` bounds both endpoints.
    assert!(
        share.iter().all(|e| e.v().index() < n),
        "edge endpoint out of range"
    );
    share.is_sorted_by(|a, b| a < b)
}

/// `share` sorted, without duplicates.
fn sorted_copy(share: &[Edge]) -> Vec<Edge> {
    let mut edges = share.to_vec();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Builds the `k` player states from copies of `shares`.
pub fn players_from_shares(n: usize, shares: &[Vec<Edge>]) -> Vec<PlayerState> {
    shares
        .iter()
        .enumerate()
        .map(|(j, s)| PlayerState::new(j, n, s))
        .collect()
}

/// Builds the `k` player states over `partition`'s own lists. A share
/// that is not sorted and distinct gets a sorted copy; a scheme-built
/// partition ([`Partition::canonical_below`]) is not scanned at all.
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
pub fn players_from_partition(n: usize, partition: &Partition) -> Vec<PlayerState> {
    let trusted = partition.canonical_below(n);
    let shares = partition.shares_arc();
    shares
        .iter()
        .enumerate()
        .map(|(j, s)| {
            if trusted || is_sorted_in_range(s, n) {
                PlayerState::holding(j, n, Arc::clone(shares), j)
            } else {
                PlayerState::holding(j, n, Arc::new([sorted_copy(s)]), 0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::{HashMap, HashSet};

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    fn player() -> PlayerState {
        PlayerState::new(0, 6, &[e(0, 1), e(1, 2), e(0, 2), e(3, 4), e(0, 1)])
    }

    #[test]
    fn dedups_and_indexes() {
        let p = player();
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.local_degree(VertexId(0)), 2);
        assert_eq!(p.local_degree(VertexId(5)), 0);
        assert_eq!(p.local_neighbors(VertexId(1)), &[VertexId(0), VertexId(2)]);
        assert!(p.has_edge(e(1, 0)));
        assert!(!p.has_edge(e(0, 3)));
        assert_eq!(p.id(), 0);
        assert_eq!(p.n(), 6);
        assert!((p.local_average_degree() - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn share_bitset_is_the_share_built_once() {
        let p = player();
        assert_eq!(p.share_bitset().to_edges(), p.share());
        assert_eq!(p.share_bitset().len(), p.edge_count());
        assert!(
            std::ptr::eq(p.share_bitset(), p.share_bitset()),
            "the bitset is cached, not rebuilt"
        );
    }

    #[test]
    fn handle_has_edge_and_degrees() {
        let p = player();
        let s = SharedRandomness::new(1);
        assert_eq!(
            p.handle(&PlayerRequest::HasEdge(e(0, 1)), &s),
            Payload::Bit(true)
        );
        assert_eq!(
            p.handle(&PlayerRequest::LocalDegree { v: VertexId(0) }, &s),
            Payload::Count(2)
        );
        assert_eq!(
            p.handle(&PlayerRequest::LocalEdgeCount, &s),
            Payload::Count(4)
        );
        // degree 2 ⇒ MSB index+1 = 2
        assert_eq!(
            p.handle(&PlayerRequest::DegreeMsb { v: VertexId(0) }, &s),
            Payload::Count(2)
        );
        assert_eq!(
            p.handle(&PlayerRequest::DegreeMsb { v: VertexId(5) }, &s),
            Payload::Count(0)
        );
    }

    #[test]
    fn degree_prefix_truncates() {
        // Degree 13 = 0b1101; keep top 2 bits → 0b1100 = 12.
        let edges: Vec<Edge> = (1..=13).map(|i| e(0, i)).collect();
        let p = PlayerState::new(0, 20, &edges);
        let s = SharedRandomness::new(0);
        match p.handle(
            &PlayerRequest::DegreePrefix {
                v: VertexId(0),
                prefix_bits: 2,
            },
            &s,
        ) {
            Payload::Bits(v, _) => assert_eq!(v, 12),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn first_incident_edge_is_min_rank_and_consistent() {
        let p = player();
        let s = SharedRandomness::new(99);
        let r1 = p.handle(
            &PlayerRequest::FirstIncidentEdge {
                v: VertexId(0),
                perm_tag: 5,
            },
            &s,
        );
        let r2 = p.handle(
            &PlayerRequest::FirstIncidentEdge {
                v: VertexId(0),
                perm_tag: 5,
            },
            &s,
        );
        assert_eq!(r1, r2);
        match r1 {
            Payload::Edge(Some(edge)) => assert!(edge.is_incident_to(VertexId(0))),
            other => panic!("unexpected {other:?}"),
        }
        // vertex with no incident edges → None
        assert_eq!(
            p.handle(
                &PlayerRequest::FirstIncidentEdge {
                    v: VertexId(5),
                    perm_tag: 5
                },
                &s
            ),
            Payload::Edge(None)
        );
    }

    #[test]
    fn sample_hit_respects_probability_extremes() {
        let p = player();
        let s = SharedRandomness::new(2);
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(0),
                    tag: 1,
                    p: 1.0
                },
                &s
            ),
            Payload::Bit(true)
        );
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(0),
                    tag: 1,
                    p: 0.0
                },
                &s
            ),
            Payload::Bit(false)
        );
        // isolated vertex never hits
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(5),
                    tag: 1,
                    p: 1.0
                },
                &s
            ),
            Payload::Bit(false)
        );
    }

    #[test]
    fn suspect_set_respects_local_degree_window() {
        // Player sees only 1 of hub's 9 edges: hub is suspect for bucket 2
        // ([9,27)) only because 9/k ≤ 1 when k ≥ 9.
        let edges: Vec<Edge> = vec![e(0, 1)];
        let p = PlayerState::new(0, 30, &edges);
        let s = SharedRandomness::new(1);
        let with_k9 = p.handle(
            &PlayerRequest::FirstSuspectInBucket {
                bucket: 2,
                k: 9,
                perm_tag: 0,
            },
            &s,
        );
        assert!(matches!(with_k9, Payload::Vertex(Some(_))));
        let with_k2 = p.handle(
            &PlayerRequest::FirstSuspectInBucket {
                bucket: 2,
                k: 2,
                perm_tag: 0,
            },
            &s,
        );
        assert_eq!(with_k2, Payload::Vertex(None));
    }

    #[test]
    fn incident_edges_sampled_caps() {
        let edges: Vec<Edge> = (1..=20).map(|i| e(0, i)).collect();
        let p = PlayerState::new(0, 30, &edges);
        let s = SharedRandomness::new(8);
        match p.handle(
            &PlayerRequest::IncidentEdgesSampled {
                v: VertexId(0),
                tag: 3,
                p: 1.0,
                cap: 5,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_any_vee_finds_triangle() {
        // Player holds the closing edge (1,2); candidates form a vee at 0.
        let p = PlayerState::new(0, 4, &[e(1, 2)]);
        let found = p.close_any_vee(&[e(0, 1), e(0, 2)]);
        assert_eq!(
            found,
            Some(Triangle::new(VertexId(0), VertexId(1), VertexId(2)))
        );
        assert_eq!(p.close_any_vee(&[e(0, 1), e(0, 3)]), None);
        assert_eq!(p.close_any_vee(&[]), None);
    }

    #[test]
    fn induced_and_rs_handlers_filter() {
        let p = player();
        let s = SharedRandomness::new(4);
        match p.handle(
            &PlayerRequest::InducedEdges {
                tag: 0,
                p: 1.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        match p.handle(
            &PlayerRequest::InducedEdges {
                tag: 0,
                p: 0.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert!(es.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // R = everything ⇒ all edges qualify.
        match p.handle(
            &PlayerRequest::RsEdges {
                r_tag: 1,
                p_r: 1.0,
                s_tag: 2,
                p_s: 0.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        // R = nothing ⇒ no edge has an R endpoint.
        match p.handle(
            &PlayerRequest::RsEdges {
                r_tag: 1,
                p_r: 0.0,
                s_tag: 2,
                p_s: 1.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert!(es.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A test oracle answering every request from a `HashSet` of edges and
    /// per-vertex sorted neighbor lists; capped scans take the sorted
    /// prefix of the qualifying edges.
    struct Oracle {
        set: HashSet<Edge>,
        adj: Vec<Vec<VertexId>>,
    }

    impl Oracle {
        fn new(n: usize, share: &[Edge]) -> Self {
            let set: HashSet<Edge> = share.iter().copied().collect();
            let mut adj = vec![Vec::new(); n];
            for e in &set {
                adj[e.u().index()].push(e.v());
                adj[e.v().index()].push(e.u());
            }
            for list in &mut adj {
                list.sort_unstable();
            }
            Oracle { set, adj }
        }

        fn degree(&self, v: VertexId) -> u64 {
            self.adj[v.index()].len() as u64
        }

        fn capped(&self, keep: impl Fn(Edge) -> bool, cap: usize) -> Payload<'static> {
            let mut sorted: Vec<Edge> = self.set.iter().copied().collect();
            sorted.sort_unstable();
            sorted.retain(|e| keep(*e));
            sorted.truncate(cap);
            Payload::Edges(sorted.into())
        }

        fn suspects(&self, bucket: usize, k: usize) -> Vec<VertexId> {
            let (lo, hi) = (
                3f64.powi(bucket as i32) / k as f64,
                3f64.powi(bucket as i32 + 1),
            );
            (0..self.adj.len())
                .map(VertexId::from_index)
                .filter(|v| {
                    let d = self.degree(*v) as f64;
                    d > 0.0 && d >= lo && d <= hi
                })
                .collect()
        }

        fn answer(&self, req: &PlayerRequest, s: &SharedRandomness) -> Payload<'static> {
            let msb = |x: u64| 64 - u64::from(x.leading_zeros());
            match req {
                PlayerRequest::HasEdge(e) => Payload::Bit(self.set.contains(e)),
                PlayerRequest::FirstIncidentEdge { v, perm_tag } => Payload::Edge(
                    self.adj[v.index()]
                        .iter()
                        .map(|u| Edge::new(*v, *u))
                        .min_by_key(|e| s.edge_rank(*perm_tag, *e)),
                ),
                PlayerRequest::FirstEdge { perm_tag } => Payload::Edge(
                    self.set
                        .iter()
                        .copied()
                        .min_by_key(|e| s.edge_rank(*perm_tag, *e)),
                ),
                PlayerRequest::LocalDegree { v } => Payload::Count(self.degree(*v)),
                PlayerRequest::LocalEdgeCount => Payload::Count(self.set.len() as u64),
                PlayerRequest::EdgeCountMsb => Payload::Count(msb(self.set.len() as u64)),
                PlayerRequest::GlobalSampleHit { tag, p } => {
                    Payload::Bit(self.set.iter().any(|e| s.edge_sampled(*tag, *e, *p)))
                }
                PlayerRequest::DegreeMsb { v } => Payload::Count(msb(self.degree(*v))),
                PlayerRequest::DegreePrefix { v, prefix_bits } => {
                    let d = self.degree(*v);
                    let width = msb(d).max(1);
                    let drop = width.saturating_sub(u64::from(*prefix_bits));
                    let cost = u64::from(*prefix_bits) + crate::bits::bits_for_count(width);
                    Payload::Bits((d >> drop) << drop, cost as u32)
                }
                PlayerRequest::SampleHit { v, tag, p } => Payload::Bit(
                    self.adj[v.index()]
                        .iter()
                        .any(|u| s.vertex_sampled(*tag, *u, *p)),
                ),
                PlayerRequest::FirstSuspectInBucket {
                    bucket,
                    k,
                    perm_tag,
                } => Payload::Vertex(
                    self.suspects(*bucket, *k)
                        .into_iter()
                        .min_by_key(|v| s.vertex_rank(*perm_tag, *v)),
                ),
                PlayerRequest::SuspectSample {
                    bucket,
                    k,
                    perm_tag,
                    count,
                } => {
                    let mut ranked = self.suspects(*bucket, *k);
                    ranked.sort_by_key(|v| s.vertex_rank(*perm_tag, *v));
                    ranked.truncate(*count);
                    Payload::Vertices(ranked)
                }
                PlayerRequest::IncidentEdgesSampled { v, tag, p, cap } => self.capped(
                    |e| e.other(*v).is_some_and(|u| s.vertex_sampled(*tag, u, *p)),
                    *cap,
                ),
                PlayerRequest::FindClosingTriangle { edges } => {
                    // Any triangle made of two candidates and one held edge.
                    let found = edges.iter().enumerate().find_map(|(i, a)| {
                        edges[i + 1..].iter().find_map(|b| {
                            let s = a.shared_endpoint(*b)?;
                            let (x, y) = (a.other(s)?, b.other(s)?);
                            (x != y && self.set.contains(&Edge::new(x, y)))
                                .then(|| Triangle::new(s, x, y))
                        })
                    });
                    Payload::Triangle(found)
                }
                PlayerRequest::InducedEdges { tag, p, cap } => self.capped(
                    |e| s.vertex_sampled(*tag, e.u(), *p) && s.vertex_sampled(*tag, e.v(), *p),
                    *cap,
                ),
                PlayerRequest::RsEdges {
                    r_tag,
                    p_r,
                    s_tag,
                    p_s,
                    cap,
                } => {
                    let in_r = |v: VertexId| s.vertex_sampled(*r_tag, v, *p_r);
                    let in_rs = |v: VertexId| in_r(v) || s.vertex_sampled(*s_tag, v, *p_s);
                    self.capped(
                        |e| (in_r(e.u()) && in_rs(e.v())) || (in_r(e.v()) && in_rs(e.u())),
                        *cap,
                    )
                }
            }
        }
    }

    /// A random share on `n` vertices, with both endpoint orders and some
    /// edges twice.
    fn random_share(rng: &mut ChaCha8Rng, n: usize) -> Vec<Edge> {
        let mut share = Vec::new();
        for _ in 0..rng.gen_range(0..3 * n) {
            let a = VertexId(rng.gen_range(0..n as u32));
            let b = VertexId(rng.gen_range(0..n as u32));
            if a != b {
                share.push(Edge::new(a, b));
                if rng.gen_bool(0.3) {
                    share.push(Edge::new(b, a));
                }
            }
        }
        share
    }

    /// Random requests of every variant over `0..n`.
    fn random_requests(rng: &mut ChaCha8Rng, n: usize, trial: u64) -> Vec<PlayerRequest> {
        let v = |rng: &mut ChaCha8Rng| VertexId(rng.gen_range(0..n as u32));
        let p = |rng: &mut ChaCha8Rng| [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)];
        let mut requests = vec![
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::EdgeCountMsb,
            PlayerRequest::FirstEdge {
                perm_tag: trial + 1,
            },
        ];
        for _ in 0..n {
            let (a, b) = (v(rng), v(rng));
            if a != b {
                requests.push(PlayerRequest::HasEdge(Edge::new(a, b)));
            }
            let cands: Vec<Edge> = (0..rng.gen_range(0..6usize))
                .map(|_| (v(rng), v(rng)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Edge::new(a, b))
                .collect();
            let (bucket, k) = (rng.gen_range(0..4), rng.gen_range(1..5));
            let (tag, cap) = (rng.gen_range(0..9), rng.gen_range(1..6));
            let v = v(rng);
            requests.extend([
                PlayerRequest::FirstIncidentEdge { v, perm_tag: tag },
                PlayerRequest::LocalDegree { v },
                PlayerRequest::GlobalSampleHit { tag, p: p(rng) },
                PlayerRequest::DegreeMsb { v },
                PlayerRequest::DegreePrefix {
                    v,
                    prefix_bits: rng.gen_range(1..4),
                },
                PlayerRequest::SampleHit { v, tag, p: p(rng) },
                PlayerRequest::FirstSuspectInBucket {
                    bucket,
                    k,
                    perm_tag: tag,
                },
                PlayerRequest::SuspectSample {
                    bucket,
                    k,
                    perm_tag: tag,
                    count: cap,
                },
                PlayerRequest::IncidentEdgesSampled {
                    v,
                    tag,
                    p: p(rng),
                    cap,
                },
                PlayerRequest::FindClosingTriangle { edges: cands },
                PlayerRequest::InducedEdges {
                    tag,
                    p: p(rng),
                    cap,
                },
                PlayerRequest::RsEdges {
                    r_tag: tag,
                    p_r: p(rng),
                    s_tag: tag + 1,
                    p_s: p(rng),
                    cap,
                },
            ]);
        }
        requests
    }

    #[test]
    fn every_request_matches_a_hash_set_oracle_on_random_shares() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for trial in 0..40 {
            let n: usize = rng.gen_range(2..40);
            let share = random_share(&mut rng, n);
            let oracle = Oracle::new(n, &share);
            let shared = SharedRandomness::new(trial);
            // A fresh state per request variant, so every handler is also
            // checked as the first call to touch the lazy adjacency.
            let mut states = HashMap::new();
            for req in &random_requests(&mut rng, n, trial) {
                let state = states
                    .entry(std::mem::discriminant(req))
                    .or_insert_with(|| PlayerState::new(0, n, &share));
                let (got, want) = (state.handle(req, &shared), oracle.answer(req, &shared));
                match (&got, &want, req) {
                    // Any closing triangle is a correct answer: check that
                    // the player's is real rather than the same one.
                    (
                        Payload::Triangle(Some(t)),
                        Payload::Triangle(Some(_)),
                        PlayerRequest::FindClosingTriangle { edges },
                    ) => {
                        let held = t.edges().iter().filter(|e| oracle.set.contains(e)).count();
                        let posted = t.edges().iter().filter(|e| edges.contains(e)).count();
                        assert!(held >= 1 && posted >= 2, "trial {trial}: {t} for {req:?}");
                    }
                    _ => assert_eq!(got, want, "trial {trial}: {req:?}"),
                }
            }
            // Endpoints outside the vertex range are simply not held.
            let state = PlayerState::new(0, n, &share);
            for far in [n as u32, n as u32 + 7] {
                assert!(!state.has_edge(Edge::new(VertexId(0), VertexId(far))));
            }
            assert!(!state.has_edge(Edge::new(VertexId(n as u32), VertexId(n as u32 + 1))));
        }
    }

    #[test]
    fn share_reads_leave_the_adjacency_unbuilt() {
        let p = player();
        let s = SharedRandomness::new(3);
        // Everything a one-round tester reads: the sorted share, its
        // size, the bitset, and the share-scanning requests.
        assert_eq!(p.edges().count(), p.share().len());
        assert_eq!((p.n(), p.edge_count()), (6, 4));
        assert!(p.local_average_degree() > 0.0);
        assert_eq!(p.share_bitset().len(), 4);
        for req in [
            PlayerRequest::FirstEdge { perm_tag: 1 },
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::EdgeCountMsb,
            PlayerRequest::GlobalSampleHit { tag: 1, p: 0.5 },
            PlayerRequest::InducedEdges {
                tag: 2,
                p: 0.5,
                cap: 3,
            },
            PlayerRequest::RsEdges {
                r_tag: 3,
                p_r: 0.5,
                s_tag: 4,
                p_s: 0.5,
                cap: 3,
            },
        ] {
            p.handle(&req, &s);
        }
        assert!(!p.adjacency_built());
        // Each neighbourhood, degree or membership read builds it.
        let reads: [&dyn Fn(&PlayerState); 5] = [
            &|p| assert_eq!(p.local_degree(VertexId(0)), 2),
            &|p| assert_eq!(p.local_neighbors(VertexId(3)), &[VertexId(4)]),
            &|p| assert!(p.has_edge(e(1, 2))),
            &|p| assert!(p.close_any_vee(&[e(0, 3), e(0, 4)]).is_some()),
            &|p| {
                let suspects = PlayerRequest::FirstSuspectInBucket {
                    bucket: 0,
                    k: 1,
                    perm_tag: 0,
                };
                assert!(matches!(p.handle(&suspects, &s), Payload::Vertex(Some(_))));
            },
        ];
        for read in reads {
            let p = player();
            read(&p);
            assert!(p.adjacency_built());
        }
    }

    #[test]
    fn concurrent_first_requests_agree_with_a_serial_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let n = 60;
        let share = random_share(&mut rng, n);
        let requests = random_requests(&mut rng, n, 8);
        let shared = SharedRandomness::new(8);
        let serial = PlayerState::new(0, n, &share);
        let want: Vec<Payload<'static>> =
            requests.iter().map(|r| serial.handle(r, &shared)).collect();
        let state = PlayerState::new(0, n, &share);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (state, requests, want, barrier) = (&state, &requests, &want, &barrier);
                let shared = &shared;
                scope.spawn(move || {
                    barrier.wait();
                    // Each thread starts at a different request, so
                    // different handlers race to build the adjacency.
                    for i in 0..requests.len() {
                        let j = (i + t * 13) % requests.len();
                        assert_eq!(
                            state.handle(&requests[j], shared),
                            want[j],
                            "{:?}",
                            requests[j]
                        );
                    }
                });
            }
        });
        assert!(state.adjacency_built());
    }

    #[test]
    fn closing_triangle_is_the_same_on_every_call_and_state() {
        // Four hubs 13..17 each close a vee over one held edge; grouping
        // in vertex order names the lowest hub's triangle.
        let share = [e(1, 2), e(3, 4), e(5, 6), e(7, 8)];
        let mut edges = Vec::new();
        for (hub, (a, b)) in (13..17).zip([(1, 2), (3, 4), (5, 6), (7, 8)]).rev() {
            edges.extend([e(hub, b), e(a, hub)]);
        }
        let req = PlayerRequest::FindClosingTriangle { edges };
        let s = SharedRandomness::new(1);
        let answers: Vec<Payload<'static>> = (0..2)
            .flat_map(|_| {
                let p = PlayerState::new(0, 18, &share);
                [p.handle(&req, &s), p.handle(&req, &s)]
            })
            .collect();
        let want = Payload::Triangle(Some(Triangle::new(VertexId(13), VertexId(1), VertexId(2))));
        assert!(answers.iter().all(|a| *a == want), "{answers:?}");
    }

    #[test]
    fn players_from_shares_builds_all() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2), e(2, 3)]];
        let ps = players_from_shares(5, &shares);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].id(), 0);
        assert_eq!(ps[1].edge_count(), 2);
    }
}
