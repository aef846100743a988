//! Certified ε-far workloads and the dense-core adversarial instance.
//!
//! [`shifted_triangles`] plants a large *edge-disjoint* triangle family via
//! a Latin-square shift construction on a tripartition, so farness is
//! certified by construction; [`far_graph`] dilutes it with noise edges to
//! hit a target average degree while staying ε-far.
//!
//! [`dense_core`] builds the instance the paper uses in §3.4.2 to motivate
//! bucketing: `h` hub vertices of degree `Θ(n)` source essentially all
//! triangles, so uniform vertex sampling needs `Θ(n/h)` samples to hit one.

use crate::{Edge, Graph, GraphBuilder, GraphError, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Plants `shifts · (n/3)` pairwise edge-disjoint triangles on `n`
/// vertices (`n` rounded down to a multiple of 3).
///
/// The vertices are split into parts `A, B, C` of size `q = n/3`; for each
/// shift `s < shifts` and index `i < q` the triangle
/// `(A[i], B[(i+s) mod q], C[(i+2s) mod q])` is added. Any two of these
/// triangles are edge-disjoint: an `A–B` edge determines `(i, s)`
/// uniquely, and similarly for the other two edge classes.
///
/// The result has `3·shifts·q` edges, average degree `2·shifts·(3q/n) ≈
/// 2·shifts`, and a certified triangle packing of `shifts·q` triangles —
/// i.e. it is `1/3`-far from triangle-free.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 3` or
/// `shifts > n/3` (shifts beyond `q` repeat triangles).
pub fn shifted_triangles(n: usize, shifts: usize) -> Result<Graph, GraphError> {
    let q = n / 3;
    if q == 0 {
        return Err(GraphError::InvalidParameters(format!(
            "n={n} too small, need n>=3"
        )));
    }
    if shifts > q {
        return Err(GraphError::InvalidParameters(format!(
            "shifts={shifts} exceeds part size q={q}"
        )));
    }
    let mut b = GraphBuilder::with_capacity(n, 3 * shifts * q);
    emit_shifted(n, shifts, &mut |e| {
        b.add_edge(e);
    });
    Ok(b.build())
}

/// Emits the three edges of every planted triangle of
/// [`shifted_triangles`] (duplicates possible among `A–C` edges when
/// `q` is even and `shifts > q/2`; consumers deduplicate). Shared with
/// [`crate::store::FarStream`]. No RNG: the construction is
/// deterministic.
pub(crate) fn emit_shifted(n: usize, shifts: usize, emit: &mut dyn FnMut(Edge)) {
    let q = n / 3;
    for s in 0..shifts {
        for i in 0..q {
            let a = VertexId(i as u32);
            let bb = VertexId((q + (i + s) % q) as u32);
            let c = VertexId((2 * q + (i + 2 * s) % q) as u32);
            emit(Edge::new(a, bb));
            emit(Edge::new(bb, c));
            emit(Edge::new(a, c));
        }
    }
}

/// Closed-form membership test for [`shifted_triangles`]`(n, shifts)`:
/// returns whether `e` is an edge of that graph **without building it**.
///
/// Derivation, with `q = n/3`, parts `A = [0, q)`, `B = [q, 2q)`,
/// `C = [2q, 3q)` and triangles `(A[i], B[(i+s) % q], C[(i+2s) % q])`
/// for `s < shifts`:
///
/// * `A[i]–B[j]` exists iff `(j − i) mod q < shifts` (solve for `s`);
/// * `B[j]–C[l]` exists iff `(l − j) mod q < shifts` (the difference of
///   the two offsets is again `s`);
/// * `A[i]–C[l]` exists iff some `s < shifts` solves `2s ≡ l − i
///   (mod q)`: for odd `q` the unique solution is `s = r·(q+1)/2 mod q`
///   with `r = (l − i) mod q`; for even `q` there are solutions only
///   for even `r`, namely `s = r/2` and `s = r/2 + q/2`.
///
/// Exhaustively cross-checked against the materialized graph in this
/// module's tests.
pub fn shifted_has_edge(n: usize, shifts: usize, e: Edge) -> bool {
    let q = n / 3;
    if q == 0 || shifts == 0 {
        return false;
    }
    let (u, v) = (e.u().index(), e.v().index());
    if v >= 3 * q {
        return false;
    }
    let r = (v % q + q - u % q) % q;
    match (u / q, v / q) {
        (0, 1) | (1, 2) => r < shifts,
        (0, 2) => {
            if q % 2 == 1 {
                (r * q.div_ceil(2)) % q < shifts
            } else {
                r.is_multiple_of(2) && (r / 2 < shifts || r / 2 + q / 2 < shifts)
            }
        }
        _ => false,
    }
}

/// Closed-form edge count of [`shifted_triangles`]`(n, shifts)`.
///
/// The `A–B` and `B–C` classes hold `q·shifts` distinct edges each; the
/// `A–C` class holds `q · |{2s mod q : s < shifts}|` — the residues are
/// all distinct when `q` is odd, and collapse pairwise (`s` with
/// `s + q/2`) when `q` is even, leaving `min(shifts, q/2)` per row.
pub fn shifted_edge_count(n: usize, shifts: usize) -> usize {
    let q = n / 3;
    if q == 0 || shifts == 0 {
        return 0;
    }
    let dac = if q % 2 == 1 {
        shifts
    } else {
        shifts.min(q / 2)
    };
    q * (2 * shifts + dac)
}

/// Builds an ε-far graph with `n` vertices and average degree ≈ `d`.
///
/// Plants enough shifted triangles to certify ε-farness at the target edge
/// count, then pads with uniformly random extra edges up to `m = nd/2`.
/// Extra edges can only create additional triangles, so the certificate
/// stands.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when the construction cannot
/// meet the target (requires `ε ≤ 1/3`, `d ≥ 2` and `d ≤ 2n/3`).
pub fn far_graph<R: Rng + ?Sized>(
    n: usize,
    d: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let (shifts, target_edges) = far_plan(n, d, epsilon)?;
    let base = shifted_triangles(n, shifts)?;
    if base.edge_count() >= target_edges {
        return Ok(base);
    }
    let missing = target_edges - base.edge_count();
    let mut extra = Vec::with_capacity(missing);
    emit_far_extras(n, missing, &|e| base.has_edge(e), rng, &mut |e| {
        extra.push(e)
    });
    extra.sort_unstable();
    extra.dedup();
    Ok(base.union_with(&extra))
}

/// Parameter resolution shared by [`far_graph`] and
/// [`crate::store::FarStream`]: validates `(n, d, ε)` and returns the
/// `(shifts, target_edges)` pair both construct from.
pub(crate) fn far_plan(n: usize, d: f64, epsilon: f64) -> Result<(usize, usize), GraphError> {
    if !(0.0..=1.0 / 3.0).contains(&epsilon) {
        return Err(GraphError::InvalidParameters(format!(
            "epsilon={epsilon} outside (0, 1/3]"
        )));
    }
    if d < 2.0 || d > 2.0 * n as f64 / 3.0 {
        return Err(GraphError::InvalidParameters(format!(
            "degree d={d} out of range"
        )));
    }
    let q = n / 3;
    let target_edges = (n as f64 * d / 2.0).round() as usize;
    // shifts·q triangles certify farness shifts·q / m ≥ ε ⇒
    // shifts ≥ ε·m/q. A 1.3 safety margin absorbs the slack of greedy
    // (maximal, not maximum) packing on mixed-shift triangles; clamp to
    // the feasible range.
    let mut shifts = ((1.3 * epsilon * target_edges as f64) / q as f64).ceil() as usize;
    shifts = shifts.clamp(1, q.min(target_edges / (3 * q).max(1)).max(1));
    Ok((shifts, target_edges))
}

/// The noise-padding loop of [`far_graph`], emitting accepted extra
/// edges (duplicates among them possible; consumers deduplicate).
///
/// `is_base` decides membership in the planted base: `far_graph` probes
/// the materialized graph, the stream uses [`shifted_has_edge`]. As
/// long as the two agree — pinned exhaustively in tests — both callers
/// consume the RNG identically and emit the same edge sequence.
pub(crate) fn emit_far_extras<R: Rng + ?Sized>(
    n: usize,
    missing: usize,
    is_base: &dyn Fn(Edge) -> bool,
    rng: &mut R,
    emit: &mut dyn FnMut(Edge),
) {
    let mut emitted = 0usize;
    let mut guard = 0usize;
    while emitted < missing && guard < 50 * missing + 1000 {
        guard += 1;
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let e = Edge::new(VertexId(a), VertexId(b));
        if !is_base(e) {
            emitted += 1;
            emit(e);
        }
    }
}

/// Plants `copies` vertex-disjoint copies of a pattern `H` on the first
/// `copies·|V(H)|` vertices, then pads with `noise_edges` uniformly
/// random extra edges — the workload for `H`-freeness testing (the
/// paper's §5 generalization direction).
///
/// The copies are vertex-disjoint, hence edge-disjoint: the graph is at
/// least `copies / |E|`-far from `H`-free.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if the copies do not fit.
pub fn planted_copies<R: Rng + ?Sized>(
    n: usize,
    pattern: &crate::subgraphs::Pattern,
    copies: usize,
    noise_edges: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let h = pattern.vertices();
    if copies * h > n {
        return Err(GraphError::InvalidParameters(format!(
            "{copies} copies of a {h}-vertex pattern exceed n = {n}"
        )));
    }
    let mut b = GraphBuilder::new(n);
    for c in 0..copies {
        let base = (c * h) as u32;
        for e in pattern.graph().edges() {
            b.add_edge(Edge::new(
                VertexId(base + e.u().0),
                VertexId(base + e.v().0),
            ));
        }
    }
    let mut placed = 0usize;
    let mut guard = 0usize;
    while placed < noise_edges && guard < 50 * noise_edges + 1000 {
        guard += 1;
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if a != c {
            b.add_edge(Edge::new(VertexId(a), VertexId(c)));
            placed += 1;
        }
    }
    Ok(b.build())
}

/// The dense-core instance of §3.4.2, returned with its hub set.
#[derive(Debug, Clone)]
pub struct DenseCore {
    graph: Graph,
    hubs: Vec<VertexId>,
}

impl DenseCore {
    /// The generated graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The high-degree hub vertices that source the triangles.
    pub fn hubs(&self) -> &[VertexId] {
        &self.hubs
    }
}

/// Builds a graph on `n` vertices where `h` hubs of degree ≈ `n - h`
/// source `Θ(n·h)` disjoint triangle-vees: for each hub a random perfect
/// matching on the non-hub vertices supplies the closing edges.
///
/// Uniform vertex sampling needs `Θ(n/h)` draws to land on a hub, which is
/// exactly the failure mode motivating the paper's bucketed search and
/// the `S`-set of AlgLow.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `1 ≤ h` and
/// `n - h ≥ 4`.
pub fn dense_core<R: Rng + ?Sized>(
    n: usize,
    h: usize,
    rng: &mut R,
) -> Result<DenseCore, GraphError> {
    if h == 0 || n < h + 4 {
        return Err(GraphError::InvalidParameters(format!(
            "need 1 <= h and n-h >= 4 (n={n}, h={h})"
        )));
    }
    let hubs: Vec<VertexId> = (0..h).map(|i| VertexId(i as u32)).collect();
    let mut b = GraphBuilder::new(n);
    emit_dense_core(n, h, rng, &mut |e| {
        b.add_edge(e);
    });
    Ok(DenseCore {
        graph: b.build(),
        hubs,
    })
}

/// The sampling core behind [`dense_core`], emitting edges instead of
/// building (duplicate leaf–leaf closers possible when two hubs match
/// the same pair; consumers deduplicate). Shared with
/// [`crate::store::DenseCoreStream`] so both consume the RNG
/// identically under the same seed. Assumes `1 ≤ h` and `n − h ≥ 4`.
pub(crate) fn emit_dense_core<R: Rng + ?Sized>(
    n: usize,
    h: usize,
    rng: &mut R,
    emit: &mut dyn FnMut(Edge),
) {
    let mut perm: Vec<VertexId> = (h..n).map(|i| VertexId(i as u32)).collect();
    for hub in 0..h as u32 {
        perm.shuffle(rng);
        for pair in perm.chunks_exact(2) {
            emit(Edge::new(VertexId(hub), pair[0]));
            emit(Edge::new(VertexId(hub), pair[1]));
            emit(Edge::new(pair[0], pair[1]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distance, triangles};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shifted_triangles_are_edge_disjoint() {
        let n = 30;
        let shifts = 4;
        let g = shifted_triangles(n, shifts).unwrap();
        let q = n / 3;
        assert_eq!(
            g.edge_count(),
            3 * shifts * q,
            "edge-disjointness ⇔ no dedup"
        );
        // Greedy packing is maximal, not maximum; combined shifts can form
        // "mixed" triangles that divert it, but it stays within a factor 3
        // of the planted family (each packed triangle blocks ≤ 3 others).
        let packing = triangles::greedy_triangle_packing(&g);
        assert!(
            packing.len() >= shifts * q / 2,
            "packing {} < {}",
            packing.len(),
            shifts * q / 2
        );
    }

    #[test]
    fn shifted_triangles_is_nearly_third_far() {
        let g = shifted_triangles(60, 5).unwrap();
        assert!(distance::is_certifiably_far(&g, 0.3));
    }

    #[test]
    fn single_shift_is_exactly_third_far() {
        // One shift: the planted triangles are the only triangles and they
        // are vertex-disjoint, so greedy packing recovers them all.
        let g = shifted_triangles(60, 1).unwrap();
        assert!(distance::is_certifiably_far(&g, 1.0 / 3.0));
    }

    #[test]
    fn shifted_triangles_rejects_bad_params() {
        assert!(shifted_triangles(2, 1).is_err());
        assert!(shifted_triangles(30, 11).is_err());
    }

    #[test]
    fn far_graph_hits_degree_and_farness() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 300;
        let d = 10.0;
        let eps = 0.1;
        let g = far_graph(n, d, eps, &mut rng).unwrap();
        let got_d = g.average_degree();
        assert!((got_d - d).abs() < 1.5, "avg degree {got_d} vs target {d}");
        assert!(
            distance::is_certifiably_far(&g, eps),
            "graph must be certified ε-far"
        );
    }

    #[test]
    fn far_graph_parameter_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(far_graph(100, 10.0, 0.5, &mut rng).is_err());
        assert!(far_graph(100, 1.0, 0.1, &mut rng).is_err());
        assert!(far_graph(9, 8.0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn dense_core_structure() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let n = 200;
        let h = 4;
        let dc = dense_core(n, h, &mut rng).unwrap();
        let g = dc.graph();
        assert_eq!(dc.hubs().len(), h);
        for &hub in dc.hubs() {
            assert!(
                g.degree(hub) >= (n - h) - 1,
                "hub degree {} should be ≈ n-h",
                g.degree(hub)
            );
        }
        // Every hub sources many disjoint vees (greedy matching in the
        // link graph is maximal ⇒ at least half the planted n-h/2 vees).
        let vees = triangles::disjoint_vees_at(g, dc.hubs()[0]);
        assert!(vees >= (n - h) / 4, "hub vees {vees}");
        assert!(triangles::contains_triangle(g));
    }

    #[test]
    fn dense_core_low_vertices_have_low_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let dc = dense_core(100, 3, &mut rng).unwrap();
        let g = dc.graph();
        for i in 3..100u32 {
            // each non-hub: one edge per hub matching + per-hub closing edge
            assert!(g.degree(VertexId(i)) <= 2 * 3 + 2, "leaf degree too high");
        }
    }

    #[test]
    fn planted_copies_are_found_and_counted() {
        use crate::subgraphs::{greedy_copy_packing, Pattern};
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let p = Pattern::clique(4);
        let g = planted_copies(60, &p, 5, 20, &mut rng).unwrap();
        assert!(g.edge_count() >= 5 * 6);
        let packing = greedy_copy_packing(&g, &p);
        assert!(packing.len() >= 5, "found only {} K4 copies", packing.len());
    }

    #[test]
    fn planted_copies_rejects_overflow() {
        use crate::subgraphs::Pattern;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(planted_copies(10, &Pattern::clique(4), 5, 0, &mut rng).is_err());
    }

    #[test]
    fn analytic_membership_matches_materialized_exhaustively() {
        // Every part-size parity and every shift count up to q, against
        // every vertex pair — the closed forms must agree bit-for-bit
        // with the built graph (FarStream's RNG replay depends on it).
        for n in [3usize, 6, 9, 10, 12, 15, 16, 21, 30, 31] {
            let q = n / 3;
            for shifts in 0..=q {
                let g = shifted_triangles(n, shifts).unwrap();
                assert_eq!(
                    g.edge_count(),
                    shifted_edge_count(n, shifts),
                    "edge count n={n} shifts={shifts}"
                );
                for u in 0..n as u32 {
                    for v in (u + 1)..n as u32 {
                        let e = Edge::new(VertexId(u), VertexId(v));
                        assert_eq!(
                            g.has_edge(e),
                            shifted_has_edge(n, shifts, e),
                            "membership n={n} shifts={shifts} edge {u}-{v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn analytic_membership_outside_the_parts_is_false() {
        // n not divisible by 3 leaves 3q..n isolated.
        let n = 11;
        let shifts = 2;
        assert!(!shifted_has_edge(
            n,
            shifts,
            Edge::new(VertexId(0), VertexId(10))
        ));
        assert!(!shifted_has_edge(3, 0, Edge::new(VertexId(0), VertexId(1))));
        assert_eq!(shifted_edge_count(2, 1), 0);
    }

    #[test]
    fn dense_core_rejects_bad_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(dense_core(5, 3, &mut rng).is_err());
        assert!(dense_core(10, 0, &mut rng).is_err());
    }
}
