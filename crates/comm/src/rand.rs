//! Shared (public) randomness.
//!
//! The paper assumes the players and the coordinator share a public random
//! string; agreeing on a sample or a random permutation therefore costs no
//! communication. We realize the shared string as a keyed pseudorandom
//! function over `(seed, tag, item)`: every party evaluates the same
//! function locally, so sampled sets and permutation ranks are consistent
//! across players, threads and runtimes without exchanging a single bit.
//!
//! Tags namespace independent uses (one tag per sampling round, permutation
//! draw, etc.); protocols derive fresh tags from a counter.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use triad_graph::{Edge, VertexId};

/// The public random string, realized as a PRF keyed by `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedRandomness {
    seed: u64,
}

/// SplitMix64 finalizer — a fast, well-mixed 64-bit permutation. Used as
/// the PRF core here and as the seed-derivation mix for amplification
/// repetitions (`triad-protocols::amplify`): unlike affine schemes such
/// as `base + r·c`, nearby `(base, r)` pairs never collide into the same
/// stream.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

use mix64 as mix;

/// 2⁵³: [`SharedRandomness::unit`] draws multiples of its inverse.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// A public vertex set hoisted out of a loop; see
/// [`SharedRandomness::vertex_set`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexSet {
    /// The PRF key of the set's tag.
    key: u64,
    /// ⌈p·2⁵³⌉: a vertex is in the set when its 53-bit draw is below it.
    bound: u64,
}

impl VertexSet {
    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        (mix(self.key ^ u64::from(v.0)) >> 11) < self.bound
    }
}

impl SharedRandomness {
    /// Shared randomness derived from a public seed.
    pub fn new(seed: u64) -> Self {
        SharedRandomness { seed }
    }

    /// The seed (public by definition).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// PRF evaluation on `(tag, item)`.
    #[inline]
    pub fn value(&self, tag: u64, item: u64) -> u64 {
        mix(mix(self.seed ^ mix(tag)) ^ item)
    }

    /// A uniform `f64` in `[0, 1)` for `(tag, item)`.
    #[inline]
    pub fn unit(&self, tag: u64, item: u64) -> f64 {
        // 53 top bits → uniform double in [0,1).
        (self.value(tag, item) >> 11) as f64 * (1.0 / UNIT_SCALE)
    }

    /// Bernoulli(`p`) coin for `(tag, item)` — the idiom for "sample each
    /// element into a public set `S` independently with probability `p`".
    #[inline]
    pub fn coin(&self, tag: u64, item: u64, p: f64) -> bool {
        self.unit(tag, item) < p
    }

    /// Whether vertex `v` belongs to the public set drawn under `tag` with
    /// per-vertex probability `p`.
    #[inline]
    pub fn vertex_sampled(&self, tag: u64, v: VertexId, p: f64) -> bool {
        self.coin(tag, u64::from(v.0), p)
    }

    /// The public set drawn under `tag` with per-vertex probability `p`,
    /// with its key and threshold computed once, for testing many
    /// vertices against one set:
    /// `vertex_set(tag, p).contains(v) == vertex_sampled(tag, v, p)` for
    /// every `v`.
    pub fn vertex_set(&self, tag: u64, p: f64) -> VertexSet {
        // `unit` is x·2⁻⁵³ for a 53-bit integer x, and scaling by a power
        // of two is exact, so x·2⁻⁵³ < p exactly when x < ⌈p·2⁵³⌉. The
        // cast saturates: NaN and p ≤ 0 give 0 (no vertex), p ≥ 1 a bound
        // above every x (all vertices).
        VertexSet {
            key: mix(self.seed ^ mix(tag)),
            bound: (p * UNIT_SCALE).ceil() as u64,
        }
    }

    /// The rank of a vertex under the public random permutation `tag`.
    ///
    /// The permutation is the ordering of all vertices by
    /// `(rank_key, id)`; with 64-bit keys, ties are broken by id and the
    /// ordering is uniform. "The first vertex of a set with respect to π"
    /// is the set element minimizing this key.
    #[inline]
    pub fn vertex_rank(&self, tag: u64, v: VertexId) -> (u64, u32) {
        (self.value(tag, u64::from(v.0)), v.0)
    }

    /// Whether edge `e` belongs to the public *edge* set drawn under
    /// `tag` with per-pair probability `p` (used by the global
    /// distinct-edges estimator).
    #[inline]
    pub fn edge_sampled(&self, tag: u64, e: Edge, p: f64) -> bool {
        self.coin(tag, (u64::from(e.u().0) << 32) | u64::from(e.v().0), p)
    }

    /// The rank of an edge under the public random permutation `tag`
    /// (over the `n²` potential edges, as the paper's random-edge
    /// primitive requires).
    #[inline]
    pub fn edge_rank(&self, tag: u64, e: Edge) -> (u64, u32, u32) {
        let key = self.value(tag, (u64::from(e.u().0) << 32) | u64::from(e.v().0));
        (key, e.u().0, e.v().0)
    }

    /// A full RNG stream for `tag`, for uses that need many draws
    /// (e.g. the referee's tie-breaking). Streams with different tags are
    /// independent.
    pub fn stream(&self, tag: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(mix(self.seed ^ mix(tag.wrapping_add(0x5bd1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_clones() {
        let a = SharedRandomness::new(42);
        let b = SharedRandomness::new(42);
        for tag in 0..5u64 {
            for item in 0..100u64 {
                assert_eq!(a.value(tag, item), b.value(tag, item));
                assert_eq!(a.unit(tag, item), b.unit(tag, item));
            }
        }
    }

    #[test]
    fn different_tags_decorrelate() {
        let s = SharedRandomness::new(7);
        let same = (0..1000u64)
            .filter(|i| s.coin(1, *i, 0.5) == s.coin(2, *i, 0.5))
            .count();
        // ~500 expected; far from 0 or 1000.
        assert!((300..700).contains(&same), "agreement {same}");
    }

    #[test]
    fn coin_frequency_matches_probability() {
        let s = SharedRandomness::new(123);
        for &p in &[0.1f64, 0.5, 0.9] {
            let hits = (0..20_000u64).filter(|i| s.coin(9, *i, p)).count() as f64;
            let freq = hits / 20_000.0;
            assert!((freq - p).abs() < 0.02, "p={p} freq={freq}");
        }
    }

    #[test]
    fn unit_is_in_range() {
        let s = SharedRandomness::new(5);
        for i in 0..1000 {
            let u = s.unit(3, i);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn vertex_rank_orders_uniformly() {
        let s = SharedRandomness::new(11);
        // The minimum-rank vertex over 0..100 should be roughly uniform
        // over draws of the tag.
        let mut winners = std::collections::HashSet::new();
        for tag in 0..200u64 {
            let w = (0..100u32)
                .map(VertexId)
                .min_by_key(|v| s.vertex_rank(tag, *v))
                .unwrap();
            winners.insert(w.0);
        }
        assert!(
            winners.len() > 50,
            "only {} distinct winners",
            winners.len()
        );
    }

    #[test]
    fn streams_are_reproducible() {
        use rand::RngCore;
        let s = SharedRandomness::new(9);
        let mut r1 = s.stream(4);
        let mut r2 = s.stream(4);
        assert_eq!(r1.next_u64(), r2.next_u64());
        let mut r3 = s.stream(5);
        assert_ne!(s.stream(4).next_u64(), r3.next_u64());
    }

    /// The probabilities the hoisted set must agree on: both ends, the
    /// smallest draw, protocol-sized values, exact binary fractions, and
    /// values outside `[0, 1]`.
    const SET_PS: [f64; 9] = [
        0.0,
        1.0 / (1u64 << 60) as f64,
        0.003,
        0.375,
        0.5,
        1.0,
        1.5,
        -1.0,
        f64::NAN,
    ];

    proptest::proptest! {
        #[test]
        fn vertex_set_agrees_with_vertex_sampled(
            seed in proptest::arbitrary::any::<u64>(),
            tag in proptest::arbitrary::any::<u64>(),
            first in proptest::arbitrary::any::<u32>(),
            which in 0..SET_PS.len() + 1,
            steps in 0u64..(1 << 53) + 1,
        ) {
            // `which == SET_PS.len()` draws a p with p·2⁵³ an integer.
            let p = SET_PS.get(which).copied().unwrap_or(steps as f64 / UNIT_SCALE);
            let s = SharedRandomness::new(seed);
            let set = s.vertex_set(tag, p);
            for v in (0..256).map(|i| VertexId(first.wrapping_add(i))) {
                proptest::prop_assert_eq!(set.contains(v), s.vertex_sampled(tag, v, p), "p = {}", p);
            }
        }
    }

    #[test]
    fn the_set_bound_is_the_float_threshold() {
        // The draw just below ⌈p·2⁵³⌉ is in the set and the draw at it is
        // not, by the float comparison `coin` makes, wherever those draws
        // are 53-bit values.
        let in_set = |x: u64, p: f64| x as f64 * (1.0 / UNIT_SCALE) < p;
        let integral = [1.0, 3.0, 1234.0, UNIT_SCALE - 1.0].map(|x| x / UNIT_SCALE);
        for p in SET_PS.into_iter().chain(integral) {
            let bound = SharedRandomness::new(1).vertex_set(2, p).bound;
            if (1..=1 << 53).contains(&bound) {
                assert!(
                    in_set(bound - 1, p),
                    "p = {p}: draw {} must be in",
                    bound - 1
                );
            }
            if bound < 1 << 53 {
                assert!(!in_set(bound, p), "p = {p}: draw {bound} must be out");
            }
        }
        // No vertex below p = 0 or NaN; every 53-bit draw at p ≥ 1.
        assert_eq!(SharedRandomness::new(1).vertex_set(2, f64::NAN).bound, 0);
        assert!(SharedRandomness::new(1).vertex_set(2, 1.0).bound >= 1 << 53);
    }

    #[test]
    fn edge_rank_consistency() {
        let s = SharedRandomness::new(3);
        let e1 = Edge::new(VertexId(1), VertexId(2));
        let e2 = Edge::new(VertexId(2), VertexId(1));
        assert_eq!(s.edge_rank(0, e1), s.edge_rank(0, e2));
    }
}
