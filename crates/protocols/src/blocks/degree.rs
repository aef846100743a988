//! Degree approximation under edge duplication (Theorem 3.1) and without
//! it (Lemma 3.2).
//!
//! With duplication, exact degree counting costs `Ω(k·d(v))` (it embeds
//! set disjointness), but a constant-factor approximation is cheap:
//!
//! 1. **MSB phase** — each player sends the binary length of its local
//!    degree `d_j(v)`; the sum of the rounded powers `Σ 2^{I_j}` is a
//!    `2k`-approximation from above.
//! 2. **Guess-shrinking phase** — the coordinator walks guesses `d''`
//!    down from that bound by factors of `√α`, running per guess one
//!    round of public sampling experiments ("does the set `S ~ Bernoulli(1/d'')`
//!    contain a neighbor of `v`?", one bit per player per experiment).
//!    The first guess whose observed success rate reaches the threshold
//!    `θ·F(d'')`, with `F(g) = 1 − (1 − 1/g)^g` the success probability
//!    at a correct guess, is declared.

use crate::config::Tuning;
use triad_comm::{Payload, PlayerRequest, Recorder, Runtime};
use triad_graph::VertexId;

/// A degree estimate together with how it was produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeEstimate {
    /// The estimated degree.
    pub value: f64,
    /// Number of guess rounds used (0 when phase 1 short-circuits).
    pub rounds: usize,
}

/// Success probability of one experiment at guess `g` when the guess is
/// exactly right: `F(g) = 1 − (1 − 1/g)^g`.
fn f_of(g: f64) -> f64 {
    1.0 - (1.0 - 1.0 / g).powf(g)
}

/// Acceptance threshold fraction: strictly between `F`'s value at a
/// correct guess (ratio 1) and at an `α = 3`-times-too-high guess
/// (ratio ≤ 0.45 for every `g ≥ 3`).
const THETA: f64 = 0.7;

/// Theorem 3.1: α-approximates `deg(v)` under arbitrary edge duplication.
///
/// Returns an estimate within a constant factor (at most `α√α` with
/// `α = 3` on the high side and `√α` low-side slack) of the true degree,
/// with probability `≥ 1 − δ` at the tuning's experiment counts.
/// Cost: `O(k·log log d)` for phase 1 plus
/// `O(k · log k · experiments)` bits for phase 2. The wave of one of
/// [`approx_degrees`].
pub fn approx_degree<R: Recorder>(
    rt: &mut Runtime<R>,
    v: VertexId,
    tuning: &Tuning,
) -> DegreeEstimate {
    approx_degrees(rt, &[v], tuning)[0]
}

/// Theorem 3.1 for a wave of vertices at once, in lockstep: one MSB
/// round for the wave, then one round per guess-shrinking step, each
/// carrying the experiments of every vertex whose guess is still live.
///
/// The estimates are independent, and so are their coins: vertex `i`
/// owns a block of `steps_i · m` tags, reserved in wave order, where
/// `steps_i` counts its guesses `d′, d′/√α, …` above its floor
/// `max(d′/(2k√α), 2)`, and experiment `e` of step `s` uses tag
/// `first_i + s·m + e`. So a wave draws, sends and charges exactly what
/// one [`approx_degree`] call per vertex would, in another order, and
/// leaves the tag counter where they would.
pub fn approx_degrees<R: Recorder>(
    rt: &mut Runtime<R>,
    vs: &[VertexId],
    tuning: &Tuning,
) -> Vec<DegreeEstimate> {
    // Phase 1: MSB round. d' = Σ_j 2^{len_j} satisfies d ≤ d' ≤ 2k·d.
    let mut guess = Vec::with_capacity(vs.len());
    rt.broadcast_each(vs.iter().map(|&v| PlayerRequest::DegreeMsb { v }), |row| {
        guess.push(msb_sum(row));
    });
    // Degree at most 2: the upper bound itself is a fine answer.
    let mut out: Vec<DegreeEstimate> = guess
        .iter()
        .map(|&d| DegreeEstimate {
            value: d,
            rounds: 0,
        })
        .collect();

    // Phase 2: shrink guesses by √α until the experiments say stop.
    let shrink = ALPHA.sqrt();
    let m = tuning.degree_experiments(rt.k());
    let steps: Vec<usize> = guess
        .iter()
        .map(|&d| shrink_steps(d, rt.k(), shrink))
        .collect();
    let mut next = rt.fresh_tags((steps.iter().sum::<usize>() * m) as u64);
    let first: Vec<u64> = steps
        .iter()
        .map(|&s| {
            let tag = next;
            next += (s * m) as u64;
            tag
        })
        .collect();
    let mut live: Vec<usize> = (0..vs.len()).filter(|&i| steps[i] > 0).collect();
    let mut step = 0;
    while !live.is_empty() {
        let mut hits = vec![0usize; live.len()];
        let mut row = 0;
        let experiments = (0..live.len() * m).map(|r| {
            let i = live[r / m];
            PlayerRequest::SampleHit {
                v: vs[i],
                tag: first[i] + (step * m + r % m) as u64,
                p: (1.0 / guess[i]).min(1.0),
            }
        });
        rt.broadcast_each(experiments, |answers| {
            hits[row / m] += usize::from(answers.contains(&Payload::Bit(true)));
            row += 1;
        });
        step += 1;
        let mut still = Vec::with_capacity(live.len());
        for (&i, &successes) in live.iter().zip(&hits) {
            if successes as f64 >= THETA * f_of(guess[i]) * m as f64 {
                out[i] = DegreeEstimate {
                    value: guess[i],
                    rounds: step,
                };
                continue;
            }
            guess[i] /= shrink;
            if step == steps[i] {
                out[i] = DegreeEstimate {
                    value: guess[i].max(2.0),
                    rounds: step,
                };
            } else {
                still.push(i);
            }
        }
        live = still;
    }
    out
}

/// The approximation factor the guesses shrink by (`√α` per step).
const ALPHA: f64 = 3.0;

/// Phase 1's upper bound from one MSB row: `Σ_j 2^{len_j}` over the
/// players that hold an edge.
fn msb_sum(row: Vec<Payload<'_>>) -> f64 {
    row.into_iter().fold(0.0, |sum, p| match p {
        Payload::Count(len) if len > 0 => sum + 2f64.powi(len as i32),
        _ => sum,
    })
}

/// How many guesses `d′, d′/shrink, …` lie above the floor
/// `max(d′/(2k·shrink), 2)`: the most shrink steps an estimate from `d′`
/// can take. None when `d′ ≤ 2`.
fn shrink_steps(d_prime: f64, k: usize, shrink: f64) -> usize {
    if d_prime <= 2.0 {
        return 0;
    }
    let floor_guess = (d_prime / (2.0 * k as f64 * shrink)).max(2.0);
    let mut guess = d_prime;
    let mut steps = 0;
    while guess > floor_guess {
        steps += 1;
        guess /= shrink;
    }
    steps
}

/// The distinct-elements generalization of Theorem 3.1 (the paper's
/// closing remark in §3.1): α-approximates the number of **distinct
/// edges** `m = |E|` under arbitrary duplication, by the same
/// MSB-then-shrink scheme with experiments over a public random *pair*
/// set ("does the sampled pair set intersect your input?"). Each guess's
/// `m` experiments are one round, their tags drawn in experiment order.
///
/// Cost: `O(k·log log m + k·log k·experiments)` bits.
pub fn approx_edge_count<R: Recorder>(rt: &mut Runtime<R>, tuning: &Tuning) -> DegreeEstimate {
    let m_prime = msb_sum(rt.broadcast(PlayerRequest::EdgeCountMsb));
    let shrink = ALPHA.sqrt();
    let m = tuning.degree_experiments(rt.k());
    let mut guess = m_prime;
    let mut rounds = 0;
    for _ in 0..shrink_steps(m_prime, rt.k(), shrink) {
        rounds += 1;
        let p = (1.0 / guess).min(1.0);
        let first = rt.fresh_tags(m as u64);
        let mut successes = 0;
        let experiments = (0..m).map(|e| PlayerRequest::GlobalSampleHit {
            tag: first + e as u64,
            p,
        });
        rt.broadcast_each(experiments, |row| {
            successes += usize::from(row.contains(&Payload::Bit(true)));
        });
        if successes as f64 >= THETA * f_of(guess) * m as f64 {
            return DegreeEstimate {
                value: guess,
                rounds,
            };
        }
        guess /= shrink;
    }
    DegreeEstimate {
        value: if rounds == 0 { m_prime } else { guess.max(2.0) },
        rounds,
    }
}

/// Lemma 3.2: α-approximates `deg(v)` when the players' inputs are
/// disjoint, in `O(k·(log(1/(α−1)) + log log d))` bits: each player sends
/// the top bits of its local degree and the coordinator sums the
/// truncations, which can only under-count by a factor `< α`.
///
/// # Panics
///
/// Panics unless `alpha > 1`.
pub fn approx_degree_no_duplication<R: Recorder>(
    rt: &mut Runtime<R>,
    v: VertexId,
    alpha: f64,
) -> DegreeEstimate {
    assert!(alpha > 1.0, "alpha must exceed 1");
    // Truncation error per player is < d_j · 2^{1-prefix}; to keep the
    // total within (1 − 1/α)·d we need prefix ≥ 1 − log₂(1 − 1/α).
    let prefix_bits = (1.0 - (1.0 - 1.0 / alpha).log2()).ceil() as u32;
    let responses = rt.broadcast(PlayerRequest::DegreePrefix { v, prefix_bits });
    let mut sum = 0u64;
    for p in responses {
        if let Payload::Bits(truncated, _) = p {
            sum += truncated;
        }
    }
    DegreeEstimate {
        value: sum as f64,
        rounds: 0,
    }
}

/// Bounds the total number of distinct edges `m` from the players' local
/// counts: `Σ_j |E_j| ∈ [m, k·m]`, so the return value brackets `m` within
/// a factor `k`. Costs `O(k log m)` bits. With disjoint inputs the upper
/// bound is exact.
pub fn total_edge_count_bound<R: Recorder>(rt: &mut Runtime<R>) -> (f64, f64) {
    let responses = rt.broadcast(PlayerRequest::LocalEdgeCount);
    let sum: u64 = responses
        .into_iter()
        .map(|p| match p {
            Payload::Count(c) => c,
            _ => 0,
        })
        .sum();
    (sum as f64 / rt.k() as f64, sum as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_comm::{CostModel, SharedRandomness};
    use triad_graph::Edge;

    fn star_shares(degree: u32, k: usize, duplicate: bool, n: usize) -> Vec<Vec<Edge>> {
        // Star centered at 0 with `degree` leaves, spread over k players;
        // when `duplicate`, every player holds every edge.
        let edges: Vec<Edge> = (1..=degree)
            .map(|i| Edge::new(VertexId(0), VertexId(i)))
            .collect();
        assert!((degree as usize) < n, "star too large");
        if duplicate {
            vec![edges; k]
        } else {
            let mut shares = vec![Vec::new(); k];
            for (i, e) in edges.into_iter().enumerate() {
                shares[i % k].push(e);
            }
            shares
        }
    }

    fn check_ratio(est: f64, truth: f64, lo: f64, hi: f64) {
        let r = est / truth;
        assert!(
            r >= lo && r <= hi,
            "estimate {est} vs true {truth} (ratio {r})"
        );
    }

    #[test]
    fn approx_degree_disjoint_shares() {
        let tuning = Tuning::practical(0.1).with_scale(3.0);
        for degree in [8u32, 64, 300] {
            let shares = star_shares(degree, 4, false, 512);
            let mut rt = Runtime::local(
                512,
                &shares,
                SharedRandomness::new(42 + u64::from(degree)),
                CostModel::Coordinator,
            );
            let est = approx_degree(&mut rt, VertexId(0), &tuning);
            check_ratio(est.value, f64::from(degree), 0.3, 6.0);
        }
    }

    #[test]
    fn approx_degree_with_full_duplication() {
        let tuning = Tuning::practical(0.1).with_scale(3.0);
        for degree in [16u32, 128] {
            let shares = star_shares(degree, 6, true, 512);
            let mut rt = Runtime::local(
                512,
                &shares,
                SharedRandomness::new(7 + u64::from(degree)),
                CostModel::Coordinator,
            );
            let est = approx_degree(&mut rt, VertexId(0), &tuning);
            // Phase 1 alone would answer 6× too high; phase 2 must correct.
            check_ratio(est.value, f64::from(degree), 0.3, 6.0);
        }
    }

    #[test]
    fn approx_degree_isolated_vertex() {
        let tuning = Tuning::practical(0.1);
        let shares = star_shares(4, 2, false, 64);
        let mut rt = Runtime::local(
            64,
            &shares,
            SharedRandomness::new(3),
            CostModel::Coordinator,
        );
        let est = approx_degree(&mut rt, VertexId(63), &tuning);
        assert_eq!(est.value, 0.0);
        assert_eq!(est.rounds, 0);
    }

    #[test]
    fn approx_degree_cost_is_logarithmic_in_degree() {
        // Bits should grow far slower than the degree itself.
        let tuning = Tuning::practical(0.1);
        let mut costs = Vec::new();
        for degree in [32u32, 512] {
            let shares = star_shares(degree, 4, false, 1024);
            let mut rt = Runtime::local(
                1024,
                &shares,
                SharedRandomness::new(1),
                CostModel::Coordinator,
            );
            approx_degree(&mut rt, VertexId(0), &tuning);
            costs.push(rt.stats().total_bits as f64);
        }
        // 16× degree increase should cost well under 4× the bits.
        assert!(costs[1] / costs[0] < 4.0, "costs {costs:?}");
    }

    #[test]
    fn no_duplication_variant_underestimates_within_alpha() {
        for degree in [5u32, 33, 200] {
            let shares = star_shares(degree, 4, false, 512);
            let mut rt = Runtime::local(
                512,
                &shares,
                SharedRandomness::new(0),
                CostModel::Coordinator,
            );
            let alpha = 3f64.sqrt();
            let est = approx_degree_no_duplication(&mut rt, VertexId(0), alpha);
            assert!(est.value <= f64::from(degree) + 1e-9, "must under-count");
            assert!(
                est.value * alpha >= f64::from(degree),
                "α·{} < {degree}",
                est.value
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn no_duplication_rejects_bad_alpha() {
        let shares = star_shares(4, 2, false, 64);
        let mut rt = Runtime::local(
            64,
            &shares,
            SharedRandomness::new(0),
            CostModel::Coordinator,
        );
        let _ = approx_degree_no_duplication(&mut rt, VertexId(0), 1.0);
    }

    #[test]
    fn edge_count_bounds_bracket_truth() {
        let shares = star_shares(30, 3, false, 64);
        let mut rt = Runtime::local(
            64,
            &shares,
            SharedRandomness::new(0),
            CostModel::Coordinator,
        );
        let (lo, hi) = total_edge_count_bound(&mut rt);
        assert!(lo <= 30.0 && 30.0 <= hi);
        assert_eq!(hi, 30.0, "disjoint shares sum exactly");
        // fully duplicated: upper bound is k×.
        let shares = star_shares(30, 3, true, 64);
        let mut rt = Runtime::local(
            64,
            &shares,
            SharedRandomness::new(0),
            CostModel::Coordinator,
        );
        let (lo, hi) = total_edge_count_bound(&mut rt);
        assert_eq!(hi, 90.0);
        assert_eq!(lo, 30.0);
    }

    #[test]
    fn approx_edge_count_with_duplication() {
        use triad_graph::generators::gnp;
        use triad_graph::partition::with_duplication;
        let tuning = Tuning::practical(0.1).with_scale(3.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        use rand::SeedableRng;
        let g = gnp(200, 0.08, &mut rng);
        let truth = g.edge_count() as f64;
        let parts = with_duplication(&g, 5, 0.6, &mut rng);
        let mut rt = Runtime::local(
            200,
            parts.shares(),
            SharedRandomness::new(11),
            CostModel::Coordinator,
        );
        let est = approx_edge_count(&mut rt, &tuning);
        check_ratio(est.value, truth, 0.3, 6.0);
        // Naive summation would answer ≈ 1.6·k/… way above; the estimator
        // must undo the duplication.
        let copies: usize = parts.total_copies();
        assert!(copies as f64 > 2.0 * truth, "premise: heavy duplication");
    }

    #[test]
    fn approx_edge_count_empty_input() {
        let tuning = Tuning::practical(0.1);
        let mut rt = Runtime::local(
            10,
            &[vec![], vec![]],
            SharedRandomness::new(0),
            CostModel::Coordinator,
        );
        let est = approx_edge_count(&mut rt, &tuning);
        assert_eq!(est.value, 0.0);
    }

    #[test]
    fn f_of_limits() {
        assert!((f_of(2.0) - 0.75).abs() < 1e-12);
        assert!((f_of(1e9) - (1.0 - (-1.0f64).exp())).abs() < 1e-6);
    }
}
