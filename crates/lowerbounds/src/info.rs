//! Information-theory toolkit (§2, §4.1): entropy, KL divergence,
//! Lemma 4.3's Bernoulli bound, and exact transcript-information
//! accounting for small protocols.
//!
//! The lower-bound proofs revolve around one inequality chain:
//! `|Π| ≥ I(Π; E) ≥ Σ_e I(Π; X_e)` (super-additivity over independent
//! edge indicators, Lemma 4.2/4.6). For message functions over few enough
//! input bits we can *compute* every quantity exactly by enumeration and
//! check the chain numerically.

use std::collections::HashMap;
use std::hash::Hash;

/// Shannon entropy (bits) of a distribution given as probabilities.
///
/// Zero-probability entries contribute zero. Probabilities should sum to
/// 1; no normalization is performed.
pub fn entropy(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|p| **p > 0.0)
        .map(|p| -p * p.log2())
        .sum()
}

/// Binary entropy `H(p)` in bits.
pub fn binary_entropy(p: f64) -> f64 {
    entropy(&[p, 1.0 - p])
}

/// KL divergence `D(μ ‖ η)` in bits between two distributions on the
/// same support. Returns `f64::INFINITY` if `μ` puts mass where `η`
/// does not.
pub fn kl_divergence(mu: &[f64], eta: &[f64]) -> f64 {
    assert_eq!(mu.len(), eta.len(), "distributions need equal support");
    let mut sum = 0.0;
    for (&m, &e) in mu.iter().zip(eta) {
        if m > 0.0 {
            if e <= 0.0 {
                return f64::INFINITY;
            }
            sum += m * (m / e).log2();
        }
    }
    sum
}

/// KL divergence between `Bernoulli(q)` and `Bernoulli(p)`.
pub fn bernoulli_kl(q: f64, p: f64) -> f64 {
    kl_divergence(&[q, 1.0 - q], &[p, 1.0 - p])
}

/// Lemma 4.3: for `p < 1/2`, `D(q ‖ p) ≥ q − 2p` (in bits the paper's
/// statement holds a fortiori since `log₂ ≥ ln`). Returns the slack
/// `D(q ‖ p) − (q − 2p)`, which the lemma asserts is non-negative.
pub fn lemma_4_3_slack(q: f64, p: f64) -> f64 {
    bernoulli_kl(q, p) - (q - 2.0 * p)
}

/// Exact information accounting of a deterministic message function over
/// iid `Bernoulli(p)` input bits.
#[derive(Debug, Clone)]
pub struct InfoReport {
    /// Entropy of the message `H(M)` (bits).
    pub message_entropy: f64,
    /// Mutual information `I(X; M)` with the full input.
    pub total_information: f64,
    /// Per-bit informations `I(X_i; M)`.
    pub per_bit: Vec<f64>,
}

impl InfoReport {
    /// Super-additivity check (Lemma 4.2): `Σ_i I(X_i; M) ≤ I(X; M)`.
    pub fn superadditivity_slack(&self) -> f64 {
        self.total_information - self.per_bit.iter().sum::<f64>()
    }
}

/// Enumerates all `2^len` inputs (weights from iid `Bernoulli(p)`) and
/// computes `H(M)`, `I(X; M)` and every `I(X_i; M)` exactly for the
/// deterministic message function `f`.
///
/// # Panics
///
/// Panics if `len > 20` (enumeration would be too large).
pub fn exact_information<M, F>(len: usize, p: f64, f: F) -> InfoReport
where
    M: Hash + Eq,
    F: Fn(&[bool]) -> M,
{
    assert!(len <= 20, "enumeration limited to 20 input bits");
    let size = 1usize << len;
    // P(m) and P(m, X_i = 1), one slot per message in first-seen order,
    // so every sum below runs in the same order on every call.
    let mut slot_of: HashMap<M, usize> = HashMap::new();
    let mut p_m: Vec<f64> = Vec::new();
    let mut p_m_xi: Vec<Vec<f64>> = Vec::new();
    let mut input = vec![false; len];
    for mask in 0..size {
        let mut weight = 1.0;
        for (i, b) in input.iter_mut().enumerate() {
            *b = (mask >> i) & 1 == 1;
            weight *= if *b { p } else { 1.0 - p };
        }
        if weight == 0.0 {
            continue;
        }
        let slot = *slot_of.entry(f(&input)).or_insert_with(|| {
            p_m.push(0.0);
            p_m_xi.push(vec![0.0; len]);
            p_m.len() - 1
        });
        p_m[slot] += weight;
        for (i, b) in input.iter().enumerate() {
            if *b {
                p_m_xi[slot][i] += weight;
            }
        }
    }
    let message_entropy = entropy(&p_m);
    // I(X_i; M) = Σ_m P(m)·D( P(X_i | m) ‖ P(X_i) ).
    let mut per_bit = vec![0.0; len];
    for (pm, joint) in p_m.iter().zip(&p_m_xi) {
        for i in 0..len {
            let q = joint[i] / pm;
            per_bit[i] += pm * bernoulli_kl(q.clamp(0.0, 1.0), p);
        }
    }
    // I(X; M) = H(M) for deterministic f (H(M|X) = 0).
    InfoReport {
        message_entropy,
        total_information: message_entropy,
        per_bit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_basics() {
        assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.1) < 0.5);
    }

    #[test]
    fn kl_properties() {
        assert_eq!(kl_divergence(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!(kl_divergence(&[0.9, 0.1], &[0.5, 0.5]) > 0.0);
        assert_eq!(kl_divergence(&[0.5, 0.5], &[1.0, 0.0]), f64::INFINITY);
        assert!(bernoulli_kl(0.9, 0.1) > bernoulli_kl(0.2, 0.1));
    }

    #[test]
    fn lemma_4_3_nonnegative_on_grid() {
        for qi in 1..100 {
            for pi in 1..50 {
                let q = qi as f64 / 100.0;
                let p = pi as f64 / 100.0; // p < 1/2
                assert!(
                    lemma_4_3_slack(q, p) > -1e-9,
                    "Lemma 4.3 violated at q={q}, p={p}"
                );
            }
        }
    }

    #[test]
    fn identity_message_reveals_everything() {
        let report = exact_information(4, 0.3, |x| x.to_vec());
        let h = binary_entropy(0.3);
        assert!((report.message_entropy - 4.0 * h).abs() < 1e-9);
        for b in &report.per_bit {
            assert!((b - h).abs() < 1e-9, "each bit fully revealed");
        }
        assert!(report.superadditivity_slack().abs() < 1e-9);
    }

    #[test]
    fn repeated_calls_give_bit_identical_reports() {
        // Many distinct messages: a sum in hash-map order would change
        // its rounding from one call to the next.
        let f = |x: &[bool]| x[..10].iter().fold(0u32, |acc, &b| 2 * acc + u32::from(b));
        let first = exact_information(12, 0.3, f);
        let bits = |r: &InfoReport| {
            let mut out = vec![r.message_entropy.to_bits(), r.total_information.to_bits()];
            out.extend(r.per_bit.iter().map(|b| b.to_bits()));
            out
        };
        for _ in 0..20 {
            assert_eq!(bits(&exact_information(12, 0.3, f)), bits(&first));
        }
    }

    #[test]
    fn constant_message_reveals_nothing() {
        let report = exact_information(5, 0.4, |_| 0u8);
        assert_eq!(report.message_entropy, 0.0);
        for b in &report.per_bit {
            assert!(b.abs() < 1e-12);
        }
    }

    #[test]
    fn parity_shows_strict_superadditivity() {
        // At p = 1/2, parity carries 1 bit about X jointly but 0 about
        // each X_i individually — the canonical strict case.
        let report = exact_information(6, 0.5, |x| x.iter().filter(|b| **b).count() % 2 == 0);
        assert!((report.message_entropy - 1.0).abs() < 1e-9);
        for b in &report.per_bit {
            assert!(b.abs() < 1e-9);
        }
        assert!((report.superadditivity_slack() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn superadditivity_holds_for_arbitrary_functions() {
        // A lossy, asymmetric function: count of ones clamped at 2.
        let report = exact_information(8, 0.25, |x| x.iter().filter(|b| **b).count().min(2) as u8);
        assert!(
            report.superadditivity_slack() > -1e-9,
            "Σ I(X_i;M) must not exceed I(X;M)"
        );
        assert!(report.message_entropy <= 8.0);
    }

    #[test]
    #[should_panic(expected = "limited to 20")]
    fn enumeration_guard() {
        let _ = exact_information(21, 0.5, |_| 0u8);
    }
}
