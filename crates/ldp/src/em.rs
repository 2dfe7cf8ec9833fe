//! The Exponential Mechanism (McSherry & Talwar 2007) over scored
//! candidates — Eq. (2) of the paper.
//!
//! Each user selects among the server's candidate shapes with probability
//! `Pr[Ψ(x) = F_j] ∝ exp(ε · S(x, F_j) / (2Δ))`. With the score normalized
//! to `[0, 1]` the sensitivity is `Δ = 1`.

use crate::budget::{Epsilon, LdpError, Result};
use rand::{Rng, RngExt};

/// Exponential Mechanism with a fixed budget and sensitivity.
#[derive(Debug, Clone, Copy)]
pub struct ExpMech {
    eps: Epsilon,
    sensitivity: f64,
}

impl ExpMech {
    /// Mechanism with sensitivity 1 (scores normalized to `[0, 1]`).
    pub fn new(eps: Epsilon) -> Self {
        Self {
            eps,
            sensitivity: 1.0,
        }
    }

    /// Mechanism with explicit sensitivity `Δ > 0`.
    pub fn with_sensitivity(eps: Epsilon, sensitivity: f64) -> Result<Self> {
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(LdpError::ValueOutOfRange {
                value: sensitivity,
                lo: f64::MIN_POSITIVE,
                hi: f64::INFINITY,
            });
        }
        Ok(Self { eps, sensitivity })
    }

    /// Budget this instance satisfies.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Selection probabilities for a score vector (useful for tests and for
    /// the utility analysis of §IV-E).
    pub fn probabilities(&self, scores: &[f64]) -> Vec<f64> {
        let scale = self.eps.value() / (2.0 * self.sensitivity);
        // Subtract the max for numerical stability.
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|&s| ((s - m) * scale).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Samples a candidate index via the Gumbel-max trick:
    /// `argmax_j (scale · s_j + G_j)` with i.i.d. standard Gumbel `G_j` is
    /// distributed exactly as the EM softmax, without computing the
    /// normalizer.
    ///
    /// One uniform `u` is drawn per candidate, in order, but the two
    /// logarithms of `G = −ln(−ln u)` are skipped for any `u` below a
    /// floor that provably cannot beat the running best: the floor is
    /// `exp(−exp(−t))·(1 − 1e-9)` with `t = best_key − scale·max(s) −
    /// 1e-6`, and since `G` grows with `u`, every skipped draw has an
    /// exact Gumbel value below `t`. For `u ∈ [2^-53, 1)` the computed
    /// Gumbel value is within about 1e-14 of exact, well inside the 1e-6
    /// margin, so a skipped key would have been computed at most
    /// `best_key` and lost the strict comparison anyway. The result, ties
    /// included, and the stream position after the call are those of
    /// evaluating every key.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, scores: &[f64]) -> Result<usize> {
        if scores.is_empty() {
            return Err(LdpError::NoCandidates);
        }
        let scale = self.eps.value() / (2.0 * self.sensitivity);
        // No candidate's scaled score exceeds this one.
        let top = scale * scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut best = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        let mut floor = 0.0;
        for (j, &s) in scores.iter().enumerate() {
            // Standard Gumbel via inverse CDF; u ∈ (0, 1) is guaranteed by
            // sampling the open interval.
            let u: f64 = loop {
                let u = rng.random::<f64>();
                if u > 0.0 {
                    break u;
                }
            };
            if u < floor {
                continue;
            }
            let gumbel = -(-u.ln()).ln();
            let key = scale * s + gumbel;
            if key > best_key {
                best_key = key;
                best = j;
                floor = (-(-(best_key - top - 1e-6)).exp()).exp() * (1.0 - 1e-9);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn probabilities_normalize_and_order_by_score() {
        let em = ExpMech::new(eps(2.0));
        let p = em.probabilities(&[1.0, 0.5, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn probability_ratio_bounded_by_exp_eps() {
        // For scores in [0,1] and Δ=1 the max/min selection-probability
        // ratio is exp(ε·(s_max−s_min)/2) ≤ exp(ε/2) per input; across any
        // two neighboring inputs the EM guarantee composes to exp(ε).
        let e = 1.7;
        let em = ExpMech::new(eps(e));
        let p = em.probabilities(&[1.0, 0.0, 0.3]);
        let ratio = p[0] / p[1];
        assert!((ratio - (e / 2.0).exp()).abs() < 1e-9);
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let em = ExpMech::new(eps(3.0));
        let scores = [0.9, 0.2, 0.6, 0.6];
        let probs = em.probabilities(&scores);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let n = 60_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[em.select(&mut rng, &scores).unwrap()] += 1;
        }
        for j in 0..4 {
            let freq = counts[j] as f64 / n as f64;
            assert!(
                (freq - probs[j]).abs() < 0.01,
                "j={j} freq={freq} p={}",
                probs[j]
            );
        }
    }

    #[test]
    fn empty_candidates_error() {
        let em = ExpMech::new(eps(1.0));
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(matches!(
            em.select(&mut rng, &[]),
            Err(LdpError::NoCandidates)
        ));
    }

    #[test]
    fn single_candidate_always_selected() {
        let em = ExpMech::new(eps(0.1));
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(em.select(&mut rng, &[0.4]).unwrap(), 0);
        }
    }

    #[test]
    fn custom_sensitivity_scales_sharpness() {
        let sharp = ExpMech::new(eps(4.0));
        let flat = ExpMech::with_sensitivity(eps(4.0), 10.0).unwrap();
        let ps = sharp.probabilities(&[1.0, 0.0]);
        let pf = flat.probabilities(&[1.0, 0.0]);
        assert!(ps[0] > pf[0]); // larger Δ flattens the distribution
        assert!(ExpMech::with_sensitivity(eps(1.0), 0.0).is_err());
        assert!(ExpMech::with_sensitivity(eps(1.0), f64::NAN).is_err());
    }

    #[test]
    fn huge_scores_do_not_overflow() {
        // The max-subtraction keeps exp() finite even for wild score scales
        // (ε / 2Δ = 500 here).
        let em = ExpMech::with_sensitivity(eps(1.0), 1e-3).unwrap();
        let p = em.probabilities(&[1.0, 0.0]);
        assert!(p[0] > 0.999 && p[0].is_finite());
    }
}
