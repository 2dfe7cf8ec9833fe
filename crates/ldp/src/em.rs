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
    /// The same as [`ExpMech::prepare`] followed by
    /// [`ExpMech::select_prepared`], which spells out the draws and the
    /// exact cut-off that skips most of their logarithms. A caller that
    /// selects from one score vector many times, each time on its own
    /// stream, prepares the row once and keeps it.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, scores: &[f64]) -> Result<usize> {
        let mut row = Vec::new();
        self.prepare(scores, &mut row);
        self.select_prepared(rng, &row)
    }

    /// Writes the selection row of `scores` into `row` (cleared first):
    /// `top = scale · max_j s_j`, then for each candidate in order the
    /// cut-off bound `p(top − a_j)` and the scaled score `a_j = scale · s_j`,
    /// `2n + 1` values in all, with `scale = ε / (2Δ)` and `p` the degree-4
    /// Taylor polynomial of `e^y`. The row depends only on the scores and
    /// the mechanism, never on a stream.
    pub fn prepare(&self, scores: &[f64], row: &mut Vec<f64>) {
        let scale = self.eps.value() / (2.0 * self.sensitivity);
        // No candidate's scaled score exceeds this one.
        let top = scale * scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        row.clear();
        row.reserve(2 * scores.len() + 1);
        row.push(top);
        for &s in scores {
            let a = scale * s;
            row.push(exp_lower_bound(top - a));
            row.push(a);
        }
    }

    /// Samples a candidate index from a row written by
    /// [`ExpMech::prepare`] (the Gumbel-max trick of [`ExpMech::select`]).
    ///
    /// One uniform `u` is drawn per candidate, in order, but the two
    /// logarithms of `G = −ln(−ln u)` are skipped for any draw that
    /// provably cannot beat the running best. With
    /// `K = exp(top − best_key + 1e-6)`, recomputed only when the best
    /// changes, draw `j` is skipped when
    /// `(1 − u) · p(top − a_j) > K · (1 + 1e-9)`. No transcendental call is
    /// made for a skipped draw, and the test is exact:
    ///
    /// - The key `a_j + G` beats `best_key − 1e-6` only if
    ///   `E = −ln u < exp(a_j − best_key + 1e-6) = K · e^{−(top − a_j)}`.
    /// - `E ≥ 1 − u` on (0, 1), `1 − u` is exact for every 53-bit sample,
    ///   and `e^{−y} ≤ 1/p(y)` for `y ≥ 0` (rounding keeps every `a_j` at
    ///   most `top`). So a skip certifies that the exact key is at most
    ///   `best_key − 1e-6`. The factor `1 + 1e-9` covers the rounding of
    ///   `p`, of `top − a_j`, of the product and of `K` for `y` up to about
    ///   1e7; beyond that `e^{−y}` is far below the smallest possible
    ///   `(1 − u)/K`, about 1e-324.
    /// - For `u ∈ [2^-53, 1)` the computed Gumbel value is within about
    ///   1e-14 of exact, far inside the 1e-6 margin, so a skipped key would
    ///   have been computed at most `best_key` and lost the strict
    ///   comparison anyway.
    /// - Before a finite best exists `K` is infinite, and a `K` that
    ///   overflows is too, so nothing is skipped then; a NaN left side
    ///   (NaN or infinite scores) never skips either. Such draws are
    ///   evaluated exactly as the full loop evaluates them.
    ///
    /// The result, ties included, and the stream position after the call
    /// are those of evaluating every key. A row holding no candidate is
    /// refused with [`LdpError::NoCandidates`] before any draw.
    pub fn select_prepared<R: Rng + ?Sized>(&self, rng: &mut R, row: &[f64]) -> Result<usize> {
        let Some((&top, candidates)) = row.split_first() else {
            return Err(LdpError::NoCandidates);
        };
        if candidates.len() < 2 {
            return Err(LdpError::NoCandidates);
        }
        let mut best = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        // `K · (1 + 1e-9)`, infinite until a finite key is in.
        let mut cut = f64::INFINITY;
        for (j, pair) in candidates.chunks_exact(2).enumerate() {
            // Standard Gumbel via inverse CDF; u ∈ (0, 1) is guaranteed by
            // sampling the open interval.
            let u: f64 = loop {
                let u = rng.random::<f64>();
                if u > 0.0 {
                    break u;
                }
            };
            let (bound, a) = (pair[0], pair[1]);
            if (1.0 - u) * bound > cut {
                continue;
            }
            let key = a + -(-u.ln()).ln();
            if key > best_key {
                best_key = key;
                best = j;
                cut = (top - best_key + 1e-6).exp() * (1.0 + 1e-9);
            }
        }
        Ok(best)
    }
}

/// `p(y) = 1 + y + y²/2 + y³/6 + y⁴/24`, the degree-4 Taylor polynomial of
/// `e^y`: every term is non-negative for `y ≥ 0`, so `p(y) ≤ e^y` there.
#[inline]
fn exp_lower_bound(y: f64) -> f64 {
    1.0 + y * (1.0 + y * 0.5 * (1.0 + y * (1.0 / 3.0) * (1.0 + y * 0.25)))
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
        let mut row = vec![0.5];
        em.prepare(&[], &mut row);
        assert_eq!(row, [f64::NEG_INFINITY]);
        for row in [&[][..], &row] {
            assert!(matches!(
                em.select_prepared(&mut rng, row),
                Err(LdpError::NoCandidates)
            ));
        }
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
