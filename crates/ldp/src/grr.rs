//! Generalized Randomized Response (k-RR) with unbiased frequency
//! aggregation — the paper's `Φ(·)` for length and sub-shape estimation.

use crate::budget::{Epsilon, LdpError, Result};
use rand::{Rng, RngExt};

/// Generalized Randomized Response over a categorical domain `{0, …, d−1}`.
///
/// Reports the true value with probability `p = e^ε / (e^ε + d − 1)` and
/// each other value with probability `q = 1 / (e^ε + d − 1)`; the ratio
/// `p / q = e^ε` gives exactly ε-LDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Grr {
    domain: usize,
    eps: Epsilon,
    p: f64,
    q: f64,
}

impl Grr {
    /// Creates the mechanism for a domain of `domain ≥ 2` items.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self> {
        if domain < 2 {
            return Err(LdpError::InvalidDomain(domain));
        }
        let e = eps.exp();
        let denom = e + domain as f64 - 1.0;
        Ok(Self {
            domain,
            eps,
            p: e / denom,
            q: 1.0 / denom,
        })
    }

    /// Domain size `d`.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Budget this instance satisfies.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Truth-retention probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Per-alternative flip probability `q`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Perturbs one value.
    ///
    /// # Errors
    ///
    /// Returns an error when `value ≥ d` — perturbing out-of-domain data
    /// would silently void the privacy accounting.
    pub fn try_perturb<R: Rng + ?Sized>(&self, rng: &mut R, value: usize) -> Result<usize> {
        if value >= self.domain {
            return Err(LdpError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        if rng.random_bool(self.p) {
            Ok(value)
        } else {
            // Uniform over the d−1 other values.
            let mut other = rng.random_range(0..self.domain - 1);
            if other >= value {
                other += 1;
            }
            Ok(other)
        }
    }

    /// Perturbs one value, panicking on out-of-domain input. Use in inner
    /// loops where the domain is enforced upstream.
    #[allow(clippy::expect_used)] // the caller vouches for the domain
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, value: usize) -> usize {
        self.try_perturb(rng, value)
            .expect("value within GRR domain")
    }

    /// Unbiased estimate of how many of `total` users hold a value that
    /// `count` of their reports named: `ĉ = (count − total·q) / (p − q)`.
    pub fn estimate(&self, count: u64, total: u64) -> f64 {
        (count as f64 - total as f64 * self.q) / (self.p - self.q)
    }
}

/// Server-side accumulator of GRR reports: the per-value counts that
/// [`Grr::estimate`] turns into unbiased count estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct GrrAggregator {
    grr: Grr,
    counts: Vec<u64>,
    total: u64,
}

impl GrrAggregator {
    /// Creates an aggregator matched to a [`Grr`] instance.
    pub fn new(grr: &Grr) -> Self {
        Self {
            grr: grr.clone(),
            counts: vec![0; grr.domain],
            total: 0,
        }
    }

    /// Ingests one perturbed report.
    pub fn add(&mut self, report: usize) {
        self.counts[report] += 1;
        self.total += 1;
    }

    /// Number of reports ingested.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Domain size this aggregator was built for.
    pub fn domain(&self) -> usize {
        self.counts.len()
    }

    /// Unbiased estimate of the number of users holding `v`.
    pub fn estimate(&self, v: usize) -> f64 {
        self.grr.estimate(self.counts[v], self.total)
    }

    /// Unbiased estimates for the full domain.
    pub fn estimates(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|v| self.estimate(v)).collect()
    }

    /// Indices of the `m` largest estimates ([`crate::top_m`]).
    pub fn top_m(&self, m: usize) -> Vec<usize> {
        crate::top_m(&self.estimates(), m)
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
    fn probabilities_satisfy_ldp_ratio() {
        for d in [2usize, 4, 10, 64] {
            for e in [0.1, 1.0, 4.0] {
                let g = Grr::new(d, eps(e)).unwrap();
                assert!((g.p() / g.q() - e.exp()).abs() < 1e-9);
                let total = g.p() + (d as f64 - 1.0) * g.q();
                assert!((total - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_degenerate_domain_and_values() {
        assert!(Grr::new(1, eps(1.0)).is_err());
        let g = Grr::new(3, eps(1.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(g.try_perturb(&mut rng, 3).is_err());
    }

    #[test]
    fn output_always_in_domain() {
        let g = Grr::new(5, eps(0.5)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for v in 0..5 {
            for _ in 0..200 {
                assert!(g.perturb(&mut rng, v) < 5);
            }
        }
    }

    #[test]
    fn empirical_truth_rate_matches_p() {
        let g = Grr::new(8, eps(2.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let n = 40_000;
        let kept = (0..n).filter(|_| g.perturb(&mut rng, 3) == 3).count();
        let rate = kept as f64 / n as f64;
        assert!((rate - g.p()).abs() < 0.01, "rate {rate} vs p {}", g.p());
    }

    #[test]
    fn estimator_is_unbiased_on_skewed_input() {
        // 70% hold item 0, 30% item 1, domain 4.
        let g = Grr::new(4, eps(1.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut agg = GrrAggregator::new(&g);
        let n = 50_000;
        for i in 0..n {
            let v = if i % 10 < 7 { 0 } else { 1 };
            agg.add(g.perturb(&mut rng, v));
        }
        assert!((agg.estimate(0) - 0.7 * n as f64).abs() < 0.03 * n as f64);
        assert!((agg.estimate(1) - 0.3 * n as f64).abs() < 0.03 * n as f64);
        assert!(agg.estimate(2).abs() < 0.03 * n as f64);
        assert_eq!(agg.top_m(1), vec![0]);
        assert_eq!(agg.top_m(2), vec![0, 1]);
    }

    #[test]
    fn estimates_sum_to_total() {
        // Identity Σ_v ĉ(v) = n holds exactly for GRR.
        let g = Grr::new(6, eps(1.5)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut agg = GrrAggregator::new(&g);
        for i in 0..5000 {
            agg.add(g.perturb(&mut rng, i % 6));
        }
        let sum: f64 = agg.estimates().iter().sum();
        assert!((sum - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn top_m_handles_ties_deterministically() {
        let g = Grr::new(4, eps(1.0)).unwrap();
        let agg = GrrAggregator::new(&g);
        // No reports: all estimates equal (zero); ties break by index.
        assert_eq!(agg.top_m(2), vec![0, 1]);
        assert_eq!(agg.top_m(10), vec![0, 1, 2, 3]);
    }
}
