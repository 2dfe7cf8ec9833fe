//! Optimized Local Hashing (Wang et al., USENIX Security 2017) — the third
//! frequency oracle of the family the paper draws on ([27]).
//!
//! OLH hashes the value into a small domain `g = ⌈e^ε⌉ + 1` with a
//! per-user public hash seed, then applies GRR over the hashed domain.
//! Its estimator variance matches OUE's (domain-independent) while each
//! report is a single integer plus a seed — communication-optimal for
//! large domains. Provided for the frequency-oracle ablation
//! (`ablation_oracles` in the bench crate): the length and sub-shape
//! domains in PrivShape are small enough that GRR wins, and the ablation
//! makes that design choice measurable.

use crate::budget::{Epsilon, LdpError, Result};
use rand::{Rng, RngExt};

/// One OLH report: the user's public hash seed and the GRR-perturbed hash
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlhReport {
    /// Public per-user hash seed.
    pub seed: u64,
    /// Perturbed hash bucket in `[0, g)`.
    pub value: usize,
}

/// The OLH mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct Olh {
    eps: Epsilon,
    g: usize,
    p: f64,
}

impl Olh {
    /// Creates the mechanism with the variance-optimal hash range
    /// `g = ⌈e^ε⌉ + 1` (at least 2, at most `usize::MAX`).
    pub fn new(eps: Epsilon) -> Self {
        let g = (eps.exp().round() as usize).saturating_add(1).max(2);
        let p = eps.exp() / (eps.exp() + g as f64 - 1.0);
        Self { eps, g, p }
    }

    /// Budget this instance satisfies.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Hash range `g`.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Truth-retention probability of the inner GRR.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The public hash: bucket of `value` under `seed`.
    pub fn hash(&self, seed: u64, value: usize) -> usize {
        (mix(seed ^ mix(value as u64 ^ 0x6A09_E667_F3BC_C908)) % self.g as u64) as usize
    }

    /// Perturbs `value`: draws a fresh public seed, hashes, and applies GRR
    /// over the hash range.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, value: usize) -> OlhReport {
        let seed: u64 = rng.random();
        let h = self.hash(seed, value);
        let reported = if rng.random_bool(self.p) {
            h
        } else {
            let mut other = rng.random_range(0..self.g - 1);
            if other >= h {
                other += 1;
            }
            other
        };
        OlhReport {
            seed,
            value: reported,
        }
    }

    /// Whether `report` supports `value`: its seed hashes `value` to the
    /// bucket it reports.
    pub fn supports(&self, report: &OlhReport, value: usize) -> bool {
        self.hash(report.seed, value) == report.value
    }

    /// Unbiased estimate of how many of `total` users hold a value that
    /// `support` of their reports supported:
    /// `ĉ = (support − total/g) / (p − 1/g)`.
    pub fn estimate(&self, support: u64, total: u64) -> f64 {
        let g = self.g as f64;
        (support as f64 - total as f64 / g) / (self.p - 1.0 / g)
    }
}

/// SplitMix64 finalizer (shared convention across the workspace).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Server-side OLH aggregator over a finite domain `{0, …, d−1}`.
///
/// Support counting is `O(d)` per report; fine for the domain sizes in
/// this workspace (≤ a few hundred).
#[derive(Debug, Clone, PartialEq)]
pub struct OlhAggregator {
    olh: Olh,
    support: Vec<u64>,
    total: u64,
}

impl OlhAggregator {
    /// Creates the aggregator for a domain of `domain ≥ 2` values.
    pub fn new(olh: Olh, domain: usize) -> Result<Self> {
        if domain < 2 {
            return Err(LdpError::InvalidDomain(domain));
        }
        Ok(Self {
            olh,
            support: vec![0; domain],
            total: 0,
        })
    }

    /// Ingests one report: every domain value it supports
    /// ([`Olh::supports`]) gains support.
    pub fn add(&mut self, report: &OlhReport) {
        for (v, support) in self.support.iter_mut().enumerate() {
            if self.olh.supports(report, v) {
                *support += 1;
            }
        }
        self.total += 1;
    }

    /// Number of reports ingested.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Size of the value domain the aggregator estimates over.
    pub fn domain(&self) -> usize {
        self.support.len()
    }

    /// Unbiased count estimate of `v` ([`Olh::estimate`]).
    pub fn estimate(&self, v: usize) -> f64 {
        self.olh.estimate(self.support[v], self.total)
    }

    /// Estimates for the full domain.
    pub fn estimates(&self) -> Vec<f64> {
        (0..self.support.len()).map(|v| self.estimate(v)).collect()
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
    fn hash_range_follows_budget() {
        assert_eq!(Olh::new(eps(0.1)).g(), 2);
        assert_eq!(Olh::new(eps(1.0)).g(), 4); // ⌈e⌉ + 1 = 4 (e ≈ 2.72 rounds to 3)
        assert!(Olh::new(eps(4.0)).g() > 40);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let olh = Olh::new(eps(1.0));
        for v in 0..100 {
            let h = olh.hash(42, v);
            assert_eq!(h, olh.hash(42, v));
            assert!(h < olh.g());
        }
    }

    #[test]
    fn reports_are_valid() {
        let olh = Olh::new(eps(2.0));
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for v in 0..20 {
            let r = olh.perturb(&mut rng, v);
            assert!(r.value < olh.g());
        }
    }

    #[test]
    fn estimator_recovers_skewed_distribution() {
        let olh = Olh::new(eps(1.5));
        let mut agg = OlhAggregator::new(olh.clone(), 20).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let n = 60_000;
        for i in 0..n {
            let v = if i % 10 < 6 { 3 } else { 11 };
            agg.add(&olh.perturb(&mut rng, v));
        }
        assert!(
            (agg.estimate(3) - 0.6 * n as f64).abs() < 0.05 * n as f64,
            "{}",
            agg.estimate(3)
        );
        assert!((agg.estimate(11) - 0.4 * n as f64).abs() < 0.05 * n as f64);
        assert!(agg.estimate(0).abs() < 0.05 * n as f64);
        assert_eq!(agg.top_m(2), vec![3, 11]);
    }

    #[test]
    fn variance_is_domain_independent_like_oue() {
        // Empirical check: zero-frequency estimate spread on domain 50 is
        // comparable to the OUE theory value, far below GRR's at this size.
        let e = 1.0;
        let olh = Olh::new(eps(e));
        let mut agg = OlhAggregator::new(olh.clone(), 50).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let n = 20_000;
        for _ in 0..n {
            agg.add(&olh.perturb(&mut rng, 0)); // everyone holds 0
        }
        // Empirical variance of the 49 zero-frequency estimates.
        let zeros: Vec<f64> = (1..50).map(|v| agg.estimate(v)).collect();
        let mean = zeros.iter().sum::<f64>() / zeros.len() as f64;
        let var = zeros.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / zeros.len() as f64;
        let oue_var = crate::theory::oue_variance(e, n as f64);
        let grr_var = crate::theory::grr_variance(50, e, n as f64);
        assert!(
            var < grr_var / 2.0,
            "var {var:.0} should be far below GRR {grr_var:.0}"
        );
        assert!(
            var < oue_var * 3.0,
            "var {var:.0} should be near OUE {oue_var:.0}"
        );
    }

    #[test]
    fn rejects_degenerate_domain() {
        assert!(OlhAggregator::new(Olh::new(eps(1.0)), 1).is_err());
    }
}
