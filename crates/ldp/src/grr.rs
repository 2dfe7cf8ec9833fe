//! Generalized Randomized Response (k-RR) with unbiased frequency
//! aggregation — the paper's `Φ(·)` for length and sub-shape estimation.

use crate::budget::{Epsilon, LdpError, Result};
use rand::{Rng, RngExt};

/// Generalized Randomized Response over a categorical domain `{0, …, d−1}`.
///
/// Reports the true value with probability `p = e^ε / (e^ε + d − 1)` and
/// each other value with probability `q = 1 / (e^ε + d − 1)`; the ratio
/// `p / q = e^ε` gives exactly ε-LDP.
#[derive(Debug, Clone)]
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
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, value: usize) -> usize {
        self.try_perturb(rng, value)
            .expect("value within GRR domain")
    }
}

/// Server-side accumulator producing unbiased count estimates
/// `ĉ(v) = (n_v − n·q) / (p − q)` from GRR reports.
///
/// `PartialEq` compares the raw counts (and the mechanism constants), so
/// two aggregation pipelines can be asserted bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct GrrAggregator {
    counts: Vec<u64>,
    total: u64,
    p: f64,
    q: f64,
}

impl GrrAggregator {
    /// Creates an aggregator matched to a [`Grr`] instance.
    pub fn new(grr: &Grr) -> Self {
        Self {
            counts: vec![0; grr.domain],
            total: 0,
            p: grr.p,
            q: grr.q,
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

    /// Folds another aggregator's counts into this one. Raw counts are
    /// plain integer sums, so merging is associative and commutative —
    /// shards can aggregate independently and combine in any order.
    ///
    /// # Panics
    ///
    /// Panics when the two aggregators were built for different domains
    /// (merging them would be meaningless).
    pub fn merge(&mut self, other: &GrrAggregator) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge GRR aggregators over different domains"
        );
        debug_assert!(self.p == other.p && self.q == other.q);
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Raw per-value report counts — the full dynamic state of the
    /// aggregator (the mechanism constants are derivable from the round
    /// spec). Exposed for snapshot serialization.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Overwrites the dynamic state from snapshotted raw counts.
    ///
    /// The mechanism constants stay as constructed; only the counts and
    /// report total are replaced. Untrusted snapshot bytes are validated
    /// against the GRR structural invariants: the count vector must match
    /// this aggregator's domain and sum exactly to `total` (every report
    /// increments exactly one count).
    pub fn restore_counts(&mut self, counts: &[u64], total: u64) -> Result<()> {
        if counts.len() != self.counts.len() {
            return Err(LdpError::MalformedReport(format!(
                "GRR snapshot domain {} != aggregator domain {}",
                counts.len(),
                self.counts.len()
            )));
        }
        let Some(sum) = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) else {
            return Err(LdpError::MalformedReport(
                "GRR snapshot counts overflow u64".into(),
            ));
        };
        if sum != total {
            return Err(LdpError::MalformedReport(format!(
                "GRR snapshot counts sum to {sum} but claim {total} reports"
            )));
        }
        self.counts.copy_from_slice(counts);
        self.total = total;
        Ok(())
    }

    /// Unbiased estimate of the number of users holding `v`.
    pub fn estimate(&self, v: usize) -> f64 {
        let n = self.total as f64;
        (self.counts[v] as f64 - n * self.q) / (self.p - self.q)
    }

    /// Unbiased estimates for the full domain.
    pub fn estimates(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|v| self.estimate(v)).collect()
    }

    /// The domain item with the largest estimated count (ties broken toward
    /// the smaller index, keeping results deterministic).
    pub fn argmax(&self) -> usize {
        let est = self.estimates();
        let mut best = 0;
        for (i, &e) in est.iter().enumerate() {
            if e > est[best] {
                best = i;
            }
        }
        best
    }

    /// Indices of the `m` largest estimates, descending (deterministic
    /// tie-break toward smaller indices).
    pub fn top_m(&self, m: usize) -> Vec<usize> {
        let est = self.estimates();
        let mut idx: Vec<usize> = (0..est.len()).collect();
        idx.sort_by(|&a, &b| est[b].total_cmp(&est[a]).then(a.cmp(&b)));
        idx.truncate(m);
        idx
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
        assert_eq!(agg.argmax(), 0);
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
    fn merge_equals_single_aggregation() {
        let g = Grr::new(5, eps(1.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let reports: Vec<usize> = (0..999).map(|i| g.perturb(&mut rng, i % 5)).collect();
        let mut whole = GrrAggregator::new(&g);
        for &r in &reports {
            whole.add(r);
        }
        // Split into three shards, merge the last two into the first in
        // reverse order.
        let mut shards: Vec<GrrAggregator> = (0..3).map(|_| GrrAggregator::new(&g)).collect();
        for (i, &r) in reports.iter().enumerate() {
            shards[i % 3].add(r);
        }
        let (first, rest) = shards.split_at_mut(1);
        for shard in rest.iter().rev() {
            first[0].merge(shard);
        }
        assert_eq!(first[0].total(), whole.total());
        assert_eq!(first[0].estimates(), whole.estimates());
    }

    #[test]
    #[should_panic(expected = "different domains")]
    fn merge_rejects_mismatched_domains() {
        let mut a = GrrAggregator::new(&Grr::new(3, eps(1.0)).unwrap());
        let b = GrrAggregator::new(&Grr::new(4, eps(1.0)).unwrap());
        a.merge(&b);
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
