//! Optimized Unary Encoding (Wang et al., USENIX Security 2017).
//!
//! OUE perturbs a one-hot encoding bit-by-bit with asymmetric flip
//! probabilities (`p = 1/2` for the 1-bit, `q = 1/(e^ε + 1)` for 0-bits),
//! which minimizes estimator variance for large domains. The paper uses it
//! for the labeled two-level refinement where the domain is the `c·k`
//! candidates × `k` classes grid (§V-E).
//!
//! A device decides its `d` coins in bulk: it draws `d` words at once and
//! sets bit `i` iff the word's top 53 bits fall below the bit's integer
//! threshold, which is exactly `random_bool(p_i)` on the same word.

use crate::budget::{Epsilon, LdpError, Result};
use rand::Rng;

/// Words drawn per bulk draw of [`Oue::perturb`].
const CHUNK: usize = 64;

/// `⌈prob · 2^53⌉`: a 53-bit sample `x` satisfies `x < ⌈prob · 2^53⌉` iff
/// `x · 2^-53 < prob`, the test `random_bool(prob)` makes. Both sides are
/// exact: `x` converts to `f64` exactly and scaling by a power of two
/// rounds nothing, and an integer lies below the real `prob · 2^53` iff it
/// lies below its ceiling.
fn threshold(prob: f64) -> u64 {
    (prob * (1u64 << 53) as f64).ceil() as u64
}

/// One perturbed OUE report: the set bit positions of the noisy unary
/// vector. Sparse storage — with `q = 1/(e^ε+1)` the expected number of set
/// bits is `≈ d·q`, far below `d` for practical ε.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OueReport {
    set_bits: Vec<usize>,
}

impl OueReport {
    /// Positions reported as 1, ascending.
    pub fn set_bits(&self) -> &[usize] {
        &self.set_bits
    }

    /// Rebuilds a report from its set-bit positions — the decode side of a
    /// wire codec. The positions must be strictly ascending (the invariant
    /// [`Oue::perturb`] always produces); anything else is refused so a
    /// corrupted buffer can never forge a structurally invalid report.
    pub fn from_set_bits(set_bits: Vec<usize>) -> Result<Self> {
        if let Some(w) = set_bits.windows(2).find(|w| w[0] >= w[1]) {
            return Err(LdpError::MalformedReport(format!(
                "OUE set bits must be strictly ascending, got {} then {}",
                w[0], w[1]
            )));
        }
        Ok(Self { set_bits })
    }
}

/// The OUE mechanism over a domain of `d ≥ 2` items.
#[derive(Debug, Clone, PartialEq)]
pub struct Oue {
    domain: usize,
    eps: Epsilon,
    q: f64,
    /// [`threshold`] of [`Oue::P`], for the truth bit.
    keep_p: u64,
    /// [`threshold`] of `q`, for every other bit.
    keep_q: u64,
}

impl Oue {
    /// Truth-bit retention probability (fixed at 1/2 by the OUE optimum).
    pub const P: f64 = 0.5;

    /// Creates the mechanism.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self> {
        if domain < 2 {
            return Err(LdpError::InvalidDomain(domain));
        }
        let q = 1.0 / (eps.exp() + 1.0);
        Ok(Self {
            domain,
            eps,
            q,
            keep_p: threshold(Self::P),
            keep_q: threshold(q),
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

    /// Zero-bit flip probability `q = 1/(e^ε + 1)`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// [`Oue::perturb`], refusing `value ≥ d` with a typed error.
    pub(crate) fn try_perturb<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        value: usize,
    ) -> Result<OueReport> {
        if value >= self.domain {
            return Err(LdpError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        let mut set_bits = Vec::new();
        let mut words = [0u64; CHUNK];
        for start in (0..self.domain).step_by(CHUNK) {
            let words = &mut words[..CHUNK.min(self.domain - start)];
            rng.fill_u64(words);
            for (bit, &word) in (start..).zip(words.iter()) {
                let keep = if bit == value {
                    self.keep_p
                } else {
                    self.keep_q
                };
                if word >> 11 < keep {
                    set_bits.push(bit);
                }
            }
        }
        Ok(OueReport { set_bits })
    }

    /// Perturbs the one-hot encoding of `value`: one word per bit, drawn
    /// in bulk, bit `i` set with probability `P` at `value` and `q`
    /// elsewhere. The set bits and the stream position after the call are
    /// those of `random_bool(P or q)` for bits `0..d` in order.
    ///
    /// # Panics
    ///
    /// When `value ≥ d`; callers check the domain first.
    #[allow(clippy::expect_used)] // the caller vouches for the domain
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, value: usize) -> OueReport {
        self.try_perturb(rng, value)
            .expect("value within OUE domain")
    }

    /// Unbiased estimate of how many of `total` users hold a value whose
    /// bit `count` of their reports set: `ĉ = (count − total·q) / (p − q)`.
    pub fn estimate(&self, count: u64, total: u64) -> f64 {
        (count as f64 - total as f64 * self.q) / (Self::P - self.q)
    }
}

/// Server-side accumulator of OUE reports: the per-bit counts that
/// [`Oue::estimate`] turns into unbiased count estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct OueAggregator {
    oue: Oue,
    counts: Vec<u64>,
    total: u64,
}

impl OueAggregator {
    /// Creates an aggregator matched to an [`Oue`] instance.
    pub fn new(oue: &Oue) -> Self {
        Self {
            oue: oue.clone(),
            counts: vec![0; oue.domain],
            total: 0,
        }
    }

    /// Ingests one report.
    pub fn add(&mut self, report: &OueReport) {
        for &bit in &report.set_bits {
            self.counts[bit] += 1;
        }
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
        self.oue.estimate(self.counts[v], self.total)
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
    fn construction_validates() {
        assert!(Oue::new(1, eps(1.0)).is_err());
        let o = Oue::new(10, eps(1.0)).unwrap();
        assert!((o.q() - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn out_of_domain_rejected() {
        let o = Oue::new(3, eps(1.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(matches!(
            o.try_perturb(&mut rng, 3),
            Err(LdpError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn report_bits_sorted_and_in_domain() {
        let o = Oue::new(12, eps(0.5)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for v in 0..12 {
            let r = o.perturb(&mut rng, v);
            assert!(r.set_bits().windows(2).all(|w| w[0] < w[1]));
            assert!(r.set_bits().iter().all(|&b| b < 12));
        }
    }

    #[test]
    fn empirical_bit_rates_match_p_and_q() {
        let o = Oue::new(6, eps(2.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let n = 30_000;
        let mut ones_at_truth = 0u64;
        let mut ones_elsewhere = 0u64;
        for _ in 0..n {
            let r = o.perturb(&mut rng, 4);
            for &b in r.set_bits() {
                if b == 4 {
                    ones_at_truth += 1;
                } else {
                    ones_elsewhere += 1;
                }
            }
        }
        let p_hat = ones_at_truth as f64 / n as f64;
        let q_hat = ones_elsewhere as f64 / (n as f64 * 5.0);
        assert!((p_hat - 0.5).abs() < 0.01, "p̂={p_hat}");
        assert!((q_hat - o.q()).abs() < 0.01, "q̂={q_hat}");
    }

    #[test]
    fn estimator_recovers_distribution() {
        let o = Oue::new(5, eps(1.5)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut agg = OueAggregator::new(&o);
        let n = 40_000;
        for i in 0..n {
            let v = if i % 2 == 0 { 1 } else { 3 };
            agg.add(&o.perturb(&mut rng, v));
        }
        assert!((agg.estimate(1) - 0.5 * n as f64).abs() < 0.03 * n as f64);
        assert!((agg.estimate(3) - 0.5 * n as f64).abs() < 0.03 * n as f64);
        assert!(agg.estimate(0).abs() < 0.03 * n as f64);
        let top = agg.top_m(2);
        assert!(top.contains(&1) && top.contains(&3));
    }

    #[test]
    fn from_set_bits_round_trips_and_validates() {
        let o = Oue::new(8, eps(1.0)).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for v in 0..8 {
            let r = o.perturb(&mut rng, v);
            let rebuilt = OueReport::from_set_bits(r.set_bits().to_vec()).unwrap();
            assert_eq!(rebuilt, r);
        }
        assert!(matches!(
            OueReport::from_set_bits(vec![3, 3]),
            Err(LdpError::MalformedReport(_))
        ));
        assert!(matches!(
            OueReport::from_set_bits(vec![5, 2]),
            Err(LdpError::MalformedReport(_))
        ));
        assert!(OueReport::from_set_bits(Vec::new()).is_ok());
    }

    #[test]
    fn oue_beats_grr_variance_on_large_domains() {
        // The reason the paper switches to OUE for the ck² refinement grid.
        let d = 100;
        let e = 1.0;
        let grr_var = crate::theory::grr_variance(d, e, 10_000.0);
        let oue_var = crate::theory::oue_variance(e, 10_000.0);
        assert!(oue_var < grr_var);
    }
}
