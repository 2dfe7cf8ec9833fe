//! The Piecewise Mechanism for one-dimensional numeric values
//! (Wang et al., "Collecting and Analyzing Data from Smart Device Users with
//! Local Differential Privacy", 2019).
//!
//! Used by the PatternLDP baseline to perturb sampled series values: for an
//! input `t ∈ [−1, 1]` the output lands in `[−C, C]` with a high-probability
//! plateau `[l(t), r(t)]` around the truth, and the estimator is unbiased.

use crate::budget::{Epsilon, LdpError, Result};
use rand::{Rng, RngExt};

/// Piecewise Mechanism over the input range `[−1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseMechanism {
    eps: Epsilon,
    /// Output range half-width `C = (e^{ε/2} + 1) / (e^{ε/2} − 1)`.
    c: f64,
    /// Probability mass of the central plateau.
    p_center: f64,
}

impl PiecewiseMechanism {
    /// Creates the mechanism for budget ε.
    pub fn new(eps: Epsilon) -> Self {
        let half = (eps.value() / 2.0).exp();
        Self {
            eps,
            c: (half + 1.0) / (half - 1.0),
            p_center: half / (half + 1.0),
        }
    }

    /// Budget this instance satisfies.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Output range half-width `C`.
    pub fn output_bound(&self) -> f64 {
        self.c
    }

    /// Left edge of the high-probability plateau for input `t`.
    fn l(&self, t: f64) -> f64 {
        (self.c + 1.0) / 2.0 * t - (self.c - 1.0) / 2.0
    }

    /// Perturbs `t ∈ [−1, 1]`, returning a value in `[−C, C]`.
    pub fn try_perturb<R: Rng + ?Sized>(&self, rng: &mut R, t: f64) -> Result<f64> {
        if !(-1.0..=1.0).contains(&t) || !t.is_finite() {
            return Err(LdpError::ValueOutOfRange {
                value: t,
                lo: -1.0,
                hi: 1.0,
            });
        }
        let l = self.l(t);
        let r = l + self.c - 1.0;
        let out = if rng.random_bool(self.p_center) {
            // Uniform on the plateau [l, r] (width C − 1).
            l + rng.random::<f64>() * (self.c - 1.0)
        } else {
            // Uniform on the side intervals [−C, l) ∪ (r, C], whose total
            // width is C + 1.
            let left_width = l + self.c;
            let u = rng.random::<f64>() * (self.c + 1.0);
            if u < left_width {
                -self.c + u
            } else {
                r + (u - left_width)
            }
        };
        Ok(out)
    }

    /// Panicking variant for validated inner loops; clamps tiny numeric
    /// overshoot (±1e-12) before checking.
    ///
    /// # Panics
    ///
    /// If `t` is NaN, which no clamp brings into range.
    #[allow(clippy::expect_used)] // the clamp puts every input but NaN in range
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, t: f64) -> f64 {
        let clamped = t.clamp(-1.0, 1.0);
        self.try_perturb(rng, clamped)
            .expect("clamped input is in range")
    }

    /// Fixed-point scale for quantized reports: 20 fractional bits.
    ///
    /// Reports crossing a wire boundary are quantized to integers so the
    /// server-side sum is exact — associative and commutative regardless
    /// of shard merge order, which f64 addition cannot guarantee.
    pub const SCALE: i64 = 1 << 20;

    /// Quantizes a perturbed output to the fixed-point wire grid.
    pub fn quantize(&self, y: f64) -> i64 {
        (y * Self::SCALE as f64).round() as i64
    }

    /// Largest magnitude a valid quantized report can carry (`⌈C·SCALE⌉`).
    pub fn quantized_bound(&self) -> i64 {
        (self.c * Self::SCALE as f64).ceil() as i64
    }

    /// Checks one quantized report (untrusted wire input) against the
    /// mechanism's output range.
    pub fn check(&self, report: i64) -> Result<()> {
        // `unsigned_abs`: `i64::MIN` has no positive twin to compare.
        if report.unsigned_abs() > self.quantized_bound().unsigned_abs() {
            return Err(LdpError::ValueOutOfRange {
                value: report as f64 / Self::SCALE as f64,
                lo: -self.c,
                hi: self.c,
            });
        }
        Ok(())
    }

    /// Unbiased estimate of the mean true input from the exact `sum` of
    /// `total` quantized reports, or `None` when there are none.
    pub fn mean(&self, sum: i128, total: u64) -> Option<f64> {
        if total == 0 {
            return None;
        }
        Some(sum as f64 / total as f64 / Self::SCALE as f64)
    }
}

/// Server-side aggregator for quantized Piecewise reports.
///
/// Holds an exact integer sum (`i128`, so overflow is out of reach for any
/// realistic population) plus a report count; the mean estimator
/// [`PiecewiseMechanism::mean`] is unbiased for the mean of the true
/// inputs, and integer sums come out the same in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseAggregator {
    mechanism: PiecewiseMechanism,
    sum: i128,
    total: u64,
}

impl PiecewiseAggregator {
    /// Creates an empty aggregator for the given mechanism.
    pub fn new(mechanism: PiecewiseMechanism) -> Self {
        Self {
            mechanism,
            sum: 0,
            total: 0,
        }
    }

    /// Ingests one quantized report, rejecting what
    /// [`PiecewiseMechanism::check`] rejects.
    pub fn add(&mut self, report: i64) -> Result<()> {
        self.mechanism.check(report)?;
        self.sum += i128::from(report);
        self.total += 1;
        Ok(())
    }

    /// Number of reports ingested.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Unbiased estimate of the mean true input, or `None` when no reports
    /// have arrived.
    pub fn mean(&self) -> Option<f64> {
        self.mechanism.mean(self.sum, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn pm(e: f64) -> PiecewiseMechanism {
        PiecewiseMechanism::new(Epsilon::new(e).unwrap())
    }

    #[test]
    fn output_stays_in_declared_range() {
        let m = pm(1.0);
        let c = m.output_bound();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for i in 0..5000 {
            let t = -1.0 + 2.0 * (i as f64 / 4999.0);
            let y = m.perturb(&mut rng, t);
            assert!((-c..=c).contains(&y), "t={t} y={y} C={c}");
        }
    }

    #[test]
    fn rejects_out_of_range_inputs() {
        let m = pm(1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert!(m.try_perturb(&mut rng, 1.5).is_err());
        assert!(m.try_perturb(&mut rng, f64::NAN).is_err());
    }

    #[test]
    fn estimator_is_unbiased() {
        let m = pm(2.0);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for &t in &[-0.8, 0.0, 0.3, 1.0] {
            let n = 60_000;
            let mean: f64 = (0..n).map(|_| m.perturb(&mut rng, t)).sum::<f64>() / n as f64;
            assert!((mean - t).abs() < 0.05, "t={t} mean={mean}");
        }
    }

    #[test]
    fn plateau_receives_expected_mass() {
        let m = pm(1.5);
        let t = 0.25;
        let l = m.l(t);
        let r = l + m.output_bound() - 1.0;
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let n = 40_000;
        let inside = (0..n)
            .filter(|_| {
                let y = m.perturb(&mut rng, t);
                (l..=r).contains(&y)
            })
            .count();
        let frac = inside as f64 / n as f64;
        assert!(
            (frac - m.p_center).abs() < 0.01,
            "frac={frac} want={}",
            m.p_center
        );
    }

    #[test]
    fn larger_budget_shrinks_output_bound() {
        assert!(pm(4.0).output_bound() < pm(1.0).output_bound());
        assert!(pm(0.1).output_bound() > 10.0);
    }

    #[test]
    fn perturb_clamps_numeric_overshoot() {
        let m = pm(1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        // Exactly representable overshoot from upstream arithmetic.
        let y = m.perturb(&mut rng, 1.0 + 1e-13);
        assert!(y.is_finite());
    }

    #[test]
    fn quantization_error_is_sub_grid() {
        let m = pm(1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        for _ in 0..200 {
            let y = m.perturb(&mut rng, 0.3);
            let q = m.quantize(y);
            assert!(q.abs() <= m.quantized_bound());
            let back = q as f64 / PiecewiseMechanism::SCALE as f64;
            assert!((back - y).abs() <= 0.5 / PiecewiseMechanism::SCALE as f64);
        }
    }

    #[test]
    fn aggregated_mean_is_unbiased() {
        let m = pm(2.0);
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let mut agg = PiecewiseAggregator::new(m);
        let t = 0.4;
        for _ in 0..60_000 {
            agg.add(m.quantize(m.perturb(&mut rng, t))).unwrap();
        }
        let mean = agg.mean().unwrap();
        assert!((mean - t).abs() < 0.05, "mean={mean}");
        assert!(PiecewiseAggregator::new(m).mean().is_none());
    }

    #[test]
    fn add_rejects_out_of_bound_wire_values() {
        let m = pm(1.0);
        let mut agg = PiecewiseAggregator::new(m);
        assert!(agg.add(m.quantized_bound() + 1).is_err());
        assert!(agg.add(-(m.quantized_bound() + 1)).is_err());
        // The one value whose magnitude overflows `i64`.
        assert!(agg.add(i64::MIN).is_err());
        assert_eq!(agg.total(), 0);
    }
}
