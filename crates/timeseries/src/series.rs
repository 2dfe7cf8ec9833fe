use crate::error::{Result, TsError};

/// An owned, finite, non-empty sequence of `f64` samples aligned with their
/// generation order (the paper's `R = {r_1, …, r_m}`).
///
/// Construction validates that every sample is finite so that downstream
/// numerical code (PAA averaging, z-scores, DTW) never has to re-check.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series, rejecting empty input and non-finite samples.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(TsError::EmptySeries);
        }
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() {
                return Err(TsError::NonFiniteSample { index, value });
            }
        }
        Ok(Self { values })
    }

    /// Number of samples `m`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// A `TimeSeries` is never empty, but the method keeps clippy and
    /// call-sites that pattern-match on emptiness honest.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrow the raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume the series and return its samples.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation (the convention used by z-score
    /// normalization in the SAX literature).
    pub fn std(&self) -> f64 {
        self.std_about(self.mean())
    }

    /// [`TimeSeries::std`] about a mean the caller already holds.
    fn std_about(&self, mean: f64) -> f64 {
        let var = self
            .values
            .iter()
            .map(|v| {
                let d = v - mean;
                d * d
            })
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns a z-score-normalized copy: `(x - μ) / σ`.
    ///
    /// A (near-)constant series has no shape information; it normalizes to
    /// all zeros rather than dividing by a vanishing σ.
    pub fn z_normalized(&self) -> TimeSeries {
        let mean = self.mean();
        let std = self.std_about(mean);
        let values = if std < 1e-12 {
            vec![0.0; self.values.len()]
        } else {
            self.values.iter().map(|v| (v - mean) / std).collect()
        };
        TimeSeries { values }
    }

    /// Truncates to the first `len` samples or pads by repeating the final
    /// sample, returning a series of exactly `len` samples.
    pub fn resized(&self, len: usize) -> Result<TimeSeries> {
        if len == 0 {
            return Err(TsError::EmptySeries);
        }
        let mut values = self.values.clone();
        if values.len() > len {
            values.truncate(len);
        } else {
            let last = *values.last().expect("non-empty by construction");
            values.resize(len, last);
        }
        Ok(TimeSeries { values })
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl TryFrom<Vec<f64>> for TimeSeries {
    type Error = TsError;

    fn try_from(values: Vec<f64>) -> Result<Self> {
        TimeSeries::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(TimeSeries::new(vec![]), Err(TsError::EmptySeries)));
    }

    #[test]
    fn rejects_nan_and_inf() {
        assert!(matches!(
            TimeSeries::new(vec![1.0, f64::NAN]),
            Err(TsError::NonFiniteSample { index: 1, .. })
        ));
        assert!(TimeSeries::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn summary_statistics() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        let expected_std = (1.25f64).sqrt();
        assert!((s.std() - expected_std).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn z_normalization_has_zero_mean_unit_std() {
        let s = ts(&[3.0, 7.0, 1.0, 9.0, 5.0]).z_normalized();
        assert!(s.mean().abs() < 1e-12);
        assert!((s.std() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalization_of_constant_series_is_zero() {
        let s = ts(&[4.2, 4.2, 4.2]).z_normalized();
        assert_eq!(s.values(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn resized_truncates_and_pads() {
        let s = ts(&[1.0, 2.0, 3.0]);
        assert_eq!(s.resized(2).unwrap().values(), &[1.0, 2.0]);
        assert_eq!(s.resized(5).unwrap().values(), &[1.0, 2.0, 3.0, 3.0, 3.0]);
        assert!(s.resized(0).is_err());
    }

    #[test]
    fn try_from_round_trips() {
        let s = TimeSeries::try_from(vec![1.0, -1.0]).unwrap();
        assert_eq!(s.into_values(), vec![1.0, -1.0]);
    }
}
