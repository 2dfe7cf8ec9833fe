//! Closed-form estimator variances for the frequency oracles, and the
//! [`amplification`] bound the continual extraction mode spends against.
//!
//! The variances (Wang et al. 2017) justify the paper's design choices:
//! GRR's variance grows linearly in the domain size `d`, so for the large
//! `c·k·L` refinement grid OUE — whose variance is domain-independent — is
//! the better oracle (§V-E). No code path needs them, so they are compiled
//! for tests only, where they check the empirical estimators.
//!
//! The [`amplification`] submodule carries the second body of theory this
//! workspace leans on: privacy amplification by subsampling and the
//! cumulative budget ledger of the continual extraction mode.

pub mod amplification;

/// Variance of the GRR unbiased count estimator for one item, with `n`
/// reports, domain `d`, budget `eps`, in the low-frequency regime
/// (`f ≈ 0`): `n · q(1−q) / (p−q)²`.
#[cfg(test)]
pub(crate) fn grr_variance(d: usize, eps: f64, n: f64) -> f64 {
    let e = eps.exp();
    let p = e / (e + d as f64 - 1.0);
    let q = 1.0 / (e + d as f64 - 1.0);
    n * q * (1.0 - q) / ((p - q) * (p - q))
}

/// Variance of the OUE unbiased count estimator in the same regime:
/// `n · 4e^ε / (e^ε − 1)²`, independent of the domain size.
#[cfg(test)]
pub(crate) fn oue_variance(eps: f64, n: f64) -> f64 {
    let e = eps.exp();
    n * 4.0 * e / ((e - 1.0) * (e - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grr_variance_grows_with_domain() {
        let v2 = grr_variance(2, 1.0, 1000.0);
        let v100 = grr_variance(100, 1.0, 1000.0);
        assert!(v100 > v2 * 10.0);
    }

    #[test]
    fn variances_shrink_with_budget() {
        assert!(grr_variance(10, 4.0, 1.0) < grr_variance(10, 1.0, 1.0));
        assert!(oue_variance(4.0, 1.0) < oue_variance(1.0, 1.0));
    }

    #[test]
    fn binary_grr_matches_classic_rr_variance() {
        // For d = 2, GRR is Warner's randomized response:
        // var = e^ε/(e^ε−1)² per report.
        let eps = 1.3f64;
        let e = eps.exp();
        let want = e / ((e - 1.0) * (e - 1.0));
        assert!((grr_variance(2, eps, 1.0) - want).abs() < 1e-12);
    }
}
