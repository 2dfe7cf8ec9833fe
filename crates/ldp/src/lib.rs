//! Local differential privacy primitives for the PrivShape reproduction.
//!
//! Everything §II-B, §III-C and §V of the paper rely on:
//!
//! * [`Epsilon`] — validated privacy budgets with sequential/parallel
//!   composition helpers;
//! * [`Grr`] / [`GrrAggregator`] — Generalized Randomized Response with the
//!   standard unbiased frequency estimator [`Grr::estimate`] (used for
//!   length estimation and sub-shape estimation);
//! * [`Oue`] / [`OueAggregator`] — Optimized Unary Encoding and its
//!   estimator [`Oue::estimate`] (used by the labeled two-level refinement
//!   in §V-E); [`Oue::perturb`] draws its `d` words in bulk and compares
//!   each with an integer threshold;
//! * [`Olh`] / [`OlhAggregator`] — Optimized Local Hashing, whose reports
//!   count as support for the values they hash to ([`Olh::supports`],
//!   [`Olh::estimate`]);
//! * [`ExpMech`] — the Exponential Mechanism over scored candidates
//!   (used for candidate selection, Eq. (2)), in two steps:
//!   [`ExpMech::prepare`] turns the scores into a selection row that does
//!   not depend on the stream, and [`ExpMech::select_prepared`] draws from
//!   it in bulk, two passes per chunk of 64 draws, so a row can be kept and
//!   drawn from on many streams;
//! * [`PiecewiseMechanism`] / [`PiecewiseAggregator`] — Wang et al.'s
//!   Piecewise Mechanism for bounded numeric values (used by the
//!   PatternLDP baseline), with its report check
//!   [`PiecewiseMechanism::check`] and mean estimator
//!   [`PiecewiseMechanism::mean`];
//! * [`top_m`] — the indices of the largest estimates, the one ranking
//!   every frequency oracle uses;
//! * [`theory`] — [`theory::amplification`]: the subsampled-ε bound and
//!   the cumulative [`BudgetLedger`] the continual extraction mode spends
//!   against (the closed-form estimator variances beside it are compiled
//!   for tests only).
//!
//! The estimators live on the mechanisms and read plain counts, so a
//! server that keeps its own count vectors estimates exactly what the
//! aggregators here do. All primitives take the RNG explicitly so
//! simulations are deterministic.
//!
//! # Example
//!
//! ```
//! use privshape_ldp::{Epsilon, Grr, GrrAggregator};
//! use rand::SeedableRng;
//!
//! let eps = Epsilon::new(2.0).unwrap();
//! let grr = Grr::new(4, eps).unwrap();
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
//! let mut agg = GrrAggregator::new(&grr);
//! for _ in 0..1000 {
//!     agg.add(grr.perturb(&mut rng, 2)); // everyone holds item 2
//! }
//! let est = agg.estimates();
//! assert!(est[2] > 800.0); // unbiased estimate concentrates near 1000
//! assert_eq!(agg.top_m(1), vec![2]);
//! ```

// Redundant with the workspace-level lint, but explicit: every public
// item in the privacy substrate must be documented.
#![warn(missing_docs)]
// Library code returns no panicking shortcuts; tests may.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod budget;
mod em;
mod grr;
mod olh;
mod oue;
mod piecewise;
pub mod theory;

pub use budget::{Epsilon, LdpError, PrivacyLevel, Result};
pub use em::ExpMech;
pub use grr::{Grr, GrrAggregator};
pub use olh::{Olh, OlhAggregator, OlhReport};
pub use oue::{Oue, OueAggregator, OueReport};
pub use piecewise::{PiecewiseAggregator, PiecewiseMechanism};
pub use theory::amplification::{amplified_epsilon, rate_for_amplified, BudgetLedger, EpochCharge};

/// Indices of the `m` largest `estimates`, largest first. Ties go to the
/// smaller index, and `total_cmp` keeps the order deterministic even when
/// an estimate is NaN (a budget so small that `p = q` divides zero by
/// zero), so no ranking can panic or depend on the sort.
pub fn top_m(estimates: &[f64], m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..estimates.len()).collect();
    idx.sort_by(|&a, &b| estimates[b].total_cmp(&estimates[a]).then(a.cmp(&b)));
    idx.truncate(m);
    idx
}
