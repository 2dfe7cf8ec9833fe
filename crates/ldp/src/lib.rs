//! Local differential privacy primitives for the PrivShape reproduction.
//!
//! Everything §II-B, §III-C and §V of the paper rely on:
//!
//! * [`Epsilon`] — validated privacy budgets with sequential/parallel
//!   composition helpers;
//! * [`Grr`] / [`GrrAggregator`] — Generalized Randomized Response with the
//!   standard unbiased frequency estimator (used for length estimation and
//!   sub-shape estimation);
//! * [`Oue`] / [`OueAggregator`] — Optimized Unary Encoding (used by the
//!   labeled two-level refinement in §V-E);
//! * [`ExpMech`] — the Exponential Mechanism over scored candidates
//!   (used for candidate selection, Eq. (2)), in two steps:
//!   [`ExpMech::prepare`] turns the scores into a selection row that does
//!   not depend on the stream, and [`ExpMech::select_prepared`] draws from
//!   it, so a row can be kept and drawn from on many streams;
//! * [`PiecewiseMechanism`] — Wang et al.'s Piecewise Mechanism for bounded
//!   numeric values (used by the PatternLDP baseline);
//! * [`laplace_noise`] — Laplace sampling for value-perturbation ablations;
//! * [`theory`] — closed-form estimator variances used in tests and docs,
//!   plus [`theory::amplification`]: the subsampled-ε bound and the
//!   cumulative [`BudgetLedger`] the continual extraction mode spends
//!   against.
//!
//! All primitives take the RNG explicitly so simulations are deterministic.
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
//! ```

// Redundant with the workspace-level lint, but explicit: every public
// item in the privacy substrate must be documented.
#![warn(missing_docs)]

mod budget;
mod em;
mod grr;
mod laplace;
mod olh;
mod oue;
mod piecewise;
pub mod theory;

pub use budget::{Epsilon, LdpError, PrivacyLevel, Result};
pub use em::ExpMech;
pub use grr::{Grr, GrrAggregator};
pub use laplace::laplace_noise;
pub use olh::{Olh, OlhAggregator, OlhReport};
pub use oue::{Oue, OueAggregator, OueReport};
pub use piecewise::{PiecewiseAggregator, PiecewiseMechanism};
pub use theory::amplification::{amplified_epsilon, rate_for_amplified, BudgetLedger, EpochCharge};
