//! Configuration types shared by the baseline mechanism and PrivShape.

use crate::error::{Error, Result};
use privshape_distance::DistanceKind;
use privshape_ldp::Epsilon;
use privshape_timeseries::SaxParams;

/// The most threads an explicit thread count resolves to: the fleet and
/// simulation threads of the drivers built on this crate. A larger count
/// is clamped, so a mistyped setting cannot start thousands of threads.
pub const MAX_THREADS: usize = 64;

/// How each user transforms their raw series into a symbol sequence before
/// any report leaves the device.
#[derive(Debug, Clone, PartialEq)]
pub enum Preprocessing {
    /// SAX (PAA + Gaussian symbolization); `compress: true` gives the
    /// paper's Compressive SAX, `false` the "No Compression" ablation
    /// (Fig. 18b).
    Sax {
        /// Whether to merge runs of repeated symbols.
        compress: bool,
    },
    /// The "Without SAX" ablation (Fig. 18a): no PAA; every raw z-scored
    /// point is discretized on a uniform grid of `step`-wide intervals
    /// spanning `[-bound, bound]` (the paper uses step 0.33 with boundaries
    /// ending at ±0.99, i.e. eight segments), then optionally compressed.
    UniformGrid {
        /// Interval width.
        step: f64,
        /// Outermost finite boundary; values beyond fall in the edge bins.
        bound: f64,
        /// Whether to merge runs of repeated symbols afterwards.
        compress: bool,
    },
}

impl Default for Preprocessing {
    fn default() -> Self {
        Preprocessing::Sax { compress: true }
    }
}

impl Preprocessing {
    /// The paper's Fig. 18a grid: 0.33-unit intervals ending at ±0.99
    /// (eight segments).
    pub fn paper_uniform_grid() -> Self {
        Preprocessing::UniformGrid {
            step: 0.33,
            bound: 0.99,
            compress: true,
        }
    }

    /// Alphabet size this preprocessing produces under `sax` parameters.
    pub fn alphabet(&self, sax: &SaxParams) -> usize {
        match self {
            Preprocessing::Sax { .. } => sax.alphabet(),
            Preprocessing::UniformGrid { step, bound, .. } => {
                // Interior boundaries at ±step, ±2·step, … up to ±bound,
                // plus the two unbounded edge bins.
                let per_side = (bound / step).round() as usize;
                2 * per_side + 2
            }
        }
    }
}

/// Which frequency oracle the length-estimation round (population Pa)
/// runs.
///
/// The length domain is the one protocol slot where the oracle is a free
/// choice: every oracle answers the same question ("how many users hold
/// compressed length ℓ?") over the same small domain, so swapping it
/// changes utility but not the protocol shape. GRR is the paper's choice
/// and the default; the alternatives exist so the stress suite can measure
/// utility across the whole oracle family under one session path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LengthOracle {
    /// Generalized Randomized Response (the paper's choice; optimal for
    /// the small length domains PrivShape uses).
    #[default]
    Grr,
    /// Optimized Unary Encoding: one bit vector per report.
    Oue,
    /// Optimized Local Hashing: a public hash seed plus one bucket.
    Olh,
    /// Piecewise Mechanism over the length range mapped to `[−1, 1]`;
    /// the server estimates the *mean* length rather than the mode.
    Piecewise,
}

impl LengthOracle {
    /// Stable lowercase name (used in benchmark artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            LengthOracle::Grr => "grr",
            LengthOracle::Oue => "oue",
            LengthOracle::Olh => "olh",
            LengthOracle::Piecewise => "piecewise",
        }
    }
}

/// How the user population is partitioned across the mechanism's tasks
/// (§V-B3). PrivShape allocates *users*, not budget: each group's reports
/// are disjoint, so parallel composition gives every user the full ε.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationSplit {
    /// Fraction for frequent-length estimation (paper: 0.02).
    pub pa: f64,
    /// Fraction for sub-shape estimation (paper: 0.08).
    pub pb: f64,
    /// Fraction for trie expansion (paper: 0.70).
    pub pc: f64,
    /// Fraction for two-level refinement (paper: 0.20).
    pub pd: f64,
}

impl Default for PopulationSplit {
    fn default() -> Self {
        Self {
            pa: 0.02,
            pb: 0.08,
            pc: 0.70,
            pd: 0.20,
        }
    }
}

impl PopulationSplit {
    /// Validates that all fractions are positive and sum to at most 1.
    pub fn validate(&self) -> Result<()> {
        let parts = [self.pa, self.pb, self.pc, self.pd];
        if parts.iter().any(|p| !p.is_finite() || *p <= 0.0) {
            return Err(Error::InvalidConfig(format!(
                "population fractions must be positive, got {self:?}"
            )));
        }
        let sum: f64 = parts.iter().sum();
        if sum > 1.0 + 1e-9 {
            return Err(Error::InvalidConfig(format!(
                "population fractions sum to {sum} > 1"
            )));
        }
        Ok(())
    }
}

/// Most lengths a length round may span: the aggregator keeps one 8-byte
/// counter per length (512 KiB at this bound), and an OUE device perturbs
/// one bit per length. The paper clips to [1, 15].
pub(crate) const MAX_LENGTH_DOMAIN: usize = 1 << 16;

/// The number of lengths in `[lo, hi]`, or `None` when the range is
/// reversed or spans more than [`MAX_LENGTH_DOMAIN`].
pub(crate) fn length_domain(lo: usize, hi: usize) -> Option<usize> {
    hi.checked_sub(lo)?
        .checked_add(1)
        .filter(|&d| d <= MAX_LENGTH_DOMAIN)
}

/// Refuses a length range that is empty, starts at 0 or spans more than
/// [`MAX_LENGTH_DOMAIN`] lengths.
fn check_length_range((lo, hi): (usize, usize)) -> Result<()> {
    if lo == 0 || lo > hi {
        return Err(Error::InvalidConfig(format!(
            "length range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]"
        )));
    }
    if length_domain(lo, hi).is_none() {
        return Err(Error::InvalidConfig(format!(
            "length range [{lo}, {hi}] spans more than {MAX_LENGTH_DOMAIN} lengths"
        )));
    }
    Ok(())
}

/// Configuration of the optimized mechanism, PrivShape (Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PrivShapeConfig {
    /// Per-user privacy budget ε (user-level guarantee).
    pub epsilon: Epsilon,
    /// Number of frequent shapes to extract.
    pub k: usize,
    /// Candidate multiplier: top-`c·k` survive each pruning round
    /// (paper: c = 3, with c ≥ 2 required by §IV-B).
    pub c: usize,
    /// SAX parameters (segment length `w`, alphabet `t`).
    pub sax: SaxParams,
    /// Inclusive range `[ℓ_low, ℓ_high]` the compressed length is clipped
    /// to (paper: [1, 10] for Trace, [1, 15] for Symbols); at most 65,536
    /// lengths.
    pub length_range: (usize, usize),
    /// Distance measure for EM scoring and post-processing.
    pub distance: DistanceKind,
    /// Frequency oracle for the length-estimation round (GRR by default).
    pub length_oracle: LengthOracle,
    /// User allocation across tasks.
    pub split: PopulationSplit,
    /// User-side preprocessing (SAX by default; ablations via
    /// [`Preprocessing`]).
    pub preprocessing: Preprocessing,
    /// Master seed; the whole mechanism is deterministic given
    /// `(config, data)`.
    pub seed: u64,
    /// Worker threads for user simulation (0 ⇒ auto; at most
    /// [`MAX_THREADS`] are started).
    pub threads: usize,
}

impl PrivShapeConfig {
    /// A configuration with the paper's defaults for everything but the
    /// problem-specific `(epsilon, k, sax)`.
    pub fn new(epsilon: Epsilon, k: usize, sax: SaxParams) -> Self {
        Self {
            epsilon,
            k,
            c: 3,
            sax,
            length_range: (1, 15),
            distance: DistanceKind::default(),
            length_oracle: LengthOracle::default(),
            split: PopulationSplit::default(),
            preprocessing: Preprocessing::default(),
            seed: 2023,
            threads: 0,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::InvalidConfig("k must be >= 1".into()));
        }
        if self.c < 2 {
            // §IV-B: c ≥ 2 compensates for the relaxed subadditivity of
            // real distance measures.
            return Err(Error::InvalidConfig(format!(
                "c must be >= 2, got {}",
                self.c
            )));
        }
        check_length_range(self.length_range)?;
        self.split.validate()
    }
}

/// Configuration of the baseline mechanism (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Per-user privacy budget ε.
    pub epsilon: Epsilon,
    /// Number of frequent shapes to extract.
    pub k: usize,
    /// SAX parameters.
    pub sax: SaxParams,
    /// Inclusive compressed-length range; at most 65,536 lengths.
    pub length_range: (usize, usize),
    /// Distance measure for EM scoring.
    pub distance: DistanceKind,
    /// Frequency oracle for the length-estimation round (GRR by default).
    pub length_oracle: LengthOracle,
    /// Absolute pruning threshold `N` on per-level selection counts
    /// (paper: 100 at 40 000 users).
    pub prune_threshold: f64,
    /// Fraction of users reserved for length estimation; the remainder
    /// drives trie expansion.
    pub pa: f64,
    /// User-side preprocessing.
    pub preprocessing: Preprocessing,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 ⇒ auto; at most
    /// [`MAX_THREADS`] are started).
    pub threads: usize,
}

impl BaselineConfig {
    /// Paper defaults for everything but `(epsilon, k, sax)`.
    pub fn new(epsilon: Epsilon, k: usize, sax: SaxParams) -> Self {
        Self {
            epsilon,
            k,
            sax,
            length_range: (1, 15),
            distance: DistanceKind::default(),
            length_oracle: LengthOracle::default(),
            prune_threshold: 100.0,
            pa: 0.02,
            preprocessing: Preprocessing::default(),
            seed: 2023,
            threads: 0,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::InvalidConfig("k must be >= 1".into()));
        }
        check_length_range(self.length_range)?;
        if !(self.pa.is_finite() && self.pa > 0.0 && self.pa < 1.0) {
            return Err(Error::InvalidConfig(format!(
                "pa must be in (0, 1), got {}",
                self.pa
            )));
        }
        if !(self.prune_threshold.is_finite() && self.prune_threshold >= 0.0) {
            return Err(Error::InvalidConfig("prune threshold must be >= 0".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sax() -> SaxParams {
        SaxParams::new(10, 4).unwrap()
    }

    fn eps() -> Epsilon {
        Epsilon::new(4.0).unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = PrivShapeConfig::new(eps(), 3, sax());
        assert_eq!(cfg.c, 3);
        assert_eq!(
            cfg.split,
            PopulationSplit {
                pa: 0.02,
                pb: 0.08,
                pc: 0.70,
                pd: 0.20
            }
        );
        assert!(cfg.validate().is_ok());
        let b = BaselineConfig::new(eps(), 3, sax());
        assert_eq!(b.prune_threshold, 100.0);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
        cfg.k = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
        cfg.c = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
        cfg.length_range = (5, 2);
        assert!(cfg.validate().is_err());
        let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
        cfg.split.pc = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
        cfg.split.pd = 0.9;
        assert!(cfg.validate().is_err(), "fractions must sum <= 1");
        for (range, ok) in [
            ((1, MAX_LENGTH_DOMAIN), true),
            ((1, MAX_LENGTH_DOMAIN + 1), false),
        ] {
            let mut cfg = PrivShapeConfig::new(eps(), 3, sax());
            cfg.length_range = range;
            assert_eq!(cfg.validate().is_ok(), ok, "{range:?}");
        }
    }

    #[test]
    fn baseline_validation() {
        let mut b = BaselineConfig::new(eps(), 3, sax());
        b.pa = 1.5;
        assert!(b.validate().is_err());
        let mut b = BaselineConfig::new(eps(), 3, sax());
        b.prune_threshold = f64::NAN;
        assert!(b.validate().is_err());
        let mut b = BaselineConfig::new(eps(), 3, sax());
        b.length_range = (0, 4);
        assert!(b.validate().is_err());
        for (range, ok) in [
            ((1, MAX_LENGTH_DOMAIN), true),
            ((1, MAX_LENGTH_DOMAIN + 1), false),
        ] {
            let mut b = BaselineConfig::new(eps(), 3, sax());
            b.length_range = range;
            assert_eq!(b.validate().is_ok(), ok, "{range:?}");
        }
    }

    #[test]
    fn preprocessing_alphabet() {
        let p = Preprocessing::default();
        assert_eq!(p.alphabet(&sax()), 4);
        let g = Preprocessing::paper_uniform_grid();
        assert_eq!(g.alphabet(&sax()), 8); // the paper's eight segments
    }
}
