use std::fmt;

/// Convenience alias for this crate.
pub type Result<T> = std::result::Result<T, LdpError>;

/// Errors produced by the LDP substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LdpError {
    /// ε must be strictly positive, with `e^ε` finite.
    InvalidEpsilon(f64),
    /// Frequency oracles need a domain of at least two items.
    InvalidDomain(usize),
    /// The value to perturb was outside the declared domain.
    ValueOutOfDomain {
        /// The out-of-domain value.
        value: usize,
        /// Size of the declared domain.
        domain: usize,
    },
    /// A numeric input was outside the supported range.
    ValueOutOfRange {
        /// The offending input.
        value: f64,
        /// Lower bound of the supported range.
        lo: f64,
        /// Upper bound of the supported range.
        hi: f64,
    },
    /// The candidate list for EM selection was empty.
    NoCandidates,
    /// A report decoded from an untrusted source violated a structural
    /// invariant (e.g. OUE set bits not strictly ascending).
    MalformedReport(String),
    /// A cumulative budget ledger refused a charge that would overdraw
    /// the user-level budget (see
    /// [`theory::amplification::BudgetLedger`](crate::theory::amplification::BudgetLedger)).
    BudgetExhausted {
        /// Amplified ε the refused charge asked for.
        requested: f64,
        /// Budget that was still unspent when the charge was refused.
        remaining: f64,
    },
}

impl fmt::Display for LdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpError::InvalidEpsilon(e) => {
                write!(f, "privacy budget must be > 0 with a finite e^ε, got {e}")
            }
            LdpError::InvalidDomain(d) => write!(f, "domain must have >= 2 items, got {d}"),
            LdpError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            LdpError::ValueOutOfRange { value, lo, hi } => {
                write!(f, "value {value} outside [{lo}, {hi}]")
            }
            LdpError::NoCandidates => write!(f, "exponential mechanism needs >= 1 candidate"),
            LdpError::MalformedReport(msg) => write!(f, "malformed report: {msg}"),
            LdpError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted: charge of ε={requested} exceeds remaining ε={remaining}"
            ),
        }
    }
}

impl std::error::Error for LdpError {}

/// A validated privacy budget ε > 0.
///
/// Composition helpers encode the two theorems the paper's privacy analysis
/// uses: sequential composition (budgets add when the *same* data passes
/// through several mechanisms) and parallel composition (disjoint user
/// groups each enjoy the full budget — the heart of PrivShape's
/// user-allocation strategy in §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a budget, rejecting non-positive values and any ε whose
    /// `e^ε` overflows `f64` (ε ≳ 709.78), where the mechanisms'
    /// probabilities would turn into NaN.
    pub fn new(eps: f64) -> Result<Self> {
        if eps > 0.0 && eps.exp().is_finite() {
            Ok(Epsilon(eps))
        } else {
            Err(LdpError::InvalidEpsilon(eps))
        }
    }

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// `e^ε`, the likelihood-ratio bound of Def. 1.
    pub fn exp(self) -> f64 {
        self.0.exp()
    }

    /// Sequential composition: running `self` then `other` on the same data
    /// consumes `ε₁ + ε₂`. Refused, like [`Epsilon::new`], when the sum's
    /// `e^ε` overflows.
    pub fn sequential(self, other: Epsilon) -> Result<Epsilon> {
        Epsilon::new(self.0 + other.0)
    }

    /// Parallel composition: mechanisms on disjoint data consume
    /// `max(ε₁, ε₂)`.
    pub fn parallel(self, other: Epsilon) -> Epsilon {
        Epsilon(self.0.max(other.0))
    }

    /// A fraction of this budget (for mechanisms that split ε internally,
    /// like PatternLDP's per-point allocation).
    pub fn fraction(self, frac: f64) -> Result<Epsilon> {
        Epsilon::new(self.0 * frac)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// The three privacy granularities for time-series release (§II-B).
///
/// Purely descriptive: mechanisms in this workspace are all analyzed at
/// [`PrivacyLevel::User`], the strongest level; the enum exists so reports
/// and docs can state the guarantee explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyLevel {
    /// Protects a single element of the series.
    Event,
    /// Protects any `w` consecutive elements.
    WEvent(usize),
    /// Protects the entire series — neighboring series may differ in *every*
    /// element (Def. 2).
    User,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(1.0).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-2.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(709.0).is_ok());
        assert!(Epsilon::new(710.0).is_err());
    }

    #[test]
    fn composition_rules() {
        let a = Epsilon::new(1.0).unwrap();
        let b = Epsilon::new(2.5).unwrap();
        assert_eq!(a.sequential(b).unwrap().value(), 3.5);
        // Two valid budgets whose sum has an infinite e^ε.
        let big = Epsilon::new(400.0).unwrap();
        assert_eq!(big.sequential(big), Err(LdpError::InvalidEpsilon(800.0)));
        assert_eq!(a.parallel(b).value(), 2.5);
        assert_eq!(b.fraction(0.4).unwrap().value(), 1.0);
        assert!(b.fraction(0.0).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Epsilon::new(4.0).unwrap().to_string(), "ε=4");
        let err = Epsilon::new(-1.0).unwrap_err();
        assert!(err.to_string().contains("finite"));
        let exhausted = LdpError::BudgetExhausted {
            requested: 2.5,
            remaining: 1.25,
        }
        .to_string();
        assert!(exhausted.contains("2.5") && exhausted.contains("1.25"));
    }
}
