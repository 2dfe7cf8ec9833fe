//! Dynamic time warping with absolute-difference local cost.
//!
//! DTW aligns two sequences by warping the time axis to minimize the summed
//! local cost along a monotone alignment path. It is the paper's default
//! metric for the clustering task and for matching extracted shapes against
//! ground truth.

/// DTW distance between two numeric sequences (full window).
///
/// Local cost is `|a_i − b_j|`; the returned value is the minimal path cost.
/// `O(n·m)` time, `O(min(n, m))` memory. Empty inputs yield `f64::INFINITY`
/// (no alignment exists).
pub fn dtw(a: &[f64], b: &[f64]) -> f64 {
    Dtw::new().dist(a, b)
}

/// Reusable DTW engine: two rolling DP rows kept across calls, avoiding
/// per-call allocation in hot population loops. This flat DP is the
/// reference the prefix-resumable table scorers are property-tested
/// against.
#[derive(Debug, Clone, Default)]
pub struct Dtw {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl Dtw {
    /// An engine with empty rows; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the DTW distance (see [`dtw`]), reusing internal buffers.
    pub fn dist(&mut self, a: &[f64], b: &[f64]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        // Keep the shorter sequence as the inner (column) dimension so the
        // rolling rows stay small.
        let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let m = inner.len();
        self.prev.clear();
        self.prev.resize(m, f64::INFINITY);
        self.curr.clear();
        self.curr.resize(m, f64::INFINITY);

        for (i, &x) in outer.iter().enumerate() {
            for (j, &y) in inner.iter().enumerate() {
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    // Row 0 reads `prev`'s infinite fill as its missing
                    // `up` and `diag` predecessors.
                    let up = self.prev[j];
                    let (left, diag) = if j > 0 {
                        (self.curr[j - 1], self.prev[j - 1])
                    } else {
                        (f64::INFINITY, f64::INFINITY)
                    };
                    up.min(left).min(diag)
                };
                self.curr[j] = (x - y).abs() + best;
            }
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        self.prev[m - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn warping_absorbs_time_stretch() {
        // A stretched copy warps onto the original at zero cost.
        let a = [0.0, 1.0, 2.0];
        let b = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        assert_eq!(dtw(&a, &b), 0.0);
    }

    #[test]
    fn known_small_case() {
        let a = [0.0, 3.0];
        let b = [1.0, 2.0];
        // Alignment (0→1),(3→2): cost 1 + 1 = 2.
        assert_eq!(dtw(&a, &b), 2.0);
    }

    #[test]
    fn symmetric() {
        let a = [0.0, 1.5, -2.0, 4.0];
        let b = [1.0, 1.0, 3.0];
        assert_eq!(dtw(&a, &b), dtw(&b, &a));
    }

    #[test]
    fn empty_input_is_infinite() {
        assert!(dtw(&[], &[1.0]).is_infinite());
        assert!(dtw(&[1.0], &[]).is_infinite());
    }

    #[test]
    fn engine_matches_free_function_and_reuses_buffers() {
        let mut eng = Dtw::new();
        let a = [0.0, 2.0, 1.0];
        let b = [0.5, 1.5];
        assert_eq!(eng.dist(&a, &b), dtw(&a, &b));
        // Different lengths on the second call exercise the buffer resize.
        let c = [4.0, 4.0, 4.0, 4.0, 4.0];
        assert_eq!(eng.dist(&a, &c), dtw(&a, &c));
    }

    #[test]
    fn dtw_never_exceeds_equal_length_l1() {
        // DTW relaxes the pointwise alignment, so it is bounded above by the
        // L1 distance whenever lengths agree.
        let a = [0.3f64, -1.2, 2.2, 0.0, 1.1];
        let b = [0.0f64, -1.0, 2.0, 0.4, 0.9];
        let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(dtw(&a, &b) <= l1 + 1e-12);
    }
}
