//! The Exponential-Mechanism score function (§III-C).
//!
//! The paper requires `S(·) ∝ 1/dist(·)` with the score normalized to
//! `[0, 1]` so the EM sensitivity is `Δ = 1`. We use
//!
//! ```text
//! S(x, F) = 1 / (1 + dist(x, F))
//! ```
//!
//! which is 1 on an exact match, strictly decreasing in the distance,
//! bounded in `(0, 1]` for finite distances, and 0 for infinite distances.

/// Maps a distance to the EM utility score `1 / (1 + d)`.
pub fn em_score(dist: f64) -> f64 {
    debug_assert!(dist >= 0.0, "distances must be non-negative, got {dist}");
    if dist.is_infinite() {
        0.0
    } else {
        1.0 / (1.0 + dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_scores_one() {
        assert_eq!(em_score(0.0), 1.0);
    }

    #[test]
    fn monotone_decreasing() {
        let scores: Vec<f64> = [0.0, 0.5, 1.0, 3.0, 100.0].map(em_score).to_vec();
        for w in scores.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn bounded_in_unit_interval() {
        for d in [0.0, 1e-9, 1.0, 1e6, f64::INFINITY] {
            let s = em_score(d);
            assert!((0.0..=1.0).contains(&s), "d={d} s={s}");
        }
        assert_eq!(em_score(f64::INFINITY), 0.0);
    }
}
