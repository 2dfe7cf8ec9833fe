//! Euclidean distance over sequences, with a last-value padding policy for
//! unequal lengths (shapes after Compressive SAX frequently differ in
//! length; §V-H still evaluates the Euclidean metric on them).

/// Euclidean distance where the shorter sequence is padded by repeating its
/// final value (mirroring how Compressive SAX collapses dwell time: the last
/// level is implicitly held). Equal-length inputs are compared pointwise.
///
/// Empty inputs: two empties are at distance 0; one empty is `f64::INFINITY`.
pub fn euclidean_padded(a: &[f64], b: &[f64]) -> f64 {
    let (Some(&last_a), Some(&last_b)) = (a.last(), b.last()) else {
        return if a.is_empty() && b.is_empty() {
            0.0
        } else {
            f64::INFINITY
        };
    };
    let n = a.len().max(b.len());
    let mut sum = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(last_a);
        let y = b.get(i).copied().unwrap_or(last_b);
        let d = x - y;
        sum += d * d;
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_matches_unpadded_on_equal_lengths() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.0, 2.0];
        let pointwise = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert_eq!(euclidean_padded(&a, &b), pointwise);
    }

    #[test]
    fn padding_repeats_last_value() {
        // b = [5] padded to [5, 5]: distance to [5, 8] is 3.
        assert_eq!(euclidean_padded(&[5.0, 8.0], &[5.0]), 3.0);
        assert_eq!(euclidean_padded(&[5.0], &[5.0, 8.0]), 3.0);
    }

    #[test]
    fn empty_handling() {
        assert_eq!(euclidean_padded(&[], &[]), 0.0);
        assert!(euclidean_padded(&[], &[1.0]).is_infinite());
    }

    #[test]
    fn symmetric() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 1.0];
        assert_eq!(euclidean_padded(&a, &b), euclidean_padded(&b, &a));
    }
}
