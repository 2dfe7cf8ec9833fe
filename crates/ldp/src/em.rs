//! The Exponential Mechanism (McSherry & Talwar 2007) over scored
//! candidates — Eq. (2) of the paper.
//!
//! Each user selects among the server's candidate shapes with probability
//! `Pr[Ψ(x) = F_j] ∝ exp(ε · S(x, F_j) / (2Δ))`. With the score normalized
//! to `[0, 1]` the sensitivity is `Δ = 1`.
//!
//! A device samples by Gumbel-max and decides its coins in bulk: it draws
//! its uniforms 64 at a time and evaluates, in two passes, only the keys
//! that can still win. The index, and the stream position after the
//! draw, are those of evaluating every key one draw at a time.

use crate::budget::{Epsilon, LdpError, Result};
use rand::Rng;

/// Draws per chunk of [`ExpMech::select_prepared`].
const CHUNK: usize = 64;

/// Exponential Mechanism with a fixed budget and sensitivity `Δ = 1`.
#[derive(Debug, Clone, Copy)]
pub struct ExpMech {
    eps: Epsilon,
}

impl ExpMech {
    /// Mechanism with sensitivity 1 (scores normalized to `[0, 1]`).
    pub fn new(eps: Epsilon) -> Self {
        Self { eps }
    }

    /// Budget this instance satisfies.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// `ε / (2Δ)`, the factor scores are scaled by.
    fn scale(&self) -> f64 {
        self.eps.value() / 2.0
    }

    /// Selection probabilities for a score vector: the softmax that
    /// [`ExpMech::select`] samples, which the tests check it against.
    #[cfg(test)]
    pub(crate) fn probabilities(&self, scores: &[f64]) -> Vec<f64> {
        let scale = self.scale();
        // Subtract the max for numerical stability.
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|&s| ((s - m) * scale).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Samples a candidate index via the Gumbel-max trick:
    /// `argmax_j (scale · s_j + G_j)` with i.i.d. standard Gumbel `G_j` is
    /// distributed exactly as the EM softmax, without computing the
    /// normalizer.
    ///
    /// The same as [`ExpMech::prepare`] followed by
    /// [`ExpMech::select_prepared`], which spells out the draws and the
    /// exact cut-off that skips most of their logarithms. A caller that
    /// selects from one score vector many times, each time on its own
    /// stream, prepares the row once and keeps it.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R, scores: &[f64]) -> Result<usize> {
        let mut row = Vec::new();
        self.prepare(scores, &mut row);
        self.select_prepared(rng, &row)
    }

    /// Writes the selection row of `scores` into `row` (cleared first):
    /// `top = scale · max_j s_j`, then for each candidate in order the
    /// cut-off bound `p(top − a_j)` and the scaled score `a_j = scale · s_j`,
    /// `2n + 1` values in all, with `scale = ε / (2Δ)` and `p` the degree-4
    /// Taylor polynomial of `e^y`. The row depends only on the scores and
    /// the mechanism, never on a stream.
    pub fn prepare(&self, scores: &[f64], row: &mut Vec<f64>) {
        let scale = self.scale();
        // No candidate's scaled score exceeds this one.
        let top = scale * scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        row.clear();
        row.reserve(2 * scores.len() + 1);
        row.push(top);
        for &s in scores {
            let a = scale * s;
            row.push(exp_lower_bound(top - a));
            row.push(a);
        }
    }

    /// Samples a candidate index from a row written by
    /// [`ExpMech::prepare`] (the Gumbel-max trick of [`ExpMech::select`]).
    ///
    /// Candidate `j` gets the `j`-th nonzero uniform `u_j` of the stream
    /// and the key `a_j + G_j` with `G_j = −ln(−ln u_j)`; the first
    /// strictly largest key wins. The draws come in bulk, in chunks of up
    /// to 64 candidates, and the two logarithms of a key are skipped when
    /// its draw provably cannot win. With `K = exp(top − best_key + 1e-6)`
    /// for the best key so far, draw `j` is skipped when its cut-off
    /// product `(1 − u_j) · p(top − a_j)` exceeds `K · (1 + 1e-9)`. No
    /// transcendental call is made for a skipped draw, and the test is
    /// exact:
    ///
    /// - The key `a_j + G` beats `best_key − 1e-6` only if
    ///   `E = −ln u < exp(a_j − best_key + 1e-6) = K · e^{−(top − a_j)}`.
    /// - `E ≥ 1 − u` on (0, 1), `1 − u` is exact for every 53-bit sample,
    ///   and `e^{−y} ≤ 1/p(y)` for `y ≥ 0` (rounding keeps every `a_j` at
    ///   most `top`). So a skip certifies that the exact key is at most
    ///   `best_key − 1e-6`. The factor `1 + 1e-9` covers the rounding of
    ///   `p`, of `top − a_j`, of the product and of `K` for `y` up to about
    ///   1e7; beyond that `e^{−y}` is far below the smallest possible
    ///   `(1 − u)/K`, about 1e-324.
    /// - For `u ∈ [2^-53, 1)` the computed Gumbel value is within about
    ///   1e-14 of exact, far inside the 1e-6 margin, so a skipped key would
    ///   have been computed below the final best and lost to it anyway.
    /// - Before a finite best exists `K` is infinite, and a `K` that
    ///   overflows is too, so nothing is skipped then; a NaN product (NaN
    ///   or infinite scores) never skips either. Such draws are evaluated
    ///   exactly as the full loop evaluates them.
    ///
    /// Each chunk takes two passes. The first computes every cut-off
    /// product and finds the first smallest, the draw likeliest to win.
    /// The second evaluates that draw's key first, so its `K` screens the
    /// rest of the chunk, then, in index order, every other draw the cut
    /// cannot skip. A key equal to the best wins when its index is lower,
    /// which makes the order of evaluation irrelevant: the result is the
    /// lowest index among the largest evaluated keys, and every skipped key
    /// lies below the final best. The cut carries across chunks.
    ///
    /// The result, ties included, and the stream position after the call
    /// are those of evaluating every key in order. A row holding no
    /// candidate is refused with [`LdpError::NoCandidates`] before any
    /// draw.
    pub fn select_prepared<R: Rng + ?Sized>(&self, rng: &mut R, row: &[f64]) -> Result<usize> {
        let Some((&top, candidates)) = row.split_first() else {
            return Err(LdpError::NoCandidates);
        };
        if candidates.len() < 2 {
            return Err(LdpError::NoCandidates);
        }
        // A trailing half pair is no candidate.
        let candidates = &candidates[..candidates.len() & !1];
        let mut best = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        // `K · (1 + 1e-9)`, infinite until a finite key is in.
        let mut cut = f64::INFINITY;
        let mut words = [0u64; CHUNK];
        let mut products = [0.0f64; CHUNK];
        for (base, chunk) in (0..).step_by(CHUNK).zip(candidates.chunks(2 * CHUNK)) {
            let n = chunk.len() / 2;
            let words = &mut words[..n];
            fill_nonzero(rng, words);
            // Pass 1: every cut-off product, then the first smallest.
            for ((product, &word), pair) in
                products.iter_mut().zip(&*words).zip(chunk.chunks_exact(2))
            {
                *product = (1.0 - uniform(word)) * pair[0];
            }
            let (mut first, mut least) = (0, f64::INFINITY);
            for (i, &product) in products[..n].iter().enumerate() {
                if product < least {
                    (first, least) = (i, product);
                }
            }
            // Pass 2: the first smallest, then, in index order, every
            // other draw the cut cannot skip. The cut only shrinks, so a
            // draw past the mask's test is tested again when its turn
            // comes.
            let mut evaluate = |i: usize, cut: &mut f64| {
                if products[i] > *cut {
                    return;
                }
                let key = chunk[2 * i + 1] + -(-uniform(words[i]).ln()).ln();
                let j = base + i;
                if key > best_key || (key == best_key && j < best) {
                    best_key = key;
                    best = j;
                    *cut = (top - best_key + 1e-6).exp() * (1.0 + 1e-9);
                }
            };
            evaluate(first, &mut cut);
            let mut skipped = 0u64;
            for (i, &product) in products[..n].iter().enumerate() {
                skipped |= u64::from(product > cut) << i;
            }
            let mut open = !skipped & (u64::MAX >> (CHUNK - n)) & !(1 << first);
            while open != 0 {
                evaluate(open.trailing_zeros() as usize, &mut cut);
                open &= open - 1;
            }
        }
        Ok(best)
    }
}

/// The uniform on `[0, 1)` that `random::<f64>()` makes of `word`: its
/// top 53 bits scaled by `2^-53`.
#[inline]
fn uniform(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fills `words` with the stream's next words whose [`uniform`] is
/// nonzero, in order, and leaves the stream just past the last of them:
/// the words a loop that redraws each zero uniform would use. A zero has
/// probability 2^-53 per draw, so the repair almost never runs.
fn fill_nonzero<R: Rng + ?Sized>(rng: &mut R, words: &mut [u64]) {
    rng.fill_u64(words);
    // One branch-free scan, which almost always finds no zero.
    if !words.iter().fold(false, |zero, &w| zero | (w >> 11 == 0)) {
        return;
    }
    while let Some(zero) = words.iter().position(|&w| w >> 11 == 0) {
        words.copy_within(zero + 1.., zero);
        let last = words.len() - 1;
        rng.fill_u64(&mut words[last..]);
    }
}

/// `p(y) = 1 + y + y²/2 + y³/6 + y⁴/24`, the degree-4 Taylor polynomial of
/// `e^y`: every term is non-negative for `y ≥ 0`, so `p(y) ≤ e^y` there.
#[inline]
fn exp_lower_bound(y: f64) -> f64 {
    1.0 + y * (1.0 + y * 0.5 * (1.0 + y * (1.0 / 3.0) * (1.0 + y * 0.25)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn probabilities_normalize_and_order_by_score() {
        let em = ExpMech::new(eps(2.0));
        let p = em.probabilities(&[1.0, 0.5, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn probability_ratio_bounded_by_exp_eps() {
        // For scores in [0,1] and Δ=1 the max/min selection-probability
        // ratio is exp(ε·(s_max−s_min)/2) ≤ exp(ε/2) per input; across any
        // two neighboring inputs the EM guarantee composes to exp(ε).
        let e = 1.7;
        let em = ExpMech::new(eps(e));
        let p = em.probabilities(&[1.0, 0.0, 0.3]);
        let ratio = p[0] / p[1];
        assert!((ratio - (e / 2.0).exp()).abs() < 1e-9);
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let em = ExpMech::new(eps(3.0));
        let scores = [0.9, 0.2, 0.6, 0.6];
        let probs = em.probabilities(&scores);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let n = 60_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[em.select(&mut rng, &scores).unwrap()] += 1;
        }
        for j in 0..4 {
            let freq = counts[j] as f64 / n as f64;
            assert!(
                (freq - probs[j]).abs() < 0.01,
                "j={j} freq={freq} p={}",
                probs[j]
            );
        }
    }

    #[test]
    fn empty_candidates_error() {
        let em = ExpMech::new(eps(1.0));
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(matches!(
            em.select(&mut rng, &[]),
            Err(LdpError::NoCandidates)
        ));
        let mut row = vec![0.5];
        em.prepare(&[], &mut row);
        assert_eq!(row, [f64::NEG_INFINITY]);
        for row in [&[][..], &row] {
            assert!(matches!(
                em.select_prepared(&mut rng, row),
                Err(LdpError::NoCandidates)
            ));
        }
    }

    #[test]
    fn single_candidate_always_selected() {
        let em = ExpMech::new(eps(0.1));
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(em.select(&mut rng, &[0.4]).unwrap(), 0);
        }
    }

    #[test]
    fn huge_scores_do_not_overflow() {
        // The max-subtraction keeps exp() finite even where the scaled
        // scores alone would overflow it (ε / 2Δ · 2000 = 1000 here).
        let em = ExpMech::new(eps(1.0));
        let p = em.probabilities(&[2000.0, 0.0]);
        assert!(p[0] > 0.999 && p[0].is_finite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn em_probabilities_form_distribution_and_bound_ratio(
            scores in prop::collection::vec(0.0f64..1.0, 1..20),
            eps in 0.05f64..8.0,
        ) {
            let em = ExpMech::new(Epsilon::new(eps).unwrap());
            let probs = em.probabilities(&scores);
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let max = probs.iter().copied().fold(0.0f64, f64::max);
            let min = probs.iter().copied().fold(1.0f64, f64::min);
            // Scores live in [0,1] with Δ=1 ⇒ ratio bounded by e^{ε/2}.
            prop_assert!(max / min <= (eps / 2.0).exp() * (1.0 + 1e-9));
        }
    }
}
