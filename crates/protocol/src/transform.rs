//! User-side preprocessing: raw series → symbol sequence.
//!
//! This is the deterministic, randomness-free transformation step of the
//! privacy analysis (Theorems 1 and 3): it happens entirely on the user's
//! device before any perturbed report is produced. [`crate::UserClient`]
//! applies it at construction, so the raw series never reaches the
//! protocol boundary.

use crate::config::Preprocessing;
use privshape_timeseries::{
    compress, normalized_sax, normalized_sax_batch, SaxParams, Symbol, SymbolSeq, TimeSeries,
};

/// Transforms one series according to the preprocessing mode.
///
/// The series is z-normalized first (the paper's datasets are already
/// z-scored; re-normalizing is idempotent for them and makes the API safe
/// for raw inputs). The SAX modes run the fused kernel
/// [`normalized_sax`], which builds no normalized copy.
pub fn transform_series(
    series: &TimeSeries,
    sax_params: &SaxParams,
    mode: &Preprocessing,
) -> SymbolSeq {
    match mode {
        Preprocessing::Sax { compress } => normalized_sax(series, sax_params, *compress),
        Preprocessing::UniformGrid {
            step,
            bound,
            compress: do_compress,
        } => {
            let seq = uniform_grid(series.z_normalized().values(), *step, *bound);
            if *do_compress {
                compress(&seq)
            } else {
                seq
            }
        }
    }
}

/// [`transform_series`] of every series, in order. The SAX modes run the
/// batch kernel [`normalized_sax_batch`], which advances four series in
/// lockstep and prefetches the next four.
pub fn transform_batch(
    series: &[TimeSeries],
    sax_params: &SaxParams,
    mode: &Preprocessing,
) -> Vec<SymbolSeq> {
    match mode {
        Preprocessing::Sax { compress } => normalized_sax_batch(series, sax_params, *compress),
        Preprocessing::UniformGrid { .. } => series
            .iter()
            .map(|s| transform_series(s, sax_params, mode))
            .collect(),
    }
}

/// Uniform-grid discretization (the Fig. 18a "Without SAX" ablation): bin
/// boundaries at every multiple of `step` in `[-bound, bound]` (including
/// 0), with two unbounded edge bins.
fn uniform_grid(values: &[f64], step: f64, bound: f64) -> SymbolSeq {
    let per_side = (bound / step).round() as i64;
    values
        .iter()
        .map(|&v| {
            // Bin index counted from the lowest bin.
            let raw = (v / step).floor() as i64; // …, -1 ⇒ [-step, 0), 0 ⇒ [0, step), …
            let clamped = raw.clamp(-(per_side + 1), per_side);
            let idx = (clamped + per_side + 1) as u8;
            Symbol::from_index(idx)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_series() -> TimeSeries {
        let mut v = vec![-1.0; 40];
        v.extend(vec![1.0; 40]);
        TimeSeries::new(v).unwrap()
    }

    #[test]
    fn sax_mode_compresses() {
        let p = SaxParams::new(10, 3).unwrap();
        let compressed =
            transform_series(&step_series(), &p, &Preprocessing::Sax { compress: true });
        let uncompressed =
            transform_series(&step_series(), &p, &Preprocessing::Sax { compress: false });
        assert_eq!(compressed.to_string(), "ac");
        assert_eq!(uncompressed.to_string(), "aaaacccc");
    }

    #[test]
    fn batch_equals_one_series_at_a_time_in_every_mode() {
        // Two lockstep groups, one of them with unequal lengths, and a tail.
        let batch: Vec<TimeSeries> = (0..11)
            .map(|i| {
                let len = if i == 5 { 61 } else { 80 };
                let v = (0..len)
                    .map(|t| (f64::from(t) * 0.07 * f64::from(i + 1)).sin())
                    .collect();
                TimeSeries::new(v).unwrap()
            })
            .collect();
        let p = SaxParams::new(10, 3).unwrap();
        for mode in [
            Preprocessing::Sax { compress: true },
            Preprocessing::Sax { compress: false },
            Preprocessing::paper_uniform_grid(),
            Preprocessing::UniformGrid {
                step: 0.33,
                bound: 0.99,
                compress: false,
            },
        ] {
            let want: Vec<SymbolSeq> = batch
                .iter()
                .map(|s| transform_series(s, &p, &mode))
                .collect();
            assert_eq!(transform_batch(&batch, &p, &mode), want, "{mode:?}");
        }
    }

    #[test]
    fn uniform_grid_has_eight_bins_with_paper_settings() {
        let values: Vec<f64> = (-30..=30).map(|i| i as f64 * 0.1).collect();
        let seq = uniform_grid(&values, 0.33, 0.99);
        let max = seq.max_index().unwrap();
        assert_eq!(max, 7, "paper grid should top out at symbol index 7");
        // Monotone input ⇒ monotone symbols.
        let idx: Vec<usize> = seq.symbols().iter().map(|s| s.index()).collect();
        assert!(idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn uniform_grid_bin_edges() {
        // per_side = 3: bins are (-∞,-.99) [.,-.66) [.,-.33) [.,0) [0,.33)
        // [.33,.66) [.66,.99) [.99,∞) — check representative points.
        let seq = uniform_grid(&[-2.0, -0.5, -0.1, 0.0, 0.1, 0.5, 2.0], 0.33, 0.99);
        let idx: Vec<usize> = seq.symbols().iter().map(|s| s.index()).collect();
        assert_eq!(idx, vec![0, 2, 3, 4, 4, 5, 7]);
    }

    #[test]
    fn grid_mode_without_sax_skips_paa() {
        // 80 points stay 80 symbols before compression (no segmentation).
        let p = SaxParams::new(10, 3).unwrap();
        let seq = transform_series(
            &step_series(),
            &p,
            &Preprocessing::UniformGrid {
                step: 0.33,
                bound: 0.99,
                compress: false,
            },
        );
        assert_eq!(seq.len(), 80);
        let compressed = transform_series(
            &step_series(),
            &p,
            &Preprocessing::UniformGrid {
                step: 0.33,
                bound: 0.99,
                compress: true,
            },
        );
        assert_eq!(compressed.len(), 2); // two plateaus
    }
}
