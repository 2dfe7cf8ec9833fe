//! Property tests for the SAX pipeline: the invariants the mechanisms rely
//! on, checked for arbitrary series and parameters.

use privshape_timeseries::{
    compress, compressive_sax, gaussian_breakpoints, normalized_sax, normalized_sax_batch,
    num_segments, paa, sax, symbolize, SaxParams, Symbol, SymbolSeq, TimeSeries,
};
use proptest::prelude::*;

fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..300)
}

/// One series of a kernel batch: `(own_len, len, exponent, (shape, seed))`.
/// It takes the batch's shared length unless `own_len` is 0 (one in four),
/// so batches hold runs of four equal lengths and runs broken by a
/// different one.
type SeriesSpec = (u32, usize, i32, (u32, u64));

fn series_spec() -> impl Strategy<Value = SeriesSpec> {
    (
        0u32..4,
        1usize..=400,
        -150i32..=150,
        (0u32..5, any::<u64>()),
    )
}

/// Builds a finite series of `len` samples at magnitude `10^exponent`:
/// a constant, noise, a noisy sine, a near-constant whose σ straddles the
/// kernel's 1e-12 cut-off, or a mix of `0.0` and `-0.0`.
fn kernel_series(len: usize, exponent: i32, shape: u32, seed: u64) -> TimeSeries {
    let scale = 10f64.powi(exponent);
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let level = unit();
    let values = (0..len)
        .map(|i| match shape {
            0 => scale * level,
            1 => scale * unit(),
            2 => scale * ((i as f64 * 0.2).sin() + 0.1 * unit()),
            3 => scale * (1.0 + 1e-13 * unit()),
            _ => {
                if unit() < 0.0 {
                    -0.0
                } else {
                    0.0
                }
            }
        })
        .collect();
    TimeSeries::new(values).unwrap()
}

proptest! {
    #[test]
    fn paa_of_constant_series_is_constant(c in -10.0f64..10.0, len in 1usize..100, w in 1usize..20) {
        let out = paa(&vec![c; len], w);
        prop_assert_eq!(out.len(), num_segments(len, w));
        for v in out {
            prop_assert!((v - c).abs() < 1e-12);
        }
    }

    #[test]
    fn symbolize_is_monotone_in_value(t in 2usize..15, a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let bp = gaussian_breakpoints(t).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(symbolize(lo, &bp).index() <= symbolize(hi, &bp).index());
    }

    #[test]
    fn symbolize_partitions_probability_evenly(t in 2usize..10) {
        // Sampling a fine grid of standard-normal quantiles must hit each
        // symbol with equal frequency (the whole point of the breakpoints).
        let bp = gaussian_breakpoints(t).unwrap();
        let samples = 10_000;
        let mut counts = vec![0usize; t];
        for i in 1..samples {
            let p = i as f64 / samples as f64;
            let x = privshape_timeseries::inverse_normal_cdf(p);
            counts[symbolize(x, &bp).index()] += 1;
        }
        let want = (samples as f64 - 1.0) / t as f64;
        for (s, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64 - want).abs() < want * 0.05 + 2.0,
                "symbol {s}: {c} vs {want}"
            );
        }
    }

    #[test]
    fn sax_commutes_with_value_shift_after_znorm(
        values in series_strategy(),
        shift in -50.0f64..50.0,
        scale in 0.1f64..10.0,
    ) {
        // z-normalization makes SAX invariant to affine value changes with
        // positive scale — the "scaling" robustness of Fig. 2a.
        let params = SaxParams::new(4, 5).unwrap();
        let a = TimeSeries::new(values.clone()).unwrap().z_normalized();
        let shifted: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        let b = TimeSeries::new(shifted).unwrap().z_normalized();
        prop_assert_eq!(sax(a.values(), &params), sax(b.values(), &params));
    }

    #[test]
    fn compress_preserves_symbol_set_and_order(raw in prop::collection::vec(0u8..6, 0..50)) {
        let seq: SymbolSeq = raw.iter().copied().map(Symbol::from_index).collect();
        let compressed = compress(&seq);
        // The compressed sequence is a subsequence of the original.
        let mut it = seq.symbols().iter();
        for s in compressed.symbols() {
            prop_assert!(it.any(|x| x == s), "not a subsequence");
        }
        // And it loses no *transitions*: every adjacent pair of the
        // compressed sequence occurs as an adjacent pair of the original
        // (where the run of `a` ends and `b` begins).
        for (a, b) in compressed.bigrams() {
            let found = seq.bigrams().any(|(x, y)| x == a && y == b);
            prop_assert!(found, "transition {a}{b} lost");
        }
    }

    #[test]
    fn compressive_sax_invariant_to_time_stretch(
        values in prop::collection::vec(-10.0f64..10.0, 4..40),
        repeat in 2usize..5,
    ) {
        // Repeating every sample `repeat` times (a slower gesture) must not
        // change the essential shape when the segment length scales along —
        // the core Compressive SAX claim (Fig. 4).
        let params_a = SaxParams::new(2, 4).unwrap();
        let params_b = SaxParams::new(2 * repeat, 4).unwrap();
        let a = TimeSeries::new(values.clone()).unwrap().z_normalized();
        let stretched: Vec<f64> =
            values.iter().flat_map(|&v| std::iter::repeat_n(v, repeat)).collect();
        let b = TimeSeries::new(stretched).unwrap().z_normalized();
        prop_assert_eq!(
            compressive_sax(a.values(), &params_a),
            compressive_sax(b.values(), &params_b)
        );
    }

    #[test]
    fn fused_kernel_equals_the_composed_chain(
        w in 1usize..=40,
        alphabet in 2usize..=26,
        shared_len in 1usize..=400,
        specs in prop::collection::vec(series_spec(), 1..=11),
    ) {
        let params = SaxParams::new(w, alphabet).unwrap();
        let batch: Vec<TimeSeries> = specs
            .iter()
            .map(|&(own, len, exponent, (shape, seed))| {
                let len = if own == 0 { len } else { shared_len };
                kernel_series(len, exponent, shape, seed)
            })
            .collect();
        for do_compress in [true, false] {
            let want: Vec<SymbolSeq> = batch
                .iter()
                .map(|s| {
                    let seq = sax(s.z_normalized().values(), &params);
                    if do_compress { compress(&seq) } else { seq }
                })
                .collect();
            for (s, want) in batch.iter().zip(&want) {
                prop_assert_eq!(&normalized_sax(s, &params, do_compress), want);
            }
            prop_assert_eq!(normalized_sax_batch(&batch, &params, do_compress), want);
        }
    }

    #[test]
    fn ucr_round_trip_for_arbitrary_labeled_data(
        rows in prop::collection::vec(
            (0usize..9, prop::collection::vec(-1e6f64..1e6, 1..20)),
            1..20,
        ),
    ) {
        use privshape_timeseries::{parse_ucr, write_ucr, Dataset};
        let series: Vec<TimeSeries> =
            rows.iter().map(|(_, v)| TimeSeries::new(v.clone()).unwrap()).collect();
        let labels: Vec<usize> = rows.iter().map(|(l, _)| *l).collect();
        let data = Dataset::labeled(series, labels).unwrap();
        let mut buf = Vec::new();
        write_ucr(&data, &mut buf).unwrap();
        let back = parse_ucr(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(back.len(), data.len());
        prop_assert_eq!(back.labels().unwrap(), data.labels().unwrap());
        for (a, b) in back.series().iter().zip(data.series()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0));
            }
        }
    }
}
