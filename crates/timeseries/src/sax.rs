//! The SAX transform (§II-A) and Compressive SAX (§III-B).

use crate::breakpoints::gaussian_breakpoints;
use crate::compress::compress;
use crate::error::{Result, TsError};
use crate::paa::{num_segments, paa};
use crate::series::TimeSeries;
use crate::symbol::{Symbol, SymbolSeq};

/// Validated SAX parameters: segment length `w` and alphabet size `t`,
/// with the Gaussian breakpoint table precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct SaxParams {
    segment_len: usize,
    alphabet: usize,
    breakpoints: Vec<f64>,
}

impl SaxParams {
    /// Creates parameters, validating `w ≥ 1` and `t ∈ [2, 26]`.
    pub fn new(segment_len: usize, alphabet: usize) -> Result<Self> {
        if segment_len == 0 {
            return Err(TsError::InvalidSegmentLength(segment_len));
        }
        let breakpoints = gaussian_breakpoints(alphabet)?;
        Ok(Self {
            segment_len,
            alphabet,
            breakpoints,
        })
    }

    /// Segment length `w`.
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Alphabet size `t`.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// The `t - 1` breakpoints splitting `N(0,1)` into equiprobable regions.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }
}

/// Maps one (z-normalized) value to its SAX symbol by binary search over the
/// breakpoint table: region `i` covers `[β_{i-1}, β_i)`.
pub fn symbolize(value: f64, breakpoints: &[f64]) -> Symbol {
    let idx = breakpoints.partition_point(|&b| b <= value);
    Symbol::from_index(idx as u8)
}

/// The SAX transform of a **z-normalized** series: PAA with segment length
/// `w`, then symbol assignment against the Gaussian breakpoints.
///
/// The input is not re-normalized here so that callers controlling the
/// normalization policy (e.g. the ablation in §V-J that skips SAX) can reuse
/// the symbolization machinery.
pub fn sax(values: &[f64], params: &SaxParams) -> SymbolSeq {
    paa(values, params.segment_len)
        .into_iter()
        .map(|v| symbolize(v, &params.breakpoints))
        .collect()
}

/// Compressive SAX: SAX followed by merging runs of repeated symbols
/// (the paper's `"aaaccccccbbbbaaa" → "acba"` reduction).
pub fn compressive_sax(values: &[f64], params: &SaxParams) -> SymbolSeq {
    compress(&sax(values, params))
}

/// Series the batch kernel advances in lockstep.
const LANES: usize = 4;

/// Where every sequential sum of the kernel starts: std's `Sum for f64`
/// folds from `-0.0`, so a chain that starts here and adds in index order
/// gives the bits `iter().sum()` gives.
const SUM_START: f64 = -0.0;

/// The SAX symbols of `series`' z-normalization, run-compressed when
/// `compress` is set: `compress(sax(z, params))` or `sax(z, params)` with
/// `z = series.z_normalized()`, bit for bit, without building `z` or the
/// PAA. The returned sequence is the only allocation.
///
/// The kernel performs the IEEE-754 operations of that chain in the same
/// order: the mean and the variance are sequential sums over the samples,
/// and each segment value is the sequential sum of `(v − mean) / σ` over
/// the segment divided by its length, or `0.0` when `σ < 1e-12` (a
/// constant series normalizes to zeros). The symbols come from
/// [`symbolize`].
pub fn normalized_sax(series: &TimeSeries, params: &SaxParams, compress: bool) -> SymbolSeq {
    let [seq] = symbolize_lanes([series.values()], params, compress);
    seq
}

/// [`normalized_sax`] of every series, in order.
///
/// Each group of four equal-length series goes through every pass together,
/// as four independent sums (none reordered), and the next group's samples
/// are prefetched before a group runs. A group of unequal lengths, and a
/// tail of one to three series, runs one series at a time.
pub fn normalized_sax_batch(
    series: &[TimeSeries],
    params: &SaxParams,
    compress: bool,
) -> Vec<SymbolSeq> {
    let mut out = Vec::with_capacity(series.len());
    let mut groups = series.chunks(LANES).peekable();
    while let Some(group) = groups.next() {
        if let Some(next) = groups.peek() {
            prefetch(next);
        }
        match <&[TimeSeries; LANES]>::try_from(group) {
            Ok(four) if four.iter().all(|s| s.len() == four[0].len()) => {
                let lanes = four.each_ref().map(TimeSeries::values);
                out.extend(symbolize_lanes(lanes, params, compress));
            }
            _ => out.extend(group.iter().map(|s| normalized_sax(s, params, compress))),
        }
    }
    out
}

/// [`normalized_sax`] of `L` equal-length sample runs at once.
fn symbolize_lanes<const L: usize>(
    lanes: [&[f64]; L],
    params: &SaxParams,
    compress: bool,
) -> [SymbolSeq; L] {
    let segments = num_segments(lanes[0].len(), params.segment_len);
    let mut seqs: [Vec<Symbol>; L] = std::array::from_fn(|_| Vec::with_capacity(segments));
    segment_values(lanes, params.segment_len, |lane, value| {
        let symbol = symbolize(value, &params.breakpoints);
        let seq = &mut seqs[lane];
        if !(compress && seq.last() == Some(&symbol)) {
            seq.push(symbol);
        }
    });
    seqs.map(SymbolSeq::from_symbols)
}

/// Calls `visit(lane, value)` with the PAA values of every lane's
/// z-normalization, segment by segment: the values
/// `paa(z_normalized(lane), w)` holds, bit for bit.
fn segment_values<const L: usize>(lanes: [&[f64]; L], w: usize, mut visit: impl FnMut(usize, f64)) {
    let len = lanes[0].len();
    assert!(
        lanes.iter().all(|lane| lane.len() == len),
        "lockstep lanes must have equal lengths"
    );
    let n = len as f64;
    let mut sum = [SUM_START; L];
    for i in 0..len {
        for (s, lane) in sum.iter_mut().zip(&lanes) {
            *s += lane[i];
        }
    }
    let mean = sum.map(|s| s / n);
    let mut squares = [SUM_START; L];
    for i in 0..len {
        for ((s, lane), mean) in squares.iter_mut().zip(&lanes).zip(&mean) {
            let d = lane[i] - mean;
            *s += d * d;
        }
    }
    let std = squares.map(|s| (s / n).sqrt());
    let mut start = 0;
    while start < len {
        let end = start + w.min(len - start);
        let mut segment = [SUM_START; L];
        for i in start..end {
            for (((s, lane), mean), std) in segment.iter_mut().zip(&lanes).zip(&mean).zip(&std) {
                *s += (lane[i] - mean) / std;
            }
        }
        for (lane, (s, std)) in segment.iter().zip(&std).enumerate() {
            // The zeros a constant series normalizes to average to +0.0.
            visit(
                lane,
                if *std < 1e-12 {
                    0.0
                } else {
                    s / (end - start) as f64
                },
            );
        }
        start = end;
    }
}

/// Asks the cache hierarchy for the samples of `series`, one address per
/// 64-byte line plus the last sample, whose line the stride misses when a
/// buffer does not start on a line boundary.
#[cfg(target_arch = "x86_64")]
fn prefetch(series: &[TimeSeries]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for s in series {
        let values = s.values();
        for i in (0..values.len()).step_by(8).chain([values.len() - 1]) {
            let line = std::ptr::from_ref(&values[i]).cast::<i8>();
            // SAFETY: a prefetch only hints the cache: it never faults,
            // reads nothing into the program and writes no memory, and SSE,
            // which provides it, is part of every x86-64 target. The address
            // is that of a live sample besides.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
    }
}

/// Other targets rely on the hardware prefetcher alone.
#[cfg(not(target_arch = "x86_64"))]
fn prefetch(_series: &[TimeSeries]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validate_inputs() {
        assert!(SaxParams::new(0, 3).is_err());
        assert!(SaxParams::new(8, 1).is_err());
        assert!(SaxParams::new(8, 27).is_err());
        let p = SaxParams::new(8, 3).unwrap();
        assert_eq!(p.segment_len(), 8);
        assert_eq!(p.alphabet(), 3);
        assert_eq!(p.breakpoints().len(), 2);
    }

    #[test]
    fn symbolize_respects_half_open_regions() {
        let bp = [-0.43, 0.43];
        assert_eq!(symbolize(-1.0, &bp).as_char(), 'a');
        // Boundary values belong to the upper region: [β, …).
        assert_eq!(symbolize(-0.43, &bp).as_char(), 'b');
        assert_eq!(symbolize(0.0, &bp).as_char(), 'b');
        assert_eq!(symbolize(0.43, &bp).as_char(), 'c');
        assert_eq!(symbolize(5.0, &bp).as_char(), 'c');
    }

    #[test]
    fn sax_matches_paper_fig3_shape() {
        // Reconstruct the qualitative series of Fig. 3: low for 3 segments,
        // high for 6, middle for 4, low for 3 — with w = 8, t = 3 it must
        // produce "aaaccccccbbbbaaa", compressing to "acba".
        let mut v = Vec::new();
        for seg in 0..16 {
            let level = match seg {
                0..=2 => -1.2,
                3..=8 => 1.3,
                9..=12 => 0.0,
                _ => -1.2,
            };
            for i in 0..8 {
                v.push(level + 0.02 * (i as f64 % 2.0));
            }
        }
        let series = crate::TimeSeries::new(v).unwrap().z_normalized();
        let p = SaxParams::new(8, 3).unwrap();
        let seq = sax(series.values(), &p);
        assert_eq!(seq.to_string(), "aaaccccccbbbbaaa");
        assert_eq!(compressive_sax(series.values(), &p).to_string(), "acba");
    }

    #[test]
    fn sax_output_length_is_segment_count() {
        let p = SaxParams::new(3, 4).unwrap();
        let v = vec![0.0; 10];
        assert_eq!(sax(&v, &p).len(), 4); // ⌈10/3⌉
    }

    /// `len` samples from a xorshift stream, at magnitude `scale`.
    fn samples(seed: u64, len: usize, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                scale * ((state >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sums_start_where_std_float_sums_start() {
        assert_eq!(
            SUM_START.to_bits(),
            std::iter::empty::<f64>().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn segment_values_equal_paa_of_z_normalized_bit_for_bit() {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for (seed, len) in [(1u64, 128usize), (2, 97), (3, 7), (4, 400), (5, 1)] {
            for scale in [1e-150, 1e-3, 1.0, 7.5e4, 1e150] {
                cases.push(samples(seed * 31 + len as u64, len, scale));
            }
        }
        cases.push(vec![4.2; 50]);
        cases.push(vec![-0.0; 13]);
        cases.push(
            (0..60)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
        );
        cases.push((0..90).map(|i| 1e3 + 1e-14 * f64::from(i % 7)).collect());
        let mut lockstep_groups = 0;
        for w in [1, 3, 8, 25, 500] {
            for values in &cases {
                let want = paa(
                    TimeSeries::new(values.clone())
                        .unwrap()
                        .z_normalized()
                        .values(),
                    w,
                );
                let mut got = Vec::new();
                segment_values([values.as_slice()], w, |lane, v| {
                    assert_eq!(lane, 0);
                    got.push(v);
                });
                assert_eq!(bits(&got), bits(&want), "w={w} len={}", values.len());
            }
            // Four lanes of equal length each keep their own chains.
            for group in cases.chunks(4) {
                let Ok(lanes) =
                    <[&[f64]; 4]>::try_from(group.iter().map(Vec::as_slice).collect::<Vec<_>>())
                else {
                    continue;
                };
                if lanes.iter().any(|l| l.len() != lanes[0].len()) {
                    continue;
                }
                lockstep_groups += 1;
                let mut got = vec![Vec::new(); 4];
                segment_values(lanes, w, |lane, v| got[lane].push(v));
                for (lane, values) in lanes.iter().enumerate() {
                    let z = TimeSeries::new(values.to_vec()).unwrap().z_normalized();
                    assert_eq!(
                        bits(&got[lane]),
                        bits(&paa(z.values(), w)),
                        "w={w} lane={lane}"
                    );
                }
            }
        }
        assert!(
            lockstep_groups >= 5,
            "only {lockstep_groups} four-lane groups ran"
        );
    }

    #[test]
    fn symbols_stay_within_alphabet() {
        let p = SaxParams::new(2, 5).unwrap();
        let v: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
        let seq = sax(&v, &p);
        assert!(seq.max_index().unwrap() < 5);
    }
}
