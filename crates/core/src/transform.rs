//! Population-wide preprocessing: raw series → symbol sequences, in
//! parallel.
//!
//! The per-series transformation itself lives in the protocol layer
//! ([`privshape_protocol::transform_series`]) because it runs on the
//! user's device; this module only adds the fork/join fan-out used by the
//! single-process simulation drivers.

use crate::par;
use privshape_protocol::{transform_batch, Preprocessing};
use privshape_timeseries::{SaxParams, SymbolSeq, TimeSeries};

/// Transforms a whole population in parallel: one contiguous run of users
/// per thread, each through [`transform_batch`]. A `threads` of 0 means
/// the available parallelism, capped at 16.
pub fn transform_population(
    series: &[TimeSeries],
    sax_params: &SaxParams,
    mode: &Preprocessing,
    threads: usize,
) -> Vec<SymbolSeq> {
    par::map_runs(series.len(), par::resolve_threads(threads), |run| {
        transform_batch(&series[run], sax_params, mode)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_protocol::transform_series;

    fn step_series() -> TimeSeries {
        let mut v = vec![-1.0; 40];
        v.extend(vec![1.0; 40]);
        TimeSeries::new(v).unwrap()
    }

    #[test]
    fn population_transform_matches_single() {
        let p = SaxParams::new(10, 3).unwrap();
        let population = vec![step_series(), step_series()];
        let seqs = transform_population(&population, &p, &Preprocessing::default(), 2);
        assert_eq!(seqs.len(), 2);
        assert_eq!(
            seqs[0],
            transform_series(&step_series(), &p, &Preprocessing::default())
        );
        assert_eq!(seqs[0], seqs[1]);
    }
}
