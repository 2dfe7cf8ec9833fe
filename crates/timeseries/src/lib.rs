//! Time-series substrate for the PrivShape reproduction.
//!
//! This crate implements everything §II-A and §III-B of the paper rely on:
//!
//! * [`TimeSeries`] — an owned sequence of `f64` samples with summary
//!   statistics and [z-score normalization](TimeSeries::z_normalized);
//! * [`paa`] — Piecewise Aggregate Approximation with a fixed segment
//!   length `w` (the paper's `⌈m/w⌉`-piece segmentation);
//! * [`gaussian_breakpoints`] — the SAX lookup table generalized to any
//!   alphabet size via the inverse normal CDF;
//! * [`sax`] / [`compressive_sax`] — the SAX transform and the paper's
//!   Compressive SAX (run-length removal of repeated symbols);
//! * [`normalized_sax`] / [`normalized_sax_batch`] — the enrollment
//!   kernel: z-normalization, PAA, symbolization and compression fused
//!   into one pass structure with no intermediate buffer, bit-identical to
//!   the composed chain above, with the batch form advancing four series
//!   in lockstep and prefetching the next four;
//! * [`SymbolSeq`] — compact symbol sequences with parsing/formatting;
//! * [`CandidateTable`] — packed columnar batches of candidate shapes
//!   (one flat symbol buffer + offsets), the broadcast currency of the
//!   round hot path;
//! * [`Dataset`] — a labeled collection of series with UCR-format I/O.
//!
//! # Example
//!
//! ```
//! use privshape_timeseries::{compressive_sax, SaxParams, TimeSeries};
//!
//! // The running example of Fig. 3 in the paper: a 128-point series is
//! // compressed to "aaaccccccbbbbaaa" (w = 8, t = 3) and then to "acba".
//! let params = SaxParams::new(8, 3).unwrap();
//! let series = TimeSeries::new(fig3_series()).unwrap();
//! let shape = compressive_sax(series.z_normalized().values(), &params);
//! assert_eq!(shape.to_string(), "acba");
//! # fn fig3_series() -> Vec<f64> {
//! #     let mut v = Vec::new();
//! #     for i in 0..128usize {
//! #         let x = match i / 8 {
//! #             0..=2 => -1.0,
//! #             3..=8 => 1.5,
//! #             9..=12 => 0.0,
//! #             _ => -1.0,
//! #         };
//! #         v.push(x + 0.01 * (i as f64 % 3.0));
//! #     }
//! #     v
//! # }
//! ```

mod breakpoints;
mod compress;
mod dataset;
mod error;
mod paa;
mod sax;
mod series;
mod symbol;
mod table;
mod ucr;

pub use breakpoints::{gaussian_breakpoints, inverse_normal_cdf};
pub use compress::{compress, is_compressed};
pub use dataset::Dataset;
pub use error::{Result, TsError};
pub use paa::{num_segments, paa, paa_into};
pub use sax::{compressive_sax, normalized_sax, normalized_sax_batch, sax, symbolize, SaxParams};
pub use series::TimeSeries;
pub use symbol::{Symbol, SymbolSeq, MAX_ALPHABET};
pub use table::CandidateTable;
pub use ucr::{parse_ucr, read_ucr_file, write_ucr, write_ucr_file};
