//! **PrivShape** — extracting top-k frequent shapes from time series under
//! user-level local differential privacy.
//!
//! Rust reproduction of *"PrivShape: Extracting Shapes in Time Series under
//! User-Level Local Differential Privacy"* (Mao, Ye, Hu, Wang, Huang —
//! ICDE 2024). The crate provides both mechanisms from the paper:
//!
//! * [`Baseline`] — Algorithm 1: GRR length estimation plus a trie expanded
//!   level-by-level with Exponential-Mechanism candidate selection and
//!   absolute-threshold pruning;
//! * [`PrivShape`] — Algorithm 2: adds frequent-sub-shape pruning of the
//!   expansion domain, two-level refinement of the leaves, and
//!   similar-shape suppression.
//!
//! Both satisfy ε-LDP at the **user level** (Def. 2: neighboring series may
//! differ in *every* element): each user produces exactly one perturbed
//! report (GRR, EM selection, or OUE), all user groups are disjoint, and
//! the preprocessing is deterministic, so parallel composition gives every
//! user the full ε (Theorems 1 and 3).
//!
//! # Two APIs, one mechanism
//!
//! `PrivShape::run(&[TimeSeries])` is a convenience facade for
//! single-process use. Underneath it drives the round-based protocol of
//! [`privshape_protocol`] ([`protocol`] here): a server-side
//! [`protocol::Session`] broadcasts round specs, one simulated
//! [`protocol::UserClient`] per series answers the rounds addressed to its
//! group, and mergeable [`protocol::ShardAggregator`]s combine the
//! perturbed reports. Code that needs the boundary explicitly — streamed
//! report ingestion, sharded aggregation, fleet simulation — drives the
//! session loop directly (see `examples/federated_rounds.rs`); both paths
//! are bit-identical by construction and by test.
//!
//! # Quickstart
//!
//! ```
//! use privshape::{PrivShape, PrivShapeConfig};
//! use privshape_ldp::Epsilon;
//! use privshape_timeseries::{SaxParams, TimeSeries};
//!
//! // A toy population: everyone's series steps low → high → middle.
//! let series: Vec<TimeSeries> = (0..600)
//!     .map(|i| {
//!         let jitter = (i % 10) as f64 * 1e-3;
//!         let mut v = vec![-1.0 + jitter; 20];
//!         v.extend(vec![1.5 + jitter; 20]);
//!         v.extend(vec![0.0 + jitter; 20]);
//!         TimeSeries::new(v).unwrap()
//!     })
//!     .collect();
//!
//! let config = PrivShapeConfig::new(
//!     Epsilon::new(8.0).unwrap(),
//!     1,                                // top-1 shape
//!     SaxParams::new(10, 3).unwrap(),   // w = 10, t = 3
//! );
//! let result = PrivShape::new(config).unwrap().run(&series).unwrap();
//! assert_eq!(result.shapes[0].shape.to_string(), "acb");
//! ```
//!
//! # Crate map
//!
//! The mechanisms sit on the protocol crate and four substrate crates,
//! re-exported here for convenience: [`privshape_protocol`]
//! (Session / UserClient / ShardAggregator plus configs and result types),
//! [`privshape_timeseries`] (SAX / Compressive SAX),
//! [`privshape_distance`] (DTW / SED / Euclidean / Hausdorff),
//! [`privshape_ldp`] (GRR / OUE / EM / PM), and [`privshape_trie`]
//! (the candidate trie).

// Library code returns no panicking shortcuts; tests may.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod baseline;
mod fleet;
mod par;
mod privshape;
mod shapelet;
mod transform;

pub use baseline::Baseline;
pub use fleet::SimulatedFleet;
pub use privshape::PrivShape;
pub use shapelet::ShapeletTransform;
pub use transform::transform_population;

// The protocol layer owns the configs, result types, population split, and
// per-series preprocessing; re-exported so `privshape`'s public API is a
// superset of what it was before the protocol crate existed.
pub use privshape_protocol::{
    select_distinct_top_k, split_population, transform_batch, transform_series, BaselineConfig,
    ClassShapes, Diagnostics, Error, ExtractedShape, Extraction, Groups, LabeledExtraction,
    PopulationSplit, Preprocessing, PrivShapeConfig, Result,
};

// Substrate re-exports so `privshape` is a one-stop dependency.
pub use privshape_distance as distance;
pub use privshape_ldp as ldp;
pub use privshape_protocol as protocol;
pub use privshape_timeseries as timeseries;
pub use privshape_trie as trie;
