//! **privshape-protocol** — the round-based client/aggregator protocol the
//! PrivShape mechanisms (ICDE 2024) are actually made of.
//!
//! PrivShape is an *interactive* LDP protocol: the server broadcasts round
//! specifications (length domain, bigram grids, trie candidates) and each
//! user's device answers exactly once, from the one group it belongs to,
//! with a report perturbed on-device under the full budget ε. This crate
//! makes that boundary first-class instead of hiding it inside a
//! monolithic `run(&[TimeSeries])`:
//!
//! * [`Session`] — the server: a state machine that walks length
//!   estimation → sub-shape estimation → per-level trie expansion →
//!   two-level refinement, emitting a [`RoundSpec`] per round and
//!   consuming [`Report`]s;
//! * [`ShardAggregator`] — mergeable per-round partial sums (`absorb` /
//!   `merge`), so a round's reports can be aggregated in chunks (one per
//!   worker thread of a simulated fleet) that combine associatively in
//!   any order;
//! * [`Session::submit_sealed_frame`] — the one untrusted ingress: each
//!   open round takes sealed frames of wire-encoded reports
//!   ([`seal_frame`], serde-free), checks each whole against the round and
//!   absorbs it in the producer's own call, one report per user per
//!   round, bit-identical to serial submission;
//! * [`UserClient`] — one user's device: owns that user's series, derives
//!   its group assignment and all of its randomness locally from
//!   `(seed, user_id)`, and answers only the rounds addressed to its
//!   group. Raw data never crosses the API;
//! * [`continual`] — epochs over a sliding window of arriving series:
//!   deterministic per-epoch user subsampling, amplified-ε accounting,
//!   and a budget ledger that refuses epochs once the user-level total
//!   is spent.
//!
//! The privacy argument is structural and unchanged from the paper
//! (Theorems 1 and 3): preprocessing is deterministic, the groups are
//! disjoint, each user uploads exactly one perturbed report, so parallel
//! composition gives every user the full ε.
//!
//! # Driving a session
//!
//! ```
//! use privshape_protocol::{PrivShapeConfig, Session, UserClient};
//! use privshape_ldp::Epsilon;
//! use privshape_timeseries::{SaxParams, TimeSeries};
//!
//! // A tiny population: everyone's series steps low → high.
//! let series: Vec<TimeSeries> = (0..400)
//!     .map(|i| {
//!         let jitter = (i % 10) as f64 * 1e-3;
//!         let mut v = vec![-1.0 + jitter; 30];
//!         v.extend(vec![1.0 + jitter; 30]);
//!         TimeSeries::new(v).unwrap()
//!     })
//!     .collect();
//!
//! let mut config = PrivShapeConfig::new(
//!     Epsilon::new(4.0).unwrap(),
//!     1,
//!     SaxParams::new(10, 3).unwrap(),
//! );
//! config.length_range = (1, 4);
//!
//! // Server side: the session; client side: one UserClient per device.
//! let mut session = Session::privshape(config, series.len()).unwrap();
//! let mut clients: Vec<UserClient> = series
//!     .iter()
//!     .enumerate()
//!     .map(|(user, s)| UserClient::new(user, s, session.params()))
//!     .collect();
//!
//! while let Some(spec) = session.next_round().unwrap() {
//!     let mut reports = Vec::new();
//!     for client in &mut clients {
//!         if let Some(report) = client.answer(&spec).unwrap() {
//!             reports.push(report);
//!         }
//!     }
//!     session.submit(&reports).unwrap();
//! }
//! let extraction = session.finish().unwrap();
//! assert_eq!(extraction.shapes[0].shape.to_string(), "ac");
//! ```

// `missing_docs` is redundant with the workspace-level lint, but
// explicit: the protocol boundary is the workspace's main public API and
// must stay documented. `unreachable_pub` keeps an item of a private
// module from staying `pub` when nothing re-exports it.
#![warn(missing_docs, unreachable_pub)]

mod chaos;
mod client;
mod config;
pub mod continual;
mod error;
mod ingest;
mod params;
mod population;
mod postprocess;
mod report;
mod rng;
mod round;
#[cfg(test)]
mod rounds;
mod session;
mod shard;
mod transform;
mod wire;

pub use chaos::{FaultKind, FaultPlan, FiredCounts};
pub use client::{GroupAssignment, UserClient};
pub use config::{
    BaselineConfig, LengthOracle, PopulationSplit, Preprocessing, PrivShapeConfig, MAX_THREADS,
};
pub use continual::{subsampled, ContinualConfig, ContinualDriver, EpochPlan};
pub use error::{Error, Result};
pub use ingest::{IngestConfig, IngestStats};
pub use params::{MechanismKind, ProtocolParams};
pub use population::{chunk_of_rank, split_population, Groups};
pub use postprocess::select_distinct_top_k;
pub use report::{ClassShapes, Diagnostics, ExtractedShape, Extraction, LabeledExtraction};
pub use round::{Audience, Chunk, GroupId, Report, RoundSpec};
pub use session::{Session, SNAPSHOT_VERSION};
pub use shard::ShardAggregator;
pub use transform::{transform_batch, transform_series};
pub use wire::{put_varint, read_varint, route_frame, seal_frame, RoutedFrame, ROUTED_VERSION};
