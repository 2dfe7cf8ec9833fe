//! Distance measures used throughout the PrivShape reproduction.
//!
//! The paper measures shape similarity with three string metrics — dynamic
//! time warping (DTW), string edit distance (SED), and Euclidean distance —
//! plus numeric DTW for matching extracted shapes against ground-truth
//! centroids (§II-C, §V-H). Hausdorff distance is included because §IV-B
//! names it among the metrics satisfying the relaxed prefix/suffix
//! decomposition assumption.
//!
//! Symbol sequences are treated as numeric series over their alphabet
//! indices (`'a' = 0, 'b' = 1, …`), so DTW/Euclidean costs reflect *how far
//! apart* two symbols are, while SED only counts edits.
//!
//! Hot loops score through a reusable [`DistanceWorkspace`]
//! ([`DistanceKind::dist_with`], [`DistanceKind::dist_batch_with`]) that
//! keeps DTW rows and index buffers alive across calls; the plain
//! [`DistanceKind::dist`] is a convenience wrapper over the same code
//! path, so both produce bit-identical results. Whole candidate batches
//! are scored with [`DistanceKind::table_row`] /
//! [`DistanceKind::dist_batch_table`], which exploit the packed table's
//! LCP index to resume dynamic-programming state shared between
//! prefix-ordered candidates (one trie walk instead of one DP table per
//! sibling) — still bit-identical to the flat path. The workspace also
//! remembers each own sequence's row per table: `table_row` keeps the row
//! a caller derives from the distances (a device keeps its
//! Exponential-Mechanism selection row), named by a salt, so a sequence
//! many users share is scored and derived once per table and later
//! answered with a borrowed slice. [`DistanceKind::argmin_table`] folds
//! the distance row `dist_batch_table` keeps. Tables are passed as the
//! broadcast's `Arc` and recognised by pointer.
//!
//! # Example
//!
//! ```
//! use privshape_distance::{DistanceKind, em_score};
//! use privshape_timeseries::SymbolSeq;
//!
//! let a = SymbolSeq::parse("acba").unwrap();
//! let b = SymbolSeq::parse("acba").unwrap();
//! assert_eq!(DistanceKind::Dtw.dist(&a, &b), 0.0);
//! assert_eq!(em_score(0.0), 1.0); // exact match ⇒ maximal EM score
//! ```

// Library code returns no panicking shortcuts; tests may.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod dtw;
mod euclidean;
mod hausdorff;
mod kind;
mod prefix;
mod score;
mod sed;
mod workspace;

pub use dtw::{dtw, Dtw};
pub use euclidean::euclidean_padded;
pub use hausdorff::hausdorff;
pub use kind::DistanceKind;
pub use score::em_score;
pub use sed::sed;
pub use workspace::{DistanceWorkspace, ScanStats};
