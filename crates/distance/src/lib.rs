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
//! are scored with [`DistanceKind::dist_batch_table`] /
//! [`DistanceKind::argmin_table`], which exploit the packed table's LCP
//! index to resume dynamic-programming state shared between
//! prefix-ordered candidates (one trie walk instead of one DP table per
//! sibling) — still bit-identical to the flat path.
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

mod dtw;
mod euclidean;
mod hausdorff;
mod kind;
mod prefix;
mod score;
mod sed;
mod workspace;

pub use dtw::{dtw, dtw_banded, Dtw};
pub use euclidean::{euclidean, euclidean_padded};
pub use hausdorff::hausdorff;
pub use kind::DistanceKind;
pub use score::{em_score, em_scores};
pub use sed::sed;
pub use workspace::{DistanceWorkspace, ScanStats};
