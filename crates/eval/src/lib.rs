//! Evaluation substrate: the clustering, classification, and metric stack
//! the paper's experiments sit on (§V-B…§V-E).
//!
//! The paper pairs PatternLDP with scikit-learn's KMeans / random forest and
//! tslearn's KShape; this crate implements the same algorithms from scratch:
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding and multiple
//!   restarts (assignment step parallelized on scoped threads);
//! * [`KShape`] — shape-based distance (normalized cross-correlation) with
//!   Rayleigh-quotient shape extraction by power iteration;
//! * [`RandomForest`] — CART/Gini bagging ensemble with √d feature sampling;
//! * [`NearestShape`] — the 1-NN rule PrivShape uses to turn extracted
//!   shapes into cluster centroids / classification criteria;
//! * [`adjusted_rand_index`], [`accuracy`], [`ConfusionMatrix`] — metrics.
//!
//! # Example
//!
//! ```
//! use privshape_eval::{adjusted_rand_index, KMeans};
//!
//! // Two well-separated blobs on the real line.
//! let data: Vec<Vec<f64>> =
//!     (0..20).map(|i| vec![if i < 10 { 0.0 } else { 8.0 } + (i % 5) as f64 * 0.1]).collect();
//! let truth: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
//!
//! let fit = KMeans::new(2).fit(&data);
//! assert_eq!(adjusted_rand_index(&fit.labels, &truth), 1.0);
//! ```

mod forest;
mod kmeans;
mod kshape;
mod linalg;
mod metrics;
mod nearest;
pub(crate) mod par;

pub use forest::{RandomForest, RandomForestConfig};
pub use kmeans::{KMeans, KMeansFit};
pub use kshape::{sbd, shape_extraction, KShape, KShapeFit};
pub use linalg::{dominant_eigenvector, l2_norm, z_normalize};
pub use metrics::{accuracy, adjusted_rand_index, ConfusionMatrix};
pub use nearest::{match_centers, NearestShape};
