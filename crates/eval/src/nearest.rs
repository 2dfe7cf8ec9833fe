//! Nearest-shape assignment: how extracted shapes become cluster centroids
//! (§V-D) or classification criteria (§V-E), plus DTW-based matching of
//! extracted shapes to ground-truth centers (Figs. 8/10).

use privshape_distance::{DistanceKind, DistanceWorkspace, Dtw};
use privshape_timeseries::{CandidateTable, SymbolSeq};
use std::sync::Arc;

/// A 1-NN classifier whose prototypes are extracted shapes.
#[derive(Debug, Clone)]
pub struct NearestShape {
    shapes: Vec<(SymbolSeq, usize)>,
    /// The prototypes packed once at construction, so every query scores
    /// through the prefix-resumable table scorer (which recognizes the
    /// table by its `Arc`).
    table: Arc<CandidateTable>,
    distance: DistanceKind,
}

impl NearestShape {
    /// Builds the classifier from `(shape, label)` prototypes.
    ///
    /// # Panics
    ///
    /// Panics if no prototype is given.
    pub fn new(shapes: Vec<(SymbolSeq, usize)>, distance: DistanceKind) -> Self {
        assert!(!shapes.is_empty(), "need at least one prototype shape");
        let mut table =
            CandidateTable::with_capacity(shapes.len(), shapes.iter().map(|(s, _)| s.len()).sum());
        for (shape, _) in &shapes {
            table.push_seq(shape);
        }
        Self {
            shapes,
            table: Arc::new(table),
            distance,
        }
    }

    /// Builds an *unlabeled* variant where each shape is its own class —
    /// the clustering use-case (shape index = cluster id).
    pub fn from_centroids(shapes: Vec<SymbolSeq>, distance: DistanceKind) -> Self {
        let labeled = shapes
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        Self::new(labeled, distance)
    }

    /// Prototypes.
    pub fn shapes(&self) -> &[(SymbolSeq, usize)] {
        &self.shapes
    }

    /// The label of the nearest prototype (ties toward the earlier
    /// prototype, keeping assignment deterministic).
    pub fn classify(&self, query: &SymbolSeq) -> usize {
        self.nearest(query).1
    }

    /// `(prototype index, label, distance)` of the nearest prototype.
    /// One workspace is reused across the prototype loop.
    pub fn nearest(&self, query: &SymbolSeq) -> (usize, usize, f64) {
        let mut ws = DistanceWorkspace::new();
        self.nearest_with(&mut ws, query)
    }

    /// [`NearestShape::nearest`] scoring through a caller-provided
    /// workspace (batch loops keep one workspace across all queries).
    ///
    /// Folds the prefix-resumable distance row over the packed prototype
    /// table (shared-prefix prototypes reuse DP rows) to its first
    /// minimum, so ties resolve to the earlier prototype.
    pub fn nearest_with(
        &self,
        ws: &mut DistanceWorkspace,
        query: &SymbolSeq,
    ) -> (usize, usize, f64) {
        let (i, d) = self
            .distance
            .argmin_table(ws, query.symbols(), &self.table)
            .expect("table is non-empty by construction");
        (i, self.shapes[i].1, d)
    }

    /// Classifies a batch through one shared workspace (no per-pair
    /// allocation).
    pub fn classify_batch(&self, queries: &[SymbolSeq]) -> Vec<usize> {
        let mut ws = DistanceWorkspace::new();
        queries
            .iter()
            .map(|q| self.nearest_with(&mut ws, q).1)
            .collect()
    }
}

/// Greedily matches extracted centers to ground-truth centers by ascending
/// DTW distance (the center-matching step of Figs. 8 and 10). Returns
/// `matches[i] = Some(j)`: extracted center `i` ↔ truth center `j`; extras
/// on either side stay unmatched.
pub fn match_centers(extracted: &[Vec<f64>], truth: &[Vec<f64>]) -> Vec<Option<usize>> {
    // One DTW engine across the |extracted| × |truth| grid: the DP rows
    // are allocated once, not per pair.
    let mut engine = Dtw::new();
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (i, e) in extracted.iter().enumerate() {
        for (j, t) in truth.iter().enumerate() {
            pairs.push((engine.dist(e, t), i, j));
        }
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    let mut matches = vec![None; extracted.len()];
    let mut used_truth = vec![false; truth.len()];
    for (_, i, j) in pairs {
        if matches[i].is_none() && !used_truth[j] {
            matches[i] = Some(j);
            used_truth[j] = true;
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> SymbolSeq {
        SymbolSeq::parse(s).unwrap()
    }

    #[test]
    fn classify_picks_nearest_prototype() {
        let clf = NearestShape::new(vec![(seq("abab"), 0), (seq("cdcd"), 1)], DistanceKind::Sed);
        assert_eq!(clf.classify(&seq("abab")), 0);
        assert_eq!(clf.classify(&seq("abad")), 0);
        assert_eq!(clf.classify(&seq("cdce")), 1);
    }

    #[test]
    fn from_centroids_uses_indices_as_labels() {
        let clf = NearestShape::from_centroids(vec![seq("ab"), seq("ba")], DistanceKind::Dtw);
        assert_eq!(clf.classify(&seq("ab")), 0);
        assert_eq!(clf.classify(&seq("ba")), 1);
        assert_eq!(clf.shapes().len(), 2);
    }

    #[test]
    fn nearest_reports_distance() {
        let clf = NearestShape::new(vec![(seq("abc"), 7)], DistanceKind::Sed);
        let (idx, label, d) = clf.nearest(&seq("abd"));
        assert_eq!((idx, label), (0, 7));
        assert_eq!(d, 1.0);
    }

    #[test]
    fn batch_matches_single() {
        let clf = NearestShape::new(
            vec![(seq("aaab"), 0), (seq("bbba"), 1)],
            DistanceKind::Euclidean,
        );
        let queries = vec![seq("aaab"), seq("bbba"), seq("aab")];
        let batch = clf.classify_batch(&queries);
        let single: Vec<usize> = queries.iter().map(|q| clf.classify(q)).collect();
        assert_eq!(batch, single);
    }

    #[test]
    fn center_matching_is_a_partial_bijection() {
        let truth = vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![-1.0, -1.0, -1.0],
        ];
        let extracted = vec![vec![0.9, 1.1, 1.0], vec![0.1, -0.1, 0.0]];
        let m = match_centers(&extracted, &truth);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn extra_extracted_centers_stay_unmatched() {
        let truth = vec![vec![0.0, 0.0]];
        let extracted = vec![vec![0.0, 0.1], vec![5.0, 5.0]];
        let m = match_centers(&extracted, &truth);
        assert_eq!(m[0], Some(0));
        assert_eq!(m[1], None);
    }

    #[test]
    fn nan_centers_do_not_panic() {
        // A NaN center is at NaN distance from every truth shape; ordering
        // those distances must not panic.
        let m = match_centers(&[vec![f64::NAN]], &[vec![0.0], vec![1.0]]);
        assert_eq!(m.len(), 1);
        assert!(m[0].is_some_and(|j| j < 2));
    }

    #[test]
    #[should_panic(expected = "at least one prototype")]
    fn rejects_empty_prototypes() {
        NearestShape::new(vec![], DistanceKind::Dtw);
    }
}
