//! Random forest classifier — the model the paper pairs with PatternLDP for
//! the classification task (§V-E), mirroring scikit-learn's defaults
//! (100 Gini trees, √d features per split, bootstrap sampling).

mod tree;

use crate::par;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use tree::DecisionTree;

/// Random forest configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Ensemble size (sklearn default: 100).
    pub n_trees: usize,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// Minimum samples required to split a node (sklearn default: 2).
    pub min_samples_split: usize,
    /// Features examined per split; `None` ⇒ `√d` (sklearn default).
    pub n_features: Option<usize>,
    /// Master seed; tree `i` trains from an independent derived stream.
    pub seed: u64,
    /// Worker threads for training/prediction (0 ⇒ auto).
    pub threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: 32,
            min_samples_split: 2,
            n_features: None,
            seed: 0,
            threads: 0,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Trains the ensemble on rows `x` with class labels `y`.
    ///
    /// # Panics
    ///
    /// Panics on empty input, mismatched lengths, or inconsistent row
    /// dimensions.
    pub fn fit(config: &RandomForestConfig, x: &[Vec<f64>], y: &[usize]) -> Self {
        assert!(!x.is_empty(), "random forest needs data");
        assert_eq!(x.len(), y.len(), "feature/label count mismatch");
        let d = x[0].len();
        assert!(
            x.iter().all(|row| row.len() == d),
            "rows must share a dimension"
        );
        let n_classes = y.iter().copied().max().expect("non-empty") + 1;
        let n_features = config
            .n_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize);
        let n_features = n_features.clamp(1, d);
        let threads = if config.threads == 0 {
            par::default_threads()
        } else {
            config.threads
        };

        let trees = par::map_indexed(config.n_trees, threads, |i| {
            let mut rng = ChaCha12Rng::seed_from_u64(
                config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            DecisionTree::fit_bootstrap(
                x,
                y,
                n_classes,
                config.max_depth,
                config.min_samples_split,
                n_features,
                &mut rng,
            )
        });
        Self { trees, n_classes }
    }

    /// Number of classes seen at training time.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Ensemble size.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Per-class vote fractions for one row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(row)] += 1.0;
        }
        let total = self.trees.len() as f64;
        votes.iter_mut().for_each(|v| *v /= total);
        votes
    }

    /// Majority-vote prediction for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let proba = self.predict_proba(row);
        proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .expect("at least one class")
    }

    /// Predictions for a batch of rows (parallel).
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        par::map_indexed(rows.len(), par::default_threads(), |i| {
            self.predict(&rows[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two linearly separable 3-D classes with one noisy dimension.
    fn toy(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let noise = ((i * 37) % 11) as f64 / 11.0;
            if i % 2 == 0 {
                x.push(vec![1.0 + noise * 0.1, -1.0, noise]);
                y.push(0);
            } else {
                x.push(vec![-1.0 - noise * 0.1, 1.0, noise]);
                y.push(1);
            }
        }
        (x, y)
    }

    #[test]
    fn learns_separable_classes() {
        let (x, y) = toy(200);
        let rf = RandomForest::fit(
            &RandomForestConfig {
                n_trees: 25,
                ..Default::default()
            },
            &x,
            &y,
        );
        let preds = rf.predict_batch(&x);
        let acc = crate::metrics::accuracy(&preds, &y);
        assert!(acc > 0.98, "train accuracy {acc}");
        assert_eq!(rf.n_classes(), 2);
        assert_eq!(rf.n_trees(), 25);
    }

    #[test]
    fn generalizes_to_held_out_rows() {
        let (x, y) = toy(300);
        let rf = RandomForest::fit(
            &RandomForestConfig {
                n_trees: 30,
                seed: 3,
                ..Default::default()
            },
            &x[..200],
            &y[..200],
        );
        let acc = crate::metrics::accuracy(&rf.predict_batch(&x[200..]), &y[200..]);
        assert!(acc > 0.95, "test accuracy {acc}");
    }

    #[test]
    fn proba_sums_to_one_and_matches_predict() {
        let (x, y) = toy(100);
        let rf = RandomForest::fit(
            &RandomForestConfig {
                n_trees: 15,
                ..Default::default()
            },
            &x,
            &y,
        );
        let p = rf.predict_proba(&x[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(rf.predict(&x[0]), argmax);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = toy(120);
        let cfg = RandomForestConfig {
            n_trees: 10,
            seed: 9,
            ..Default::default()
        };
        let a = RandomForest::fit(&cfg, &x, &y).predict_batch(&x);
        let b = RandomForest::fit(&cfg, &x, &y).predict_batch(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn three_class_problem() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let c = i % 3;
            let jitter = ((i * 13) % 7) as f64 * 0.01;
            x.push(vec![c as f64 * 2.0 + jitter, -(c as f64) + jitter]);
            y.push(c);
        }
        let rf = RandomForest::fit(
            &RandomForestConfig {
                n_trees: 20,
                ..Default::default()
            },
            &x,
            &y,
        );
        assert_eq!(rf.n_classes(), 3);
        let acc = crate::metrics::accuracy(&rf.predict_batch(&x), &y);
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn nan_features_do_not_panic() {
        // Every third row loses its noise feature; the two clean features
        // still separate the classes.
        let (mut x, y) = toy(120);
        for row in x.iter_mut().step_by(3) {
            row[2] = f64::NAN;
        }
        let rf = RandomForest::fit(
            &RandomForestConfig {
                n_trees: 10,
                ..Default::default()
            },
            &x,
            &y,
        );
        let acc = crate::metrics::accuracy(&rf.predict_batch(&x), &y);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_mismatched_labels() {
        RandomForest::fit(&RandomForestConfig::default(), &[vec![1.0]], &[0, 1]);
    }
}
