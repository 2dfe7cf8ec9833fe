//! A single CART decision tree with Gini impurity and random feature
//! subsets — the base learner of [`super::RandomForest`].

use rand::{Rng, RngExt};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `< threshold` child.
        left: usize,
        /// Arena index of the `>= threshold` child.
        right: usize,
    },
}

/// A trained decision tree (arena representation; index 0 is the root).
#[derive(Debug, Clone)]
pub(super) struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Trains on a bootstrap resample of `(x, y)`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fit_bootstrap<R: Rng>(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        max_depth: usize,
        min_samples_split: usize,
        n_features: usize,
        rng: &mut R,
    ) -> Self {
        let n = x.len();
        let indices: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
        let mut tree = DecisionTree { nodes: Vec::new() };
        let builder = Builder {
            x,
            y,
            n_classes,
            max_depth,
            min_samples_split,
            n_features,
        };
        builder.grow(&mut tree, indices, 0, rng);
        tree
    }

    /// Predicts the class of one row.
    pub(super) fn predict(&self, row: &[f64]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

struct Builder<'a> {
    x: &'a [Vec<f64>],
    y: &'a [usize],
    n_classes: usize,
    max_depth: usize,
    min_samples_split: usize,
    n_features: usize,
}

impl Builder<'_> {
    /// Grows a subtree over `indices`, returns its arena index.
    fn grow<R: Rng>(
        &self,
        tree: &mut DecisionTree,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut R,
    ) -> usize {
        let counts = self.class_counts(&indices);
        let majority = argmax(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.max_depth || indices.len() < self.min_samples_split {
            return self.push(tree, Node::Leaf { class: majority });
        }

        match self.best_split(&indices, &counts, rng) {
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| self.x[i][feature] < threshold);
                if left_idx.is_empty() || right_idx.is_empty() {
                    return self.push(tree, Node::Leaf { class: majority });
                }
                // Reserve the split slot before growing children so the root
                // stays at index 0.
                let at = self.push(tree, Node::Leaf { class: majority });
                let left = self.grow(tree, left_idx, depth + 1, rng);
                let right = self.grow(tree, right_idx, depth + 1, rng);
                tree.nodes[at] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                at
            }
            None => self.push(tree, Node::Leaf { class: majority }),
        }
    }

    fn push(&self, tree: &mut DecisionTree, node: Node) -> usize {
        tree.nodes.push(node);
        tree.nodes.len() - 1
    }

    fn class_counts(&self, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &i in indices {
            counts[self.y[i]] += 1;
        }
        counts
    }

    /// Best `(feature, threshold)` by Gini gain over a random feature
    /// subset; `None` if no split improves on the parent.
    fn best_split<R: Rng>(
        &self,
        indices: &[usize],
        parent_counts: &[usize],
        rng: &mut R,
    ) -> Option<(usize, f64)> {
        let d = self.x[0].len();
        let features = sample_without_replacement(d, self.n_features, rng);
        let n = indices.len() as f64;
        let parent_gini = gini(parent_counts, indices.len());
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)

        let mut order: Vec<usize> = Vec::with_capacity(indices.len());
        for &feature in &features {
            order.clear();
            order.extend_from_slice(indices);
            order.sort_by(|&a, &b| self.x[a][feature].total_cmp(&self.x[b][feature]));

            let mut left_counts = vec![0usize; self.n_classes];
            let mut left_n = 0usize;
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_counts[self.y[i]] += 1;
                left_n += 1;
                let a = self.x[order[w]][feature];
                let b = self.x[order[w + 1]][feature];
                if a == b {
                    continue; // no boundary between equal values
                }
                let right_n = indices.len() - left_n;
                let mut right_counts = vec![0usize; self.n_classes];
                for (c, rc) in right_counts.iter_mut().enumerate() {
                    *rc = parent_counts[c] - left_counts[c];
                }
                let weighted = (left_n as f64 / n) * gini(&left_counts, left_n)
                    + (right_n as f64 / n) * gini(&right_counts, right_n);
                let gain = parent_gini - weighted;
                if gain > 1e-12 && best.as_ref().is_none_or(|(g, _, _)| gain > *g) {
                    best = Some((gain, feature, (a + b) / 2.0));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

fn argmax(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Fisher–Yates partial shuffle drawing `m` distinct values from `0..d`.
fn sample_without_replacement<R: Rng>(d: usize, m: usize, rng: &mut R) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..d).collect();
    let m = m.min(d);
    for i in 0..m {
        let j = rng.random_range(i..d);
        pool.swap(i, j);
    }
    pool.truncate(m);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for _ in 0..50 {
            let mut s = sample_without_replacement(10, 4, &mut rng);
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4);
            assert!(s.iter().all(|&v| v < 10));
        }
        assert_eq!(sample_without_replacement(3, 10, &mut rng).len(), 3);
    }

    #[test]
    fn single_tree_fits_axis_aligned_split() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let tree = DecisionTree::fit_bootstrap(&x, &y, 2, 16, 2, 1, &mut rng);
        // Deep in each class region the prediction must be right even with
        // bootstrap wobble at the boundary.
        assert_eq!(tree.predict(&[2.0]), 0);
        assert_eq!(tree.predict(&[37.0]), 1);
    }

    #[test]
    fn pure_nodes_become_leaves_immediately() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1, 1, 1];
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let tree = DecisionTree::fit_bootstrap(&x, &y, 2, 16, 2, 1, &mut rng);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.predict(&[5.0]), 1);
    }

    #[test]
    fn constant_features_yield_a_leaf() {
        let x = vec![vec![3.0]; 10];
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let tree = DecisionTree::fit_bootstrap(&x, &y, 2, 16, 2, 1, &mut rng);
        let p = tree.predict(&[3.0]);
        assert!(p < 2);
    }
}
