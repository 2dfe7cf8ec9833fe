//! Lloyd's KMeans with k-means++ seeding and restarts — the clustering
//! algorithm the paper pairs with PatternLDP (§V-C), mirroring
//! scikit-learn's defaults where practical.

use crate::par;
use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// KMeans configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations per restart (sklearn default: 300).
    pub max_iter: usize,
    /// Independent k-means++ restarts; the best inertia wins (sklearn
    /// default: 10).
    pub n_init: usize,
    /// Relative center-shift tolerance for early convergence.
    pub tol: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the assignment step (0 ⇒ auto).
    pub threads: usize,
}

impl KMeans {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iter: 300,
            n_init: 10,
            tol: 1e-6,
            seed: 0,
            threads: 0,
        }
    }
}

/// A fitted clustering.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// Per-point cluster assignment.
    pub labels: Vec<usize>,
    /// Cluster centers, `k × d`.
    pub centers: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centers.
    pub inertia: f64,
    /// Lloyd iterations the winning restart used.
    pub iterations: usize,
}

impl KMeans {
    /// Fits the model.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, rows have inconsistent lengths, or
    /// `k == 0` / `k > data.len()`.
    pub fn fit(&self, data: &[Vec<f64>]) -> KMeansFit {
        assert!(!data.is_empty(), "KMeans needs data");
        let d = data[0].len();
        assert!(
            data.iter().all(|row| row.len() == d),
            "rows must share a dimension"
        );
        assert!(self.k >= 1 && self.k <= data.len(), "k must be in [1, n]");
        let threads = if self.threads == 0 {
            par::default_threads()
        } else {
            self.threads
        };

        let mut best: Option<KMeansFit> = None;
        for init in 0..self.n_init.max(1) {
            let mut rng =
                ChaCha12Rng::seed_from_u64(self.seed ^ (init as u64).wrapping_mul(0x9E37_79B9));
            let fit = self.run_once(data, &mut rng, threads);
            if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
                best = Some(fit);
            }
        }
        best.expect("n_init >= 1")
    }

    fn run_once<R: Rng>(&self, data: &[Vec<f64>], rng: &mut R, threads: usize) -> KMeansFit {
        let mut centers = self.kmeanspp_init(data, rng);
        let d = data[0].len();
        let mut labels = vec![0usize; data.len()];
        let mut iterations = 0;

        for iter in 0..self.max_iter {
            iterations = iter + 1;
            // Assignment (parallel): nearest center per point.
            let centers_ref = &centers;
            let new_labels = par::map_indexed(data.len(), threads, |i| {
                nearest_center(&data[i], centers_ref).0
            });
            labels = new_labels;

            // Update: mean of assigned points; empty clusters grab the point
            // farthest from its center (sklearn's strategy).
            let mut sums = vec![vec![0.0; d]; self.k];
            let mut counts = vec![0usize; self.k];
            for (row, &label) in data.iter().zip(&labels) {
                counts[label] += 1;
                for (acc, &x) in sums[label].iter_mut().zip(row) {
                    *acc += x;
                }
            }
            let mut shift = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    let (far_idx, _) = data
                        .iter()
                        .enumerate()
                        .map(|(i, row)| (i, nearest_center(row, &centers).1))
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("data non-empty");
                    sums[c] = data[far_idx].clone();
                    counts[c] = 1;
                    labels[far_idx] = c;
                }
                let mut moved = 0.0;
                for (j, acc) in sums[c].iter().enumerate() {
                    let new = acc / counts[c] as f64;
                    let delta = new - centers[c][j];
                    moved += delta * delta;
                    centers[c][j] = new;
                }
                shift += moved;
            }
            if shift.sqrt() < self.tol {
                break;
            }
        }

        let inertia = data
            .iter()
            .zip(&labels)
            .map(|(row, &label)| squared_dist(row, &centers[label]))
            .sum();
        KMeansFit {
            labels,
            centers,
            inertia,
            iterations,
        }
    }

    /// k-means++ seeding: first center uniform, the rest D²-weighted.
    fn kmeanspp_init<R: Rng>(&self, data: &[Vec<f64>], rng: &mut R) -> Vec<Vec<f64>> {
        let mut centers: Vec<Vec<f64>> = Vec::with_capacity(self.k);
        centers.push(data[rng.random_range(0..data.len())].clone());
        let mut dists: Vec<f64> = data
            .iter()
            .map(|row| squared_dist(row, &centers[0]))
            .collect();
        while centers.len() < self.k {
            let total: f64 = dists.iter().sum();
            let idx = if total <= 0.0 {
                rng.random_range(0..data.len())
            } else {
                let mut target = rng.random::<f64>() * total;
                let mut chosen = data.len() - 1;
                for (i, &w) in dists.iter().enumerate() {
                    if target < w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            centers.push(data[idx].clone());
            for (i, row) in data.iter().enumerate() {
                let d = squared_dist(row, centers.last().expect("just pushed"));
                if d < dists[i] {
                    dists[i] = d;
                }
            }
        }
        centers
    }
}

fn squared_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

fn nearest_center(row: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, center) in centers.iter().enumerate() {
        let d = squared_dist(row, center);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..30 {
                let dx = (i as f64 * 0.37).sin() * 0.5;
                let dy = (i as f64 * 0.59).cos() * 0.5;
                data.push(vec![cx + dx, cy + dy]);
                truth.push(label);
            }
        }
        (data, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs();
        let fit = KMeans::new(3).fit(&data);
        assert_eq!(
            crate::metrics::adjusted_rand_index(&fit.labels, &truth),
            1.0
        );
        assert!(fit.inertia < 100.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = blobs();
        let a = KMeans {
            seed: 7,
            ..KMeans::new(3)
        }
        .fit(&data);
        let b = KMeans {
            seed: 7,
            ..KMeans::new(3)
        }
        .fit(&data);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn k_equals_one_gives_global_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let fit = KMeans::new(1).fit(&data);
        assert_eq!(fit.centers[0], vec![1.0, 2.0]);
        assert_eq!(fit.labels, vec![0, 0]);
    }

    #[test]
    fn k_equals_n_reaches_zero_inertia() {
        let data = vec![vec![0.0], vec![5.0], vec![9.0]];
        let fit = KMeans::new(3).fit(&data);
        assert!(fit.inertia < 1e-18);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let (data, _) = blobs();
        let par = KMeans {
            threads: 4,
            seed: 3,
            ..KMeans::new(3)
        }
        .fit(&data);
        let seq = KMeans {
            threads: 1,
            seed: 3,
            ..KMeans::new(3)
        }
        .fit(&data);
        assert_eq!(par.labels, seq.labels);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn rejects_bad_k() {
        KMeans::new(5).fit(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    fn duplicate_points_do_not_break_init() {
        let data = vec![vec![1.0, 1.0]; 10];
        let fit = KMeans::new(2).fit(&data);
        assert_eq!(fit.labels.len(), 10);
        assert!(fit.inertia < 1e-18);
    }
}
