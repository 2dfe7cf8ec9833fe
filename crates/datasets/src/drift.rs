//! Drifting populations for the continual extraction mode: per-epoch
//! batches of arriving series whose *class mixture changes over time*,
//! with the ground-truth shapes active in each epoch emitted alongside.
//!
//! Three drift scenarios cover the failure modes a sliding-window
//! extractor must track (motivated by the period-conscious LDP
//! reconstruction literature in PAPERS.md):
//!
//! * [`DriftKind::RegimeChange`] — an abrupt switch: before
//!   `switch_epoch` arrivals draw from the `old` class mix, from
//!   `switch_epoch` on from the `new` mix. Classes present in both mixes
//!   persist across the switch.
//! * [`DriftKind::Seasonal`] — one class fades in and out on a fixed
//!   period (share `max_share · (1 − cos(2π·e/period))/2`), on top of an
//!   always-present base mix.
//! * [`DriftKind::Morph`] — one class's essential shape *slowly becomes
//!   another's*: every arrival draws from the blend
//!   `(1 − t)·from + t·to` with `t = min(1, epoch/epochs)`.
//!
//! Generation is deterministic: epoch `e` of a config is a pure function
//! of `(seed, e)`, and each `(epoch, class)` pair draws from its own
//! decorrelated RNG stream — regenerating an epoch never perturbs any
//! other.

use crate::augment::Augment;
use crate::template::Template;
use privshape_timeseries::TimeSeries;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// How the class mixture evolves across epochs. Class indices refer to
/// the palette in [`DriftConfig::palette`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriftKind {
    /// Abrupt regime switch: arrivals draw uniformly from `old` before
    /// `switch_epoch` and uniformly from `new` at and after it.
    RegimeChange {
        /// Palette classes active before the switch.
        old: Vec<usize>,
        /// Palette classes active from `switch_epoch` on.
        new: Vec<usize>,
        /// First epoch that draws from the new mix.
        switch_epoch: usize,
    },
    /// A seasonal class fades in and out over `base` (always present,
    /// uniform shares of the remainder).
    Seasonal {
        /// Always-active palette classes.
        base: Vec<usize>,
        /// The class whose share oscillates.
        seasonal: usize,
        /// Oscillation period in epochs.
        period: usize,
        /// Peak share of the seasonal class, in `(0, 1)`.
        max_share: f64,
    },
    /// Class `from` morphs into class `to` over `epochs` epochs; every
    /// arrival draws from the blended curve.
    Morph {
        /// Starting shape.
        from: usize,
        /// Final shape.
        to: usize,
        /// Epochs the morph takes (`t = min(1, epoch/epochs)`).
        epochs: usize,
    },
}

/// Configuration of a drifting arrival stream.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// The shape palette drift indexes into.
    pub palette: Vec<Template>,
    /// How the mixture evolves.
    pub kind: DriftKind,
    /// Arrivals per epoch.
    pub n_per_epoch: usize,
    /// Series length.
    pub length: usize,
    /// Per-instance augmentation.
    pub augment: Augment,
    /// Master seed; epochs are pure functions of `(seed, epoch)`.
    pub seed: u64,
}

/// One epoch's arrivals plus its ground truth.
#[derive(Debug, Clone)]
pub struct DriftEpoch {
    /// The arriving series, z-normalized and class-interleaved (any
    /// prefix is as mixture-balanced as the shares allow).
    pub series: Vec<TimeSeries>,
    /// Palette class of each series (for a morph, the `from` class while
    /// `t < 0.5`, the `to` class after).
    pub labels: Vec<usize>,
    /// Ground truth: `(class, share, raw curve)` for every class active
    /// this epoch (share > 0), shares summing to 1. The curve is the
    /// *noiseless* class curve of this epoch — for a morph it is the
    /// blend, so the truth drifts with the population.
    pub truth: Vec<(usize, f64, Vec<f64>)>,
}

impl DriftEpoch {
    /// Classes whose population share this epoch is at least `min_share`
    /// — the set a window-less extractor should surface.
    pub fn active_classes(&self, min_share: f64) -> Vec<usize> {
        self.truth
            .iter()
            .filter(|(_, share, _)| *share >= min_share)
            .map(|(class, _, _)| *class)
            .collect()
    }
}

/// The class mixture of one epoch: `(class, share, curve)` with shares
/// summing to 1. Exposed for tests and for window-level ground truth
/// (a driver can mix several epochs' mixtures by window share).
pub fn epoch_mixture(config: &DriftConfig, epoch: usize) -> Vec<(usize, f64, Vec<f64>)> {
    let sample = |class: usize| config.palette[class].sample(config.length);
    match &config.kind {
        DriftKind::RegimeChange {
            old,
            new,
            switch_epoch,
        } => {
            let active = if epoch < *switch_epoch { old } else { new };
            assert!(!active.is_empty(), "regime mixture must name >= 1 class");
            let share = 1.0 / active.len() as f64;
            active.iter().map(|&c| (c, share, sample(c))).collect()
        }
        DriftKind::Seasonal {
            base,
            seasonal,
            period,
            max_share,
        } => {
            assert!(!base.is_empty(), "seasonal drift needs a base mixture");
            assert!(*period >= 2, "seasonal period must span >= 2 epochs");
            assert!(
                (0.0..1.0).contains(max_share),
                "max_share must lie in [0, 1)"
            );
            let phase = 2.0 * std::f64::consts::PI * epoch as f64 / *period as f64;
            let s = max_share * (1.0 - phase.cos()) / 2.0;
            let base_share = (1.0 - s) / base.len() as f64;
            let mut mix: Vec<(usize, f64, Vec<f64>)> =
                base.iter().map(|&c| (c, base_share, sample(c))).collect();
            if s > 0.0 {
                mix.push((*seasonal, s, sample(*seasonal)));
            }
            mix
        }
        DriftKind::Morph { from, to, epochs } => {
            assert!(*epochs >= 1, "a morph must take >= 1 epoch");
            let t = (epoch as f64 / *epochs as f64).min(1.0);
            let a = &config.palette[*from];
            let b = &config.palette[*to];
            let label = if t < 0.5 { *from } else { *to };
            let curve = (0..config.length)
                .map(|i| {
                    let x = i as f64 / (config.length - 1) as f64;
                    (1.0 - t) * a.eval(x) + t * b.eval(x)
                })
                .collect();
            vec![(label, 1.0, curve)]
        }
    }
}

/// Generates epoch `epoch` of the drift stream: deterministic in
/// `(config, epoch)`, class-interleaved, z-normalized.
///
/// Instance counts follow the epoch mixture by largest remainder, so
/// they sum to exactly [`DriftConfig::n_per_epoch`].
///
/// # Panics
///
/// Panics when the drift kind references a class outside the palette or
/// its mixture parameters are degenerate (empty mixes, zero period).
pub fn drift_epoch(config: &DriftConfig, epoch: usize) -> DriftEpoch {
    let mixture = epoch_mixture(config, epoch);
    for (class, _, _) in &mixture {
        assert!(
            *class < config.palette.len(),
            "drift class {class} outside palette of {}",
            config.palette.len()
        );
    }
    let counts = share_counts(config.n_per_epoch, &mixture);

    // One decorrelated stream per (epoch, class): a class's instances
    // do not depend on the other classes' shares, mirroring
    // `generate_trace_like_counts`.
    let mut rngs: Vec<ChaCha12Rng> = mixture
        .iter()
        .map(|(class, _, _)| {
            ChaCha12Rng::seed_from_u64(drift_stream_seed(config.seed, epoch, *class))
        })
        .collect();

    let total: usize = counts.iter().sum();
    let mut emitted = vec![0usize; mixture.len()];
    let mut series = Vec::with_capacity(total);
    let mut labels = Vec::with_capacity(total);
    while series.len() < total {
        for (slot, (class, _, curve)) in mixture.iter().enumerate() {
            if emitted[slot] >= counts[slot] {
                continue;
            }
            let values = config.augment.apply_curve(
                |x| eval_curve(curve, x),
                config.length,
                &mut rngs[slot],
            );
            series.push(
                TimeSeries::new(values)
                    .expect("drift curves are finite")
                    .z_normalized(),
            );
            labels.push(*class);
            emitted[slot] += 1;
        }
    }
    DriftEpoch {
        series,
        labels,
        truth: mixture,
    }
}

/// Largest-remainder apportionment of `total` instances to the mixture
/// shares (every positive-share class gets at least one instance when
/// `total` allows).
fn share_counts(total: usize, mixture: &[(usize, f64, Vec<f64>)]) -> Vec<usize> {
    let mut counts: Vec<usize> = mixture
        .iter()
        .map(|(_, share, _)| (total as f64 * share).floor() as usize)
        .collect();
    if total >= mixture.len() {
        for c in counts.iter_mut() {
            *c = (*c).max(1);
        }
    }
    let mut assigned: usize = counts.iter().sum();
    // Trim overshoot from the largest slots, top up the largest shares.
    while assigned > total {
        let max = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .expect("mixture is non-empty");
        counts[max] -= 1;
        assigned -= 1;
    }
    let mut order: Vec<usize> = (0..mixture.len()).collect();
    order.sort_by(|&a, &b| mixture[b].1.total_cmp(&mixture[a].1));
    for slot in order.into_iter().cycle() {
        if assigned == total {
            break;
        }
        counts[slot] += 1;
        assigned += 1;
    }
    counts
}

/// Piecewise-linear evaluation of a sampled curve at `x ∈ [0, 1]` —
/// needed because augmentation warps positions between the samples.
fn eval_curve(curve: &[f64], x: f64) -> f64 {
    let pos = x.clamp(0.0, 1.0) * (curve.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(curve.len() - 1);
    let t = pos - lo as f64;
    curve[lo] * (1.0 - t) + curve[hi] * t
}

/// SplitMix64-style decorrelation of `(seed, epoch, class)` into one
/// stream seed per epoch-class pair.
fn drift_stream_seed(seed: u64, epoch: usize, class: usize) -> u64 {
    let mut z = seed
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (class as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{trace_template, TRACE_CLASSES, TRACE_LEN};

    fn palette() -> Vec<Template> {
        (0..TRACE_CLASSES).map(trace_template).collect()
    }

    fn regime_config() -> DriftConfig {
        DriftConfig {
            palette: palette(),
            kind: DriftKind::RegimeChange {
                old: vec![0, 1],
                new: vec![0, 2],
                switch_epoch: 4,
            },
            n_per_epoch: 60,
            length: TRACE_LEN,
            augment: Augment::default(),
            seed: 11,
        }
    }

    #[test]
    fn regime_change_switches_the_mixture() {
        let cfg = regime_config();
        let before = drift_epoch(&cfg, 3);
        let after = drift_epoch(&cfg, 4);
        assert_eq!(before.active_classes(0.1), vec![0, 1]);
        assert_eq!(after.active_classes(0.1), vec![0, 2]);
        assert_eq!(before.series.len(), 60);
        assert_eq!(before.labels.iter().filter(|&&l| l == 0).count(), 30);
        assert_eq!(before.labels.iter().filter(|&&l| l == 1).count(), 30);
        assert!(after.labels.iter().all(|&l| l != 1));
    }

    #[test]
    fn epochs_are_deterministic_and_distinct() {
        let cfg = regime_config();
        let a = drift_epoch(&cfg, 2);
        let b = drift_epoch(&cfg, 2);
        assert_eq!(a.series, b.series);
        assert_eq!(a.labels, b.labels);
        let c = drift_epoch(&cfg, 3);
        assert_ne!(a.series[0], c.series[0], "epoch streams must differ");
    }

    #[test]
    fn output_is_z_normalized_and_interleaved() {
        let e = drift_epoch(&regime_config(), 0);
        for s in &e.series {
            assert!(s.mean().abs() < 1e-9);
            assert!((s.std() - 1.0).abs() < 1e-9);
            assert_eq!(s.len(), TRACE_LEN);
        }
        // Interleaved: the first two arrivals cover both active classes.
        assert_eq!(&e.labels[..2], &[0, 1]);
    }

    #[test]
    fn seasonal_share_oscillates() {
        let cfg = DriftConfig {
            palette: palette(),
            kind: DriftKind::Seasonal {
                base: vec![0, 1],
                seasonal: 2,
                period: 8,
                max_share: 0.5,
            },
            n_per_epoch: 80,
            length: TRACE_LEN,
            augment: Augment::default(),
            seed: 5,
        };
        // Trough at epoch 0: the seasonal class is absent.
        let trough = drift_epoch(&cfg, 0);
        assert_eq!(trough.active_classes(0.05), vec![0, 1]);
        // Peak at half period: the seasonal class holds max_share.
        let peak = drift_epoch(&cfg, 4);
        let share = peak
            .truth
            .iter()
            .find(|(c, _, _)| *c == 2)
            .map(|(_, s, _)| *s)
            .unwrap();
        assert!((share - 0.5).abs() < 1e-12, "share={share}");
        let count2 = peak.labels.iter().filter(|&&l| l == 2).count();
        assert_eq!(count2, 40);
        // Shares always sum to 1.
        for epoch in 0..16 {
            let sum: f64 = epoch_mixture(&cfg, epoch).iter().map(|(_, s, _)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "epoch {epoch}: {sum}");
        }
    }

    #[test]
    fn morph_blends_from_into_to() {
        let cfg = DriftConfig {
            palette: palette(),
            kind: DriftKind::Morph {
                from: 0,
                to: 2,
                epochs: 10,
            },
            n_per_epoch: 10,
            length: TRACE_LEN,
            augment: Augment::none(),
            seed: 1,
        };
        let start = drift_epoch(&cfg, 0);
        let end = drift_epoch(&cfg, 10);
        let t0 = trace_template(0).sample(TRACE_LEN);
        let t2 = trace_template(2).sample(TRACE_LEN);
        let close_to = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
                < 1e-9
        };
        assert!(close_to(&start.truth[0].2, &t0));
        assert!(close_to(&end.truth[0].2, &t2));
        assert_eq!(start.labels[0], 0);
        assert_eq!(end.labels[0], 2);
        // Halfway the curve is the midpoint blend.
        let mid = drift_epoch(&cfg, 5);
        let want: Vec<f64> = t0.iter().zip(&t2).map(|(a, b)| 0.5 * (a + b)).collect();
        assert!(close_to(&mid.truth[0].2, &want));
    }

    #[test]
    fn share_counts_sum_exactly() {
        let mix = vec![
            (0usize, 0.5, vec![0.0; 2]),
            (1usize, 0.33, vec![0.0; 2]),
            (2usize, 0.17, vec![0.0; 2]),
        ];
        for total in [1usize, 7, 60, 5000] {
            let counts = share_counts(total, &mix);
            assert_eq!(counts.iter().sum::<usize>(), total, "total={total}");
        }
        let counts = share_counts(6000, &mix);
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }
}
