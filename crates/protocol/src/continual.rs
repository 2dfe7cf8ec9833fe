//! Continual extraction: epochs over a sliding window of arriving
//! series, with per-epoch user subsampling and a cumulative user-level
//! budget ledger.
//!
//! The one-shot protocol extracts shapes from a static population. The
//! continual mode re-extracts as the population drifts: arrivals are
//! observed in per-epoch batches, a sliding window of the most recent
//! [`ContinualConfig::window_epochs`] batches forms each epoch's
//! population, and every epoch runs one full [`Session`] over a
//! Bernoulli subsample of that window.
//!
//! Three properties make this deployable under *user-level* LDP:
//!
//! * **Deterministic subsampling** — whether user `u` participates in
//!   epoch `e` is a pure hash of `(seed, u, e)` ([`subsampled`]), so the
//!   server never ships a roster and any shard (or a client auditing its
//!   own participation) recomputes the same decision.
//! * **Amplification accounting** — an epoch over a `q`-sample costs
//!   `ln(1 + q·(e^ε − 1))` of user-level budget, not ε
//!   ([`privshape_ldp::amplified_epsilon`]). Epoch costs compose
//!   sequentially across the run because every epoch may observe the
//!   same user.
//! * **A refusing ledger** — [`ContinualDriver::begin_epoch`] debits a
//!   [`BudgetLedger`] *before* materializing the epoch session and
//!   surfaces a typed
//!   [`BudgetExhausted`](privshape_ldp::LdpError::BudgetExhausted)
//!   (wrapped in [`Error::Ldp`]) once the total is spent: the run stops
//!   extracting instead of silently overdrawing anyone's budget.
//!
//! The driver deliberately stops at *planning* an epoch: an
//! [`EpochPlan`] can materialize its [`Session`] and [`UserClient`]s any
//! number of times (each materialization is deterministic), so the same
//! plan can be driven serially in-process, through a `ServiceRegistry`
//! as a routed service session, or both — the bit-identity harness the
//! differential test relies on.

use crate::client::{GroupAssignment, UserClient};
use crate::config::PrivShapeConfig;
use crate::error::{Error, Result};
use crate::session::Session;
use privshape_ldp::{BudgetLedger, Epsilon};
use privshape_timeseries::TimeSeries;
use std::collections::VecDeque;

/// Configuration of a continual extraction run.
#[derive(Debug, Clone)]
pub struct ContinualConfig {
    /// The per-epoch mechanism configuration. `base.epsilon` is the
    /// budget each *sampled* user's report is perturbed under; the
    /// user-level cost per epoch is its amplified value. `base.seed`
    /// also seeds the participation hash; each epoch's session runs
    /// under a seed derived from `(base.seed, epoch)`.
    pub base: PrivShapeConfig,
    /// Sliding-window length in epochs: each epoch's population is the
    /// series that arrived in the last `window_epochs` batches.
    pub window_epochs: usize,
    /// Bernoulli participation probability per user per epoch, in
    /// `(0, 1]`.
    pub sampling_rate: f64,
    /// Total user-level budget for the whole run; epochs are refused
    /// once their cumulative amplified cost would exceed it.
    pub total_budget: Epsilon,
    /// Minimum sampled population an epoch needs; smaller samples are
    /// refused with [`Error::NotEnoughUsers`] *without* charging the
    /// ledger.
    pub min_epoch_users: usize,
}

/// Whether `user` participates in `epoch`: a pure, deterministic
/// Bernoulli(`rate`) decision derived from `(seed, user, epoch)` by a
/// SplitMix64-style hash. Any party holding the broadcast seed computes
/// the same answer, so participation needs no roster and survives
/// crash/restore bit-identically.
pub fn subsampled(seed: u64, user: u64, epoch: u64, rate: f64) -> bool {
    let mut z =
        seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 2^64 is exactly representable, so rate = 1 yields a threshold
    // above every u64 — everyone participates.
    let threshold = (rate.clamp(0.0, 1.0) * (u64::MAX as f64 + 1.0)) as u128;
    (z as u128) < threshold
}

/// The session seed of one epoch, decorrelated from the master seed and
/// from every other epoch (SplitMix64-style).
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed.wrapping_add(epoch.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One arrival batch resident in the window.
#[derive(Debug, Clone)]
struct Batch {
    /// Global id of the batch's first user (ids are assigned in arrival
    /// order and never reused).
    first_user: u64,
    series: Vec<TimeSeries>,
}

/// A fully planned epoch: the sampled population, the derived
/// per-epoch config, and its budget accounting.
///
/// Materialization is split out ([`EpochPlan::session`] /
/// [`EpochPlan::clients`]) and deterministic, so one plan can be driven
/// several times — e.g. once serially and once through a service
/// registry — and every drive yields the identical extraction.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// The epoch's session configuration (base config under the
    /// epoch-derived seed).
    pub config: PrivShapeConfig,
    /// Global user ids of the sampled participants, ascending; local
    /// (session) user `i` is `users[i]`.
    pub users: Vec<u64>,
    /// The sampled participants' series, in `users` order.
    pub series: Vec<TimeSeries>,
    /// Amplified user-level cost this epoch debited from the ledger.
    pub amplified: Epsilon,
    /// Cumulative ledger spend *after* this epoch's debit.
    pub spent: f64,
    /// Window population size the sample was drawn from.
    pub window_users: usize,
}

impl EpochPlan {
    /// Materializes the epoch's server session. Repeatable: every call
    /// builds an identical session.
    pub fn session(&self) -> Result<Session> {
        Session::privshape(self.config.clone(), self.series.len())
    }

    /// Materializes one [`UserClient`] per sampled participant for a
    /// session built by [`EpochPlan::session`], sharing one derived
    /// group-assignment table.
    pub fn clients(&self, session: &Session) -> Vec<UserClient> {
        let assignments = GroupAssignment::derive_all(session.params());
        self.series
            .iter()
            .enumerate()
            .map(|(user, s)| {
                UserClient::with_assignment(user, s, None, session.params(), assignments[user])
            })
            .collect()
    }
}

/// The continual extraction driver: owns the sliding window, the epoch
/// counter, and the budget ledger.
///
/// Usage per epoch: [`observe`](ContinualDriver::observe) the arrival
/// batch, then [`begin_epoch`](ContinualDriver::begin_epoch) for a plan
/// (or a typed refusal), then drive the plan's session to `finish`.
#[derive(Debug, Clone)]
pub struct ContinualDriver {
    config: ContinualConfig,
    ledger: BudgetLedger,
    window: VecDeque<Batch>,
    next_user: u64,
    epoch: usize,
}

impl ContinualDriver {
    /// Creates a driver.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the window is empty or the sampling
    /// rate is outside `(0, 1]`.
    pub fn new(config: ContinualConfig) -> Result<Self> {
        if config.window_epochs == 0 {
            return Err(Error::InvalidConfig(
                "continual window must span at least one epoch".into(),
            ));
        }
        if !config.sampling_rate.is_finite()
            || config.sampling_rate <= 0.0
            || config.sampling_rate > 1.0
        {
            return Err(Error::InvalidConfig(format!(
                "sampling rate must lie in (0, 1], got {}",
                config.sampling_rate
            )));
        }
        let ledger = BudgetLedger::new(config.total_budget);
        Ok(Self {
            config,
            ledger,
            window: VecDeque::new(),
            next_user: 0,
            epoch: 0,
        })
    }

    /// Absorbs one arrival batch: assigns each series a fresh global
    /// user id and evicts batches that fell out of the window.
    pub fn observe(&mut self, series: Vec<TimeSeries>) {
        let first_user = self.next_user;
        self.next_user += series.len() as u64;
        self.window.push_back(Batch { first_user, series });
        while self.window.len() > self.config.window_epochs {
            self.window.pop_front();
        }
    }

    /// Plans the next epoch: samples the window deterministically,
    /// debits the amplified epoch cost, and returns the plan.
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughUsers`] — the sample came out smaller than
    ///   [`ContinualConfig::min_epoch_users`]; the ledger is *not*
    ///   charged, so a caller can observe more arrivals and retry.
    /// * [`Error::Ldp`] wrapping
    ///   [`BudgetExhausted`](privshape_ldp::LdpError::BudgetExhausted) —
    ///   the user-level budget cannot pay for another epoch. The ledger
    ///   and the epoch counter are untouched.
    pub fn begin_epoch(&mut self) -> Result<EpochPlan> {
        let epoch = self.epoch;
        let seed = self.config.base.seed;
        let rate = self.config.sampling_rate;
        let mut users = Vec::new();
        let mut series = Vec::new();
        for batch in &self.window {
            for (i, s) in batch.series.iter().enumerate() {
                let global = batch.first_user + i as u64;
                if subsampled(seed, global, epoch as u64, rate) {
                    users.push(global);
                    series.push(s.clone());
                }
            }
        }
        if series.len() < self.config.min_epoch_users {
            return Err(Error::NotEnoughUsers {
                needed: self.config.min_epoch_users,
                got: series.len(),
            });
        }
        let amplified = self.ledger.charge(self.config.base.epsilon, rate)?;
        let mut config = self.config.base.clone();
        config.seed = epoch_seed(seed, epoch as u64);
        self.epoch += 1;
        Ok(EpochPlan {
            epoch,
            config,
            users,
            series,
            amplified,
            spent: self.ledger.spent(),
            window_users: self.window_users(),
        })
    }

    /// The budget ledger (total, spend, per-epoch charges).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Index the next [`begin_epoch`](ContinualDriver::begin_epoch)
    /// will plan.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Series currently resident in the window.
    fn window_users(&self) -> usize {
        self.window.iter().map(|b| b.series.len()).sum()
    }

    /// The driver's configuration.
    pub fn config(&self) -> &ContinualConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_ldp::LdpError;
    use privshape_timeseries::SaxParams;

    fn base_config(seed: u64) -> PrivShapeConfig {
        let mut cfg =
            PrivShapeConfig::new(Epsilon::new(4.0).unwrap(), 2, SaxParams::new(5, 3).unwrap());
        cfg.length_range = (1, 6);
        cfg.seed = seed;
        cfg
    }

    fn step_series(n: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                let jitter = (i % 10) as f64 * 1e-3;
                let mut v = vec![-1.0 + jitter; 20];
                v.extend(vec![1.0 + jitter; 20]);
                TimeSeries::new(v).unwrap()
            })
            .collect()
    }

    fn driver(rate: f64, budget: f64) -> ContinualDriver {
        ContinualDriver::new(ContinualConfig {
            base: base_config(13),
            window_epochs: 2,
            sampling_rate: rate,
            total_budget: Epsilon::new(budget).unwrap(),
            min_epoch_users: 50,
        })
        .unwrap()
    }

    #[test]
    fn subsampling_is_deterministic_and_calibrated() {
        let included: Vec<bool> = (0..20_000u64).map(|u| subsampled(7, u, 3, 0.35)).collect();
        let again: Vec<bool> = (0..20_000u64).map(|u| subsampled(7, u, 3, 0.35)).collect();
        assert_eq!(included, again);
        let rate = included.iter().filter(|&&b| b).count() as f64 / 20_000.0;
        assert!((rate - 0.35).abs() < 0.02, "empirical rate {rate}");
        // Different epochs sample different subsets.
        let other: Vec<bool> = (0..20_000u64).map(|u| subsampled(7, u, 4, 0.35)).collect();
        assert_ne!(included, other);
        // Boundary rates.
        assert!((0..100u64).all(|u| subsampled(7, u, 0, 1.0)));
        assert!((0..100u64).all(|u| !subsampled(7, u, 0, 0.0)));
    }

    #[test]
    fn window_slides_and_ids_are_never_reused() {
        let mut d = driver(1.0, 100.0);
        d.observe(step_series(100));
        d.observe(step_series(100));
        assert_eq!(d.window_users(), 200);
        d.observe(step_series(100));
        // window_epochs = 2: the first batch fell out.
        assert_eq!(d.window_users(), 200);
        assert_eq!(d.window.len(), 2);
        let plan = d.begin_epoch().unwrap();
        // Global ids of the resident batches start at 100.
        assert_eq!(plan.users.first(), Some(&100));
        assert_eq!(plan.users.last(), Some(&299));
    }

    #[test]
    fn epoch_plans_charge_the_closed_form_and_are_rematerializable() {
        let mut d = driver(0.5, 100.0);
        d.observe(step_series(400));
        let plan = d.begin_epoch().unwrap();
        let want = (1.0 + 0.5 * (4.0f64.exp() - 1.0)).ln();
        assert!((plan.amplified.value() - want).abs() < 1e-12);
        assert!((plan.spent - want).abs() < 1e-12);
        assert_eq!(d.ledger().epochs(), 1);
        assert!(plan.series.len() > 100 && plan.series.len() < 300);
        assert_eq!(plan.users.len(), plan.series.len());

        // The plan materializes identical sessions every time: drive two
        // independently and compare extractions.
        let drive = |plan: &EpochPlan| {
            let mut session = plan.session().unwrap();
            let mut clients = plan.clients(&session);
            while let Some(spec) = session.next_round().unwrap() {
                let mut reports = Vec::new();
                for c in clients.iter_mut() {
                    if let Some(r) = c.answer(&spec).unwrap() {
                        reports.push(r);
                    }
                }
                session.submit(&reports).unwrap();
            }
            session.finish().unwrap()
        };
        let a = drive(&plan);
        let b = drive(&plan);
        assert_eq!(a.shapes, b.shapes);
        assert_eq!(a.shapes[0].shape.to_string(), "ac");
    }

    #[test]
    fn epoch_seeds_differ_between_epochs() {
        let mut d = driver(1.0, 100.0);
        d.observe(step_series(200));
        let p0 = d.begin_epoch().unwrap();
        d.observe(step_series(200));
        let p1 = d.begin_epoch().unwrap();
        assert_ne!(p0.config.seed, p1.config.seed);
        assert_eq!(p0.epoch, 0);
        assert_eq!(p1.epoch, 1);
        assert_eq!(p1.window_users, 400);
    }

    #[test]
    fn small_samples_are_refused_without_charging() {
        let mut d = driver(1.0, 100.0);
        d.observe(step_series(10));
        let err = d.begin_epoch().unwrap_err();
        assert!(matches!(
            err,
            Error::NotEnoughUsers {
                needed: 50,
                got: 10
            }
        ));
        assert_eq!(d.ledger().spent(), 0.0);
        assert_eq!(d.epoch(), 0);
        // More arrivals fix it.
        d.observe(step_series(90));
        assert!(d.begin_epoch().is_ok());
    }

    #[test]
    fn exhausted_budget_is_a_typed_refusal() {
        // Budget pays for exactly two full-rate epochs of ε = 4.
        let mut d = driver(1.0, 8.0);
        d.observe(step_series(100));
        assert!(d.begin_epoch().is_ok());
        assert!(d.begin_epoch().is_ok());
        let before = d.ledger().spent();
        match d.begin_epoch().unwrap_err() {
            Error::Ldp(LdpError::BudgetExhausted {
                requested,
                remaining,
            }) => {
                assert_eq!(requested, 4.0);
                assert!(remaining < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(d.ledger().spent(), before);
        assert_eq!(d.epoch(), 2, "a refused epoch does not advance");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mk = |window_epochs, sampling_rate| {
            ContinualDriver::new(ContinualConfig {
                base: base_config(1),
                window_epochs,
                sampling_rate,
                total_budget: Epsilon::new(10.0).unwrap(),
                min_epoch_users: 1,
            })
        };
        assert!(matches!(mk(0, 0.5), Err(Error::InvalidConfig(_))));
        assert!(matches!(mk(2, 0.0), Err(Error::InvalidConfig(_))));
        assert!(matches!(mk(2, 1.5), Err(Error::InvalidConfig(_))));
        assert!(matches!(mk(2, f64::NAN), Err(Error::InvalidConfig(_))));
        assert!(mk(2, 1.0).is_ok());
    }
}
