//! Differential test: the same random sessions, driven four ways, must
//! extract bit for bit the same result.
//!
//! 1. The facade (`Session` + `SimulatedFleet`) is the reference.
//! 2. A routed `ServiceRegistry` serves every tenant of a case at once.
//!    Each wave mixes the tenants' sealed frames round-robin and routes
//!    them from several producer threads. Each wave also carries one
//!    replayed frame, which dedup must shed, and one bit-flipped frame,
//!    which the checksum must reject. Drilled tenants are snapshotted,
//!    evicted and restored at a round boundary.
//! 3. A `Supervisor` runs every tenant under a `FaultPlan`, one producer
//!    thread per session. Each session must recover to the reference or
//!    end quarantined with a typed error.
//! 4. A continual epoch over tenant 0's population runs through
//!    `drive_epoch`, with a crash drill.
//!
//! "The same" means the same shapes or per-class shapes with the same f64
//! frequencies, trie height, candidates per level, group sizes and idle
//! users. That is user-level ε-LDP's exactness promise under sharding,
//! routing, recovery and epochs: every path only merges integer counts.
//!
//! The two `#[ignore]`d cases are the large runs, meant for release
//! builds: `cargo test --release -p privshape-bench --test differential
//! -- --ignored`.

use privshape::protocol::{
    route_frame, seal_frame, ClassShapes, ContinualConfig, ContinualDriver, Diagnostics, EpochPlan,
    Error, ExtractedShape, Extraction, FaultKind, FaultPlan, FiredCounts, GroupAssignment,
    IngestConfig, LabeledExtraction, LengthOracle, Report, RoundSpec, Session, UserClient,
};
use privshape::{BaselineConfig, PrivShapeConfig, SimulatedFleet};
use privshape_bench::quality::{nearest_palette, shape_f_measure, symbols_ground_truth};
use privshape_bench::scenario::ORACLES;
use privshape_bench::ExpCtx;
use privshape_datasets::{
    drift_epoch, generate_symbols_like, symbols_template, Augment, DriftConfig, DriftKind,
    SymbolsLikeConfig, SYMBOLS_CLASSES, SYMBOLS_LEN,
};
use privshape_ldp::{amplified_epsilon, Epsilon, LdpError};
use privshape_service::{
    drive_epoch, QuarantineReport, RecoveryStats, RetryPolicy, ServiceConfig, ServiceError,
    ServiceRegistry, Supervisor,
};
use privshape_timeseries::{Dataset, SaxParams, SymbolSeq};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Once};
use std::time::Duration;
use LengthOracle::{Grr, Olh, Oue, Piecewise};
use Mechanism::{Baseline, PrivShape};

/// Random cases of the tier-1 test: one per (mechanism, labeled, oracle)
/// combination of tenant 0.
const CASES: usize = 16;
/// Producer-side retransmissions of a frame an injected fault dropped.
const RETRANSMITS: u32 = 16;
/// Reports per sealed frame in the fault matrix: small enough that a
/// round spans several frames, so mid-round faults land mid-round.
const MATRIX_FRAME_REPORTS: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mechanism {
    PrivShape,
    Baseline,
}

/// One tenant: a mechanism, its parameters and a Symbols-like population.
#[derive(Clone, Copy, Debug)]
struct Tenant {
    mechanism: Mechanism,
    labeled: bool,
    oracle: LengthOracle,
    eps: f64,
    k: usize,
    sax: (usize, usize),
    per_class: usize,
    seed: u64,
}

/// A tenant's configuration: mechanism, labeled, oracle, ε, k, SAX (w, t).
type Mix = (Mechanism, bool, LengthOracle, f64, usize, (usize, usize));

impl Tenant {
    fn new((mechanism, labeled, oracle, eps, k, sax): Mix, per_class: usize, seed: u64) -> Self {
        Self {
            mechanism,
            labeled,
            oracle,
            eps,
            k,
            sax,
            per_class,
            seed,
        }
    }

    fn privshape_config(&self) -> PrivShapeConfig {
        let mut cfg = PrivShapeConfig::new(self.epsilon(), self.k, self.sax_params());
        cfg.length_range = (1, 8);
        cfg.length_oracle = self.oracle;
        cfg.seed = self.seed;
        cfg
    }

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.eps).expect("valid eps")
    }

    fn sax_params(&self) -> SaxParams {
        SaxParams::new(self.sax.0, self.sax.1).expect("valid SAX parameters")
    }

    /// The labels a labeled session's devices hold.
    fn labels<'a>(&self, data: &'a Dataset) -> Option<&'a [usize]> {
        self.labeled
            .then(|| data.labels().expect("generated data is labeled"))
    }

    fn session(&self) -> Session {
        let n = self.per_class * SYMBOLS_CLASSES;
        let session = match self.mechanism {
            Mechanism::PrivShape if self.labeled => {
                Session::privshape_labeled(self.privshape_config(), n, SYMBOLS_CLASSES)
            }
            Mechanism::PrivShape => Session::privshape(self.privshape_config(), n),
            Mechanism::Baseline => {
                let mut cfg = BaselineConfig::new(self.epsilon(), self.k, self.sax_params());
                cfg.length_range = (1, 8);
                cfg.length_oracle = self.oracle;
                cfg.seed = self.seed;
                if self.labeled {
                    Session::baseline_labeled(cfg, n, SYMBOLS_CLASSES)
                } else {
                    Session::baseline(cfg, n)
                }
            }
        };
        session.unwrap_or_else(|e| panic!("{self:?}: session refused: {e}"))
    }
}

/// What every mode must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Outcome {
    shapes: Vec<ExtractedShape>,
    classes: Vec<ClassShapes>,
    ell_s: usize,
    candidates_per_level: Vec<usize>,
    group_sizes: [usize; 4],
    unassigned_users: usize,
}

impl Outcome {
    fn new(shapes: Vec<ExtractedShape>, classes: Vec<ClassShapes>, d: Diagnostics) -> Self {
        Self {
            shapes,
            classes,
            ell_s: d.ell_s,
            candidates_per_level: d.candidates_per_level,
            group_sizes: d.group_sizes,
            unassigned_users: d.unassigned_users,
        }
    }
}

impl From<Extraction> for Outcome {
    fn from(e: Extraction) -> Self {
        Self::new(e.shapes, Vec::new(), e.diagnostics)
    }
}

impl From<LabeledExtraction> for Outcome {
    fn from(e: LabeledExtraction) -> Self {
        Self::new(Vec::new(), e.classes, e.diagnostics)
    }
}

/// A tenant with its population and its facade run.
struct Fixture {
    tenant: Tenant,
    data: Dataset,
    reference: Outcome,
    /// Reports the facade run absorbed in each round.
    reports: Vec<u64>,
}

impl Fixture {
    /// Generates the population and runs the facade: the loop of
    /// `SimulatedFleet::drive`, also counting each round's reports.
    fn new(tenant: Tenant) -> Self {
        let data = generate_symbols_like(&SymbolsLikeConfig {
            n_per_class: tenant.per_class,
            length: 96,
            seed: tenant.seed,
            ..Default::default()
        });
        let mut session = tenant.session();
        let mut fleet =
            SimulatedFleet::new(data.series(), tenant.labels(&data), session.params(), 0);
        let mut reports = Vec::new();
        let at = format!("{tenant:?}: facade");
        while let Some(spec) = session.next_round().or_fail(&at) {
            let shard = fleet.answer_into_shard(&spec, &session).or_fail(&at);
            reports.push(shard.reports());
            session.submit_shard(&shard).or_fail(&at);
        }
        let reference = if tenant.labeled {
            session.finish_labeled().map(Outcome::from)
        } else {
            session.finish().map(Outcome::from)
        };
        Self {
            tenant,
            reference: reference.or_fail(&at),
            data,
            reports,
        }
    }

    /// The tenant's devices, enrolled one by one so every report keeps its
    /// user id on the way into a sealed frame.
    fn devices(&self, session: &Session) -> Vec<UserClient> {
        let labels = self.tenant.labels(&self.data);
        let assignments = GroupAssignment::derive_all(session.params());
        self.data
            .series()
            .iter()
            .enumerate()
            .map(|(user, series)| {
                let label = labels.map(|l| l[user]);
                UserClient::with_assignment(
                    user,
                    series,
                    label,
                    session.params(),
                    assignments[user],
                )
            })
            .collect()
    }
}

/// Answers `spec` on every device and seals the reports, `per_frame` to a
/// frame, into routed envelopes for session `id`.
fn answer(
    devices: &mut [UserClient],
    spec: &RoundSpec,
    id: u64,
    generation: u64,
    per_frame: usize,
) -> Result<Vec<Vec<u8>>, Error> {
    let mut entries: Vec<(usize, Report)> = Vec::new();
    for device in devices.iter_mut() {
        if let Some(report) = device.answer(spec)? {
            entries.push((device.user_id(), report));
        }
    }
    Ok(entries
        .chunks(per_frame)
        .map(|chunk| route_frame(id, generation, &seal_frame(chunk)))
        .collect())
}

/// `Result::expect` with the scenario in the panic message.
trait OrFail<T> {
    fn or_fail(self, at: &str) -> T;
}

impl<T, E: fmt::Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, at: &str) -> T {
        self.unwrap_or_else(|e| panic!("{at}: {e}"))
    }
}

/// The experiment binaries' seed for trial `i` at their default master
/// seed (2023).
fn trial_seed(i: usize) -> u64 {
    ExpCtx::from_iter(std::iter::empty(), 0, 0).trial_seed(i)
}

/// One pass over a rotation: every resident session once.
fn wave(next: impl Fn() -> Option<u64>, resident: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for _ in 0..resident {
        let id = next().expect("sessions resident");
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// One scenario of the routed, supervised and continual modes.
#[derive(Debug)]
struct Case {
    tenants: Vec<Tenant>,
    /// One `FaultPlan::from_seed` per tenant in the supervised mode.
    fault_seeds: Vec<u64>,
    frame_reports: usize,
    producers: usize,
    crash_round: u32,
    /// Tenants the routed mode snapshots, evicts and restores after round
    /// `crash_round`.
    drilled: Vec<usize>,
    /// Participation rate of the continual epoch.
    sampling_rate: f64,
}

/// Case `index` of the tier-1 test. Tenant 0 takes combination `index` of
/// {PrivShape, Baseline} × {unlabeled, labeled} × {GRR, OUE, OLH,
/// piecewise}; everything else is drawn from the case's seed.
fn case(index: usize) -> Case {
    let mut rng = ChaCha12Rng::seed_from_u64(0xD1FF_0000 + index as u64);
    let tenants: Vec<Tenant> = (0..rng.random_range(2..=3usize))
        .map(|t| {
            let combination = if t == 0 {
                index % 16
            } else {
                rng.random_range(0..16usize)
            };
            let mix = (
                [PrivShape, Baseline][combination & 1],
                combination & 2 != 0,
                ORACLES[combination >> 2],
                [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4usize)],
                rng.random_range(2..=4usize),
                [(25, 3), (25, 4), (20, 4)][rng.random_range(0..3usize)],
            );
            Tenant::new(mix, rng.random_range(25..=100usize), rng.random())
        })
        .collect();
    Case {
        fault_seeds: tenants.iter().map(|_| rng.random()).collect(),
        tenants,
        frame_reports: rng.random_range(1..=64usize),
        producers: rng.random_range(1..=3usize),
        crash_round: rng.random_range(1..=3u32),
        drilled: vec![0],
        sampling_rate: rng.random_range(0.5..1.0),
    }
}

/// Mode 2: every tenant in one registry, mixed waves from concurrent
/// producers, a replay and a bit-flip probe per wave, crash drills.
fn routed(case: &Case, fixtures: &[Fixture]) {
    let registry = ServiceRegistry::new(ServiceConfig {
        max_sessions: fixtures.len(),
        ingest: IngestConfig {
            workers: 2,
            queue_capacity: 64,
        },
    });
    // Session id → (tenant index, devices, rounds opened).
    let mut live: HashMap<u64, (usize, Vec<UserClient>, u32)> = HashMap::new();
    for (i, f) in fixtures.iter().enumerate() {
        let session = f.tenant.session();
        let devices = f.devices(&session);
        let id = registry.admit(session).expect("admission under capacity");
        live.insert(id, (i, devices, 0));
    }
    let (mut probes, mut drills, mut finished) = (0u64, 0usize, 0usize);
    let (mut duplicates, mut rejected, mut panics) = (0u64, 0u64, 0u64);
    while registry.active_sessions() > 0 {
        let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut open = Vec::new();
        let mut probed = false;
        for id in wave(|| registry.next_session(), registry.active_sessions()) {
            let (i, devices, rounds) = live.get_mut(&id).expect("admitted");
            let at = format!("{case:?}: tenant {i}: routed");
            let Some(spec) = registry.begin_round(id).or_fail(&at) else {
                let stats = registry.session_ingest_stats(id).or_fail(&at);
                duplicates += stats.duplicate_reports;
                rejected += stats.rejected_frames;
                panics += stats.worker_panics;
                let got = if fixtures[*i].tenant.labeled {
                    registry.finish_labeled(id).map(Outcome::from)
                } else {
                    registry.finish(id).map(Outcome::from)
                };
                let reference = &fixtures[*i].reference;
                assert_eq!(
                    &got.or_fail(&at),
                    reference,
                    "{at}: diverged from the facade"
                );
                finished += 1;
                continue;
            };
            let generation = registry.session_generation(id).or_fail(&at);
            let mut stream =
                answer(devices, &spec, id, generation, case.frame_reports).or_fail(&at);
            if !probed && !stream.is_empty() {
                // The wave's probes: a verbatim replay and a bit-flip.
                let mut flipped = stream[0].clone();
                *flipped.last_mut().expect("frames are not empty") ^= 0xA5;
                stream.push(stream[0].clone());
                stream.push(flipped);
                probes += 1;
                probed = true;
            }
            streams.push(stream);
            open.push(id);
            *rounds += 1;
        }
        // Round-robin merge, so no producer sees one session's frames as
        // a contiguous run.
        let mut mixed: Vec<Vec<u8>> = Vec::new();
        for cursor in 0..streams.iter().map(Vec::len).max().unwrap_or(0) {
            for stream in &mut streams {
                if let Some(frame) = stream.get_mut(cursor) {
                    mixed.push(std::mem::take(frame));
                }
            }
        }
        let registry = &registry;
        std::thread::scope(|scope| {
            for chunk in mixed.chunks(mixed.len().div_ceil(case.producers).max(1)) {
                scope.spawn(move || {
                    for frame in chunk {
                        registry
                            .route_frame(frame)
                            .unwrap_or_else(|e| panic!("{case:?}: a frame did not route: {e}"));
                    }
                });
            }
        });
        for id in open {
            let (i, _, rounds) = live[&id];
            let at = format!("{case:?}: tenant {i}: routed");
            registry.close_round(id).or_fail(&at);
            if rounds == case.crash_round && case.drilled.contains(&i) {
                let snapshot = registry.snapshot_session(id).or_fail(&at);
                assert!(registry.evict_session(id), "{at}: was not resident");
                let restored = registry.restore_session(&snapshot).or_fail(&at);
                assert_eq!(restored, id, "{at}: restored under a new id");
                drills += 1;
            }
        }
    }
    assert_eq!(finished, fixtures.len(), "{case:?}: a session never ended");
    let reachable = case
        .drilled
        .iter()
        .filter(|&&i| fixtures[i].reports.len() >= case.crash_round as usize)
        .count();
    assert_eq!(drills, reachable, "{case:?}: a crash drill did not run");
    assert!(probes > 0, "{case:?}: no wave carried probes");
    assert!(duplicates > 0, "{case:?}: no replay was shed");
    assert!(
        rejected >= probes,
        "{case:?}: {rejected} frames rejected for {probes} bit-flipped probes"
    );
    assert_eq!(panics, 0, "{case:?}: no fault is injected here");
}

/// Injected worker panics are expected: silence their default-hook
/// backtraces, and report every other panic as usual.
fn silence_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with("chaos:")) {
                default_hook(info);
            }
        }));
    });
}

/// How a supervised session ended.
enum Verdict {
    Finished(Outcome, RecoveryStats),
    Quarantined(QuarantineReport),
}

/// Admits every fixture under its plan, checks that admission past the
/// cap is shed, and drives every session to its end: each wave answers
/// on this thread and routes on one thread per session, retransmitting
/// injected drops. Returns the verdicts in fixture order.
fn supervise(
    scenario: &str,
    fixtures: &[Fixture],
    plans: &[Option<Arc<FaultPlan>>],
    per_frame: usize,
) -> Vec<Verdict> {
    // One ingest worker per session: absorb order follows submit order,
    // so a fault point lands where it was aimed.
    let sup = Supervisor::new(
        ServiceConfig {
            max_sessions: fixtures.len(),
            ingest: IngestConfig {
                workers: 1,
                queue_capacity: 64,
            },
        },
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            failure_budget: 6,
            journal_capacity: 8192,
        },
    );
    // Session id → (fixture index, devices).
    let mut live: HashMap<u64, (usize, Vec<UserClient>)> = HashMap::new();
    for (i, (f, plan)) in fixtures.iter().zip(plans).enumerate() {
        let session = f.tenant.session();
        let devices = f.devices(&session);
        let id = sup
            .admit_with_chaos(session, plan.clone())
            .expect("admission under capacity");
        live.insert(id, (i, devices));
    }
    match sup.admit(fixtures[0].tenant.session()) {
        Err(ServiceError::AdmissionDenied { .. }) => {}
        other => panic!("{scenario}: expected AdmissionDenied past the cap, got {other:?}"),
    }
    let mut verdicts: Vec<Option<Verdict>> = fixtures.iter().map(|_| None).collect();
    while sup.active_sessions() > 0 {
        let mut open = Vec::new();
        for id in wave(|| sup.next_session(), sup.active_sessions()) {
            let (i, devices) = live.get_mut(&id).expect("admitted");
            let at = format!("{scenario}: tenant {i}: supervised");
            let Some(spec) = sup.begin_round(id).or_fail(&at) else {
                let stats = sup.recovery_stats(id).or_fail(&at);
                let got = if fixtures[*i].tenant.labeled {
                    sup.finish_labeled(id).map(Outcome::from)
                } else {
                    sup.finish(id).map(Outcome::from)
                };
                verdicts[*i] = Some(Verdict::Finished(got.or_fail(&at), stats));
                continue;
            };
            let generation = sup.session_generation(id).or_fail(&at);
            let frames = answer(devices, &spec, id, generation, per_frame).or_fail(&at);
            open.push((id, frames));
        }
        let sup = &sup;
        let outcomes: Vec<(u64, Result<(), ServiceError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = open
                .iter()
                .map(|(id, frames)| scope.spawn(move || (*id, drive_round(sup, *id, frames))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });
        for (id, outcome) in outcomes {
            let i = live[&id].0;
            match outcome {
                Ok(()) => {}
                Err(ServiceError::Quarantined {
                    session_id,
                    attempts,
                    ..
                }) => {
                    assert_eq!(session_id, id, "{scenario}: tenant {i}");
                    assert!(attempts > 0, "{scenario}: tenant {i}: no recovery attempt");
                    let report = sup.quarantine_report(id).unwrap_or_else(|| {
                        panic!("{scenario}: tenant {i}: quarantined without a report")
                    });
                    verdicts[i] = Some(Verdict::Quarantined(report));
                }
                Err(e) => panic!("{scenario}: tenant {i}: unexpected failure: {e}"),
            }
        }
    }
    verdicts
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("{scenario}: tenant {i} never ended")))
        .collect()
}

/// Routes one session's frames, retransmitting injected drops, and
/// closes the round.
fn drive_round(sup: &Supervisor, id: u64, frames: &[Vec<u8>]) -> Result<(), ServiceError> {
    for frame in frames {
        let mut retransmits = 0u32;
        loop {
            match sup.route_frame(frame) {
                Ok(()) => break,
                Err(ServiceError::Session(Error::FaultInjected(_)))
                    if retransmits < RETRANSMITS =>
                {
                    retransmits += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
    sup.close_round(id)
}

/// Mode 3: every tenant under its random fault plan.
fn supervised(case: &Case, fixtures: &[Fixture]) {
    let plans: Vec<_> = case
        .fault_seeds
        .iter()
        .map(|&seed| Some(Arc::new(FaultPlan::from_seed(seed))))
        .collect();
    let scenario = format!("{case:?}");
    for (i, verdict) in supervise(&scenario, fixtures, &plans, case.frame_reports)
        .into_iter()
        .enumerate()
    {
        if let Verdict::Finished(got, _) = verdict {
            let reference = &fixtures[i].reference;
            assert_eq!(
                &got, reference,
                "{scenario}: tenant {i}: diverged from the facade"
            );
        }
    }
}

/// The facade run of one epoch plan.
fn epoch_reference(plan: &EpochPlan) -> Outcome {
    let mut session = plan.session().expect("the plan materializes");
    let mut fleet = SimulatedFleet::new(&plan.series, None, session.params(), 0);
    fleet
        .drive(&mut session)
        .expect("the facade drives the epoch");
    Outcome::from(session.finish().expect("the epoch finishes"))
}

/// Mode 4: tenant 0's population as two arrival batches of one epoch.
fn continual(case: &Case, fixture: &Fixture) {
    let mut driver = ContinualDriver::new(ContinualConfig {
        base: fixture.tenant.privshape_config(),
        window_epochs: 2,
        sampling_rate: case.sampling_rate,
        total_budget: Epsilon::new(16.0).expect("valid budget"),
        min_epoch_users: 1,
    })
    .unwrap_or_else(|e| panic!("{case:?}: continual config refused: {e}"));
    let series = fixture.data.series();
    let (early, late) = series.split_at(series.len() / 2);
    driver.observe(early.to_vec());
    driver.observe(late.to_vec());
    let plan = driver
        .begin_epoch()
        .unwrap_or_else(|e| panic!("{case:?}: epoch refused: {e}"));
    let registry = ServiceRegistry::new(ServiceConfig::default());
    let got = drive_epoch(&registry, &plan, case.frame_reports, Some(case.crash_round))
        .unwrap_or_else(|e| panic!("{case:?}: continual: {e}"));
    assert_eq!(
        Outcome::from(got),
        epoch_reference(&plan),
        "{case:?}: the continual epoch diverged from its facade run"
    );
}

#[test]
fn every_mode_matches_the_facade() {
    silence_chaos_panics();
    for index in 0..CASES {
        let case = case(index);
        let fixtures: Vec<Fixture> = case.tenants.iter().copied().map(Fixture::new).collect();
        routed(&case, &fixtures);
        supervised(&case, &fixtures);
        continual(&case, &fixtures[0]);
    }
}

/// Absorb index of round `r`'s second frame (its first, when it has only
/// one), with no failed attempt before it.
fn second_frame_of(frames: &[u64], r: usize) -> u64 {
    let before: u64 = frames[..r].iter().sum();
    before + frames.get(r).map_or(0, |&f| f.saturating_sub(1).min(1))
}

/// Every session of the fault matrix: unlabeled PrivShape with the GRR
/// length oracle, ε = 4, k = 2, SAX 25 × 4.
const MATRIX_TENANT: Mix = (PrivShape, false, Grr, 4.0, 2, (25, 4));

/// The fault matrix: each cell's name, the recoveries its session must
/// log (`None`: not pinned) and whether it must end quarantined.
const MATRIX: [(&str, Option<u64>, bool); 9] = [
    ("healthy-a", Some(0), false),
    ("healthy-b", Some(0), false),
    ("healthy-c", Some(0), false),
    ("panic-mid-round", Some(1), false),
    ("stalls", Some(0), false),
    ("corrupt-checkpoint", Some(1), false),
    ("drop-duplicate", Some(0), false),
    ("repeat-panic", Some(2), false),
    ("doomed", None, true),
];

/// The faults of matrix cell `name`, aimed from the facade's sealed
/// frames per round.
fn matrix_plan(name: &str, frames: &[u64]) -> Option<FaultPlan> {
    use FaultKind::*;
    let faults = match name {
        // A worker panic at the second absorb fails the round it lands in.
        "panic-mid-round" => vec![WorkerPanic { at_absorb: 1 }],
        // Absorb- and submit-side stalls: latency, no failed round.
        "stalls" => vec![
            AbsorbStall {
                at_absorb: 2,
                millis: 5,
            },
            SubmitStall {
                at_submit: 1,
                millis: 5,
            },
        ],
        // The checkpoint before round 2 rots in storage, then a panic
        // fails round 2: recovery must fall back to the checkpoint before
        // round 1, re-drive both rounds and heal the rotten one.
        "corrupt-checkpoint" => vec![
            CheckpointCorrupt {
                at_checkpoint: 1,
                offset: 9,
                mask: 0x20,
            },
            WorkerPanic {
                at_absorb: second_frame_of(frames, 1),
            },
        ],
        // A frame dropped in transit (retransmitted) and one delivered
        // twice (dedup sheds the copy).
        "drop-duplicate" => vec![FrameDrop { at_submit: 0 }, FrameDuplicate { at_submit: 2 }],
        // Two incidents on one session. The first round `r` with two
        // frames fails at its second frame, two absorbs in, and is
        // re-driven (`frames[r]` absorbs); then round `r + 1` fails at its
        // second frame too.
        "repeat-panic" => {
            let r = frames
                .iter()
                .position(|&f| f >= 2)
                .expect("a round spans two frames");
            vec![
                WorkerPanic {
                    at_absorb: second_frame_of(frames, r),
                },
                WorkerPanic {
                    at_absorb: 2 + second_frame_of(frames, r + 1),
                },
            ]
        }
        // Every absorb panics: the retry bounds exhaust and the session
        // must quarantine, typed, while its neighbours go on.
        "doomed" => return Some(FaultPlan::storm(1000)),
        _ => return None,
    };
    Some(FaultPlan::new(faults))
}

/// Nine supervised sessions of `per_class × 6` users, one per matrix
/// cell: every survivor equals its facade run and recoveries land where
/// they were aimed.
fn fault_matrix(per_class: usize) {
    let scenario = format!(
        "fault matrix, {} users per session",
        per_class * SYMBOLS_CLASSES
    );
    let fixtures: Vec<Fixture> = (0..MATRIX.len())
        .map(|i| Fixture::new(Tenant::new(MATRIX_TENANT, per_class, trial_seed(i))))
        .collect();
    let plans: Vec<Option<Arc<FaultPlan>>> = MATRIX
        .iter()
        .zip(&fixtures)
        .map(|(&(name, ..), f)| {
            let frames: Vec<u64> = f
                .reports
                .iter()
                .map(|&r| r.div_ceil(MATRIX_FRAME_REPORTS as u64))
                .collect();
            matrix_plan(name, &frames).map(Arc::new)
        })
        .collect();
    let verdicts = supervise(&scenario, &fixtures, &plans, MATRIX_FRAME_REPORTS);
    for ((&(name, recoveries, doomed), f), verdict) in MATRIX.iter().zip(&fixtures).zip(verdicts) {
        let at = format!("{scenario}: {name}");
        let stats = match verdict {
            Verdict::Finished(got, stats) => {
                assert!(!doomed, "{at}: not quarantined");
                assert_eq!(got, f.reference, "{at}: diverged from the facade");
                stats
            }
            Verdict::Quarantined(report) => {
                assert!(doomed, "{at}: quarantined");
                report.stats
            }
        };
        if let Some(expected) = recoveries {
            assert_eq!(
                stats.recoveries, expected,
                "{at}: expected {expected} recoveries, saw {}",
                stats.recoveries
            );
        }
        if name == "corrupt-checkpoint" {
            assert_eq!(stats.checkpoints_corrupted, 1, "{at}: no corruption");
            assert_eq!(stats.checkpoint_fallbacks, 1, "{at}: no fallback");
        }
    }
    let fired: Vec<FiredCounts> = plans.iter().flatten().map(|p| p.fired_counts()).collect();
    let total = |count: fn(&FiredCounts) -> u64| fired.iter().map(count).sum::<u64>();
    assert!(
        total(|f| f.worker_panics) >= 4,
        "{scenario}: the panic cells under-fired"
    );
    assert!(
        total(|f| f.frame_drops) >= 1,
        "{scenario}: no frame dropped"
    );
    assert!(
        total(|f| f.frame_duplicates) >= 1,
        "{scenario}: no frame duplicated"
    );
    assert!(
        total(|f| f.checkpoint_corruptions) >= 1,
        "{scenario}: no checkpoint corrupted"
    );
}

#[test]
fn fault_matrix_recovers_where_aimed() {
    silence_chaos_panics();
    for users in [300, 1_000, 1_500] {
        fault_matrix(users / SYMBOLS_CLASSES);
    }
}

/// The service mix: eight tenants over mechanisms, labels, oracles, ε, k
/// and SAX resolution.
const SERVICE_MIX: [Mix; 8] = [
    (PrivShape, false, Grr, 4.0, 2, (25, 4)),
    (PrivShape, false, Oue, 2.0, 3, (25, 3)),
    (PrivShape, false, Olh, 8.0, 2, (20, 4)),
    (PrivShape, false, Piecewise, 4.0, 4, (25, 4)),
    (PrivShape, true, Grr, 4.0, 2, (25, 4)),
    (PrivShape, true, Oue, 2.0, 3, (25, 3)),
    (Baseline, false, Grr, 4.0, 2, (25, 4)),
    (Baseline, true, Oue, 4.0, 2, (25, 3)),
];

#[test]
#[ignore = "about 1M users: run in release with --ignored"]
fn million_user_service_mix() {
    let tenants: Vec<Tenant> = SERVICE_MIX
        .iter()
        .enumerate()
        .map(|(i, &mix)| Tenant::new(mix, 128_000 / SYMBOLS_CLASSES, trial_seed(i)))
        .collect();
    let case = Case {
        fault_seeds: Vec::new(),
        tenants,
        frame_reports: 256,
        producers: 3,
        crash_round: 2,
        drilled: vec![2, 5],
        sampling_rate: 1.0,
    };
    let fixtures: Vec<Fixture> = case.tenants.iter().copied().map(Fixture::new).collect();
    routed(&case, &fixtures);
    drop(fixtures);
    silence_chaos_panics();
    fault_matrix(4_000 / SYMBOLS_CLASSES);
}

/// Epochs the budget pays for.
const EPOCHS: usize = 12;
/// Sliding-window length in epochs, and the tracking-lag bound.
const WINDOW_EPOCHS: usize = 3;
/// First epoch whose arrivals draw from the new regime.
const SWITCH_EPOCH: usize = 6;
/// Per-epoch participation probability.
const RATE: f64 = 0.35;
/// Per-report ε of each epoch's session.
const BASE_EPS: f64 = 4.0;
/// The epoch that rehearses a crash, and the round after which it does.
const CRASH_EPOCH: usize = 7;
const CRASH_AFTER_ROUND: u32 = 2;

/// Classes whose mean share across the resident window is at least
/// `min_share` (arrival batches are equally sized), ascending.
fn window_active(window: &VecDeque<Vec<(usize, f64)>>, min_share: f64) -> Vec<usize> {
    let mut shares: BTreeMap<usize, f64> = BTreeMap::new();
    for &(class, share) in window.iter().flatten() {
        *shares.entry(class).or_default() += share;
    }
    shares
        .into_iter()
        .filter(|&(_, total)| total / window.len() as f64 >= min_share)
        .map(|(class, _)| class)
        .collect()
}

/// Twelve epochs of a sliding-window driver through an abrupt regime
/// change, every epoch routed through a registry and run on the facade.
#[test]
#[ignore = "twelve 5,000-user epochs: run in release with --ignored"]
fn continual_tracks_a_regime_change() {
    let seed = trial_seed(0);
    let sax = SaxParams::new(10, 4).expect("valid SAX params");
    // Symbols-like classes 0..4 have distinct shapes of near-equal
    // compressed length (7, 7, 6, 6) at this resolution, so one session's
    // length round can surface any pair of them.
    let mut palette = symbols_ground_truth(&sax);
    palette.truncate(4);
    let mut base = PrivShapeConfig::new(Epsilon::new(BASE_EPS).expect("valid eps"), 2, sax);
    base.length_range = (1, 10);
    base.seed = seed;
    // A budget for exactly EPOCHS amplified epochs: what is left after
    // the twelfth cannot pay for a thirteenth.
    let per_epoch = amplified_epsilon(base.epsilon, RATE).expect("valid rate");
    let total_budget =
        Epsilon::new((EPOCHS as f64 + 0.4) * per_epoch.value()).expect("positive budget");
    let mut driver = ContinualDriver::new(ContinualConfig {
        base,
        window_epochs: WINDOW_EPOCHS,
        sampling_rate: RATE,
        total_budget,
        min_epoch_users: 150,
    })
    .expect("valid continual config");
    // Classes {0, 1} before the switch, {0, 2} from it on. The tracking
    // checks are calibrated for 5,000 arrivals per epoch.
    let drift = DriftConfig {
        palette: (0..4).map(symbols_template).collect(),
        kind: DriftKind::RegimeChange {
            old: vec![0, 1],
            new: vec![0, 2],
            switch_epoch: SWITCH_EPOCH,
        },
        n_per_epoch: 5_000,
        length: SYMBOLS_LEN,
        augment: Augment::default(),
        seed,
    };

    let registry = ServiceRegistry::new(ServiceConfig::default());
    let mut window_truth: VecDeque<Vec<(usize, f64)>> = VecDeque::new();
    let mut first_new_surfaced = None;
    let mut last_f = 0.0;
    for epoch in 0..EPOCHS {
        let batch = drift_epoch(&drift, epoch);
        window_truth.push_back(batch.truth.iter().map(|&(c, s, _)| (c, s)).collect());
        while window_truth.len() > WINDOW_EPOCHS {
            window_truth.pop_front();
        }
        driver.observe(batch.series);
        let plan = driver.begin_epoch().expect("budget covers EPOCHS epochs");
        assert_eq!(plan.epoch, epoch);
        // The debit matches the closed form, and the ledger composes it
        // exactly.
        assert!(
            (plan.amplified.value() - per_epoch.value()).abs() < 1e-9,
            "epoch {epoch}: charged {} against closed form {}",
            plan.amplified.value(),
            per_epoch.value()
        );
        assert!(
            (plan.spent - (epoch + 1) as f64 * per_epoch.value()).abs() < 1e-6,
            "epoch {epoch}: ledger spend {} drifted",
            plan.spent
        );
        assert!(plan.amplified.value() < BASE_EPS, "epoch {epoch}");

        let crash = (epoch == CRASH_EPOCH).then_some(CRASH_AFTER_ROUND);
        let routed = drive_epoch(&registry, &plan, 256, crash).expect("routed epoch");
        let extracted: Vec<SymbolSeq> = routed.sequences();
        assert_eq!(
            Outcome::from(routed),
            epoch_reference(&plan),
            "epoch {epoch}: the routed drive diverged from the facade"
        );

        let active = window_active(&window_truth, 0.2);
        last_f = shape_f_measure(&extracted, &palette, &active).f;
        let mut surfaced: Vec<usize> = extracted
            .iter()
            .map(|s| nearest_palette(s, &palette))
            .collect();
        surfaced.sort_unstable();
        surfaced.dedup();
        if epoch < SWITCH_EPOCH {
            assert!(
                surfaced.iter().all(|c| [0, 1].contains(c)),
                "epoch {epoch}: pre-switch extraction surfaced {surfaced:?}"
            );
        }
        if surfaced.contains(&2) && first_new_surfaced.is_none() {
            first_new_surfaced = Some(epoch);
        }
        if epoch >= SWITCH_EPOCH + WINDOW_EPOCHS {
            assert!(
                !surfaced.contains(&1),
                "epoch {epoch}: retired class 1 still surfaced {surfaced:?}"
            );
        }
    }
    // The new class surfaces within the window length of the switch, and
    // the all-new final window extracts perfectly.
    let entered = first_new_surfaced.expect("class 2 never surfaced");
    assert!(
        (SWITCH_EPOCH..=SWITCH_EPOCH + WINDOW_EPOCHS).contains(&entered),
        "class 2 first surfaced at epoch {entered}"
    );
    assert_eq!(last_f, 1.0, "final epoch F-measure {last_f}");

    // A thirteenth epoch is refused, typed, and moves nothing.
    driver.observe(drift_epoch(&drift, EPOCHS).series);
    let spent_before = driver.ledger().spent();
    match driver.begin_epoch() {
        Err(Error::Ldp(LdpError::BudgetExhausted {
            requested,
            remaining,
        })) => {
            assert!((requested - per_epoch.value()).abs() < 1e-9);
            assert!(remaining < per_epoch.value());
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(driver.ledger().spent(), spent_before);
    assert_eq!(driver.epoch(), EPOCHS);
    assert_eq!(driver.ledger().epochs(), EPOCHS);
    assert_eq!(registry.active_sessions(), 0);
}
