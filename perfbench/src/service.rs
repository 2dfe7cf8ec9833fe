//! The wire workloads: `service-mix` (four tenants multiplexed through one
//! `ServiceRegistry`) and `supervised-recovery` (two sessions under a
//! `Supervisor` with a fixed fault plan each). Both drive closed-loop
//! waves: every resident session opens a round, its devices answer and
//! seal, producers route the frames, every round closes.

use crate::tenant::{kind_index, Mechanism, Outcome, Spec, Tenant, TwinRun};
use crate::trace::{SpanId, ThreadLog, Trace};
use crate::{Res, Sample, Workload};
use privshape::distance::DistanceWorkspace;
use privshape::protocol::{
    route_frame, seal_frame, FaultKind, FaultPlan, IngestConfig, IngestStats, LengthOracle, Report,
    RoundSpec, Session, UserClient,
};
use privshape_service::{RecoveryStats, RetryPolicy, ServiceConfig, ServiceRegistry, Supervisor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Producer threads routing frames into the service.
const PRODUCERS: usize = 2;
/// Ingest config of every round's pipeline.
const INGEST: IngestConfig = IngestConfig {
    workers: 1,
    queue_capacity: 64,
};

const CLIENT_LAYERS: [&str; 4] = [
    "client.answer.length",
    "client.answer.subshape",
    "client.answer.expand",
    "client.answer.refine",
];

/// The session front a wire workload drives: the registry itself, or the
/// supervisor wrapped around one.
trait Front: Sync {
    fn admit(&self, session: Session, plan: Option<Arc<FaultPlan>>) -> Res<u64>;
    fn next_session(&self) -> Option<u64>;
    fn active_sessions(&self) -> usize;
    fn begin(&self, id: u64) -> Res<Option<RoundSpec>>;
    fn generation(&self, id: u64) -> Res<u64>;
    fn route(&self, frame: &[u8]) -> Res<()>;
    fn close(&self, id: u64) -> Res<()>;
    fn ingest_stats(&self, id: u64) -> Res<IngestStats>;
    fn recovery(&self, id: u64) -> Res<RecoveryStats>;
    fn finish(&self, id: u64, labeled: bool) -> Res<Outcome>;
    fn registry(&self) -> &ServiceRegistry;
}

/// Span names of one front's calls.
struct Layers {
    admit: &'static str,
    begin: &'static str,
    begin_final: &'static str,
    route: &'static str,
    close: &'static str,
    recovery: &'static str,
    finish: &'static str,
}

impl Front for ServiceRegistry {
    fn admit(&self, session: Session, _plan: Option<Arc<FaultPlan>>) -> Res<u64> {
        Ok(ServiceRegistry::admit(self, session)?)
    }
    fn next_session(&self) -> Option<u64> {
        ServiceRegistry::next_session(self)
    }
    fn active_sessions(&self) -> usize {
        ServiceRegistry::active_sessions(self)
    }
    fn begin(&self, id: u64) -> Res<Option<RoundSpec>> {
        Ok(self.begin_round(id)?)
    }
    fn generation(&self, id: u64) -> Res<u64> {
        Ok(self.session_generation(id)?)
    }
    fn route(&self, frame: &[u8]) -> Res<()> {
        Ok(self.route_frame(frame)?)
    }
    fn close(&self, id: u64) -> Res<()> {
        Ok(self.close_round(id)?)
    }
    fn ingest_stats(&self, id: u64) -> Res<IngestStats> {
        Ok(self.session_ingest_stats(id)?)
    }
    fn recovery(&self, _id: u64) -> Res<RecoveryStats> {
        Ok(RecoveryStats::default())
    }
    fn finish(&self, id: u64, labeled: bool) -> Res<Outcome> {
        Ok(if labeled {
            Outcome::Labeled(self.finish_labeled(id)?)
        } else {
            Outcome::Unlabeled(ServiceRegistry::finish(self, id)?)
        })
    }
    fn registry(&self) -> &ServiceRegistry {
        self
    }
}

impl Front for Supervisor {
    fn admit(&self, session: Session, plan: Option<Arc<FaultPlan>>) -> Res<u64> {
        Ok(self.admit_with_chaos(session, plan)?)
    }
    fn next_session(&self) -> Option<u64> {
        Supervisor::next_session(self)
    }
    fn active_sessions(&self) -> usize {
        Supervisor::active_sessions(self)
    }
    fn begin(&self, id: u64) -> Res<Option<RoundSpec>> {
        Ok(self.begin_round(id)?)
    }
    fn generation(&self, id: u64) -> Res<u64> {
        Ok(self.session_generation(id)?)
    }
    fn route(&self, frame: &[u8]) -> Res<()> {
        Ok(self.route_frame(frame)?)
    }
    fn close(&self, id: u64) -> Res<()> {
        Ok(self.close_round(id)?)
    }
    fn ingest_stats(&self, id: u64) -> Res<IngestStats> {
        Ok(self.session_ingest_stats(id)?)
    }
    fn recovery(&self, id: u64) -> Res<RecoveryStats> {
        Ok(self.recovery_stats(id)?)
    }
    fn finish(&self, id: u64, labeled: bool) -> Res<Outcome> {
        Ok(if labeled {
            Outcome::Labeled(self.finish_labeled(id)?)
        } else {
            Outcome::Unlabeled(Supervisor::finish(self, id)?)
        })
    }
    fn registry(&self) -> &ServiceRegistry {
        Supervisor::registry(self)
    }
}

const REGISTRY_LAYERS: Layers = Layers {
    admit: "registry.admit",
    begin: "registry.begin",
    begin_final: "registry.begin.final",
    route: "registry.route",
    close: "registry.close",
    recovery: "registry.close",
    finish: "registry.finish",
};

const SUPERVISOR_LAYERS: Layers = Layers {
    admit: "supervisor.admit",
    begin: "supervisor.begin",
    begin_final: "supervisor.begin.final",
    route: "supervisor.route",
    close: "supervisor.close",
    recovery: "supervisor.close.recovery",
    finish: "supervisor.finish",
};

/// Shallow-SAX tenants of `service-mix`: scoring is cheap, so routing,
/// validation, dedup, the queue, absorb and per-round pipeline set-up carry
/// the server time.
const MIX: [Spec; 4] = [
    Spec {
        name: "privshape-oue",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 2.0,
        k: 3,
        sax: (25, 3),
        oracle: LengthOracle::Oue,
        length_range: (1, 8),
    },
    Spec {
        name: "privshape-labeled-piecewise",
        mechanism: Mechanism::PrivShape,
        labeled: true,
        eps: 4.0,
        k: 2,
        sax: (25, 4),
        oracle: LengthOracle::Piecewise,
        length_range: (1, 8),
    },
    Spec {
        name: "baseline-olh",
        mechanism: Mechanism::Baseline,
        labeled: false,
        eps: 8.0,
        k: 2,
        sax: (20, 4),
        oracle: LengthOracle::Olh,
        length_range: (1, 8),
    },
    Spec {
        name: "baseline-labeled-grr",
        mechanism: Mechanism::Baseline,
        labeled: true,
        eps: 4.0,
        k: 2,
        sax: (25, 3),
        oracle: LengthOracle::Grr,
        length_range: (1, 8),
    },
];

/// Paper-parameter tenants of `supervised-recovery`.
const SUPERVISED: [Spec; 2] = [
    Spec {
        name: "privshape",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 4.0,
        k: 6,
        sax: (25, 6),
        oracle: LengthOracle::Grr,
        length_range: (1, 15),
    },
    Spec {
        name: "privshape-labeled",
        mechanism: Mechanism::PrivShape,
        labeled: true,
        eps: 4.0,
        k: 6,
        sax: (25, 6),
        oracle: LengthOracle::Grr,
        length_range: (1, 15),
    },
];

/// Closed rounds after which the snapshot → evict → restore drill runs.
const DRILL_AFTER: u32 = 2;

/// Which front a wire workload runs through, with its per-kind set-up.
enum Kind {
    /// `service-mix`: probes every wave, drills on tenants 0 and 2.
    Mix,
    /// `supervised-recovery`: one fault plan per session, from the twin.
    Supervised { plans: Vec<Vec<FaultKind>> },
}

pub struct Wire {
    kind: Kind,
    tenants: Vec<Tenant>,
    threads: usize,
    frame_reports: usize,
}

impl Wire {
    pub fn service_mix(seed: u64, users: Option<usize>, threads: usize) -> Self {
        let users = users.unwrap_or(100_000);
        Self {
            kind: Kind::Mix,
            tenants: generate(&MIX, users, 96, seed),
            threads,
            frame_reports: 64,
        }
    }

    pub fn supervised(seed: u64, users: Option<usize>, threads: usize) -> Self {
        let users = users.unwrap_or(100_000);
        Self {
            kind: Kind::Supervised { plans: Vec::new() },
            tenants: generate(&SUPERVISED, users, 128, seed),
            threads,
            frame_reports: 256,
        }
    }
}

fn generate(specs: &[Spec], users: usize, length: usize, seed: u64) -> Vec<Tenant> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Tenant::generate(*spec, users, length, seed, i as u64))
        .collect()
}

impl Workload for Wire {
    fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    fn frame_reports(&self) -> usize {
        self.frame_reports
    }

    /// Places each supervised session's faults from its fault-free twin:
    /// a worker panic on the second frame absorbed in the first expansion
    /// round, and a corrupted checkpoint at the boundary that opens that
    /// round, so recovery falls back one checkpoint deeper and re-drives
    /// the sub-shape round and the failed one.
    fn calibrate(&mut self, twins: &[TwinRun]) -> Res<()> {
        let Kind::Supervised { plans } = &mut self.kind else {
            return Ok(());
        };
        let frames = |reports: u64| reports.div_ceil(self.frame_reports as u64);
        for twin in twins {
            let first_expand = twin
                .rounds
                .iter()
                .position(|&(kind, _)| kind == 2)
                .ok_or("the twin ran no expansion round")?;
            if first_expand == 0 {
                return Err("the twin's first round is an expansion round".into());
            }
            let before: u64 = twin.rounds[..first_expand]
                .iter()
                .map(|&(_, r)| frames(r))
                .sum();
            let in_round = frames(twin.rounds[first_expand].1);
            plans.push(vec![
                FaultKind::WorkerPanic {
                    at_absorb: before + in_round.min(2) - 1,
                },
                FaultKind::CheckpointCorrupt {
                    at_checkpoint: first_expand as u64,
                    offset: 0x5EED,
                    mask: 0x5A,
                },
            ]);
        }
        Ok(())
    }

    fn sample(&self, trace: Trace) -> Res<Sample> {
        match &self.kind {
            Kind::Mix => {
                let registry = ServiceRegistry::new(ServiceConfig {
                    max_sessions: self.tenants.len(),
                    ingest: INGEST,
                });
                drive(self, &registry, &REGISTRY_LAYERS, &[], trace)
            }
            Kind::Supervised { plans } => {
                let frames_per_round = self
                    .tenants
                    .iter()
                    .map(|t| t.users().div_ceil(self.frame_reports))
                    .max()
                    .unwrap_or(1);
                let supervisor = Supervisor::new(
                    ServiceConfig {
                        max_sessions: self.tenants.len(),
                        ingest: INGEST,
                    },
                    RetryPolicy {
                        max_attempts: 3,
                        base_backoff: Duration::ZERO,
                        max_backoff: Duration::ZERO,
                        failure_budget: 8,
                        journal_capacity: frames_per_round + 16,
                    },
                );
                drive(self, &supervisor, &SUPERVISOR_LAYERS, plans, trace)
            }
        }
    }
}

/// One tenant's main-thread state during a sample.
struct Live {
    id: u64,
    clients: Vec<UserClient>,
    plan: Option<Arc<FaultPlan>>,
    rounds: u32,
    restored: bool,
    /// The open round's broadcast and generation tag.
    open: Option<(RoundSpec, u64)>,
}

fn drive<F: Front>(
    w: &Wire,
    front: &F,
    layers: &Layers,
    plans: &[Vec<FaultKind>],
    mut trace: Trace,
) -> Res<Sample> {
    let probes = matches!(w.kind, Kind::Mix);
    let drilled = |tenant: usize| probes && (tenant == 0 || tenant == 2);

    let setup_started = Instant::now();
    let setup = trace.open("setup", None, 0, 0);
    let mut live: Vec<Live> = Vec::with_capacity(w.tenants.len());
    for (i, tenant) in w.tenants.iter().enumerate() {
        let tag = i as u64 + 1;
        let session = trace.time("session.new", setup, tag, 0, || tenant.session())?;
        let clients = tenant.enroll(session.params(), w.threads, &mut trace, setup, tag);
        let plan = plans
            .get(i)
            .map(|p| Arc::new(FaultPlan::new(p.iter().copied())));
        let id = trace.time(layers.admit, setup, tag, 0, || {
            front.admit(session, plan.clone())
        })?;
        live.push(Live {
            id,
            clients,
            plan,
            rounds: 0,
            restored: false,
            open: None,
        });
    }
    trace.close(setup, 0);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let extract_started = Instant::now();
    let root = trace.open("extract", None, 0, 0);
    let mut workspaces: Vec<DistanceWorkspace> =
        (0..w.threads).map(|_| DistanceWorkspace::new()).collect();
    let mut outcomes: Vec<Option<Outcome>> = (0..live.len()).map(|_| None).collect();
    let mut stats = vec![IngestStats::default(); live.len()];
    let mut recovery = vec![RecoveryStats::default(); live.len()];
    let mut c = Counts::default();
    let mut wave = 0u32;
    while front.active_sessions() > 0 {
        wave += 1;
        let mut order: Vec<usize> = Vec::new();
        for _ in 0..front.active_sessions() {
            let id = front.next_session().ok_or("no resident session")?;
            let idx = live
                .iter()
                .position(|l| l.id == id)
                .ok_or("unknown session id")?;
            if !order.contains(&idx) {
                order.push(idx);
            }
        }

        let mut completed = Vec::new();
        for &i in &order {
            let l = &mut live[i];
            let s = trace.open(layers.begin, root, l.id, l.rounds + 1);
            let spec = front.begin(l.id)?;
            c.ops += 1;
            match spec {
                Some(spec) => {
                    let generation = front.generation(l.id)?;
                    trace.close(s, 0);
                    l.rounds += 1;
                    l.open = Some((spec, generation));
                }
                None => {
                    trace.set_layer(s, layers.begin_final);
                    trace.close(s, 0);
                    completed.push(i);
                }
            }
        }

        if live.iter().any(|l| l.open.is_some()) {
            let entries = answer_phase(
                w.threads,
                &mut live,
                &mut workspaces,
                &mut trace,
                root,
                &mut c,
            )?;
            let first_frame: Vec<u64> = entries
                .iter()
                .map(|e| e.len().min(w.frame_reports) as u64)
                .collect();
            let mut frames = seal_phase(w, &live, entries, &mut trace, root, &mut c);
            if probes {
                add_probes(&mut frames, &first_frame, &mut c);
            }
            route_phase(front, layers, frames, &mut trace, root, wave, &mut c)?;
            for (i, l) in live.iter_mut().enumerate() {
                if l.open.take().is_none() {
                    continue;
                }
                let before = front.recovery(l.id)?.recoveries;
                let s = trace.open(layers.close, root, l.id, l.rounds);
                front.close(l.id)?;
                trace.close(s, 0);
                if front.recovery(l.id)?.recoveries > before {
                    trace.set_layer(s, layers.recovery);
                }
                if drilled(i) && l.rounds == DRILL_AFTER && !l.restored {
                    let registry = front.registry();
                    let s = trace.open("snapshot", root, l.id, l.rounds);
                    let bytes = registry.snapshot_session(l.id)?;
                    trace.close(s, bytes.len() as u64);
                    c.snapshot_bytes += bytes.len() as u64;
                    let s = trace.open("restore", root, l.id, l.rounds);
                    if !registry.evict_session(l.id) {
                        return Err("drilled session was not resident".into());
                    }
                    let restored = registry.restore_session(&bytes)?;
                    trace.close(s, 0);
                    if restored != l.id {
                        return Err("session restored under another id".into());
                    }
                    l.restored = true;
                }
            }
        }

        for i in completed {
            let l = &live[i];
            stats[i] = front.ingest_stats(l.id)?;
            recovery[i] = front.recovery(l.id)?;
            let labeled = w.tenants[i].spec.labeled;
            let s = trace.open(layers.finish, root, l.id, l.rounds);
            outcomes[i] = Some(front.finish(l.id, labeled)?);
            trace.close(s, 0);
        }
    }
    trace.close(root, 0);
    let extract_s = extract_started.elapsed().as_secs_f64();

    let mut sample = Sample::new(setup_s, extract_s, trace, root);
    let total = stats.iter().fold(IngestStats::default(), |mut acc, s| {
        acc.absorb(s);
        acc
    });
    let fired: u64 = live
        .iter()
        .filter_map(|l| l.plan.as_ref())
        .map(|p| p.fired_counts().total())
        .sum();
    if probes {
        if total.duplicate_reports != c.replayed_reports {
            return Err(format!(
                "{} replayed reports, {} shed as duplicates",
                c.replayed_reports, total.duplicate_reports
            )
            .into());
        }
        if total.rejected_frames != c.probe_waves {
            return Err(format!(
                "{} corrupted frames, {} rejected",
                c.probe_waves, total.rejected_frames
            )
            .into());
        }
        if live.iter().filter(|l| l.restored).count() != 2 {
            return Err("the snapshot drill did not run on both tenants".into());
        }
    } else {
        for (r, l) in recovery.iter().zip(&live) {
            let plan = l.plan.as_ref().ok_or("supervised session without a plan")?;
            if r.recoveries != 1 || r.checkpoint_fallbacks != 1 || plan.fired_counts().total() != 2
            {
                return Err(format!("fault plan did not play out as placed: {r:?}").into());
            }
        }
    }
    sample.accepted = total.accepted_reports;
    sample.answering_users = c.reports;
    sample.upload_bytes = c.bytes;
    sample.users = w.tenants.iter().map(|t| t.users() as u64).sum();
    sample.ops = c.ops;
    // The corrupted probe frames are rejected; the replayed ones count too.
    sample.failures = total.rejected_frames + c.probe_waves + fired;

    let exact = &mut sample.exact;
    exact.insert("rounds", live.iter().map(|l| u64::from(l.rounds)).sum());
    exact.insert(
        "distance.rows",
        workspaces.iter().map(|w| w.stats().rows).sum(),
    );
    exact.insert("client.reports", c.reports);
    exact.insert("client.visits", c.visits);
    exact.insert("wire.bytes", c.bytes);
    exact.insert("ingest.routed_reports", c.routed_reports);
    exact.insert("ingest.accepted_reports", total.accepted_reports);
    exact.insert("ingest.rejected_frames", total.rejected_frames);
    exact.insert("ingest.duplicate_reports", total.duplicate_reports);
    exact.insert("snapshot.bytes", c.snapshot_bytes);
    exact.insert(
        "supervisor.recoveries",
        recovery.iter().map(|r| r.recoveries).sum(),
    );
    exact.insert(
        "supervisor.redriven_frames",
        recovery.iter().map(|r| r.redriven_frames).sum(),
    );
    exact.insert(
        "supervisor.checkpoint_fallbacks",
        recovery.iter().map(|r| r.checkpoint_fallbacks).sum(),
    );
    sample.loose.insert(
        "ingest.queue_high_water",
        stats.iter().map(|s| s.queue_high_water).max().unwrap_or(0) as f64,
    );
    sample.loose.insert(
        "ingest.backpressure_stalls",
        total.backpressure_stalls as f64,
    );
    for outcome in outcomes {
        sample
            .outcomes
            .push(outcome.ok_or("a session never finished")?);
    }
    let levels = sample.outcomes.iter().map(|o| o.ell_s() as u64).sum();
    let candidates = sample
        .outcomes
        .iter()
        .map(|o| o.candidates_total() as u64)
        .sum();
    sample.exact.insert("trie.levels", levels);
    sample.exact.insert("trie.candidates_total", candidates);
    Ok(sample)
}

/// Per-sample tallies of the wire workloads.
#[derive(Default)]
struct Counts {
    ops: u64,
    visits: u64,
    reports: u64,
    bytes: u64,
    routed_reports: u64,
    /// Waves that carried the replay and corruption probes.
    probe_waves: u64,
    replayed_reports: u64,
    snapshot_bytes: u64,
}

/// A tenant's answers for the open round, in user order.
type Entries = Vec<(usize, Report)>;

/// One thread's share of one tenant's round: `(tenant, session id, round,
/// broadcast, devices)`.
type AnswerJob<'a> = (usize, u64, u32, &'a RoundSpec, &'a mut [UserClient]);

/// One thread's answers, tagged with their tenant.
type Answered = Vec<(usize, Entries)>;

/// One thread's routed frames, tagged with their tenant.
type Sealed = Vec<(usize, Vec<u8>)>;

/// Every device of every open tenant answers, on `threads` threads: thread
/// `t` takes the `t`-th contiguous slice of each tenant's devices.
fn answer_phase(
    threads: usize,
    live: &mut [Live],
    workspaces: &mut [DistanceWorkspace],
    trace: &mut Trace,
    root: SpanId,
    c: &mut Counts,
) -> Res<Vec<Entries>> {
    let phase = trace.open("phase.answer", root, 0, 0);
    let mut jobs: Vec<Vec<AnswerJob>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, l) in live.iter_mut().enumerate() {
        let Some((spec, _)) = &l.open else { continue };
        c.visits += l.clients.len() as u64;
        let per = l.clients.len().div_ceil(threads).max(1);
        for (t, chunk) in l.clients.chunks_mut(per).enumerate() {
            jobs[t].push((i, l.id, l.rounds, spec, chunk));
        }
    }
    let results: Vec<Res<(Answered, ThreadLog)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .zip(workspaces.iter_mut())
            .enumerate()
            .map(|(t, (jobs, ws))| {
                let mut log = trace.thread_log(t as u16 + 1);
                scope.spawn(move || -> Res<_> {
                    let mut out = Vec::with_capacity(jobs.len());
                    for (i, id, round, spec, clients) in jobs {
                        let layer = CLIENT_LAYERS[kind_index(spec)];
                        let entries = log.time(layer, phase, id, round, || {
                            let mut entries = Vec::new();
                            for client in clients.iter_mut() {
                                match client.answer_with(spec, ws) {
                                    Ok(Some(report)) => entries.push((client.user_id(), report)),
                                    Ok(None) => {}
                                    Err(e) => return (Err(e), 0),
                                }
                            }
                            let n = entries.len() as u64;
                            (Ok(entries), n)
                        })?;
                        out.push((i, entries));
                    }
                    Ok((out, log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("device thread panicked"))
            .collect()
    });
    let mut per_tenant: Vec<Entries> = (0..live.len()).map(|_| Vec::new()).collect();
    for result in results {
        let (out, log) = result?;
        trace.absorb(log);
        for (i, mut entries) in out {
            per_tenant[i].append(&mut entries);
        }
    }
    let reports: u64 = per_tenant.iter().map(|e| e.len() as u64).sum();
    c.reports += reports;
    trace.close(phase, reports);
    Ok(per_tenant)
}

/// Seals each tenant's answers `frame_reports` to a frame and wraps every
/// frame in its routed envelope, on `threads` threads over contiguous runs
/// of frames. Frame boundaries depend only on the answers, never on the
/// thread count.
fn seal_phase(
    w: &Wire,
    live: &[Live],
    entries: Vec<Entries>,
    trace: &mut Trace,
    root: SpanId,
    c: &mut Counts,
) -> Vec<Vec<Vec<u8>>> {
    let phase = trace.open("phase.seal", root, 0, 0);
    let mut jobs: Vec<(usize, &[(usize, Report)])> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        jobs.extend(e.chunks(w.frame_reports).map(|chunk| (i, chunk)));
    }
    let per = jobs.len().div_ceil(w.threads).max(1);
    let results: Vec<(Sealed, ThreadLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per)
            .enumerate()
            .map(|(t, part)| {
                let mut log = trace.thread_log(t as u16 + 1);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(part.len());
                    // One span per run of one tenant's frames.
                    for run in part.chunk_by(|a, b| a.0 == b.0) {
                        let i = run[0].0;
                        let (l, (_, generation)) = (
                            &live[i],
                            live[i].open.as_ref().expect("sealed tenants are open"),
                        );
                        log.time("wire.seal", phase, l.id, l.rounds, || {
                            let mut n = 0u64;
                            for &(_, chunk) in run {
                                out.push((i, route_frame(l.id, *generation, &seal_frame(chunk))));
                                n += chunk.len() as u64;
                            }
                            ((), n)
                        });
                    }
                    (out, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sealing thread panicked"))
            .collect()
    });
    let mut frames: Vec<Vec<Vec<u8>>> = (0..live.len()).map(|_| Vec::new()).collect();
    for (out, log) in results {
        trace.absorb(log);
        for (i, frame) in out {
            c.bytes += frame.len() as u64;
            frames[i].push(frame);
        }
    }
    c.routed_reports += entries.iter().map(|e| e.len() as u64).sum::<u64>();
    trace.close(phase, jobs.len() as u64);
    frames
}

/// The wave's built-in probes, on the first tenant with frames: one frame
/// replayed verbatim (every report must be shed as a duplicate) and one
/// with a flipped payload byte (the whole frame must be rejected).
/// `first_frame` is each tenant's report count in its first frame.
fn add_probes(frames: &mut [Vec<Vec<u8>>], first_frame: &[u64], c: &mut Counts) {
    let Some(i) = frames.iter().position(|f| !f.is_empty()) else {
        return;
    };
    let list = &mut frames[i];
    let replay = list[0].clone();
    let mut corrupted = list[0].clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0xA5;
    c.bytes += (replay.len() + corrupted.len()) as u64;
    c.probe_waves += 1;
    c.replayed_reports += first_frame[i];
    c.routed_reports += 2 * first_frame[i];
    list.push(replay);
    list.push(corrupted);
}

/// Routes every frame on [`PRODUCERS`] threads, tenants interleaved round
/// robin so each producer sees a mix of sessions.
fn route_phase<F: Front>(
    front: &F,
    layers: &Layers,
    frames: Vec<Vec<Vec<u8>>>,
    trace: &mut Trace,
    root: SpanId,
    wave: u32,
    c: &mut Counts,
) -> Res<()> {
    let phase = trace.open("phase.route", root, 0, wave);
    let mut mixed: Vec<Vec<u8>> = Vec::new();
    let mut lists: Vec<std::vec::IntoIter<Vec<u8>>> =
        frames.into_iter().map(Vec::into_iter).collect();
    loop {
        let before = mixed.len();
        for list in &mut lists {
            mixed.extend(list.next());
        }
        if mixed.len() == before {
            break;
        }
    }
    c.ops += mixed.len() as u64;
    let per = mixed.len().div_ceil(PRODUCERS).max(1);
    let results: Vec<(Res<()>, _)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixed
            .chunks(per)
            .enumerate()
            .map(|(t, part)| {
                let mut log = trace.thread_log(t as u16 + 1);
                scope.spawn(move || {
                    let routed = log.time(layers.route, phase, 0, wave, || {
                        for frame in part {
                            if let Err(e) = front.route(frame) {
                                return (Err(e), 0);
                            }
                        }
                        (Ok(()), part.len() as u64)
                    });
                    (routed, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    for (routed, log) in results {
        trace.absorb(log);
        routed?;
    }
    trace.close(phase, mixed.len() as u64);
    Ok(())
}
