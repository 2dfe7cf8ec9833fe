//! Supervisor chaos tests: injected worker panics, checkpoint corruption,
//! and stale replays are either recovered **bit-identically** to a
//! fault-free twin or quarantined with a typed error — never a panic, a
//! hang, or a silently wrong extraction — and a hostile frame is shed
//! without failing its round.
//!
//! Every test pairs a supervised chaos session with a fault-free twin
//! driven through an identical supervisor over the same population, and
//! compares the final extractions field by field.

use privshape_ldp::Epsilon;
use privshape_protocol::{
    route_frame, seal_frame, Error as ProtocolError, Extraction, FaultKind, FaultPlan,
    GroupAssignment, PrivShapeConfig, Report, RoundSpec, Session, UserClient,
};
use privshape_service::{RetryPolicy, ServiceConfig, ServiceError, Supervisor};
use privshape_timeseries::{SaxParams, TimeSeries};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const CHUNK: usize = 4;

fn config(seed: u64) -> PrivShapeConfig {
    let mut cfg =
        PrivShapeConfig::new(Epsilon::new(4.0).unwrap(), 2, SaxParams::new(5, 3).unwrap());
    cfg.length_range = (1, 6);
    cfg.seed = seed;
    cfg
}

fn series(n: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|i| {
            let jitter = (i % 10) as f64 * 1e-3;
            let mut v = vec![-1.0 + jitter; 20];
            v.extend(vec![1.0 + jitter; 20]);
            TimeSeries::new(v).unwrap()
        })
        .collect()
}

fn clients(session: &Session, data: &[TimeSeries]) -> Vec<UserClient> {
    let assignments = GroupAssignment::derive_all(session.params());
    data.iter()
        .enumerate()
        .map(|(user, s)| {
            UserClient::with_assignment(user, s, None, session.params(), assignments[user])
        })
        .collect()
}

/// Answers `spec` with every addressed client, sealed into frames of
/// `CHUNK` reports, each wrapped in the routed envelope for `id`.
fn routed_frames(
    clients: &mut [UserClient],
    spec: &RoundSpec,
    id: u64,
    generation: u64,
) -> Vec<Vec<u8>> {
    let mut entries: Vec<(usize, Report)> = Vec::new();
    for client in clients.iter_mut() {
        if let Some(report) = client.answer(spec).unwrap() {
            entries.push((client.user_id(), report));
        }
    }
    entries
        .chunks(CHUNK)
        .map(|c| route_frame(id, generation, &seal_frame(c)))
        .collect()
}

/// A retry policy tuned for tests: real retries, token backoff.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        failure_budget: 8,
        journal_capacity: 4096,
    }
}

/// Drives a supervised session to completion, retransmitting frames the
/// chaos plane dropped in transit (the producer's contract for the typed
/// transient [`ProtocolError::FaultInjected`]). Returns the extraction,
/// or the supervisor's typed error (e.g. quarantine). Also records how
/// many frames each round produced, for pinning fault points to rounds.
fn drive(
    sup: &Supervisor,
    id: u64,
    cs: &mut [UserClient],
    frames_per_round: &mut Vec<usize>,
) -> Result<Extraction, ServiceError> {
    loop {
        let Some(spec) = sup.begin_round(id)? else {
            return sup.finish(id);
        };
        let generation = sup.session_generation(id)?;
        let frames = routed_frames(cs, &spec, id, generation);
        frames_per_round.push(frames.len());
        for frame in &frames {
            let mut retransmits = 0u32;
            loop {
                match sup.route_frame(frame) {
                    Ok(()) => break,
                    Err(ServiceError::Session(ProtocolError::FaultInjected(_)))
                        if retransmits < 16 =>
                    {
                        retransmits += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        sup.close_round(id)?;
    }
}

/// Runs the fault-free twin and returns its extraction plus the frame
/// count of every round (used to aim faults at specific rounds).
fn twin(seed: u64, n: usize, data: &[TimeSeries]) -> (Extraction, Vec<usize>) {
    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(seed), n).unwrap();
    let mut cs = clients(&session, data);
    let id = sup.admit(session).unwrap();
    let mut counts = Vec::new();
    let extraction = drive(&sup, id, &mut cs, &mut counts).unwrap();
    (extraction, counts)
}

fn assert_identical(got: &Extraction, expected: &Extraction) {
    assert_eq!(got.shapes, expected.shapes);
    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
    assert_eq!(
        got.diagnostics.candidates_per_level,
        expected.diagnostics.candidates_per_level
    );
}

/// An injected worker panic mid-round is caught, the round is recovered
/// from the boundary checkpoint, and the extraction is bit-identical.
#[test]
fn worker_panic_recovers_bit_identically() {
    let n = 260;
    let data = series(n);
    let (expected, _) = twin(9, n, &data);

    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(9), n).unwrap();
    let mut cs = clients(&session, &data);
    let plan = Arc::new(FaultPlan::new(vec![FaultKind::WorkerPanic {
        at_absorb: 3,
    }]));
    let id = sup.admit_with_chaos(session, Some(plan.clone())).unwrap();
    let mut counts = Vec::new();
    let got = drive(&sup, id, &mut cs, &mut counts).unwrap();

    assert_identical(&got, &expected);
    assert_eq!(plan.fired_counts().worker_panics, 1);
}

/// A validly sealed frame carrying a report the round refuses — an
/// expansion report in the length round, under the id of a user the
/// round does not address — is rejected at the boundary: the round closes
/// without a recovery, nothing is quarantined, and the extraction equals
/// the clean twin's.
#[test]
fn refused_report_is_shed_without_recovery() {
    let n = 260;
    let data = series(n);
    let (expected, _) = twin(9, n, &data);

    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(9), n).unwrap();
    let mut cs = clients(&session, &data);
    let id = sup.admit(session).unwrap();

    let spec = sup.begin_round(id).unwrap().expect("round 1");
    let RoundSpec::Length { audience, .. } = &spec else {
        panic!("round 1 is not the length round: {}", spec.name());
    };
    let outsider = cs
        .iter()
        .position(|c| c.assignment().group != Some(audience.group))
        .expect("a user outside the length round's group");
    let generation = sup.session_generation(id).unwrap();
    let hostile = route_frame(
        id,
        generation,
        &seal_frame(&[(outsider, Report::Expand(0))]),
    );
    sup.route_frame(&hostile).unwrap();
    for frame in routed_frames(&mut cs, &spec, id, generation) {
        sup.route_frame(&frame).unwrap();
    }
    sup.close_round(id).unwrap();
    assert_eq!(sup.recovery_stats(id).unwrap().recoveries, 0);
    assert!(sup.quarantine_report(id).is_none());
    assert_eq!(sup.session_ingest_stats(id).unwrap().rejected_frames, 1);

    let mut counts = Vec::new();
    let got = drive(&sup, id, &mut cs, &mut counts).unwrap();
    assert_identical(&got, &expected);
}

/// Recovery counters are observable while the session is resident.
#[test]
fn recovery_stats_count_the_incident() {
    let n = 260;
    let data = series(n);
    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(9), n).unwrap();
    let mut cs = clients(&session, &data);
    // Fire on the very first absorb, so round 1 is guaranteed to fail.
    let plan = Arc::new(FaultPlan::new(vec![FaultKind::WorkerPanic {
        at_absorb: 0,
    }]));
    let id = sup.admit_with_chaos(session, Some(plan)).unwrap();

    // Drive just the first (faulted) round by hand so the session is
    // still resident when we read its counters.
    let spec = sup.begin_round(id).unwrap().expect("round 1");
    let generation = sup.session_generation(id).unwrap();
    for frame in routed_frames(&mut cs, &spec, id, generation) {
        sup.route_frame(&frame).unwrap();
    }
    sup.close_round(id).unwrap();

    let stats = sup.recovery_stats(id).unwrap();
    assert_eq!(stats.recoveries, 1);
    assert!(stats.redriven_frames > 0);
    assert_eq!(stats.budget_used, 1);
    assert!(sup.quarantine_report(id).is_none());
}

/// A corrupted boundary checkpoint (storage rot injected at store time)
/// plus a panic in the round it guards: recovery falls back to the
/// previous checkpoint, re-drives both rounds, heals the corrupt
/// checkpoint, and still finishes bit-identically.
#[test]
fn corrupted_checkpoint_falls_back_and_heals() {
    let n = 260;
    let data = series(n);
    let (expected, counts) = twin(21, n, &data);
    assert!(
        counts.len() >= 2 && counts[1] >= 2,
        "need a 2nd round with frames"
    );

    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(21), n).unwrap();
    let mut cs = clients(&session, &data);
    // Corrupt the checkpoint taken at the round-2 boundary, then panic a
    // worker while round 2 is absorbing its second frame: the newest
    // checkpoint is unusable exactly when it is needed.
    let plan = Arc::new(FaultPlan::new(vec![
        FaultKind::CheckpointCorrupt {
            at_checkpoint: 1,
            offset: 7,
            mask: 0x40,
        },
        FaultKind::WorkerPanic {
            at_absorb: counts[0] as u64 + 1,
        },
    ]));
    let id = sup.admit_with_chaos(session, Some(plan.clone())).unwrap();

    // Drive up to the end of round 2 by hand to inspect counters.
    for _ in 0..2 {
        let spec = sup.begin_round(id).unwrap().expect("round");
        let generation = sup.session_generation(id).unwrap();
        for frame in routed_frames(&mut cs, &spec, id, generation) {
            sup.route_frame(&frame).unwrap();
        }
        sup.close_round(id).unwrap();
    }
    let stats = sup.recovery_stats(id).unwrap();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.checkpoints_corrupted, 1);
    assert_eq!(
        stats.checkpoint_fallbacks, 1,
        "must restore the older checkpoint"
    );
    assert_eq!(plan.fired_counts().worker_panics, 1);

    // Finish the protocol; the healed session is indistinguishable.
    let mut counts_rest = Vec::new();
    let got = drive(&sup, id, &mut cs, &mut counts_rest).unwrap();
    assert_identical(&got, &expected);
}

/// Satellite (f) regression: a pre-crash duplicate frame replayed after
/// restore carries the old round's generation tag, is rejected typed with
/// [`ProtocolError::StaleGeneration`], is **not** journaled, and the
/// extraction stays bit-identical — nothing is double-absorbed.
#[test]
fn replayed_pre_crash_frame_is_not_double_absorbed() {
    let n = 260;
    let data = series(n);
    let (expected, counts) = twin(33, n, &data);
    assert!(counts.len() >= 3 && counts[1] >= 2, "need 3 rounds");

    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let session = Session::privshape(config(33), n).unwrap();
    let mut cs = clients(&session, &data);
    let plan = Arc::new(FaultPlan::new(vec![FaultKind::WorkerPanic {
        at_absorb: counts[0] as u64 + 1,
    }]));
    let id = sup.admit_with_chaos(session, Some(plan)).unwrap();

    // Round 1 (clean): keep one delivered envelope around, as a confused
    // producer would.
    let spec = sup.begin_round(id).unwrap().expect("round 1");
    let gen1 = sup.session_generation(id).unwrap();
    let frames1 = routed_frames(&mut cs, &spec, id, gen1);
    for frame in &frames1 {
        sup.route_frame(frame).unwrap();
    }
    let replay_r1 = frames1[0].clone();
    sup.close_round(id).unwrap();

    // Round 2: the worker panic lands here; close_round recovers it.
    let spec = sup.begin_round(id).unwrap().expect("round 2");
    let gen2 = sup.session_generation(id).unwrap();
    let frames2 = routed_frames(&mut cs, &spec, id, gen2);
    for frame in &frames2 {
        sup.route_frame(frame).unwrap();
    }
    let replay_r2 = frames2[0].clone();
    sup.close_round(id).unwrap();
    assert_eq!(sup.recovery_stats(id).unwrap().recoveries, 1);

    // Round 3 is open; both pre-crash envelopes replay as duplicates now.
    let spec3 = sup.begin_round(id).unwrap().expect("round 3");
    for replay in [&replay_r1, &replay_r2] {
        match sup.route_frame(replay) {
            Err(ServiceError::Session(ProtocolError::StaleGeneration { .. })) => {}
            other => panic!("replayed frame not rejected as stale: {other:?}"),
        }
    }
    // The round itself proceeds untouched by the replays.
    let gen3 = sup.session_generation(id).unwrap();
    for frame in routed_frames(&mut cs, &spec3, id, gen3) {
        sup.route_frame(&frame).unwrap();
    }
    sup.close_round(id).unwrap();
    let mut rest = Vec::new();
    let got = drive(&sup, id, &mut cs, &mut rest).unwrap();
    assert_identical(&got, &expected);
}

/// A session whose every round panics exhausts its retry bounds and is
/// quarantined with the typed error — while a healthy session on the
/// same supervisor finishes bit-identically, untouched.
#[test]
fn hopeless_session_quarantines_healthy_neighbor_survives() {
    let n = 220;
    let data = series(n);
    let (expected, _) = twin(5, n, &data);

    let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
    let doomed = Session::privshape(config(77), n).unwrap();
    let mut doomed_cs = clients(&doomed, &data);
    let doomed_id = sup
        .admit_with_chaos(doomed, Some(Arc::new(FaultPlan::storm(100_000))))
        .unwrap();
    let healthy = Session::privshape(config(5), n).unwrap();
    let mut healthy_cs = clients(&healthy, &data);
    let healthy_id = sup.admit(healthy).unwrap();

    let mut counts = Vec::new();
    let err = drive(&sup, doomed_id, &mut doomed_cs, &mut counts).unwrap_err();
    match err {
        ServiceError::Quarantined {
            session_id,
            attempts,
            ..
        } => {
            assert_eq!(session_id, doomed_id);
            assert!(attempts >= fast_policy().max_attempts);
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // Terminal: every later call answers with the same typed error, and
    // the report survives.
    assert!(matches!(
        sup.begin_round(doomed_id),
        Err(ServiceError::Quarantined { .. })
    ));
    assert!(matches!(
        sup.session_ingest_stats(doomed_id),
        Err(ServiceError::Quarantined { .. })
    ));
    assert!(sup.quarantine_report(healthy_id).is_none());
    let report = sup.quarantine_report(doomed_id).unwrap();
    assert_eq!(report.session_id, doomed_id);
    assert!(report.stats.budget_used >= fast_policy().max_attempts);

    // The doomed session released its slot; the healthy one is untouched.
    assert_eq!(sup.active_sessions(), 1);
    let mut counts = Vec::new();
    let got = drive(&sup, healthy_id, &mut healthy_cs, &mut counts).unwrap();
    assert_identical(&got, &expected);
}

/// The lifetime failure budget quarantines a flapping session even when
/// each individual incident would be recoverable.
#[test]
fn failure_budget_exhaustion_quarantines() {
    let n = 220;
    let data = series(n);
    let sup = Supervisor::new(
        ServiceConfig::default(),
        RetryPolicy {
            failure_budget: 1,
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            journal_capacity: 4096,
        },
    );
    let session = Session::privshape(config(13), n).unwrap();
    let mut cs = clients(&session, &data);
    // Under a 1-unit budget the first failed attempt consumes it all;
    // the very next attempt must cite the budget, not the attempt cap.
    let plan = Arc::new(FaultPlan::storm(100_000));
    let id = sup.admit_with_chaos(session, Some(plan)).unwrap();
    let mut counts = Vec::new();
    let err = drive(&sup, id, &mut cs, &mut counts).unwrap_err();
    match err {
        ServiceError::Quarantined { ref cause, .. } => {
            assert!(
                cause.contains("budget"),
                "quarantine should cite the budget: {cause}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
}

proptest! {
    // Each case drives two complete multi-round supervised sessions, so
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For *any* seeded fault schedule, a supervised session either
    /// finishes bit-identically to its fault-free twin or fails with the
    /// typed quarantine error — never a panic, a hang, or a silently
    /// wrong result.
    #[test]
    fn any_fault_plan_recovers_or_quarantines_typed(seed in 0u64..400) {
        let n = 220;
        let data = series(n);
        let (expected, _) = twin(11, n, &data);

        let sup = Supervisor::new(ServiceConfig::default(), fast_policy());
        let session = Session::privshape(config(11), n).unwrap();
        let mut cs = clients(&session, &data);
        let plan = Arc::new(FaultPlan::from_seed(seed));
        let scheduled = plan.scheduled();
        let id = sup.admit_with_chaos(session, Some(plan)).unwrap();
        let mut counts = Vec::new();
        match drive(&sup, id, &mut cs, &mut counts) {
            Ok(got) => {
                prop_assert_eq!(&got.shapes, &expected.shapes);
                prop_assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
                prop_assert_eq!(
                    &got.diagnostics.candidates_per_level,
                    &expected.diagnostics.candidates_per_level
                );
            }
            Err(ServiceError::Quarantined { session_id, .. }) => {
                prop_assert_eq!(session_id, id);
                prop_assert!(sup.quarantine_report(id).is_some());
            }
            Err(other) => {
                prop_assert!(false, "untyped failure under plan {scheduled:?}: {other}");
            }
        }
    }
}
