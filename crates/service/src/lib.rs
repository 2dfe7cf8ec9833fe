//! **privshape-service** — a long-lived aggregation service multiplexing
//! many concurrent PrivShape extractions over the streaming ingest engine.
//!
//! The protocol crate gives one extraction at a time: a [`Session`] state
//! machine whose open round is its sealed-frame ingest boundary
//! ([`Session::submit_sealed_frame`]). A real deployment runs *many*
//! extractions at once — different tenants, budgets ε, shape
//! counts k, candidate domains, even different mechanisms — against one
//! shared frame-ingest boundary. This crate is that boundary:
//!
//! * **Admission** — [`ServiceRegistry::admit`] assigns each session a
//!   service-wide id and enforces a residency cap with typed
//!   [`ServiceError::AdmissionDenied`] rejections;
//! * **Routing** — producers wrap sealed report frames in the routed wire
//!   envelope ([`privshape_protocol::route_frame`]: magic, version byte,
//!   session id, generation tag) and [`ServiceRegistry::route_frame`]
//!   dispatches each to the owning session's open round. Unknown ids,
//!   stale generations (a producer answering a superseded candidate
//!   table), and wrong codec versions are rejected with typed errors —
//!   never silently absorbed into the wrong count vector;
//! * **Isolation** — every open round gets its own ingest boundary, which
//!   absorbs each frame in the routing producer's call under that round's
//!   lock alone, and rejects a hostile frame whole without failing the
//!   round: a busy or attacked tenant slows its own producers and nobody
//!   else;
//! * **Crash safety** — between rounds a session serializes to a
//!   checksummed snapshot ([`ServiceRegistry::snapshot_session`]); after
//!   a crash, [`ServiceRegistry::restore_session`] re-admits it under its
//!   original id and the extraction continues **bit-identically** to an
//!   uninterrupted run (the snapshot logs each round's integer counts,
//!   and restore replays them through the same session transitions).
//!
//! Exactness is inherited, not re-argued: the registry only composes the
//! protocol crate's associative shard merges and deterministic session
//! transitions, so any interleaving of sessions, any frame chunking, and
//! any snapshot/restore point yields the same extraction as driving each
//! session serially (the bench crate's `differential` test checks this
//! bit for bit).
//!
//! On top of the registry sits the fault-tolerance tier:
//!
//! * **Supervision** — [`Supervisor`] wraps the registry with
//!   round-boundary checkpoints, a bounded per-round frame journal, and a
//!   recovery loop (evict → restore → re-drive) under a typed
//!   [`RetryPolicy`] (bounded attempts, exponential backoff with
//!   deterministic jitter, lifetime failure budget);
//! * **Graceful degradation** — sessions that exhaust their budget are
//!   [quarantined](ServiceError::Quarantined) with a typed error while
//!   every other session keeps progressing; recovered extractions stay
//!   bit-identical to fault-free twins (checked by the same test).
//!
//! The continual extraction mode rides on the same registry:
//! [`drive_epoch`] turns one planned epoch
//! ([`privshape_protocol::EpochPlan`]) into an admitted, routed session
//! — optionally rehearsing a crash at a round boundary — so every epoch
//! of a sliding-window run inherits the service tier's isolation and
//! recovery guarantees.
//!
//! [`Session`]: privshape_protocol::Session
//! [`Session::submit_sealed_frame`]: privshape_protocol::Session::submit_sealed_frame

// `missing_docs` is redundant with the workspace-level lint, but
// explicit: operators read these docs (see docs/OPERATIONS.md), so gaps
// are operational debt. `unreachable_pub` keeps an item of a private
// module from staying `pub` when nothing re-exports it.
#![warn(missing_docs, unreachable_pub)]

pub mod continual;
mod error;
mod policy;
mod registry;
mod supervisor;

pub use continual::drive_epoch;
pub use error::{Result, ServiceError};
pub use policy::RetryPolicy;
pub use registry::{ServiceConfig, ServiceRegistry};
pub use supervisor::{QuarantineReport, RecoveryStats, Supervisor, CHECKPOINT_DEPTH};

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_ldp::Epsilon;
    use privshape_protocol::{
        route_frame, seal_frame, Error as ProtocolError, Extraction, FaultKind, FaultPlan,
        GroupAssignment, PrivShapeConfig, Report, RoundSpec, Session, UserClient, ROUTED_VERSION,
    };
    use privshape_timeseries::{SaxParams, TimeSeries};
    use std::sync::Arc;

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
    /// `chunk` reports, each wrapped in the routed envelope for `id`.
    fn routed_frames(
        clients: &mut [UserClient],
        spec: &RoundSpec,
        id: u64,
        generation: u64,
        chunk: usize,
    ) -> Vec<Vec<u8>> {
        let mut entries: Vec<(usize, Report)> = Vec::new();
        for client in clients.iter_mut() {
            if let Some(report) = client.answer(spec).unwrap() {
                entries.push((client.user_id(), report));
            }
        }
        entries
            .chunks(chunk.max(1))
            .map(|c| route_frame(id, generation, &seal_frame(c)))
            .collect()
    }

    /// The fault-free twin of a routed session: the plain submit path,
    /// one session at a time.
    fn serial(cfg: PrivShapeConfig, data: &[TimeSeries]) -> Extraction {
        let mut s = Session::privshape(cfg, data.len()).unwrap();
        let mut cs = clients(&s, data);
        while let Some(spec) = s.next_round().unwrap() {
            let mut reports = Vec::new();
            for c in cs.iter_mut() {
                if let Some(r) = c.answer(&spec).unwrap() {
                    reports.push(r);
                }
            }
            s.submit(&reports).unwrap();
        }
        s.finish().unwrap()
    }

    #[test]
    fn interleaved_sessions_match_serial_twins() {
        let data_a = series(400);
        let data_b = series(300);
        let expected_a = serial(config(7), &data_a);
        let expected_b = serial(config(8), &data_b);

        // Service: both sessions resident, rounds interleaved via the
        // round-robin cursor, frames routed through envelopes.
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let sess_a = Session::privshape(config(7), data_a.len()).unwrap();
        let sess_b = Session::privshape(config(8), data_b.len()).unwrap();
        let mut cs_a = clients(&sess_a, &data_a);
        let mut cs_b = clients(&sess_b, &data_b);
        let id_a = registry.admit(sess_a).unwrap();
        let id_b = registry.admit(sess_b).unwrap();
        let mut done = std::collections::HashMap::new();
        while done.len() < 2 {
            let Some(id) = registry.next_session() else {
                break;
            };
            if done.contains_key(&id) {
                continue;
            }
            match registry.begin_round(id).unwrap() {
                None => {
                    done.insert(id, registry.finish(id).unwrap());
                }
                Some(spec) => {
                    let generation = registry.session_generation(id).unwrap();
                    let cs = if id == id_a { &mut cs_a } else { &mut cs_b };
                    for frame in routed_frames(cs, &spec, id, generation, 7) {
                        registry.route_frame(&frame).unwrap();
                    }
                    registry.close_round(id).unwrap();
                }
            }
        }
        assert_eq!(done[&id_a].shapes, expected_a.shapes);
        assert_eq!(done[&id_b].shapes, expected_b.shapes);
        assert_eq!(registry.active_sessions(), 0);
    }

    #[test]
    fn stale_generation_frames_are_rejected_not_absorbed() {
        // Regression (satellite c): a frame carrying a candidate-table
        // fingerprint from a superseded round must be rejected with a
        // typed error at the router — silently absorbing it would mix
        // counts across candidate tables.
        let data = series(400);
        let session = Session::privshape(config(9), data.len()).unwrap();
        let mut cs = clients(&session, &data);
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let id = registry.admit(session).unwrap();

        let spec = registry.begin_round(id).unwrap().expect("length round");
        let generation = registry.session_generation(id).unwrap();
        let frames = routed_frames(&mut cs, &spec, id, generation, 1000);
        // Hold one frame back, as a producer that missed the round close.
        let (late, on_time) = frames.split_last().unwrap();
        for frame in on_time {
            registry.route_frame(frame).unwrap();
        }
        registry.close_round(id).unwrap();
        let next = registry.begin_round(id).unwrap().expect("next round");
        assert_ne!(spec, next);

        let reports_before = registry.session_generation(id).unwrap();
        let err = registry.route_frame(late).unwrap_err();
        match err {
            ServiceError::Session(ProtocolError::StaleGeneration {
                session_id,
                expected,
                got,
            }) => {
                assert_eq!(session_id, id);
                assert_eq!(expected, reports_before);
                assert_eq!(got, generation);
            }
            other => panic!("expected StaleGeneration, got {other:?}"),
        }
    }

    #[test]
    fn unknown_sessions_and_versions_are_typed_errors() {
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let frame = route_frame(42, 1, &seal_frame(&[(0, Report::Length(0))]));
        assert!(matches!(
            registry.route_frame(&frame),
            Err(ServiceError::Session(ProtocolError::UnknownSession {
                session_id: 42
            }))
        ));
        // Wrong version byte in the envelope.
        let mut wrong = frame.clone();
        wrong[1] = ROUTED_VERSION + 1;
        assert!(matches!(
            registry.route_frame(&wrong),
            Err(ServiceError::Session(
                ProtocolError::UnsupportedVersion { .. }
            ))
        ));
        // Known session, no open round.
        let data = series(200);
        let id = registry
            .admit(Session::privshape(config(3), data.len()).unwrap())
            .unwrap();
        let frame = route_frame(id, 1, &seal_frame(&[(0, Report::Length(0))]));
        assert!(matches!(
            registry.route_frame(&frame),
            Err(ServiceError::NoOpenRound { session_id }) if session_id == id
        ));
    }

    #[test]
    fn admission_is_capped() {
        let registry = ServiceRegistry::new(ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        });
        registry
            .admit(Session::privshape(config(1), 100).unwrap())
            .unwrap();
        assert!(matches!(
            registry.admit(Session::privshape(config(2), 100).unwrap()),
            Err(ServiceError::AdmissionDenied {
                active: 1,
                capacity: 1
            })
        ));
    }

    #[test]
    fn snapshot_evict_restore_continues_bit_identically() {
        let data = series(500);
        let twin = serial(config(5), &data);

        let registry = ServiceRegistry::new(ServiceConfig::default());
        let session = Session::privshape(config(5), data.len()).unwrap();
        let mut cs = clients(&session, &data);
        let mut id = registry.admit(session).unwrap();
        let mut rounds = 0u32;
        let extraction = loop {
            match registry.begin_round(id).unwrap() {
                None => break registry.finish(id).unwrap(),
                Some(spec) => {
                    let generation = registry.session_generation(id).unwrap();
                    for frame in routed_frames(&mut cs, &spec, id, generation, 11) {
                        registry.route_frame(&frame).unwrap();
                    }
                    registry.close_round(id).unwrap();
                    rounds += 1;
                    // Crash the service after the second round: snapshot,
                    // evict (the crash), restore under the original id.
                    if rounds == 2 {
                        let snapshot = registry.snapshot_session(id).unwrap();
                        assert!(registry.evict_session(id));
                        assert!(!registry.evict_session(id), "double evict");
                        let restored = registry.restore_session(&snapshot).unwrap();
                        assert_eq!(restored, id, "restored under the original id");
                        id = restored;
                    }
                }
            }
        };
        assert_eq!(extraction.shapes, twin.shapes);
        assert_eq!(extraction.diagnostics.ell_s, twin.diagnostics.ell_s);

        // Restoring while the id is resident is a collision.
        let session = Session::privshape(config(6), 100).unwrap();
        let id = registry.admit(session).unwrap();
        let snap = registry.snapshot_session(id).unwrap();
        assert!(matches!(
            registry.restore_session(&snap),
            Err(ServiceError::SessionCollision { .. })
        ));
    }

    #[test]
    fn ids_at_the_end_of_the_id_space_are_typed_errors() {
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let snapshot = Session::privshape(config(7), 100).unwrap().snapshot();
        // Service snapshots are `varint(id)` + the session's snapshot.
        let under = |id_varint: &[u8]| [id_varint, &snapshot].concat();
        let refused = |r: Result<u64>| {
            assert!(
                matches!(r, Err(ServiceError::Session(ProtocolError::Protocol(_)))),
                "{r:?}"
            )
        };
        // u64::MAX has no successor: refused, nothing admitted.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        refused(registry.restore_session(&under(&max)));
        assert_eq!(registry.active_sessions(), 0);
        // An id varint whose tenth byte runs past bit 63 is refused, not
        // truncated to the id its low bits spell (here 0).
        let mut past = vec![0x80; 9];
        past.push(0x02);
        refused(registry.restore_session(&under(&past)));
        assert_eq!(registry.active_sessions(), 0);
        // u64::MAX − 1 restores, and leaves no id for the next admission.
        max[0] = 0xFE;
        assert_eq!(
            registry.restore_session(&under(&max)).unwrap(),
            u64::MAX - 1
        );
        refused(registry.admit(Session::privshape(config(8), 100).unwrap()));
        assert_eq!(registry.active_sessions(), 1);
    }

    /// A round a panic failed is never finalized: `close_round` returns
    /// its cause, and `begin_round` and `snapshot_session` refuse the
    /// session until it is evicted. Restored from its pre-round snapshot,
    /// it replays the round and finishes equal to its fault-free twin.
    #[test]
    fn poisoned_round_is_refused_until_evicted() {
        let data = series(400);
        let twin = serial(config(12), &data);
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let session = Session::privshape(config(12), data.len()).unwrap();
        let mut cs = clients(&session, &data);
        let id = registry.admit(session).unwrap();
        let before = registry.snapshot_session(id).unwrap();
        let plan = Arc::new(FaultPlan::new([FaultKind::WorkerPanic { at_absorb: 0 }]));
        let spec = registry.begin_round_chaos(id, Some(plan)).unwrap();
        let generation = registry.session_generation(id).unwrap();
        let mut frames = routed_frames(&mut cs, spec.as_ref().unwrap(), id, generation, 11);
        let poisoned = |r: Result<()>| {
            matches!(
                r,
                Err(ServiceError::Session(
                    ProtocolError::PipelinePoisoned { .. }
                ))
            )
        };
        assert!(frames.iter().all(|f| poisoned(registry.route_frame(f))));
        assert!(poisoned(registry.close_round(id)));
        assert!(poisoned(registry.begin_round(id).map(drop)));
        assert!(poisoned(registry.snapshot_session(id).map(drop)));
        assert!(poisoned(registry.close_round(id)));

        assert!(registry.evict_session(id));
        assert_eq!(registry.restore_session(&before).unwrap(), id);
        assert_eq!(registry.begin_round(id).unwrap(), spec);
        let extraction = loop {
            for frame in &frames {
                registry.route_frame(frame).unwrap();
            }
            registry.close_round(id).unwrap();
            let Some(spec) = registry.begin_round(id).unwrap() else {
                break registry.finish(id).unwrap();
            };
            let generation = registry.session_generation(id).unwrap();
            frames = routed_frames(&mut cs, &spec, id, generation, 11);
        };
        assert_eq!(extraction.shapes, twin.shapes);
        assert_eq!(extraction.diagnostics.ell_s, twin.diagnostics.ell_s);
    }

    #[test]
    fn snapshot_is_refused_mid_round() {
        let registry = ServiceRegistry::new(ServiceConfig::default());
        let id = registry
            .admit(Session::privshape(config(4), 300).unwrap())
            .unwrap();
        registry.begin_round(id).unwrap().expect("length round");
        assert!(matches!(
            registry.snapshot_session(id),
            Err(ServiceError::Session(ProtocolError::Protocol(_)))
        ));
        registry.close_round(id).unwrap();
        assert!(registry.snapshot_session(id).is_ok());
    }
}
