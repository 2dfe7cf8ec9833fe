//! The service registry: admission, routing, and session multiplexing.

use crate::error::{Result, ServiceError};
use privshape_protocol::{
    Error as ProtocolError, Extraction, FaultPlan, IngestConfig, IngestPipeline, IngestStats,
    LabeledExtraction, RoundSpec, RoutedFrame, Session,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`ServiceRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum sessions resident at once; further [`ServiceRegistry::admit`]
    /// calls are refused with [`ServiceError::AdmissionDenied`].
    pub max_sessions: usize,
    /// Read by nothing: every open round gets its own ingest boundary,
    /// which absorbs each frame in the routing producer's call, under a
    /// lock of that round alone, so one session's load never blocks its
    /// neighbours' producers. Kept only because the benchmark harness
    /// (`perfbench/`) still sets it; see [`IngestConfig`].
    pub ingest: IngestConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            ingest: IngestConfig::default(),
        }
    }
}

/// Routing state of one resident session: the generation tag frames must
/// carry right now, and the pipeline of the open round (if any).
#[derive(Debug, Default)]
struct RouteState {
    generation: Option<u64>,
    pipeline: Option<Arc<IngestPipeline>>,
}

/// One resident session. The two locks split the hot path from the cold
/// path: `route` is held for nanoseconds per frame (generation check +
/// `Arc` clone), while `driver` serializes the once-per-round state
/// machine transitions.
#[derive(Debug)]
struct Slot {
    driver: Mutex<Session>,
    route: Mutex<RouteState>,
}

/// A long-lived aggregation service multiplexing many concurrent
/// extraction sessions — different budgets, candidate domains, and
/// mechanisms — over the streaming ingest engine.
///
/// Lifecycle per session: [`admit`](Self::admit) →
/// ([`begin_round`](Self::begin_round) → routed frames via
/// [`route_frame`](Self::route_frame) → [`close_round`](Self::close_round))*
/// → [`finish`](Self::finish). Between rounds a session can be
/// [snapshotted](Self::snapshot_session) and — after a crash or eviction —
/// [restored](Self::restore_session) under its original id, continuing
/// bit-identically.
///
/// All methods take `&self`; the registry is `Sync` and producers on any
/// number of threads may route frames concurrently with other sessions'
/// round transitions.
#[derive(Debug)]
pub struct ServiceRegistry {
    config: ServiceConfig,
    sessions: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Round-robin cursor over resident session ids (fair scheduling).
    rotation: Mutex<VecDeque<u64>>,
    /// Next id to assign; monotone across evictions and restores.
    next_id: Mutex<u64>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            config,
            sessions: Mutex::new(HashMap::new()),
            rotation: Mutex::new(VecDeque::new()),
            next_id: Mutex::new(1),
        }
    }

    /// Number of sessions currently resident.
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().expect("sessions lock").len()
    }

    /// Admits a session, assigning it a fresh service-wide id — the id
    /// producers must put on every routed frame for it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AdmissionDenied`] when the registry is full.
    pub fn admit(&self, session: Session) -> Result<u64> {
        let id = {
            let mut next = self.next_id.lock().expect("id lock");
            let id = *next;
            *next += 1;
            id
        };
        self.insert(id, session)?;
        Ok(id)
    }

    fn insert(&self, id: u64, session: Session) -> Result<()> {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        if sessions.len() >= self.config.max_sessions {
            return Err(ServiceError::AdmissionDenied {
                active: sessions.len(),
                capacity: self.config.max_sessions,
            });
        }
        if sessions.contains_key(&id) {
            return Err(ServiceError::SessionCollision { session_id: id });
        }
        sessions.insert(
            id,
            Arc::new(Slot {
                driver: Mutex::new(session),
                route: Mutex::new(RouteState::default()),
            }),
        );
        self.rotation.lock().expect("rotation lock").push_back(id);
        Ok(())
    }

    fn slot(&self, id: u64) -> Result<Arc<Slot>> {
        self.sessions
            .lock()
            .expect("sessions lock")
            .get(&id)
            .cloned()
            .ok_or(ServiceError::Session(ProtocolError::UnknownSession {
                session_id: id,
            }))
    }

    /// The next session id in fair round-robin order, if any are resident.
    /// Each call advances the rotation, so interleaving drivers that pull
    /// ids from here give every session equal turns.
    pub fn next_session(&self) -> Option<u64> {
        let sessions = self.sessions.lock().expect("sessions lock");
        let mut rotation = self.rotation.lock().expect("rotation lock");
        while let Some(id) = rotation.pop_front() {
            if sessions.contains_key(&id) {
                rotation.push_back(id);
                return Some(id);
            }
            // Evicted or finished since last rotation: drop the stale id.
        }
        None
    }

    /// The generation tag producers must stamp on routed frames for this
    /// session's currently open round ([`privshape_protocol::route_frame`]'s
    /// `generation` argument). Part of the round broadcast in a real
    /// deployment.
    pub fn session_generation(&self, id: u64) -> Result<u64> {
        let slot = self.slot(id)?;
        let route = slot.route.lock().expect("route lock");
        route
            .generation
            .ok_or(ServiceError::NoOpenRound { session_id: id })
    }

    /// Opens the session's next round and stands up its ingest pipeline.
    /// Returns the broadcast (to be distributed to that session's users),
    /// or `None` when the protocol is complete (then call
    /// [`finish`](Self::finish) / [`finish_labeled`](Self::finish_labeled)).
    pub fn begin_round(&self, id: u64) -> Result<Option<RoundSpec>> {
        self.begin_round_chaos(id, None)
    }

    /// [`begin_round`](Self::begin_round) with an optional
    /// [`FaultPlan`] chaos hook installed on the round's ingest pipeline
    /// (see [`privshape_protocol::chaos`]). `None` is exactly
    /// `begin_round`; the registry itself stores no chaos state — a
    /// supervisor re-passes the session's plan each round.
    pub fn begin_round_chaos(
        &self,
        id: u64,
        chaos: Option<Arc<FaultPlan>>,
    ) -> Result<Option<RoundSpec>> {
        let slot = self.slot(id)?;
        let mut session = slot.driver.lock().expect("driver lock");
        let spec = session.next_round()?;
        let mut route = slot.route.lock().expect("route lock");
        match &spec {
            Some(_) => {
                route.generation = session.round_generation();
                route.pipeline = Some(Arc::new(session.ingest_pipeline(chaos)?));
            }
            None => {
                route.generation = None;
                route.pipeline = None;
            }
        }
        Ok(spec)
    }

    /// Routes one wire envelope ([`privshape_protocol::route_frame`]) to
    /// the session it addresses and submits its payload — a sealed report
    /// frame — to that session's open pipeline.
    ///
    /// Envelope and addressing problems are *rejected with typed errors*,
    /// never silently absorbed:
    ///
    /// * malformed or wrong-version envelope —
    ///   [`ProtocolError::Protocol`] / [`ProtocolError::UnsupportedVersion`];
    /// * a session id the registry does not know —
    ///   [`ProtocolError::UnknownSession`];
    /// * a generation tag that does not match the session's current round
    ///   (e.g. a producer still answering against a superseded candidate
    ///   table) — [`ProtocolError::StaleGeneration`];
    /// * a known session with no round open — [`ServiceError::NoOpenRound`].
    ///
    /// Payload-level problems (bit-flips, duplicate users, reports the
    /// round refuses) stay the pipeline's business: they move the
    /// session's rejection counters and the call still returns `Ok(())`,
    /// exactly like direct sealed submission.
    ///
    /// The frame is absorbed before the call returns, under the open
    /// round's own lock; frames for other sessions are unaffected.
    pub fn route_frame(&self, envelope: &[u8]) -> Result<()> {
        let routed = RoutedFrame::decode(envelope)?;
        let slot = {
            let sessions = self.sessions.lock().expect("sessions lock");
            sessions.get(&routed.session_id).cloned()
        };
        let Some(slot) = slot else {
            return Err(ServiceError::Session(ProtocolError::UnknownSession {
                session_id: routed.session_id,
            }));
        };
        let pipeline = {
            let route = slot.route.lock().expect("route lock");
            let (Some(generation), Some(pipeline)) = (route.generation, &route.pipeline) else {
                return Err(ServiceError::NoOpenRound {
                    session_id: routed.session_id,
                });
            };
            routed.check_session(Some(generation))?;
            Arc::clone(pipeline)
        };
        // Submit outside every registry lock: the round's own lock
        // serializes only this session's producers.
        pipeline.submit_sealed_frame(routed.payload)?;
        Ok(())
    }

    /// Closes the session's open round: merges the round's aggregate into
    /// the session and folds the round's ingest counters into the session
    /// diagnostics.
    ///
    /// Producers must have stopped submitting for this round (the round's
    /// generation is retired here; late frames get
    /// [`ProtocolError::StaleGeneration`] on their next
    /// [`route_frame`](Self::route_frame)).
    pub fn close_round(&self, id: u64) -> Result<()> {
        let slot = self.slot(id)?;
        let mut session = slot.driver.lock().expect("driver lock");
        let mut pipeline = {
            let mut route = slot.route.lock().expect("route lock");
            route.generation = None;
            match route.pipeline.take() {
                Some(p) => p,
                None => return Err(ServiceError::NoOpenRound { session_id: id }),
            }
        };
        // Producers only briefly hold clones (between the route-lock
        // release and submit); with the generation retired no new clone
        // can appear, so uniqueness is moments away.
        let pipeline = loop {
            match Arc::try_unwrap(pipeline) {
                Ok(p) => break p,
                Err(shared) => {
                    pipeline = shared;
                    std::thread::yield_now();
                }
            }
        };
        let (result, stats) = pipeline.finish();
        // Fold the round's counters in even when it failed: the session's
        // health metrics (panics above all) must survive a crashed round
        // so supervisors and diagnostics see *why* it died.
        session.record_ingest_stats(&stats);
        let shard = result?;
        if shard.reports() > 0 {
            session.submit_shard(&shard)?;
        }
        Ok(())
    }

    /// Removes the session and returns its unlabeled extraction. The id
    /// is retired; late frames for it get
    /// [`ProtocolError::UnknownSession`].
    pub fn finish(&self, id: u64) -> Result<Extraction> {
        Ok(self.remove(id)?.finish()?)
    }

    /// Removes the session and returns its labeled extraction.
    pub fn finish_labeled(&self, id: u64) -> Result<LabeledExtraction> {
        Ok(self.remove(id)?.finish_labeled()?)
    }

    fn remove(&self, id: u64) -> Result<Session> {
        let slot =
            {
                let mut sessions = self.sessions.lock().expect("sessions lock");
                sessions.remove(&id).ok_or(ServiceError::Session(
                    ProtocolError::UnknownSession { session_id: id },
                ))?
            };
        let slot = Arc::try_unwrap(slot).map_err(|_| ServiceError::SessionCollision {
            // A routed frame is mid-flight for this session; the caller
            // must quiesce producers before finishing it.
            session_id: id,
        })?;
        Ok(slot.driver.into_inner().expect("driver lock"))
    }

    /// The session's accumulated ingest counters (accepted, rejected and
    /// duplicate reports, caught panics), summed over its closed rounds —
    /// the service's per-tenant health metrics.
    pub fn session_ingest_stats(&self, id: u64) -> Result<IngestStats> {
        let slot = self.slot(id)?;
        let session = slot.driver.lock().expect("driver lock");
        Ok(session.ingest_stats())
    }

    /// The client seed the session was configured with
    /// ([`Session::seed`]) — supervisors derive deterministic retry
    /// jitter from it.
    pub fn session_seed(&self, id: u64) -> Result<u64> {
        let slot = self.slot(id)?;
        let session = slot.driver.lock().expect("driver lock");
        Ok(session.seed())
    }

    /// Serializes one resident session into a crash-safe snapshot frame
    /// (`varint(session_id)` + the session's own checksummed snapshot).
    /// Only allowed between rounds — an open round's partial aggregate
    /// and claims are not part of a snapshot; close the round first.
    pub fn snapshot_session(&self, id: u64) -> Result<Vec<u8>> {
        let slot = self.slot(id)?;
        let session = slot.driver.lock().expect("driver lock");
        {
            let route = slot.route.lock().expect("route lock");
            if route.pipeline.is_some() {
                return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                    "session {id} has an open ingest pipeline; close the round before \
                     snapshotting"
                ))));
            }
        }
        let mut buf = Vec::new();
        put_varint(&mut buf, id);
        session.snapshot_into(&mut buf);
        Ok(buf)
    }

    /// Drops a session without finishing it — the registry-side effect of
    /// a crash. Returns whether the id was resident. Restore from the
    /// latest [`snapshot_session`](Self::snapshot_session) bytes with
    /// [`restore_session`](Self::restore_session).
    pub fn evict_session(&self, id: u64) -> bool {
        self.sessions
            .lock()
            .expect("sessions lock")
            .remove(&id)
            .is_some()
    }

    /// Re-admits a session from [`snapshot_session`](Self::snapshot_session)
    /// bytes under its **original id**, so producers keep addressing it
    /// unchanged. The restored session continues bit-identically to the
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`ServiceError::SessionCollision`] when the id is still resident;
    /// admission and snapshot-validation errors as usual.
    pub fn restore_session(&self, bytes: &[u8]) -> Result<u64> {
        let mut pos = 0;
        let id = read_varint(bytes, &mut pos).ok_or_else(|| {
            ServiceError::Session(ProtocolError::Protocol(
                "service snapshot too short for a session id".into(),
            ))
        })?;
        let session = Session::restore(&bytes[pos..])?;
        self.insert(id, session)?;
        // Never hand out an id at or below a restored one.
        let mut next = self.next_id.lock().expect("id lock");
        *next = (*next).max(id + 1);
        Ok(id)
    }
}

/// LEB128 varint append (the registry frames only the id; the session
/// snapshot body has its own codec inside the protocol crate).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// LEB128 varint read; `None` on truncation or overlong encoding.
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}
