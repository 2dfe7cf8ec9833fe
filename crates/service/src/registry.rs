//! The service registry: admission, routing, and session multiplexing.

use crate::error::{Result, ServiceError};
use privshape_protocol::{
    put_varint, read_varint, Error as ProtocolError, Extraction, FaultPlan, IngestConfig,
    IngestStats, LabeledExtraction, RoundSpec, RoutedFrame, Session,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning knobs for a [`ServiceRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum sessions resident at once; further [`ServiceRegistry::admit`]
    /// calls are refused with [`ServiceError::AdmissionDenied`].
    pub max_sessions: usize,
    /// Read by nothing: every session's open round is its own ingest
    /// boundary, which absorbs each frame in the routing producer's call,
    /// under a lock of that round alone, so one session's load never
    /// blocks its neighbours' producers. Kept only because the benchmark
    /// harness (`perfbench/`) still sets it; see [`IngestConfig`].
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

/// One resident session and its routing state, behind one `RwLock`:
/// producers check the generation and submit under a read guard (the
/// session's open round serializes their absorbs under its own lock), and
/// the round transitions take the write guard, so no frame is absorbed
/// after [`ServiceRegistry::close_round`] returns.
#[derive(Debug)]
struct Slot {
    session: Session,
    /// The generation tag frames must carry right now; `None` while no
    /// round is open for routing.
    generation: Option<u64>,
    /// The open round's fault plan (chaos runs only).
    chaos: Option<Arc<FaultPlan>>,
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
    sessions: Mutex<HashMap<u64, Arc<RwLock<Slot>>>>,
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
    /// [`ServiceError::AdmissionDenied`] when the registry is full;
    /// [`ServiceError::Session`] once the id space is exhausted.
    pub fn admit(&self, session: Session) -> Result<u64> {
        let id = {
            let mut next = self.next_id.lock().expect("id lock");
            let id = *next;
            *next = successor(id)?;
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
            Arc::new(RwLock::new(Slot {
                session,
                generation: None,
                chaos: None,
            })),
        );
        self.rotation.lock().expect("rotation lock").push_back(id);
        Ok(())
    }

    fn slot(&self, id: u64) -> Result<Arc<RwLock<Slot>>> {
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
        let generation = slot.read().expect("slot lock").generation;
        generation.ok_or(ServiceError::NoOpenRound { session_id: id })
    }

    /// Opens the session's next round for routing. Returns the broadcast
    /// (to be distributed to that session's users), or `None` when the
    /// protocol is complete (then call [`finish`](Self::finish) /
    /// [`finish_labeled`](Self::finish_labeled)).
    ///
    /// # Errors
    ///
    /// Among others, [`ProtocolError::PipelinePoisoned`] while the last
    /// round is one a panic failed: it is never finalized, and the session
    /// stays refused until it is evicted.
    pub fn begin_round(&self, id: u64) -> Result<Option<RoundSpec>> {
        self.begin_round_chaos(id, None)
    }

    /// [`begin_round`](Self::begin_round) with an optional
    /// [`FaultPlan`] chaos hook consulted by every frame routed into the
    /// round. `None` is exactly `begin_round`; a supervisor re-passes the
    /// session's plan each round.
    pub(crate) fn begin_round_chaos(
        &self,
        id: u64,
        chaos: Option<Arc<FaultPlan>>,
    ) -> Result<Option<RoundSpec>> {
        let slot = self.slot(id)?;
        let mut slot = slot.write().expect("slot lock");
        let spec = slot.session.next_round()?;
        slot.generation = slot.session.round_generation();
        slot.chaos = chaos;
        Ok(spec)
    }

    /// Routes one wire envelope ([`privshape_protocol::route_frame`]) to
    /// the session it addresses and submits its payload — a sealed report
    /// frame — to that session's open round.
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
    /// round refuses) stay the session's business: they move its
    /// rejection counters and the call still returns `Ok(())`, exactly
    /// like [`Session::submit_sealed_frame`].
    ///
    /// The frame is absorbed into the session's open round before the
    /// call returns, under that round's own lock; frames for other
    /// sessions are unaffected.
    pub fn route_frame(&self, envelope: &[u8]) -> Result<()> {
        let routed = RoutedFrame::decode(envelope)?;
        let slot = self.slot(routed.session_id)?;
        let slot = slot.read().expect("slot lock");
        let Some(generation) = slot.generation else {
            return Err(ServiceError::NoOpenRound {
                session_id: routed.session_id,
            });
        };
        routed.check_session(Some(generation))?;
        slot.session
            .submit_sealed_frame(routed.payload, slot.chaos.as_deref())?;
        Ok(())
    }

    /// Closes the session's open round to routing. The round's reports are
    /// already in the session; [`begin_round`](Self::begin_round)
    /// finalizes them.
    ///
    /// Producers must have stopped submitting for this round (the round's
    /// generation is retired here; late frames get
    /// [`ProtocolError::StaleGeneration`] on their next
    /// [`route_frame`](Self::route_frame)).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::PipelinePoisoned`] with its cause for a round a
    /// panic failed (and on every later call until the session is
    /// evicted); [`ServiceError::NoOpenRound`] when no round is open.
    pub fn close_round(&self, id: u64) -> Result<()> {
        let slot = self.slot(id)?;
        let mut slot = slot.write().expect("slot lock");
        let open = slot.generation.take().is_some();
        slot.session.check_round()?;
        if !open {
            return Err(ServiceError::NoOpenRound { session_id: id });
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
        Ok(slot.into_inner().expect("slot lock").session)
    }

    /// The session's accumulated ingest counters (accepted, rejected and
    /// duplicate reports, caught panics), summed over its rounds — the
    /// service's per-tenant health metrics.
    pub fn session_ingest_stats(&self, id: u64) -> Result<IngestStats> {
        let slot = self.slot(id)?;
        let stats = slot.read().expect("slot lock").session.ingest_stats();
        Ok(stats)
    }

    /// Serializes one resident session into a crash-safe snapshot frame
    /// (`varint(session_id)` + the session's own checksummed snapshot).
    /// Only allowed between rounds — an open round's claims are not part
    /// of a snapshot; close the round first.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::PipelinePoisoned`] for a session whose last round
    /// a panic failed: its checkpoint would log that round, so it is
    /// refused until the session is evicted.
    pub fn snapshot_session(&self, id: u64) -> Result<Vec<u8>> {
        let slot = self.slot(id)?;
        let slot = slot.read().expect("slot lock");
        slot.session.check_round()?;
        if slot.generation.is_some() {
            return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                "session {id} has an open round; close the round before snapshotting"
            ))));
        }
        let mut buf = Vec::new();
        put_varint(&mut buf, id);
        slot.session.snapshot_into(&mut buf);
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
    /// [`ServiceError::Session`] for an id varint that is truncated or runs
    /// past 64 bits, and for `u64::MAX`, which no session holds;
    /// admission and snapshot-validation errors as usual.
    pub fn restore_session(&self, bytes: &[u8]) -> Result<u64> {
        let mut pos = 0;
        let id = read_varint(bytes, &mut pos)?;
        let after = successor(id)?;
        let session = Session::restore(&bytes[pos..])?;
        self.insert(id, session)?;
        // Never hand out an id at or below a restored one.
        let mut next = self.next_id.lock().expect("id lock");
        *next = (*next).max(after);
        Ok(id)
    }
}

/// The id after `id`. `u64::MAX` has none, so it is never a session's id:
/// every id handed out or restored leaves a fresh one for the next admit.
fn successor(id: u64) -> Result<u64> {
    id.checked_add(1).ok_or_else(|| {
        ServiceError::Session(ProtocolError::Protocol(format!(
            "session id space exhausted: {id} has no successor"
        )))
    })
}
