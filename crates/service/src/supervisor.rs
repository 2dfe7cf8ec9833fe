//! Supervised session recovery: checkpoint, journal, retry, quarantine.
//!
//! The [`ServiceRegistry`] detects failures — a poisoned pipeline fails
//! its round with a typed cause — but does nothing about them: the
//! session is dead and its partial round is lost. The [`Supervisor`]
//! closes that gap with the classic supervision loop, built entirely from
//! the crash-safety primitives the registry already exposes:
//!
//! ```text
//!             begin_round                       close_round
//!   ┌────────┐  checkpoint   ┌────────┐  frames  ┌─────────┐ ok
//!   │BOUNDARY├──────────────►│  OPEN  ├─────────►│ CLOSING ├────► BOUNDARY
//!   └────────┘  (+ journal)  └────────┘ (journal)└────┬────┘
//!        ▲                                            │ round failed
//!        │ re-driven round closed                     ▼
//!        │                  ┌──────────────────────────────────┐
//!        └──────────────────┤ RECOVERING: backoff → evict →    │
//!                           │ restore newest valid checkpoint  │
//!                           │ → re-drive journaled frames      │
//!                           └───────────────┬──────────────────┘
//!                                           │ attempts/budget exhausted
//!                                           ▼
//!                                      QUARANTINED (typed, terminal)
//! ```
//!
//! * **Checkpoint** — at every round boundary ([`Supervisor::begin_round`])
//!   the session is snapshotted through the crash-safe snapshot path; the
//!   last [`CHECKPOINT_DEPTH`] checkpoints are retained so a *corrupted*
//!   checkpoint (storage rot) falls back to the previous one and re-drives
//!   two rounds instead of one.
//! * **Journal** — every frame successfully routed (or rejected only
//!   because the pipeline was already poisoned) is appended to a bounded
//!   in-memory journal for its round. Frames rejected for addressing
//!   reasons — above all [`privshape_protocol::Error::StaleGeneration`] —
//!   are **never journaled**, so a re-drive replays exactly the frames the
//!   failed round would have absorbed, and a pre-crash duplicate replayed
//!   after restore is rejected the same way it would have been live.
//! * **Retry** — recovery runs under the typed [`RetryPolicy`]: bounded
//!   attempts per incident, exponential backoff with deterministic jitter
//!   from the session seed, and a lifetime failure budget.
//! * **Quarantine** — a session that exhausts either bound is evicted and
//!   every later call for its id returns the typed
//!   [`ServiceError::Quarantined`]; all other sessions are untouched.
//!
//! **Exactness under recovery.** A recovered round re-absorbs the same
//! sealed frames against a state restored bit-identically from the
//! pre-round checkpoint; aggregates are integer counts merged
//! associatively and dedup replays identically, so the closed round — and
//! therefore the final extraction — is bit-identical to a fault-free run.
//! The bench crate's fault matrix and the supervisor property test pin
//! this.

use crate::error::{Result, ServiceError};
use crate::policy::RetryPolicy;
use crate::registry::{ServiceConfig, ServiceRegistry};
use privshape_protocol::{
    Error as ProtocolError, Extraction, FaultPlan, IngestStats, LabeledExtraction, RoundSpec,
    RoutedFrame, Session,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Round-boundary checkpoints retained per session. Depth 2 is the
/// minimum that survives one corrupted checkpoint; deeper only helps
/// against multiple *consecutive* corruptions, which the failure budget
/// quarantines anyway.
pub const CHECKPOINT_DEPTH: usize = 2;

/// Per-session recovery counters, all deterministic under a fixed
/// [`FaultPlan`] and workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Failed rounds recovered successfully (evict → restore → re-drive).
    pub recoveries: u64,
    /// Extra tries beyond the first: failed recovery attempts plus
    /// injected-fault submit retransmissions.
    pub retries: u64,
    /// Frames replayed from the journal across all recoveries.
    pub redriven_frames: u64,
    /// Recoveries that had to fall back past a corrupted newest
    /// checkpoint to an older one.
    pub checkpoint_fallbacks: u64,
    /// Checkpoints corrupted at store time by the session's fault plan.
    pub checkpoints_corrupted: u64,
    /// Lifetime failure-budget units consumed ([`RetryPolicy::failure_budget`]).
    pub budget_used: u32,
}

/// Why and how a session left service via quarantine.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// The quarantined session.
    pub session_id: u64,
    /// Lifetime recovery attempts it consumed.
    pub attempts: u32,
    /// Rendering of the failure that exhausted its budget.
    pub cause: String,
    /// Its recovery counters at quarantine time.
    pub stats: RecoveryStats,
}

impl QuarantineReport {
    fn to_error(&self) -> ServiceError {
        ServiceError::Quarantined {
            session_id: self.session_id,
            attempts: self.attempts,
            cause: self.cause.clone(),
        }
    }
}

/// One round's replay material: the checkpoint taken at the boundary
/// *before* the round, and the frames routed into the round after it.
#[derive(Debug)]
struct RoundJournal {
    checkpoint: Vec<u8>,
    frames: Vec<Vec<u8>>,
    /// The round outgrew [`RetryPolicy::journal_capacity`]; it can no
    /// longer be re-driven and fails recovery if it has to be.
    overflowed: bool,
}

#[derive(Debug)]
struct SessState {
    /// The session's fault plan (chaos runs only; `None` in production).
    chaos: Option<Arc<FaultPlan>>,
    /// Session RNG seed — the root of deterministic retry jitter.
    seed: u64,
    /// Newest-last; at most [`CHECKPOINT_DEPTH`] entries.
    history: VecDeque<RoundJournal>,
    stats: RecoveryStats,
}

/// The supervision layer over a [`ServiceRegistry`] (see module docs).
///
/// API mirrors the registry's lifecycle — `admit` / `begin_round` /
/// `route_frame` / `close_round` / `finish` — with recovery wired into
/// `close_round` and journaling into `route_frame`. All methods take
/// `&self`; per-session state is individually locked so one session's
/// (possibly sleeping) recovery never blocks another session's progress.
#[derive(Debug)]
pub struct Supervisor {
    registry: ServiceRegistry,
    policy: RetryPolicy,
    states: Mutex<HashMap<u64, Arc<Mutex<SessState>>>>,
    quarantine: Mutex<HashMap<u64, QuarantineReport>>,
}

impl Supervisor {
    /// A supervisor over an empty registry.
    pub fn new(config: ServiceConfig, policy: RetryPolicy) -> Self {
        Self {
            registry: ServiceRegistry::new(config),
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            states: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying registry — read-side escape hatch (generations,
    /// rotation, stats). Mutations through it bypass journaling; drive
    /// rounds through the supervisor.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Admits a session under supervision (no fault plan).
    pub fn admit(&self, session: Session) -> Result<u64> {
        self.admit_with_chaos(session, None)
    }

    /// Admits a session with an optional [`FaultPlan`] that will be
    /// installed on every round's ingest pipeline and consulted when
    /// storing checkpoints — the chaos entry point. Admission shares the
    /// registry's capacity cap, so overload is shed here with the usual
    /// typed [`ServiceError::AdmissionDenied`].
    pub fn admit_with_chaos(&self, session: Session, chaos: Option<Arc<FaultPlan>>) -> Result<u64> {
        let seed = session.seed();
        let id = self.registry.admit(session)?;
        self.states.lock().expect("states lock").insert(
            id,
            Arc::new(Mutex::new(SessState {
                chaos,
                seed,
                history: VecDeque::with_capacity(CHECKPOINT_DEPTH),
                stats: RecoveryStats::default(),
            })),
        );
        Ok(id)
    }

    /// Fair round-robin over resident (non-quarantined) sessions.
    pub fn next_session(&self) -> Option<u64> {
        self.registry.next_session()
    }

    /// Sessions currently resident (excludes quarantined ones).
    pub fn active_sessions(&self) -> usize {
        self.registry.active_sessions()
    }

    /// The generation tag for the session's open round.
    pub fn session_generation(&self, id: u64) -> Result<u64> {
        self.check_quarantine(id)?;
        self.registry.session_generation(id)
    }

    /// The session's accumulated ingest counters.
    pub fn session_ingest_stats(&self, id: u64) -> Result<IngestStats> {
        self.check_quarantine(id)?;
        self.registry.session_ingest_stats(id)
    }

    /// The session's recovery counters so far. Works while the session is
    /// resident; for quarantined sessions read
    /// [`Supervisor::quarantine_report`] instead.
    pub fn recovery_stats(&self, id: u64) -> Result<RecoveryStats> {
        let st = self.state_of(id)?;
        let st = st.lock().expect("session state lock");
        Ok(st.stats)
    }

    /// The quarantine report for `id`, if it was quarantined.
    pub fn quarantine_report(&self, id: u64) -> Option<QuarantineReport> {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .get(&id)
            .cloned()
    }

    /// Ids of all quarantined sessions, ascending.
    pub fn quarantined_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .quarantine
            .lock()
            .expect("quarantine lock")
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Opens the session's next round: takes the boundary checkpoint
    /// (applying any scheduled chaos corruption to the *stored* copy —
    /// the resident session is untouched), rolls the journal window, and
    /// opens the round with the session's fault plan installed.
    pub fn begin_round(&self, id: u64) -> Result<Option<RoundSpec>> {
        self.check_quarantine(id)?;
        let st = self.state_of(id)?;
        let mut st = st.lock().expect("session state lock");
        let mut checkpoint = self.registry.snapshot_session(id)?;
        if let Some(plan) = &st.chaos {
            if plan.next_checkpoint(&mut checkpoint) {
                st.stats.checkpoints_corrupted += 1;
            }
        }
        st.history.push_back(RoundJournal {
            checkpoint,
            frames: Vec::new(),
            overflowed: false,
        });
        while st.history.len() > CHECKPOINT_DEPTH {
            st.history.pop_front();
        }
        let spec = self.registry.begin_round_chaos(id, st.chaos.clone())?;
        Ok(spec)
    }

    /// Routes one envelope, journaling it for possible re-drive.
    ///
    /// * Accepted frames are journaled after delivery.
    /// * Frames rejected only because the pipeline is already poisoned
    ///   are journaled and reported as `Ok` — the round is already doomed
    ///   and will be recovered wholesale at [`Supervisor::close_round`];
    ///   the producer should keep streaming, not crash.
    /// * Injected transient drops ([`ProtocolError::FaultInjected`]) are
    ///   retransmitted under the retry policy's backoff.
    /// * Addressing rejections (unknown session, **stale generation**,
    ///   bad version, no open round) propagate typed and are *never*
    ///   journaled — a re-drive must not replay what the live round would
    ///   have refused.
    pub fn route_frame(&self, envelope: &[u8]) -> Result<()> {
        let routed = RoutedFrame::decode(envelope)?;
        let id = routed.session_id;
        self.check_quarantine(id)?;
        let st = self.state_of(id)?;
        let mut st = st.lock().expect("session state lock");
        let mut tries = 0u32;
        loop {
            match self.registry.route_frame(envelope) {
                Ok(()) => {
                    Self::journal(&mut st, envelope, self.policy.journal_capacity);
                    return Ok(());
                }
                Err(ServiceError::Session(ProtocolError::PipelinePoisoned { .. })) => {
                    Self::journal(&mut st, envelope, self.policy.journal_capacity);
                    return Ok(());
                }
                Err(ServiceError::Session(ProtocolError::FaultInjected(_)))
                    if tries < self.policy.max_attempts =>
                {
                    tries += 1;
                    st.stats.retries += 1;
                    std::thread::sleep(self.policy.backoff(tries, st.seed ^ id));
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Closes the session's open round; on failure, recovers it under the
    /// retry policy (see module docs) or quarantines the session.
    pub fn close_round(&self, id: u64) -> Result<()> {
        self.check_quarantine(id)?;
        let st = self.state_of(id)?;
        let mut st = st.lock().expect("session state lock");
        match self.registry.close_round(id) {
            Ok(()) => Ok(()),
            Err(err) => self.recover(id, &mut st, err),
        }
    }

    /// Removes the session and returns its unlabeled extraction.
    pub fn finish(&self, id: u64) -> Result<Extraction> {
        self.check_quarantine(id)?;
        let extraction = self.registry.finish(id)?;
        self.states.lock().expect("states lock").remove(&id);
        Ok(extraction)
    }

    /// Removes the session and returns its labeled extraction.
    pub fn finish_labeled(&self, id: u64) -> Result<LabeledExtraction> {
        self.check_quarantine(id)?;
        let extraction = self.registry.finish_labeled(id)?;
        self.states.lock().expect("states lock").remove(&id);
        Ok(extraction)
    }

    fn check_quarantine(&self, id: u64) -> Result<()> {
        if let Some(report) = self.quarantine.lock().expect("quarantine lock").get(&id) {
            return Err(report.to_error());
        }
        Ok(())
    }

    fn state_of(&self, id: u64) -> Result<Arc<Mutex<SessState>>> {
        self.states
            .lock()
            .expect("states lock")
            .get(&id)
            .cloned()
            .ok_or(ServiceError::Session(ProtocolError::UnknownSession {
                session_id: id,
            }))
    }

    fn journal(st: &mut SessState, envelope: &[u8], capacity: usize) {
        let Some(entry) = st.history.back_mut() else {
            return;
        };
        if entry.overflowed {
            return;
        }
        if entry.frames.len() >= capacity {
            // Past capacity the round is no longer replayable; keep the
            // flag, free the memory.
            entry.overflowed = true;
            entry.frames = Vec::new();
            return;
        }
        entry.frames.push(envelope.to_vec());
    }

    /// The recovery loop for one failed round: bounded attempts, each
    /// charged against the lifetime budget, exponential backoff between
    /// them; quarantine when either bound is exhausted.
    fn recover(&self, id: u64, st: &mut SessState, mut cause: ServiceError) -> Result<()> {
        let mut attempt = 0u32;
        while attempt < self.policy.max_attempts {
            if st.stats.budget_used >= self.policy.failure_budget {
                return self.quarantine(id, st, "failure budget exhausted", cause);
            }
            attempt += 1;
            st.stats.budget_used += 1;
            std::thread::sleep(self.policy.backoff(attempt, st.seed ^ id));
            match self.try_recover(id, st) {
                Ok(()) => {
                    st.stats.recoveries += 1;
                    return Ok(());
                }
                Err(e) => {
                    st.stats.retries += 1;
                    cause = e;
                }
            }
        }
        self.quarantine(id, st, "max recovery attempts exhausted", cause)
    }

    /// One recovery attempt: evict the failed resident, restore the
    /// newest checkpoint that still validates (falling back past corrupt
    /// ones), then re-drive every journaled round from there — healing
    /// the corrupt boundary checkpoints in passing.
    fn try_recover(&self, id: u64, st: &mut SessState) -> Result<()> {
        self.registry.evict_session(id);
        let mut start = None;
        for i in (0..st.history.len()).rev() {
            match self.registry.restore_session(&st.history[i].checkpoint) {
                Ok(restored) if restored == id => {
                    start = Some(i);
                    break;
                }
                Ok(impostor) => {
                    // Corruption reached the id prefix and the bytes
                    // restored under the wrong address: evict the
                    // impostor and treat the checkpoint as corrupt.
                    self.registry.evict_session(impostor);
                }
                Err(_) => {} // corrupt checkpoint: fall back one deeper
            }
        }
        let Some(start) = start else {
            return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                "session {id}: no restorable checkpoint within depth {CHECKPOINT_DEPTH}"
            ))));
        };
        if start + 1 < st.history.len() {
            st.stats.checkpoint_fallbacks += 1;
        }
        for i in start..st.history.len() {
            if st.history[i].overflowed {
                self.registry.evict_session(id);
                return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                    "session {id}: round journal overflowed ({} frame capacity); \
                     the failed round cannot be re-driven",
                    self.policy.journal_capacity
                ))));
            }
            if i > start {
                // The state this boundary should capture has just been
                // rebuilt: replace the (corrupt) stored checkpoint with a
                // fresh one.
                st.history[i].checkpoint = self.registry.snapshot_session(id)?;
            }
            if self
                .registry
                .begin_round_chaos(id, st.chaos.clone())?
                .is_none()
            {
                self.registry.evict_session(id);
                return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                    "session {id}: re-driven round vanished (protocol diverged from journal)"
                ))));
            }
            for j in 0..st.history[i].frames.len() {
                let mut tries = 0u32;
                loop {
                    match self.registry.route_frame(&st.history[i].frames[j]) {
                        Ok(()) => break,
                        Err(ServiceError::Session(ProtocolError::FaultInjected(_)))
                            if tries < self.policy.max_attempts =>
                        {
                            tries += 1;
                            std::thread::sleep(
                                self.policy.backoff(tries, st.seed ^ id ^ (j as u64) << 8),
                            );
                        }
                        Err(e) => return Err(e),
                    }
                }
                st.stats.redriven_frames += 1;
            }
            self.registry.close_round(id)?;
        }
        Ok(())
    }

    /// Terminal exit: evict the session, drop its state, record the
    /// report, and return the typed error. Healthy sessions never notice.
    fn quarantine(
        &self,
        id: u64,
        st: &mut SessState,
        reason: &str,
        cause: ServiceError,
    ) -> Result<()> {
        self.registry.evict_session(id);
        self.states.lock().expect("states lock").remove(&id);
        let report = QuarantineReport {
            session_id: id,
            attempts: st.stats.budget_used,
            cause: format!("{reason}: {cause}"),
            stats: st.stats,
        };
        let err = report.to_error();
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .insert(id, report);
        Err(err)
    }
}
