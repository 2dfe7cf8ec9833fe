//! The sealed-frame ingest boundary of one open round.
//!
//! A production aggregator does not see a round's reports as one slice:
//! they stream in from many untrusted devices as sealed frames
//! ([`crate::wire::seal_frame`]), out of order, from any number of
//! producer threads. A [`crate::Session`]'s open round is one
//! [`IngestPipeline`], fed through [`crate::Session::submit_sealed_frame`]:
//! each call absorbs its frame in place, in the producer's own call, in
//! two passes over the frame body.
//!
//! ```text
//!  producers (any thread, each in its own submit call)
//!      │
//!      ▼  pass 1, lock-free, allocation-free: the envelope, then every
//!      │  entry's structure, user id and report kind/domain
//!      │  ─── any failure ───► frame rejected whole, no user claimed
//!      ▼  pass 2, under the round lock: claim each entry's user
//!      │  ─── already claimed ───► report dropped as a duplicate
//!      ▼  add the first-claim report to the round's ShardAggregator
//!  finish ──► (aggregate, IngestStats)
//! ```
//!
//! **Exactness.** Every aggregate is a vector of integer counts, so the
//! order the round lock admits frames in is unobservable: the result is
//! bit-identical to one serial absorb of the same reports (pinned by the
//! shuffled ingest property test and the streaming session-equivalence
//! golden).
//!
//! **Failure.** Hostile input never poisons the round: a frame that fails
//! pass 1 only moves [`IngestStats::rejected_frames`]. What pass 1
//! accepted, pass 2 cannot refuse, so a round fails only by a panic in
//! pass 2 — a code bug or an injected fault. It is caught at the call,
//! counted in [`IngestStats::worker_panics`], and poisons the round with
//! its cause: that call, every later submit and [`IngestPipeline::finish`]
//! return [`Error::PipelinePoisoned`] carrying it.
//!
//! **Chaos.** [`IngestPipeline::submit_sealed_frame`] takes an optional
//! [`FaultPlan`], consulted at two sequence points (the submit, and the
//! absorb of a frame that claimed a user) to fire deterministic injected
//! faults.

use crate::chaos::{AbsorbAction, FaultPlan, SubmitAction};
use crate::error::{Error, Result};
use crate::round::RoundSpec;
use crate::shard::ShardAggregator;
use crate::wire;
use privshape_ldp::Epsilon;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counters from a session's sealed-frame boundary
/// ([`crate::Session::submit_sealed_frame`]), surfaced per session in
/// [`crate::Diagnostics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Reports whose user had not reported yet this round, added to the
    /// round's aggregate.
    pub accepted_reports: u64,
    /// Whole frames dropped at the boundary: bad magic, checksum mismatch
    /// (bit-flips in transit), a structurally malformed body, a user id
    /// outside the session's population, or a report the round refuses
    /// (wrong kind, value outside its domain).
    pub rejected_frames: u64,
    /// Reports dropped because their frame-declared user id had already
    /// reported in this round (one-report-per-user-per-round invariant).
    pub duplicate_reports: u64,
    /// Always 0: the boundary has no frame queue. Kept only because the
    /// benchmark harness (`perfbench/`) still reads it; it goes with the
    /// next change to the benchmark.
    pub queue_high_water: u64,
    /// Always 0, for the same reason as
    /// [`IngestStats::queue_high_water`].
    pub backpressure_stalls: u64,
    /// Panics caught at the absorb and converted into a poisoned round.
    /// Every panic also fails the round, so a nonzero count always pairs
    /// with a failed round. It does not survive recovery: a supervisor
    /// restores the session from its pre-round checkpoint, whose counters
    /// predate the panic, so a recovered session reads as if the round
    /// never failed. How often a supervised session crashed is
    /// `privshape_service::RecoveryStats::recoveries`.
    pub worker_panics: u64,
}

impl IngestStats {
    /// Accumulates another round's counters (sessions sum across rounds).
    /// Counts add, saturating at `u64::MAX` (a restored snapshot's
    /// counters are untrusted input); the queue high-water mark, being a
    /// maximum, absorbs by `max`.
    pub fn absorb(&mut self, other: &IngestStats) {
        self.accepted_reports = self.accepted_reports.saturating_add(other.accepted_reports);
        self.rejected_frames = self.rejected_frames.saturating_add(other.rejected_frames);
        self.duplicate_reports = self
            .duplicate_reports
            .saturating_add(other.duplicate_reports);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.backpressure_stalls = self
            .backpressure_stalls
            .saturating_add(other.backpressure_stalls);
        self.worker_panics = self.worker_panics.saturating_add(other.worker_panics);
    }
}

/// Kept only because the benchmark harness (`perfbench/`) still names it,
/// as the empty `simd` features are: the ingest boundary absorbs each
/// frame in the producer's own call, with no queue and no worker threads,
/// so nothing reads these fields. It goes, with
/// `privshape_service::ServiceConfig::ingest` and the two always-zero
/// [`IngestStats`] gauges, in the next change to the benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestConfig {
    /// Unused.
    pub workers: usize,
    /// Unused.
    pub queue_capacity: usize,
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a fixed tag).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// What the round lock guards.
#[derive(Debug)]
pub(crate) struct Round {
    pub(crate) agg: ShardAggregator,
    /// One bit per user of the population (`population / 8` bytes), set
    /// by the first accepted report of that user this round.
    claimed: Vec<u64>,
    pub(crate) stats: IngestStats,
    /// The cause of the panic that failed the round.
    poisoned: Option<String>,
}

impl Round {
    /// [`Error::PipelinePoisoned`] with its cause once a panic failed the
    /// round.
    pub(crate) fn health(&self) -> Result<()> {
        match &self.poisoned {
            Some(cause) => Err(Error::PipelinePoisoned {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }
}

/// The ingest boundary of one open round: a session builds one for each
/// round it opens ([`IngestPipeline::for_round`]), producers feed it
/// sealed frames from any number of threads, and closing the round
/// [`IngestPipeline::finish`]es it into the round's aggregate.
#[derive(Debug)]
pub(crate) struct IngestPipeline {
    /// The round's empty aggregator: pass 1 checks reports against it, so
    /// it needs no lock, and pass 2 skips duplicates through it.
    shape: ShardAggregator,
    /// The session's population: sealed frames may name users
    /// `0..population` only, and the round holds at most that many
    /// reports.
    population: usize,
    round: Mutex<Round>,
}

impl IngestPipeline {
    /// The boundary for one round of a session over `population` users.
    ///
    /// Sealed frames may name users `0..population` only: a frame that
    /// declares any other id is rejected whole and counted in
    /// [`IngestStats::rejected_frames`]. The round's dedup state is one
    /// bit per user, `population / 8` bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] for a population whose bitset cannot be
    /// allocated; the aggregator's error for a spec it rejects.
    pub(crate) fn for_round(spec: &RoundSpec, epsilon: Epsilon, population: usize) -> Result<Self> {
        let words = population.div_ceil(64);
        let mut claimed = Vec::new();
        claimed.try_reserve_exact(words).map_err(|_| {
            Error::Protocol(format!(
                "no memory for the dedup bitset of a {population}-user population"
            ))
        })?;
        claimed.resize(words, 0);
        let shape = ShardAggregator::for_round(spec, epsilon)?;
        Ok(Self {
            round: Mutex::new(Round {
                agg: shape.clone(),
                claimed,
                stats: IngestStats::default(),
                poisoned: None,
            }),
            shape,
            population,
        })
    }

    /// Submits one **sealed** frame ([`crate::wire::seal_frame`]) and
    /// absorbs it before returning:
    ///
    /// 1. without the round lock, the envelope's length and FNV-1a
    ///    checksum are verified, then the body is walked once, checking
    ///    every entry the way [`crate::Report::decode`] would, every user
    ///    id against the population, and every report's kind and domain
    ///    against the round as [`ShardAggregator::absorb`] would. Any
    ///    failure — a frame corrupted in transit, a malformed entry, an
    ///    out-of-population id, a report the round refuses — rejects the
    ///    whole frame *before* any user is claimed, and is counted in
    ///    [`IngestStats::rejected_frames`]. This walk allocates nothing;
    /// 2. under the round lock, a second walk claims each user's bit in
    ///    the round's bitset and adds the report of every first claim to
    ///    the round's aggregate. A report whose user already reported in
    ///    this round (in this frame or any other) is counted in
    ///    [`IngestStats::duplicate_reports`] and dropped. Next to reports
    ///    that hold no claim, a frame whose entries would take the round
    ///    past the population is rejected whole instead.
    ///
    /// Hostile input therefore never poisons the round: a bad frame
    /// returns `Ok(())` and only moves a counter. Errors are
    /// [`Error::PipelinePoisoned`] once a panic failed the round, and, on
    /// a chaos run (`chaos` is the round's [`FaultPlan`]), a typed
    /// [`Error::FaultInjected`] when it drops this frame in transit (the
    /// caller retries, modeling a retransmission). Drops become
    /// producer-visible typed errors and duplicates go through the dedup,
    /// so no injected fault can silently change the aggregate.
    pub(crate) fn submit_sealed_frame(
        &self,
        frame: &[u8],
        chaos: Option<&FaultPlan>,
    ) -> Result<()> {
        if let Some(plan) = chaos {
            match plan.next_submit() {
                SubmitAction::Deliver => {}
                SubmitAction::Stall(d) => std::thread::sleep(d),
                SubmitAction::Drop => {
                    return Err(Error::FaultInjected(
                        "sealed frame dropped in transit".into(),
                    ))
                }
                SubmitAction::Duplicate => {
                    // Deliver an extra copy first, as a confused transport
                    // would; the dedup sheds every report in it.
                    self.absorb_sealed(frame, chaos)?;
                }
            }
        }
        self.absorb_sealed(frame, chaos)
    }

    fn absorb_sealed(&self, frame: &[u8], chaos: Option<&FaultPlan>) -> Result<()> {
        let checked = self.check(frame);
        let mut guard = self.lock();
        let round = &mut *guard;
        let Some((body, entries)) = checked else {
            round.stats.rejected_frames += 1;
            return Ok(());
        };
        round.health()?;
        // Claims bound the sealed reports to one per user; reports added
        // without a claim leave less room than the bitset shows.
        let held = round.agg.reports();
        if held > round.stats.accepted_reports
            && held.saturating_add(entries) > self.population as u64
        {
            round.stats.rejected_frames += 1;
            return Ok(());
        }
        // The panic is caught inside the lock's scope, so the round state
        // stays consistent and the lock is never poisoned.
        let cause = match catch_unwind(AssertUnwindSafe(|| self.absorb(round, body, chaos))) {
            Ok(Ok(())) => return Ok(()),
            // Pass 1 accepted every entry, so pass 2 cannot refuse one; if
            // it ever did, the round's counts are in doubt.
            Ok(Err(e)) => e.to_string(),
            Err(payload) => {
                round.stats.worker_panics += 1;
                format!("ingest panicked: {}", panic_message(payload.as_ref()))
            }
        };
        Err(Error::PipelinePoisoned {
            cause: round.poisoned.insert(cause).clone(),
        })
    }

    /// Pass 1: checks the envelope and every entry, and returns the body
    /// with its number of entries, or `None` to reject the frame. It
    /// claims no user, so a frame rejected halfway through never burns
    /// its users' one-report-per-round slots.
    fn check<'a>(&self, frame: &'a [u8]) -> Option<(&'a [u8], u64)> {
        let body = wire::unseal_frame(frame).ok()?;
        let (mut pos, mut count) = (0, 0);
        while pos < body.len() {
            if wire::read_usize(body, &mut pos).ok()? >= self.population {
                return None;
            }
            self.shape.check_wire(body, &mut pos).ok()?;
            count += 1;
        }
        Some((body, count))
    }

    /// Pass 2, under the round lock, over a body pass 1 accepted: claims
    /// each entry's user and decodes and adds the report of every first
    /// claim in one walk, only skipping over the others (pass 1 checked
    /// them all), then consults the chaos absorb point if the frame
    /// claimed anyone.
    fn absorb(&self, round: &mut Round, body: &[u8], chaos: Option<&FaultPlan>) -> Result<()> {
        let (mut accepted, mut duplicates) = (0, 0);
        let mut pos = 0;
        while pos < body.len() {
            let user = wire::read_usize(body, &mut pos)?;
            let (word, mask) = (&mut round.claimed[user / 64], 1u64 << (user % 64));
            if *word & mask != 0 {
                duplicates += 1;
                self.shape.skip_wire(body, &mut pos)?;
                continue;
            }
            *word |= mask;
            accepted += 1;
            round.agg.add_wire(body, &mut pos)?;
        }
        round.stats.accepted_reports += accepted;
        round.stats.duplicate_reports += duplicates;
        if accepted > 0 {
            if let Some(plan) = chaos {
                match plan.next_absorb() {
                    AbsorbAction::Absorb => {}
                    AbsorbAction::Stall(d) => std::thread::sleep(d),
                    AbsorbAction::Panic(idx) => {
                        panic!("chaos: injected worker panic (absorb #{idx})")
                    }
                }
            }
        }
        Ok(())
    }

    /// The round state, under the round lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Round> {
        self.round.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The round state, through exclusive access: no lock is taken.
    pub(crate) fn round_mut(&mut self) -> &mut Round {
        self.round.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Closes the round: the round's aggregate, or
    /// [`Error::PipelinePoisoned`] with the cause of the panic that failed
    /// it, and the final counters in both arms — a failed round still
    /// reports how it failed.
    pub(crate) fn finish(self) -> (Result<ShardAggregator>, IngestStats) {
        let round = self
            .round
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (round.health().map(|()| round.agg), round.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultKind;
    use crate::round::{Audience, GroupId, Report};
    use privshape_ldp::Oue;
    use privshape_timeseries::CandidateTable;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use std::sync::Arc;

    /// The population of most test rounds: each sealed user id is below it.
    const USERS: usize = 100;

    fn eps() -> Epsilon {
        Epsilon::new(2.0).unwrap()
    }

    fn spec(n: usize) -> RoundSpec {
        let rows: Vec<String> = (0..n)
            .map(|i| if i % 2 == 0 { "a".into() } else { "b".into() })
            .collect();
        RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: Arc::new(CandidateTable::parse_rows(&rows).unwrap()),
        }
    }

    fn pipeline(n: usize, population: usize) -> IngestPipeline {
        IngestPipeline::for_round(&spec(n), eps(), population).unwrap()
    }

    /// One sealed frame of one report per user.
    fn frame(users: std::ops::Range<usize>, report: impl Fn(usize) -> Report) -> Vec<u8> {
        let entries: Vec<(usize, Report)> = users.map(|u| (u, report(u))).collect();
        wire::seal_frame(&entries)
    }

    #[test]
    fn pipeline_matches_serial_absorb() {
        let spec = spec(4);
        let reports: Vec<Report> = (0..997).map(|i| Report::Expand(i * 7 % 4)).collect();
        let serial = serial(&spec, &reports);
        let entries: Vec<(usize, Report)> = reports.into_iter().enumerate().collect();
        let pipeline = IngestPipeline::for_round(&spec, eps(), entries.len()).unwrap();
        for chunk in entries.chunks(13) {
            pipeline
                .submit_sealed_frame(&wire::seal_frame(chunk), None)
                .unwrap();
        }
        let (merged, stats) = pipeline.finish();
        assert_eq!(merged.unwrap(), serial);
        assert_eq!(stats.accepted_reports, 997);
    }

    #[test]
    fn concurrent_producers_are_exact() {
        let pipeline = pipeline(3, 1000);
        std::thread::scope(|s| {
            for p in 0..4 {
                let pipeline = &pipeline;
                s.spawn(move || {
                    for i in 0..250 {
                        let user = p * 250 + i;
                        let frame = frame(user..user + 1, |_| Report::Expand((p + i) % 3));
                        pipeline.submit_sealed_frame(&frame, None).unwrap();
                    }
                });
            }
        });
        let (merged, stats) = pipeline.finish();
        let merged = merged.unwrap();
        assert_eq!(merged.reports(), 1000);
        let counts = merged.finalize_selections().unwrap();
        assert_eq!(counts.iter().sum::<f64>(), 1000.0);
        assert_eq!(stats.accepted_reports, 1000);
    }

    #[test]
    fn worker_error_poisons_and_surfaces() {
        let plan = FaultPlan::new([FaultKind::WorkerPanic { at_absorb: 1 }]);
        let pipeline = pipeline(2, USERS);
        pipeline
            .submit_sealed_frame(&frame(0..2, Report::Expand), Some(&plan))
            .unwrap();
        // A report outside the 2-row table is the producer's fault: its
        // frame is rejected and the round stays healthy.
        pipeline
            .submit_sealed_frame(&frame(2..3, |_| Report::Expand(9)), Some(&plan))
            .unwrap();
        // The second absorb panics: the call that tripped it and every
        // later one fail, and so does the round.
        assert!(matches!(
            pipeline.submit_sealed_frame(&frame(3..4, |_| Report::Expand(1)), Some(&plan)),
            Err(Error::PipelinePoisoned { .. })
        ));
        assert!(matches!(
            pipeline.submit_sealed_frame(&frame(4..5, |_| Report::Expand(1)), Some(&plan)),
            Err(Error::PipelinePoisoned { .. })
        ));
        let (result, stats) = pipeline.finish();
        assert!(matches!(result, Err(Error::PipelinePoisoned { .. })));
        assert_eq!(stats.rejected_frames, 1);
        // The frame that tripped the panic was counted; the one after
        // the round failed was not.
        assert_eq!(stats.accepted_reports, 3);
    }

    #[test]
    fn poisoned_submit_carries_the_cause() {
        let plan = FaultPlan::new([FaultKind::WorkerPanic { at_absorb: 0 }]);
        let pipeline = pipeline(2, USERS);
        let _ = pipeline.submit_sealed_frame(&frame(0..1, |_| Report::Expand(0)), Some(&plan));
        // The submit-time error names the panic that failed the round —
        // no "call finish for the cause" indirection.
        match pipeline.submit_sealed_frame(&frame(1..2, |_| Report::Expand(1)), Some(&plan)) {
            Err(Error::PipelinePoisoned { cause }) => {
                assert!(cause.contains("absorb #0"), "cause: {cause}")
            }
            other => panic!("expected PipelinePoisoned, got {other:?}"),
        }
    }

    #[test]
    fn injected_worker_panic_is_caught_counted_and_typed() {
        let plan = FaultPlan::new([
            FaultKind::WorkerPanic { at_absorb: 0 },
            FaultKind::WorkerPanic { at_absorb: 1 },
        ]);
        let pipeline = pipeline(2, USERS);
        match pipeline.submit_sealed_frame(&frame(0..1, |_| Report::Expand(0)), Some(&plan)) {
            Err(Error::PipelinePoisoned { cause }) => {
                assert!(cause.contains("panicked"), "cause: {cause}")
            }
            other => panic!("expected PipelinePoisoned, got {other:?}"),
        }
        assert_eq!(pipeline.lock().stats.worker_panics, 1);
        assert_eq!(plan.fired_counts().worker_panics, 1);
        // A poisoned round consults the absorb point no more, so the
        // second point stays armed.
        let _ = pipeline.submit_sealed_frame(&frame(1..2, |_| Report::Expand(1)), Some(&plan));
        assert_eq!(plan.fired_counts().worker_panics, 1);
        let (result, stats) = pipeline.finish();
        assert!(matches!(result, Err(Error::PipelinePoisoned { .. })));
        assert_eq!(stats.worker_panics, 1);
    }

    #[test]
    fn injected_drop_and_duplicate_keep_the_aggregate_exact() {
        let spec = spec(3);
        let reports: Vec<(usize, Report)> = (0..60).map(|u| (u, Report::Expand(u % 3))).collect();
        let serial = serial(&spec, reports.iter().map(|(_, r)| r));
        let plan = FaultPlan::new([
            FaultKind::FrameDrop { at_submit: 1 },
            FaultKind::FrameDuplicate { at_submit: 3 },
        ]);
        let pipeline = IngestPipeline::for_round(&spec, eps(), USERS).unwrap();
        for chunk in reports.chunks(10) {
            let frame = wire::seal_frame(chunk);
            match pipeline.submit_sealed_frame(&frame, Some(&plan)) {
                Ok(()) => {}
                // The dropped frame surfaces as a typed transient fault;
                // retransmit it exactly as a supervisor would.
                Err(Error::FaultInjected(_)) => {
                    pipeline.submit_sealed_frame(&frame, Some(&plan)).unwrap()
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let (merged, stats) = pipeline.finish();
        assert_eq!(
            merged.unwrap(),
            serial,
            "dropped+duplicated frames must aggregate like the clean stream"
        );
        // The duplicated frame's 10 reports were all shed by dedup.
        assert_eq!(stats.duplicate_reports, 10);
        let fired = plan.fired_counts();
        assert_eq!(fired.frame_drops, 1);
        assert_eq!(fired.frame_duplicates, 1);
    }

    #[test]
    fn empty_round_finishes_empty() {
        let (merged, stats) = pipeline(2, USERS).finish();
        assert_eq!(merged.unwrap().reports(), 0);
        assert_eq!(stats, IngestStats::default());
    }

    #[test]
    fn sealed_path_drops_corruption_and_duplicates() {
        let spec = spec(3);
        let reports: Vec<(usize, Report)> = (0..90).map(|u| (u, Report::Expand(u % 3))).collect();
        let serial = serial(&spec, reports.iter().map(|(_, r)| r));

        let pipeline = IngestPipeline::for_round(&spec, eps(), USERS).unwrap();
        for chunk in reports.chunks(10) {
            // The chunk's first user reports again, with another value,
            // inside the same frame: only the first report counts.
            let first = chunk[0].0;
            let mut entries = chunk.to_vec();
            entries.push((first, Report::Expand((first + 1) % 3)));
            let frame = wire::seal_frame(&entries);
            pipeline.submit_sealed_frame(&frame, None).unwrap();
            // Replaying the exact frame: every entry is a duplicate.
            pipeline.submit_sealed_frame(&frame, None).unwrap();
            // A bit-flip in transit: the whole frame is rejected.
            let mut bad = frame.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            pipeline.submit_sealed_frame(&bad, None).unwrap();
        }
        let (merged, stats) = pipeline.finish();
        assert_eq!(
            merged.unwrap(),
            serial,
            "hostile stream must aggregate like the clean one"
        );
        assert_eq!(stats.accepted_reports, 90);
        // One in-frame repeat per frame, then all 11 entries of each replay.
        assert_eq!(stats.duplicate_reports, 9 + 9 * 11);
        assert_eq!(stats.rejected_frames, 9);
    }

    /// Seals an arbitrary body under a valid envelope, as a producer that
    /// computes the checksum over bytes it made up would.
    fn seal_body(body: &[u8]) -> Vec<u8> {
        let mut frame = vec![wire::FRAME_MAGIC];
        wire::put_varint(&mut frame, body.len() as u64);
        frame.extend_from_slice(&wire::fnv1a64(body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn rejected_frames_claim_no_user() {
        let pipeline = pipeline(3, USERS);
        // One user id past the population rejects the whole frame.
        let outside = wire::seal_frame(&[(5, Report::Expand(0)), (USERS, Report::Expand(1))]);
        pipeline.submit_sealed_frame(&outside, None).unwrap();
        // So does a malformed last entry under a valid checksum.
        let mut body = Vec::new();
        wire::put_varint(&mut body, 6);
        Report::Expand(2).encode_into(&mut body);
        wire::put_varint(&mut body, 7);
        body.push(0x7f); // no such report tag
        pipeline
            .submit_sealed_frame(&seal_body(&body), None)
            .unwrap();
        // And a last report the round refuses: outside the 3-row table,
        // or of another round's kind.
        for refused in [Report::Expand(3), Report::Length(0)] {
            let frame = wire::seal_frame(&[(5, Report::Expand(0)), (7, refused)]);
            pipeline.submit_sealed_frame(&frame, None).unwrap();
        }
        assert_eq!(pipeline.lock().stats.rejected_frames, 4);
        assert_eq!(pipeline.lock().stats.accepted_reports, 0);
        // Users 5, 6 and 7 still hold their slots, and the last id of the
        // population is inside it.
        let inside = wire::seal_frame(&[
            (5, Report::Expand(0)),
            (6, Report::Expand(2)),
            (7, Report::Expand(2)),
            (USERS - 1, Report::Expand(1)),
        ]);
        pipeline.submit_sealed_frame(&inside, None).unwrap();
        let (merged, stats) = pipeline.finish();
        assert_eq!(stats.accepted_reports, 4);
        assert_eq!(stats.duplicate_reports, 0);
        assert_eq!(stats.rejected_frames, 4);
        assert_eq!(
            merged.unwrap().finalize_selections().unwrap(),
            vec![1.0, 1.0, 2.0]
        );
    }

    #[test]
    fn unallocatable_populations_are_refused() {
        // 2^61 bytes of bitset: no allocator can serve it, so the
        // constructor returns an error instead of aborting.
        assert!(matches!(
            IngestPipeline::for_round(&spec(2), eps(), usize::MAX),
            Err(Error::Protocol(_))
        ));
        let empty = pipeline(2, 0);
        empty
            .submit_sealed_frame(&wire::seal_frame(&[(0, Report::Expand(0))]), None)
            .unwrap();
        assert_eq!(empty.lock().stats.rejected_frames, 1);
    }

    #[test]
    fn stats_accumulate_across_rounds() {
        let pipeline = pipeline(2, USERS);
        let frame = frame(0..3, |u| Report::Expand(u % 2));
        pipeline.submit_sealed_frame(&frame, None).unwrap();
        pipeline.submit_sealed_frame(&frame, None).unwrap();
        pipeline.submit_sealed_frame(&frame[1..], None).unwrap();
        let (_, stats) = pipeline.finish();
        // Session-level accumulation: counts add, the high-water mark maxes.
        let mut acc = IngestStats::default();
        acc.absorb(&stats);
        acc.absorb(&IngestStats {
            accepted_reports: 2,
            queue_high_water: 5,
            ..Default::default()
        });
        acc.absorb(&IngestStats {
            queue_high_water: 4,
            worker_panics: 1,
            ..Default::default()
        });
        let expected = IngestStats {
            accepted_reports: 5,
            rejected_frames: 1,
            duplicate_reports: 3,
            queue_high_water: 5,
            backpressure_stalls: 0,
            worker_panics: 1,
        };
        assert_eq!(acc, expected);
    }

    /// A labeled refine round, so OUE reports (the only heap-carrying
    /// variant) go through the pipeline too.
    fn labeled_spec(candidates: usize, n_classes: usize) -> RoundSpec {
        let rows: Vec<String> = (0..candidates)
            .map(|i| ["ab", "ba"][i % 2].into())
            .collect();
        RoundSpec::RefineLabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: Arc::new(CandidateTable::parse_rows(&rows).unwrap()),
            n_classes,
        }
    }

    /// Deterministic Fisher–Yates over the frames.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for i in (1..items.len()).rev() {
            let j = rng.random_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Serial reference: one aggregator, reports absorbed in order.
    fn serial<'a>(
        spec: &RoundSpec,
        reports: impl IntoIterator<Item = &'a Report>,
    ) -> ShardAggregator {
        let mut agg = ShardAggregator::for_round(spec, eps()).unwrap();
        for r in reports {
            agg.absorb(r).unwrap();
        }
        agg
    }

    /// Streaming path: report `i` sealed as user `i`, chunked into frames,
    /// shuffled, and submitted from `producers` threads racing on the
    /// round.
    fn streamed(
        spec: &RoundSpec,
        reports: &[Report],
        frame_len: usize,
        producers: usize,
        seed: u64,
    ) -> ShardAggregator {
        let entries: Vec<(usize, Report)> = reports.iter().cloned().enumerate().collect();
        let mut frames: Vec<Vec<u8>> = entries
            .chunks(frame_len.max(1))
            .map(wire::seal_frame)
            .collect();
        shuffle(&mut frames, seed);
        let pipeline = IngestPipeline::for_round(spec, eps(), reports.len()).unwrap();
        std::thread::scope(|s| {
            for p in 0..producers {
                let (pipeline, frames) = (&pipeline, &frames);
                s.spawn(move || {
                    for frame in frames.iter().skip(p).step_by(producers) {
                        pipeline.submit_sealed_frame(frame, None).unwrap();
                    }
                });
            }
        });
        let (merged, stats) = pipeline.finish();
        assert_eq!(stats.accepted_reports as usize, reports.len());
        merged.unwrap()
    }

    // Streaming-ingest exactness: a round's reports chunked into arbitrary
    // frames, submitted in an arbitrary (shuffled) order from racing
    // producer threads, aggregate bit-identically to one serial absorb of
    // the same reports.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Selection rounds: arbitrary report streams, frame sizes,
        /// producer counts, and submission orders all converge to the
        /// serial aggregate.
        #[test]
        fn shuffled_streaming_equals_serial_absorb(
            selections in prop::collection::vec(0usize..6, 1..400),
            frame_len in 1usize..40,
            producers in 1usize..6,
            seed in 0u64..1 << 32,
        ) {
            let spec = spec(6);
            let reports: Vec<Report> = selections.into_iter().map(Report::Expand).collect();
            let reference = serial(&spec, &reports);
            let merged = streamed(&spec, &reports, frame_len, producers, seed);
            prop_assert_eq!(merged, reference);
        }

        /// Labeled refinement (OUE) rounds: same invariant for the
        /// heap-carrying report kind, exercising the OUE bit walk of the
        /// wire check and add.
        #[test]
        fn shuffled_streaming_equals_serial_for_oue(
            values in prop::collection::vec(0usize..8, 1..120),
            frame_len in 1usize..16,
            producers in 1usize..6,
            seed in 0u64..1 << 32,
        ) {
            let spec = labeled_spec(4, 2);
            let oue = Oue::new(8, eps()).unwrap();
            let reports: Vec<Report> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mut rng = ChaCha12Rng::seed_from_u64(i as u64);
                    Report::RefineLabeled(oue.perturb(&mut rng, v))
                })
                .collect();
            let reference = serial(&spec, &reports);
            let merged = streamed(&spec, &reports, frame_len, producers, seed);
            prop_assert_eq!(merged, reference);
        }

        /// Adversarial sealed-frame streams: replayed frames (every report
        /// a user-id duplicate), bit-flipped frames (checksum breaks), and
        /// frames re-sealed with a user id outside the population or a
        /// report the round refuses (checksum holds) are shed at the ingest
        /// boundary, so the final aggregate is bit-identical to the clean
        /// stream's — and the [`IngestStats`] counters account for exactly
        /// what was dropped.
        #[test]
        fn hostile_sealed_stream_equals_clean_stream(
            selections in prop::collection::vec(0usize..6, 1..200),
            frame_len in 1usize..20,
            attack_seed in 0u64..1 << 32,
        ) {
            let spec = spec(6);
            let entries: Vec<(usize, Report)> = selections
                .iter()
                .enumerate()
                .map(|(user, &s)| (user, Report::Expand(s)))
                .collect();
            let reports: Vec<Report> = entries.iter().map(|(_, r)| r.clone()).collect();
            let reference = serial(&spec, &reports);
            let population = entries.len();

            let pipeline = IngestPipeline::for_round(&spec, eps(), population).unwrap();
            let mut rng = ChaCha12Rng::seed_from_u64(attack_seed);
            let mut expected_duplicates = 0u64;
            let mut expected_rejects = 0u64;
            for chunk in entries.chunks(frame_len) {
                if rng.random_bool(0.5) {
                    // The frame re-sealed with one user id at or past the
                    // end of the population, ahead of the genuine frame: it
                    // is rejected whole and claims none of its users.
                    let mut forged = chunk.to_vec();
                    let victim = rng.random_range(0..forged.len());
                    forged[victim].0 = population + rng.random_range(0..=usize::from(u16::MAX));
                    pipeline.submit_sealed_frame(&wire::seal_frame(&forged), None).unwrap();
                    expected_rejects += 1;
                }
                if rng.random_bool(0.5) {
                    // The frame re-sealed with one report the round refuses
                    // — another round's kind, or a selection past the 6-row
                    // table — ahead of the genuine frame: it is rejected
                    // whole and claims none of its users.
                    let mut forged = chunk.to_vec();
                    let victim = rng.random_range(0..forged.len());
                    forged[victim].1 = if rng.random_bool(0.5) {
                        Report::Length(0)
                    } else {
                        Report::Expand(6)
                    };
                    pipeline.submit_sealed_frame(&wire::seal_frame(&forged), None).unwrap();
                    expected_rejects += 1;
                }
                let frame = wire::seal_frame(chunk);
                pipeline.submit_sealed_frame(&frame, None).unwrap();
                if rng.random_bool(0.5) {
                    // Replay the frame verbatim: every entry is a duplicate.
                    pipeline.submit_sealed_frame(&frame, None).unwrap();
                    expected_duplicates += chunk.len() as u64;
                }
                if rng.random_bool(0.5) {
                    // One bit flipped anywhere breaks the envelope.
                    let mut bad = frame.clone();
                    let pos = rng.random_range(0..bad.len());
                    bad[pos] ^= 1u8 << rng.random_range(0..8);
                    pipeline.submit_sealed_frame(&bad, None).unwrap();
                    expected_rejects += 1;
                }
            }
            let (merged, stats) = pipeline.finish();
            prop_assert_eq!(merged.unwrap(), reference);
            prop_assert_eq!(stats.accepted_reports as usize, reports.len());
            prop_assert_eq!(stats.duplicate_reports, expected_duplicates);
            prop_assert_eq!(stats.rejected_frames, expected_rejects);
        }
    }
}
