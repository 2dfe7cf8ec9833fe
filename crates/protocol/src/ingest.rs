//! Streaming, sharded report ingestion for one round.
//!
//! A production aggregator does not see a round's reports as one slice:
//! they stream in from many untrusted devices, out of order, while earlier
//! ones are still being processed. [`IngestPipeline`] is that tier as a
//! library: a bounded MPMC queue of wire-encoded frames feeding a pool of
//! worker threads, each of which owns a **private** [`ShardAggregator`]
//! and absorbs frames through the allocation-free
//! [`ShardAggregator::absorb_wire`] fast path. Closing the round
//! ([`IngestPipeline::finish`]) drains the queue, joins the workers, and
//! reduces the per-worker shards with [`ShardAggregator::merge_tree`].
//!
//! ```text
//!  producers (submit_frame / submit_reports, any thread)
//!      │  bounded queue of wire frames (backpressure when full)
//!      ▼
//!  worker 0 ──absorb_wire──► ShardAggregator 0 ─┐
//!  worker 1 ──absorb_wire──► ShardAggregator 1 ─┤  merge_tree
//!      ⋮                            ⋮           ├────────────► one
//!  worker W ──absorb_wire──► ShardAggregator W ─┘              aggregate
//! ```
//!
//! **Exactness.** Every aggregate is a vector of integer counts and
//! [`ShardAggregator::merge`] is exact elementwise addition, so *which*
//! worker absorbs a frame, the order frames arrive in, and the shape of
//! the final merge tree are all unobservable: the result is bit-identical
//! to a single serial absorb of the same reports (pinned by the shuffled
//! ingest property test and the streaming session-equivalence golden).
//!
//! **Failure.** A malformed frame (bad bytes, wrong kind, out-of-domain
//! value) poisons the pipeline: the failing worker records its error and
//! closes the queue, pending producers unblock with a typed
//! [`Error::PipelinePoisoned`] **carrying the cause**, and
//! [`IngestPipeline::finish`] surfaces the first worker error instead of
//! a partial aggregate. Worker panics are caught at the thread boundary,
//! counted in [`IngestStats::worker_panics`], and poison the pipeline the
//! same way — a crashing worker is a recoverable round failure, not a
//! hung session.
//!
//! **Chaos.** [`IngestPipeline::for_round_chaos`] accepts an optional
//! [`FaultPlan`] consulted at each sequence point (sealed submit, worker
//! absorb) to fire deterministic injected faults; see [`crate::chaos`].

use crate::chaos::{AbsorbAction, FaultPlan, SubmitAction};
use crate::error::{Error, Result};
use crate::round::{Report, RoundSpec};
use crate::shard::ShardAggregator;
use crate::wire;
use privshape_ldp::Epsilon;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Counters from the sealed-frame validation tier of an
/// [`IngestPipeline`], surfaced per session in
/// [`crate::Diagnostics`].
///
/// Plain-frame ingestion ([`IngestPipeline::submit_frame`]) bypasses this
/// tier entirely and never moves the counters — validation is opt-in at
/// the boundary that actually faces untrusted transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Reports accepted and forwarded to the worker pool.
    pub accepted_reports: u64,
    /// Whole frames dropped at the boundary: bad magic, checksum mismatch
    /// (bit-flips in transit), a structurally malformed body, or a user id
    /// outside the session's population.
    pub rejected_frames: u64,
    /// Reports dropped because their frame-declared user id had already
    /// reported in this round (one-report-per-user-per-round invariant).
    pub duplicate_reports: u64,
    /// Deepest the frame queue ever got (frames, not reports). A
    /// high-water mark near the configured capacity means producers are
    /// outrunning the worker pool — the saturation signal an admission
    /// layer throttles on.
    pub queue_high_water: u64,
    /// Number of submits that found the queue full and had to block until
    /// a worker drained a slot. Nonzero stalls with a maxed high-water
    /// mark is sustained backpressure, not a transient burst.
    pub backpressure_stalls: u64,
    /// Worker threads that died by panic (caught at the thread boundary
    /// and converted into a poisoned pipeline). Every panic also poisons
    /// the round, so a nonzero count always pairs with a failed
    /// [`IngestPipeline::finish`] — the counter tells a supervisor *how
    /// often* a session crashes, which its failure budget is priced in.
    pub worker_panics: u64,
}

impl IngestStats {
    /// Accumulates another round's counters (sessions sum across rounds).
    /// Counts add; the queue high-water mark, being a maximum, absorbs by
    /// `max` — the session-level value is the worst depth any round saw.
    pub fn absorb(&mut self, other: &IngestStats) {
        self.accepted_reports += other.accepted_reports;
        self.rejected_frames += other.rejected_frames;
        self.duplicate_reports += other.duplicate_reports;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.backpressure_stalls += other.backpressure_stalls;
        self.worker_panics += other.worker_panics;
    }
}

/// The most threads an explicit worker or thread count resolves to: this
/// crate's ingest workers, and the fleet and simulation threads of the
/// drivers built on it. A larger count is clamped, so a mistyped setting
/// cannot start thousands of threads per round.
pub const MAX_THREADS: usize = 64;

/// Tuning knobs for an [`IngestPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Worker threads (each with a private shard aggregator). 0 ⇒ auto
    /// (available parallelism, capped at 8); larger counts are clamped to
    /// [`MAX_THREADS`].
    pub workers: usize,
    /// Maximum queued frames before [`IngestPipeline::submit_frame`]
    /// blocks (backpressure toward the producers).
    pub queue_capacity: usize,
}

impl Default for IngestConfig {
    /// Auto worker count and a queue deep enough that producers rarely
    /// stall but memory stays bounded (frames, not reports, are queued).
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
        }
    }
}

impl IngestConfig {
    /// The resolved worker count (`workers` clamped to [`MAX_THREADS`],
    /// or the auto default).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.workers.min(MAX_THREADS)
        }
    }
}

/// A bounded multi-producer multi-consumer queue of wire frames.
///
/// Hand-rolled on `Mutex` + `Condvar` because the workspace is offline
/// (the vendored `crossbeam` stand-in only provides scoped threads). The
/// queue has exactly the three states the pipeline needs: open (push and
/// pop block on full/empty), closed (pushes fail, pops drain then return
/// `None`), and poisoned (pushes fail *and* pops stop early — a worker hit
/// an error, so draining the backlog would be wasted work).
#[derive(Debug)]
struct FrameQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Debug)]
struct QueueState {
    frames: VecDeque<Vec<u8>>,
    capacity: usize,
    closed: bool,
    poisoned: bool,
    /// Rendering of the first worker error (or panic message) that
    /// poisoned the queue, surfaced verbatim in the submit-time
    /// [`Error::PipelinePoisoned`] so producers never have to call
    /// `finish` just to learn why their submits fail.
    cause: Option<String>,
    /// Worker threads that died by panic this round.
    worker_panics: u64,
    /// Deepest `frames` ever got (updated on every push).
    high_water: usize,
    /// Pushes that found the queue full and blocked.
    stalls: u64,
}

impl FrameQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                frames: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                closed: false,
                poisoned: false,
                cause: None,
                worker_panics: 0,
                high_water: 0,
                stalls: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while the queue is full; fails once it is closed/poisoned.
    fn push(&self, frame: Vec<u8>) -> Result<()> {
        let mut state = self.state.lock().expect("queue lock");
        if state.frames.len() >= state.capacity && !state.closed && !state.poisoned {
            // Counted once per blocked push, however long the wait.
            state.stalls += 1;
        }
        while state.frames.len() >= state.capacity && !state.closed && !state.poisoned {
            state = self.not_full.wait(state).expect("queue lock");
        }
        if state.poisoned {
            let cause = state
                .cause
                .clone()
                .unwrap_or_else(|| "unknown worker failure".into());
            return Err(Error::PipelinePoisoned { cause });
        }
        if state.closed {
            return Err(Error::Protocol(
                "ingest pipeline closed: submit after finish".into(),
            ));
        }
        state.frames.push_back(frame);
        state.high_water = state.high_water.max(state.frames.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// `(high_water, stalls, worker_panics)` so far — read under the same
    /// lock pushes take, so a snapshot never tears.
    fn depth_metrics(&self) -> (u64, u64, u64) {
        let state = self.state.lock().expect("queue lock");
        (state.high_water as u64, state.stalls, state.worker_panics)
    }

    /// Blocks while the queue is open and empty; `None` once it is drained
    /// and closed, or immediately after poisoning.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.poisoned {
                return None;
            }
            if let Some(frame) = state.frames.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Poisons the queue, recording `cause` if it is the first failure
    /// (first cause wins: it is what actually killed the round).
    fn poison(&self, cause: String) {
        let mut state = self.state.lock().expect("queue lock");
        if state.cause.is_none() {
            state.cause = Some(cause);
        }
        state.poisoned = true;
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Counts a worker panic and poisons the queue with the panic message
    /// as the cause.
    fn record_panic(&self, msg: &str) {
        let mut state = self.state.lock().expect("queue lock");
        state.worker_panics += 1;
        if state.cause.is_none() {
            state.cause = Some(format!("worker panicked: {msg}"));
        }
        state.poisoned = true;
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
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

/// A running multi-worker ingestion round.
///
/// Create one per open round ([`IngestPipeline::for_round`] or
/// [`crate::Session::ingest_pipeline`]), feed it frames from any number of
/// producer threads, then [`IngestPipeline::finish`] it into the single
/// merged [`ShardAggregator`] to hand to
/// [`crate::Session::submit_shard`].
///
/// # Example
///
/// ```
/// use privshape_protocol::{IngestConfig, IngestPipeline, Report, RoundSpec, Audience, GroupId};
/// use privshape_ldp::Epsilon;
/// use privshape_timeseries::CandidateTable;
/// use std::sync::Arc;
///
/// let spec = RoundSpec::Expand {
///     audience: Audience::chunk(GroupId::Pc, 0, 1),
///     level: 1,
///     candidates: Arc::new(CandidateTable::parse_rows(&["a", "b", "c"]).unwrap()),
/// };
/// let eps = Epsilon::new(2.0).unwrap();
/// let pipeline = IngestPipeline::for_round(
///     &spec,
///     eps,
///     100, // users in the session
///     IngestConfig { workers: 3, queue_capacity: 8 },
/// ).unwrap();
/// // Frames arrive in any order, from any producer.
/// for chunk in [[0usize, 1], [2, 2], [1, 0]] {
///     pipeline.submit_reports(&chunk.map(Report::Expand)).unwrap();
/// }
/// let merged = pipeline.finish().unwrap();
/// assert_eq!(merged.reports(), 6);
/// assert_eq!(merged.finalize_selections().unwrap(), vec![2.0, 2.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct IngestPipeline {
    queue: Arc<FrameQueue>,
    workers: Vec<JoinHandle<Result<ShardAggregator>>>,
    /// One bit per user of the population (`population / 8` bytes), set
    /// by the first accepted sealed report of that user this round and
    /// shared by every producer, so a duplicate is caught no matter which
    /// thread (or which frame) replays it. Only the sealed-frame path
    /// consults it.
    claimed: Vec<AtomicU64>,
    /// The session's population: sealed frames may name users
    /// `0..population` only.
    population: usize,
    accepted_reports: AtomicU64,
    rejected_frames: AtomicU64,
    duplicate_reports: AtomicU64,
    /// Chaos hook: consulted at each sealed submit. `None` in production;
    /// the workers hold their own clones for the absorb-side points.
    chaos: Option<Arc<FaultPlan>>,
}

impl IngestPipeline {
    /// Spawns the worker pool for one round of a session over
    /// `population` users. Each worker builds its shard aggregator from
    /// the spec alone (the same construction every shard everywhere
    /// performs), so a spec the aggregator rejects fails here, before any
    /// thread starts.
    ///
    /// Sealed frames may name users `0..population` only: a frame that
    /// declares any other id is rejected whole and counted in
    /// [`IngestStats::rejected_frames`]. The round's dedup state is one
    /// bit per user, `population / 8` bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] for a zero queue capacity or a population whose
    /// bitset cannot be allocated; the aggregator's error for a spec it
    /// rejects.
    pub fn for_round(
        spec: &RoundSpec,
        epsilon: Epsilon,
        population: usize,
        config: IngestConfig,
    ) -> Result<Self> {
        Self::for_round_chaos(spec, epsilon, population, config, None)
    }

    /// [`IngestPipeline::for_round`] with an optional [`FaultPlan`] hook:
    /// when present, the plan is consulted before every sealed-frame
    /// submission and every worker absorb, firing its scheduled faults
    /// deterministically (see [`crate::chaos`]). With `None` this is
    /// exactly `for_round`.
    pub fn for_round_chaos(
        spec: &RoundSpec,
        epsilon: Epsilon,
        population: usize,
        config: IngestConfig,
        chaos: Option<Arc<FaultPlan>>,
    ) -> Result<Self> {
        let n_workers = config.resolved_workers().max(1);
        if config.queue_capacity == 0 {
            return Err(Error::Protocol("ingest queue capacity must be >= 1".into()));
        }
        let words = population.div_ceil(64);
        let mut claimed = Vec::new();
        claimed.try_reserve_exact(words).map_err(|_| {
            Error::Protocol(format!(
                "no memory for the dedup bitset of a {population}-user population"
            ))
        })?;
        claimed.resize_with(words, || AtomicU64::new(0));
        let shards: Vec<ShardAggregator> = (0..n_workers)
            .map(|_| ShardAggregator::for_round(spec, epsilon))
            .collect::<Result<_>>()?;
        let queue = Arc::new(FrameQueue::new(config.queue_capacity));
        let workers = shards
            .into_iter()
            .map(|mut shard| {
                let queue = Arc::clone(&queue);
                let chaos = chaos.clone();
                std::thread::spawn(move || {
                    let drain = Arc::clone(&queue);
                    // The drain loop runs under catch_unwind so a panic —
                    // a code bug in absorb, or an injected chaos fault —
                    // is converted into a counted, typed poisoning
                    // instead of a silently dead thread.
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            while let Some(frame) = drain.pop() {
                                if let Some(plan) = chaos.as_deref() {
                                    match plan.next_absorb() {
                                        AbsorbAction::Panic(idx) => {
                                            panic!("chaos: injected worker panic (absorb #{idx})")
                                        }
                                        AbsorbAction::Stall(d) => std::thread::sleep(d),
                                        AbsorbAction::Absorb => {}
                                    }
                                }
                                if let Err(e) = shard.absorb_wire(&frame) {
                                    // First failure wins: stop the whole round.
                                    drain.poison(e.to_string());
                                    return Err(e);
                                }
                            }
                            Ok(shard)
                        }));
                    match outcome {
                        Ok(result) => result,
                        Err(payload) => {
                            let msg = panic_message(payload.as_ref());
                            queue.record_panic(&msg);
                            Err(Error::PipelinePoisoned {
                                cause: format!("worker panicked: {msg}"),
                            })
                        }
                    }
                })
            })
            .collect();
        Ok(Self {
            queue,
            workers,
            claimed,
            population,
            accepted_reports: AtomicU64::new(0),
            rejected_frames: AtomicU64::new(0),
            duplicate_reports: AtomicU64::new(0),
            chaos,
        })
    }

    /// Submits one wire frame (concatenated [`Report::encode_into`]
    /// encodings). Blocks when the queue is full; fails once the pipeline
    /// is poisoned by a worker error.
    pub fn submit_frame(&self, frame: Vec<u8>) -> Result<()> {
        self.queue.push(frame)
    }

    /// Encodes a batch of reports into one frame and submits it — the
    /// convenience path for in-process producers (tests, simulated
    /// fleets); networked producers ship bytes and use
    /// [`IngestPipeline::submit_frame`].
    pub fn submit_reports(&self, reports: &[Report]) -> Result<()> {
        let mut frame = Vec::new();
        for report in reports {
            report.encode_into(&mut frame);
        }
        self.submit_frame(frame)
    }

    /// Submits one **sealed** frame ([`crate::wire::seal_frame`]) through
    /// the untrusted-transport validation tier:
    ///
    /// 1. the envelope's length and FNV-1a checksum are verified — a frame
    ///    corrupted in transit (bit-flips, truncation) is dropped whole and
    ///    counted in [`IngestStats::rejected_frames`];
    /// 2. the body is walked once, checking every entry the way
    ///    [`Report::decode`] would and every user id against the
    ///    population — any malformed entry or out-of-population id
    ///    likewise rejects the whole frame *before* any user is claimed;
    /// 3. a second walk claims each user's bit in the round's bitset:
    ///    a report whose user already reported in this round (in this
    ///    frame or any other) is counted in
    ///    [`IngestStats::duplicate_reports`] and dropped;
    /// 4. the first-claim report bytes are forwarded as one ordinary plain
    ///    frame, so the worker pool and the final aggregate are
    ///    bit-identical to ingesting the clean stream directly.
    ///
    /// Both walks allocate nothing; the forwarded frame is the one
    /// allocation.
    ///
    /// Hostile input therefore never poisons the pipeline: a bad envelope
    /// returns `Ok(())` and only moves a counter. Errors surface only for
    /// pipeline-lifecycle reasons (poisoned by a worker, closed) — or, on
    /// a chaos build, as a typed [`Error::FaultInjected`] when the
    /// [`FaultPlan`] drops this frame in transit (the caller retries,
    /// modeling a retransmission).
    ///
    /// The chaos hook sits at this boundary and only here: drops become
    /// producer-visible typed errors and duplicates are delivered through
    /// the dedup tier, so no injected fault can silently change the
    /// aggregate — exactness stays provable under chaos.
    pub fn submit_sealed_frame(&self, frame: &[u8]) -> Result<()> {
        if let Some(plan) = self.chaos.as_deref() {
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
                    // would; the dedup tier sheds every report in it.
                    self.submit_sealed_inner(frame)?;
                }
            }
        }
        self.submit_sealed_inner(frame)
    }

    fn submit_sealed_inner(&self, frame: &[u8]) -> Result<()> {
        let Some((body, report_bytes)) = self.validate_sealed(frame) else {
            self.rejected_frames.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        let mut clean = Vec::with_capacity(report_bytes);
        let mut accepted = 0u64;
        let mut duplicates = 0u64;
        for (user, span) in wire::sealed_entries(body).map_while(Result::ok) {
            // Relaxed: a claim publishes nothing but itself (the forwarded
            // bytes travel through the queue's lock), and one atomic word
            // lets exactly one submit see each bit clear.
            let mask = 1u64 << (user % 64);
            if self.claimed[user / 64].fetch_or(mask, Ordering::Relaxed) & mask == 0 {
                clean.extend_from_slice(&body[span]);
                accepted += 1;
            } else {
                duplicates += 1;
            }
        }
        self.duplicate_reports
            .fetch_add(duplicates, Ordering::Relaxed);
        if clean.is_empty() {
            return Ok(());
        }
        self.accepted_reports.fetch_add(accepted, Ordering::Relaxed);
        self.submit_frame(clean)
    }

    /// The first pass over a sealed frame: checks the envelope, every
    /// entry's structure and every user id against the population, and
    /// returns the body with the number of report bytes it carries, or
    /// `None` to reject the frame. It claims no user, so a frame rejected
    /// halfway through never burns its users' one-report-per-round slots.
    fn validate_sealed<'a>(&self, frame: &'a [u8]) -> Option<(&'a [u8], usize)> {
        let body = wire::unseal_frame(frame).ok()?;
        let mut report_bytes = 0;
        for entry in wire::sealed_entries(body) {
            let (user, span) = entry.ok()?;
            if user >= self.population {
                return None;
            }
            report_bytes += span.len();
        }
        Some((body, report_bytes))
    }

    /// Snapshot of the validation counters and queue-depth metrics so far.
    /// The validation counters are all zeros when only the plain
    /// [`IngestPipeline::submit_frame`] path was used; the queue metrics
    /// cover every path (both submit flavors share the frame queue).
    pub fn stats(&self) -> IngestStats {
        let (queue_high_water, backpressure_stalls, worker_panics) = self.queue.depth_metrics();
        IngestStats {
            accepted_reports: self.accepted_reports.load(Ordering::Relaxed),
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            duplicate_reports: self.duplicate_reports.load(Ordering::Relaxed),
            queue_high_water,
            backpressure_stalls,
            worker_panics,
        }
    }

    /// [`IngestPipeline::finish`], also returning the final
    /// [`IngestStats`] so callers can fold them into session diagnostics
    /// ([`crate::Session::record_ingest_stats`]).
    pub fn finish_with_stats(self) -> Result<(ShardAggregator, IngestStats)> {
        let (result, stats) = self.finish_accounted();
        Ok((result?, stats))
    }

    /// [`IngestPipeline::finish`] that hands back the final counters in
    /// **both** arms — a failed round still reports how it failed
    /// (including panics recorded during the drain/join itself), so a
    /// supervisor can fold crash counts into session health metrics
    /// before recovering the round.
    pub fn finish_accounted(self) -> (Result<ShardAggregator>, IngestStats) {
        let queue = Arc::clone(&self.queue);
        let mut stats = self.stats();
        let result = self.finish();
        // Re-read the queue-side counters after the join: a worker that
        // panicked while draining the backlog is invisible to the
        // pre-finish snapshot.
        let (queue_high_water, backpressure_stalls, worker_panics) = queue.depth_metrics();
        stats.queue_high_water = queue_high_water;
        stats.backpressure_stalls = backpressure_stalls;
        stats.worker_panics = worker_panics;
        (result, stats)
    }

    /// Closes the round: no more frames are accepted, the queue drains,
    /// workers join, and the per-worker shards reduce through
    /// [`ShardAggregator::merge_tree`] into the round's single aggregate —
    /// bit-identical to a serial absorb of the same reports.
    ///
    /// # Errors
    ///
    /// The first worker error (malformed frame, wrong report kind,
    /// out-of-domain value), if any occurred.
    pub fn finish(mut self) -> Result<ShardAggregator> {
        self.queue.close();
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut first_err = None;
        for handle in std::mem::take(&mut self.workers) {
            match handle.join() {
                Ok(Ok(shard)) => shards.push(shard),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(payload) => {
                    // Unreachable in practice (workers catch their own
                    // unwinds), but if a panic ever escapes the catch, it
                    // still gets counted and typed instead of vanishing.
                    let msg = panic_message(payload.as_ref());
                    self.queue.record_panic(&msg);
                    first_err = first_err.or_else(|| {
                        Some(Error::PipelinePoisoned {
                            cause: format!("worker panicked: {msg}"),
                        })
                    });
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        ShardAggregator::merge_tree(shards)?
            .ok_or_else(|| Error::Protocol("ingest pipeline finished with zero workers".into()))
    }
}

impl Drop for IngestPipeline {
    /// Closes the queue so a pipeline dropped without
    /// [`IngestPipeline::finish`] (early return, panic unwind on the
    /// producer side) releases its workers instead of leaving them blocked
    /// on an open, empty queue forever. The workers drain whatever was
    /// already queued and exit; their join handles detach.
    fn drop(&mut self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{Audience, GroupId};
    use privshape_timeseries::CandidateTable;
    use std::sync::Arc;

    /// The population of every test round: each sealed user id is below it.
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

    #[test]
    fn explicit_worker_counts_are_clamped() {
        let resolved = |workers| {
            IngestConfig {
                workers,
                queue_capacity: 1,
            }
            .resolved_workers()
        };
        assert!((1..=8).contains(&resolved(0)));
        assert_eq!(resolved(3), 3);
        assert_eq!(resolved(MAX_THREADS), MAX_THREADS);
        for workers in [MAX_THREADS + 1, 50_000, usize::MAX] {
            assert_eq!(resolved(workers), MAX_THREADS, "{workers}");
        }
    }

    #[test]
    fn pipeline_matches_serial_absorb() {
        let spec = spec(4);
        let reports: Vec<Report> = (0..997).map(|i| Report::Expand(i * 7 % 4)).collect();
        let mut serial = ShardAggregator::for_round(&spec, eps()).unwrap();
        for r in &reports {
            serial.absorb(r).unwrap();
        }
        for workers in [1usize, 2, 5] {
            let pipeline = IngestPipeline::for_round(
                &spec,
                eps(),
                USERS,
                IngestConfig {
                    workers,
                    queue_capacity: 4,
                },
            )
            .unwrap();
            for chunk in reports.chunks(13) {
                pipeline.submit_reports(chunk).unwrap();
            }
            let merged = pipeline.finish().unwrap();
            assert_eq!(merged, serial, "workers={workers}");
        }
    }

    #[test]
    fn concurrent_producers_are_exact() {
        let spec = spec(3);
        let pipeline = Arc::new(
            IngestPipeline::for_round(
                &spec,
                eps(),
                USERS,
                IngestConfig {
                    workers: 3,
                    queue_capacity: 2,
                },
            )
            .unwrap(),
        );
        std::thread::scope(|s| {
            for p in 0..4 {
                let pipeline = Arc::clone(&pipeline);
                s.spawn(move || {
                    for i in 0..250 {
                        pipeline
                            .submit_reports(&[Report::Expand((p + i) % 3)])
                            .unwrap();
                    }
                });
            }
        });
        let merged = Arc::into_inner(pipeline).unwrap().finish().unwrap();
        assert_eq!(merged.reports(), 1000);
        let counts = merged.finalize_selections().unwrap();
        assert_eq!(counts.iter().sum::<f64>(), 1000.0);
    }

    #[test]
    fn worker_error_poisons_and_surfaces() {
        let spec = spec(2);
        let pipeline = IngestPipeline::for_round(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 2,
                queue_capacity: 4,
            },
        )
        .unwrap();
        pipeline.submit_reports(&[Report::Expand(0)]).unwrap();
        // Out-of-domain selection: the absorbing worker fails the round.
        pipeline.submit_reports(&[Report::Expand(9)]).unwrap();
        // Give the pipeline a moment to poison, then submits must fail
        // (poll rather than sleep a fixed amount — workers are fast).
        let mut poisoned = false;
        for _ in 0..500 {
            if pipeline.submit_reports(&[Report::Expand(1)]).is_err() {
                poisoned = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            poisoned,
            "pipeline never rejected submits after a bad frame"
        );
        assert!(matches!(pipeline.finish(), Err(Error::Protocol(_))));
    }

    #[test]
    fn poisoned_submit_carries_the_cause() {
        let spec = spec(2);
        let pipeline = IngestPipeline::for_round(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 1,
                queue_capacity: 4,
            },
        )
        .unwrap();
        // Out-of-domain selection: the absorbing worker fails the round.
        pipeline.submit_reports(&[Report::Expand(9)]).unwrap();
        let mut cause_seen = None;
        for _ in 0..500 {
            match pipeline.submit_reports(&[Report::Expand(1)]) {
                Err(Error::PipelinePoisoned { cause }) => {
                    cause_seen = Some(cause);
                    break;
                }
                Err(other) => panic!("expected PipelinePoisoned, got {other}"),
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        // The submit-time error names the actual worker failure — no
        // "call finish for the cause" indirection.
        let cause = cause_seen.expect("pipeline never poisoned");
        assert!(
            !cause.is_empty() && !cause.contains("call finish"),
            "submit-time cause should be the worker error, got: {cause}"
        );
    }

    #[test]
    fn injected_worker_panic_is_caught_counted_and_typed() {
        let spec = spec(2);
        let plan = Arc::new(FaultPlan::new([crate::chaos::FaultKind::WorkerPanic {
            at_absorb: 0,
        }]));
        let pipeline = IngestPipeline::for_round_chaos(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 2,
                queue_capacity: 4,
            },
            Some(Arc::clone(&plan)),
        )
        .unwrap();
        pipeline.submit_reports(&[Report::Expand(0)]).unwrap();
        // Poll until the panic poisons the pipeline, then the submit-time
        // error must carry the panic message as its cause.
        let mut poisoned = false;
        for _ in 0..500 {
            match pipeline.submit_reports(&[Report::Expand(1)]) {
                Err(Error::PipelinePoisoned { cause }) => {
                    assert!(cause.contains("panicked"), "cause: {cause}");
                    poisoned = true;
                    break;
                }
                Err(other) => panic!("expected PipelinePoisoned, got {other}"),
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(poisoned, "injected panic never poisoned the pipeline");
        assert_eq!(pipeline.stats().worker_panics, 1);
        assert_eq!(plan.fired_counts().worker_panics, 1);
        assert!(matches!(
            pipeline.finish(),
            Err(Error::PipelinePoisoned { .. })
        ));
    }

    #[test]
    fn injected_drop_and_duplicate_keep_the_aggregate_exact() {
        let spec = spec(3);
        let reports: Vec<(usize, Report)> = (0..60).map(|u| (u, Report::Expand(u % 3))).collect();
        let mut serial = ShardAggregator::for_round(&spec, eps()).unwrap();
        for (_, r) in &reports {
            serial.absorb(r).unwrap();
        }
        let plan = Arc::new(FaultPlan::new([
            crate::chaos::FaultKind::FrameDrop { at_submit: 1 },
            crate::chaos::FaultKind::FrameDuplicate { at_submit: 3 },
        ]));
        let pipeline = IngestPipeline::for_round_chaos(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 2,
                queue_capacity: 8,
            },
            Some(Arc::clone(&plan)),
        )
        .unwrap();
        for chunk in reports.chunks(10) {
            let frame = wire::seal_frame(chunk);
            match pipeline.submit_sealed_frame(&frame) {
                Ok(()) => {}
                // The dropped frame surfaces as a typed transient fault;
                // retransmit it exactly as a supervisor would.
                Err(Error::FaultInjected(_)) => pipeline.submit_sealed_frame(&frame).unwrap(),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let (merged, stats) = pipeline.finish_with_stats().unwrap();
        assert_eq!(
            merged, serial,
            "dropped+duplicated frames must aggregate like the clean stream"
        );
        // The duplicated frame's 10 reports were all shed by dedup.
        assert_eq!(stats.duplicate_reports, 10);
        let fired = plan.fired_counts();
        assert_eq!(fired.frame_drops, 1);
        assert_eq!(fired.frame_duplicates, 1);
    }

    #[test]
    fn dropping_without_finish_releases_workers() {
        let spec = spec(2);
        let pipeline = IngestPipeline::for_round(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 2,
                queue_capacity: 1,
            },
        )
        .unwrap();
        pipeline.submit_reports(&[Report::Expand(0)]).unwrap();
        let queue = Arc::clone(&pipeline.queue);
        // Early-exit path: no finish(). Drop must close the queue so the
        // workers drain and exit instead of blocking forever.
        drop(pipeline);
        for _ in 0..500 {
            if Arc::strong_count(&queue) == 1 {
                return; // both workers dropped their queue handles: exited
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("workers still hold the queue half a second after drop");
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(IngestPipeline::for_round(
            &spec(2),
            eps(),
            USERS,
            IngestConfig {
                workers: 1,
                queue_capacity: 0,
            },
        )
        .is_err());
    }

    #[test]
    fn empty_round_finishes_empty() {
        let pipeline =
            IngestPipeline::for_round(&spec(2), eps(), USERS, IngestConfig::default()).unwrap();
        let merged = pipeline.finish().unwrap();
        assert_eq!(merged.reports(), 0);
    }

    #[test]
    fn sealed_path_drops_corruption_and_duplicates() {
        let spec = spec(3);
        let reports: Vec<(usize, Report)> = (0..90).map(|u| (u, Report::Expand(u % 3))).collect();
        let mut serial = ShardAggregator::for_round(&spec, eps()).unwrap();
        for (_, r) in &reports {
            serial.absorb(r).unwrap();
        }

        let pipeline = IngestPipeline::for_round(
            &spec,
            eps(),
            USERS,
            IngestConfig {
                workers: 2,
                queue_capacity: 8,
            },
        )
        .unwrap();
        for chunk in reports.chunks(10) {
            // The chunk's first user reports again, with another value,
            // inside the same frame: only the first report counts.
            let first = chunk[0].0;
            let mut entries = chunk.to_vec();
            entries.push((first, Report::Expand((first + 1) % 3)));
            let frame = wire::seal_frame(&entries);
            pipeline.submit_sealed_frame(&frame).unwrap();
            // Replaying the exact frame: every entry is a duplicate.
            pipeline.submit_sealed_frame(&frame).unwrap();
            // A bit-flip in transit: the whole frame is rejected.
            let mut bad = frame.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            pipeline.submit_sealed_frame(&bad).unwrap();
        }
        let (merged, stats) = pipeline.finish_with_stats().unwrap();
        assert_eq!(
            merged, serial,
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
        let pipeline = IngestPipeline::for_round(
            &spec(3),
            eps(),
            USERS,
            IngestConfig {
                workers: 1,
                queue_capacity: 8,
            },
        )
        .unwrap();
        // One user id past the population rejects the whole frame.
        let outside = wire::seal_frame(&[(5, Report::Expand(0)), (USERS, Report::Expand(1))]);
        pipeline.submit_sealed_frame(&outside).unwrap();
        // So does a malformed last entry under a valid checksum.
        let mut body = Vec::new();
        wire::put_varint(&mut body, 6);
        Report::Expand(2).encode_into(&mut body);
        wire::put_varint(&mut body, 7);
        body.push(0x7f); // no such report tag
        pipeline.submit_sealed_frame(&seal_body(&body)).unwrap();
        assert_eq!(pipeline.stats().rejected_frames, 2);
        assert_eq!(pipeline.stats().accepted_reports, 0);
        // Users 5 and 6 still hold their slots, and the last id of the
        // population is inside it.
        let inside = wire::seal_frame(&[
            (5, Report::Expand(0)),
            (6, Report::Expand(2)),
            (USERS - 1, Report::Expand(1)),
        ]);
        pipeline.submit_sealed_frame(&inside).unwrap();
        let (merged, stats) = pipeline.finish_with_stats().unwrap();
        assert_eq!(stats.accepted_reports, 3);
        assert_eq!(stats.duplicate_reports, 0);
        assert_eq!(stats.rejected_frames, 2);
        assert_eq!(merged.finalize_selections().unwrap(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn unallocatable_populations_are_refused() {
        // 2^61 bytes of bitset: no allocator can serve it, so the
        // constructor returns an error instead of aborting.
        assert!(matches!(
            IngestPipeline::for_round(&spec(2), eps(), usize::MAX, IngestConfig::default()),
            Err(Error::Protocol(_))
        ));
        let empty = IngestPipeline::for_round(&spec(2), eps(), 0, IngestConfig::default()).unwrap();
        empty
            .submit_sealed_frame(&wire::seal_frame(&[(0, Report::Expand(0))]))
            .unwrap();
        assert_eq!(empty.stats().rejected_frames, 1);
    }

    #[test]
    fn plain_path_leaves_validation_counters_untouched() {
        let spec = spec(2);
        let pipeline =
            IngestPipeline::for_round(&spec, eps(), USERS, IngestConfig::default()).unwrap();
        pipeline
            .submit_reports(&[Report::Expand(0), Report::Expand(1)])
            .unwrap();
        // The plain path is the replay-tolerant one (streaming benches
        // resubmit identical frames on purpose): no validation, so the
        // validation counters never move. The queue-depth metrics do —
        // both submit flavors share the frame queue.
        let (merged, stats) = pipeline.finish_with_stats().unwrap();
        assert_eq!(merged.reports(), 2);
        assert_eq!(stats.accepted_reports, 0);
        assert_eq!(stats.rejected_frames, 0);
        assert_eq!(stats.duplicate_reports, 0);
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn queue_metrics_see_saturation() {
        let spec = spec(2);
        // One deliberately slow consumer behind a 1-deep queue: concurrent
        // producers must stall and the high-water mark must hit capacity.
        let pipeline = Arc::new(
            IngestPipeline::for_round(
                &spec,
                eps(),
                USERS,
                IngestConfig {
                    workers: 1,
                    queue_capacity: 1,
                },
            )
            .unwrap(),
        );
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pipeline = Arc::clone(&pipeline);
                s.spawn(move || {
                    for i in 0..50 {
                        pipeline.submit_reports(&[Report::Expand(i % 2)]).unwrap();
                    }
                });
            }
        });
        let (merged, stats) = Arc::into_inner(pipeline)
            .unwrap()
            .finish_with_stats()
            .unwrap();
        assert_eq!(merged.reports(), 100);
        assert_eq!(stats.queue_high_water, 1);
        assert!(
            stats.backpressure_stalls > 0,
            "100 pushes through a 1-deep queue never stalled"
        );

        // Session-level accumulation: counts add, the high-water mark maxes.
        let mut acc = IngestStats::default();
        acc.absorb(&stats);
        let later = IngestStats {
            backpressure_stalls: 3,
            queue_high_water: stats.queue_high_water.saturating_sub(1),
            ..Default::default()
        };
        acc.absorb(&later);
        assert_eq!(acc.queue_high_water, stats.queue_high_water);
        assert_eq!(acc.backpressure_stalls, stats.backpressure_stalls + 3);
    }
}
