//! The server side of the protocol: a round-walking state machine.
//!
//! A [`Session`] owns everything the *server* knows — the trie, the
//! estimated length, the bigram edge sets, and the per-round aggregates —
//! and never touches user data. One extraction is a pull loop:
//!
//! ```text
//! let mut session = Session::privshape(config, n)?;
//! while let Some(spec) = session.next_round()? {       // server broadcasts
//!     let reports = /* each addressed client answers `spec` */;
//!     session.submit(&reports)?;                       // or submit_shard
//! }
//! let extraction = session.finish()?;
//! ```
//!
//! `next_round` finalizes whatever was submitted for the previous round
//! and emits the next broadcast; reports may arrive over multiple
//! [`Session::submit`] / [`Session::submit_shard`] calls in any chunking
//! and order (aggregation is associative — see [`ShardAggregator`]).
//!
//! The same state machine drives both mechanisms and both output modes:
//!
//! * **PrivShape** (Algorithm 2): length → sub-shape → per-level expansion
//!   over Pc chunks → two-level refinement over Pd.
//! * **Baseline** (Algorithm 1): length → per-level expansion over Pb
//!   chunks (threshold pruning), plus a reserved label round in the
//!   labeled variant.
//!
//! Degenerate rounds that could carry no information (a single-point
//! length range, `ℓ_S = 1` sub-shapes, an empty addressed group) are
//! skipped server-side with the documented fallbacks, never broadcast.

mod snapshot;

pub use snapshot::SNAPSHOT_VERSION;

use crate::chaos::FaultPlan;
use crate::config::{BaselineConfig, PrivShapeConfig};
use crate::error::{Error, Result};
use crate::ingest::{IngestPipeline, IngestStats};
use crate::params::ProtocolParams;
use crate::population::{chunk_len, split_population, Groups};
use crate::postprocess::select_distinct_top_k;
use crate::report::{ClassShapes, Diagnostics, ExtractedShape, Extraction, LabeledExtraction};
use crate::round::{Audience, GroupId, Report, RoundSpec};
use crate::shard::ShardAggregator;
use privshape_timeseries::{CandidateTable, SymbolSeq};
use privshape_trie::{BigramSet, NodeId, ShapeTrie};
use std::sync::Arc;
use std::time::Instant;

/// Mechanism-specific pruning plan.
#[derive(Debug, Clone)]
enum Plan {
    /// Top-`c·k` pruning, sub-shape constrained expansion, Pd refinement.
    PrivShape,
    /// Absolute-threshold pruning, unconstrained expansion.
    Baseline { prune_threshold: f64 },
}

/// The validated configuration the session was built from, retained so a
/// snapshot can serialize it and a restore can rebuild every static field
/// (params, groups, plan) through the same constructor path.
#[derive(Debug, Clone)]
enum Origin {
    PrivShape(PrivShapeConfig),
    Baseline(BaselineConfig),
}

/// Output mode, fixed at session construction.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Unlabeled,
    Labeled { n_classes: usize },
}

/// Protocol position.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Length,
    SubShape,
    Expand { level: usize },
    Refine,
    Complete,
}

/// The currently open round: its broadcast, its accumulating aggregate,
/// and the server-side bookkeeping needed to apply the result.
#[derive(Debug)]
struct OpenRound {
    spec: RoundSpec,
    agg: ShardAggregator,
    /// Trie node ids behind `spec`'s candidates (expansion rounds only).
    nodes: Vec<NodeId>,
    /// Size of the addressed group/chunk (degenerate-grid fallback).
    audience_len: usize,
}

/// Final per-mode output, stored once the last round is finalized.
#[derive(Debug)]
enum Output {
    Unlabeled(Vec<ExtractedShape>),
    Labeled(Vec<ClassShapes>),
}

/// Server-side session state machine for one extraction run.
#[derive(Debug)]
pub struct Session {
    origin: Origin,
    params: ProtocolParams,
    plan: Plan,
    mode: Mode,
    k: usize,
    /// Top-`c·k` bound for sub-shape sets and expansion pruning
    /// (PrivShape only).
    top_m: usize,
    alphabet: usize,
    groups: Groups,
    phase: Phase,
    /// Rounds opened so far (including the currently open one); gives
    /// non-table rounds a generation tag and snapshots their round count.
    round_index: u64,
    open: Option<OpenRound>,
    /// The aggregate state of every closed round, in order: the replay
    /// log a snapshot carries (see `snapshot.rs`).
    log: Vec<u8>,
    ell_s: usize,
    bigram_sets: Vec<BigramSet>,
    trie: Option<ShapeTrie>,
    candidates_per_level: Vec<usize>,
    output: Option<Output>,
    ingest: IngestStats,
    started: Instant,
}

impl Session {
    /// A PrivShape session for clustering-oriented (unlabeled) extraction
    /// over `n` enrolled users.
    pub fn privshape(config: PrivShapeConfig, n: usize) -> Result<Self> {
        Self::privshape_with_mode(config, n, Mode::Unlabeled)
    }

    /// A PrivShape session for classification-oriented (labeled)
    /// extraction with `n_classes` classes.
    pub fn privshape_labeled(config: PrivShapeConfig, n: usize, n_classes: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(Error::BadLabels("n_classes must be >= 1".into()));
        }
        Self::privshape_with_mode(config, n, Mode::Labeled { n_classes })
    }

    fn privshape_with_mode(config: PrivShapeConfig, n: usize, mode: Mode) -> Result<Self> {
        config.validate()?;
        if n == 0 {
            return Err(Error::NotEnoughUsers { needed: 1, got: 0 });
        }
        let groups = split_population(n, &config.split, config.seed)?;
        let alphabet = config.preprocessing.alphabet(&config.sax);
        Ok(Self {
            params: ProtocolParams::privshape(&config, n),
            plan: Plan::PrivShape,
            mode,
            k: config.k,
            top_m: config.c * config.k,
            alphabet,
            groups,
            phase: Phase::Length,
            round_index: 0,
            open: None,
            log: Vec::new(),
            origin: Origin::PrivShape(config),
            ell_s: 0,
            bigram_sets: Vec::new(),
            trie: None,
            candidates_per_level: Vec::new(),
            output: None,
            ingest: IngestStats::default(),
            started: Instant::now(),
        })
    }

    /// A baseline session for unlabeled extraction over `n` users.
    pub fn baseline(config: BaselineConfig, n: usize) -> Result<Self> {
        Self::baseline_with_mode(config, n, Mode::Unlabeled)
    }

    /// A baseline session for labeled extraction with `n_classes` classes
    /// (reserves one extra user round for the label reports).
    pub fn baseline_labeled(config: BaselineConfig, n: usize, n_classes: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(Error::BadLabels("n_classes must be >= 1".into()));
        }
        Self::baseline_with_mode(config, n, Mode::Labeled { n_classes })
    }

    fn baseline_with_mode(config: BaselineConfig, n: usize, mode: Mode) -> Result<Self> {
        config.validate()?;
        if n == 0 {
            return Err(Error::NotEnoughUsers { needed: 1, got: 0 });
        }
        let (pa, pb) = crate::client::baseline_split(n, config.pa, config.seed)?;
        let groups = Groups {
            pa,
            pb,
            pc: Vec::new(),
            pd: Vec::new(),
            unassigned: 0,
        };
        let alphabet = config.preprocessing.alphabet(&config.sax);
        Ok(Self {
            params: ProtocolParams::baseline(&config, n),
            plan: Plan::Baseline {
                prune_threshold: config.prune_threshold,
            },
            mode,
            k: config.k,
            top_m: 0,
            alphabet,
            groups,
            phase: Phase::Length,
            round_index: 0,
            open: None,
            log: Vec::new(),
            origin: Origin::Baseline(config),
            ell_s: 0,
            bigram_sets: Vec::new(),
            trie: None,
            candidates_per_level: Vec::new(),
            output: None,
            ingest: IngestStats::default(),
            started: Instant::now(),
        })
    }

    /// The public parameters clients need to enroll (the setup broadcast).
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The broadcast of the currently open round, if one is awaiting
    /// reports.
    pub fn current_round(&self) -> Option<&RoundSpec> {
        self.open.as_ref().map(|o| &o.spec)
    }

    /// The generation tag routed wire frames must carry to be absorbed
    /// into the currently open round (`None` when no round is open).
    ///
    /// For candidate-table rounds (expansion, refinement) the generation
    /// is the broadcast [`CandidateTable::fingerprint`], so a frame
    /// produced against a stale table can never slip into the wrong
    /// count vector. Length and sub-shape rounds have no table; they use
    /// a hash of the session's round cursor, which changes every round
    /// for the same reason.
    pub fn round_generation(&self) -> Option<u64> {
        let open = self.open.as_ref()?;
        Some(match &open.spec {
            RoundSpec::Expand { candidates, .. }
            | RoundSpec::RefineUnlabeled { candidates, .. }
            | RoundSpec::RefineLabeled { candidates, .. } => candidates.fingerprint(),
            RoundSpec::Length { .. } | RoundSpec::SubShape { .. } => {
                crate::wire::fnv1a64(&self.round_index.to_le_bytes())
            }
        })
    }

    /// An empty shard aggregate matching the currently open round, for
    /// ingestion nodes that aggregate reports away from the session.
    pub fn shard_aggregator(&self) -> Result<ShardAggregator> {
        let Some(open) = self.open.as_ref() else {
            return Err(Error::Protocol(
                "no open round to build a shard aggregator for".into(),
            ));
        };
        ShardAggregator::for_round(&open.spec, self.params.epsilon)
    }

    /// The sealed-frame ingest boundary of the currently open round:
    /// sealed frames go in (out of order, from any number of producers),
    /// and [`IngestPipeline::finish`] hands back the round's aggregate for
    /// [`Session::submit_shard`] — bit-identical to submitting the reports
    /// serially. Sealed frames may name the session's users `0..n` only.
    /// `chaos` installs a [`FaultPlan`] hook (see [`crate::chaos`]);
    /// production passes `None`.
    pub fn ingest_pipeline(&self, chaos: Option<Arc<FaultPlan>>) -> Result<IngestPipeline> {
        let Some(open) = self.open.as_ref() else {
            return Err(Error::Protocol(
                "no open round to build an ingest pipeline for".into(),
            ));
        };
        IngestPipeline::for_round(&open.spec, self.params.epsilon, self.params.n, chaos)
    }

    /// The client seed this session was configured with — the root of all
    /// per-user randomness. Supervisors derive deterministic retry jitter
    /// from it so a recovery schedule replays exactly under a fixed seed.
    pub fn seed(&self) -> u64 {
        match &self.origin {
            Origin::PrivShape(c) => c.seed,
            Origin::Baseline(c) => c.seed,
        }
    }

    /// Folds one round's sealed-frame counters ([`IngestPipeline::finish`])
    /// into the session, so the final [`crate::Diagnostics`] reports how
    /// much hostile input the run shed at the ingest boundary. Optional:
    /// sessions fed through [`Session::submit`] or
    /// [`Session::submit_shard`] alone have nothing to record.
    pub fn record_ingest_stats(&mut self, stats: &IngestStats) {
        self.ingest.absorb(stats);
    }

    /// The sealed-frame validation counters recorded so far.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Finalizes the previous round (if any) and emits the next broadcast;
    /// `None` once the protocol is complete (then call [`Session::finish`]
    /// or [`Session::finish_labeled`]).
    pub fn next_round(&mut self) -> Result<Option<RoundSpec>> {
        if let Some(open) = self.open.take() {
            open.agg.snapshot_state_into(&mut self.log);
            self.finalize(open)?;
        }
        loop {
            match self.phase {
                Phase::Length => {
                    let (lo, hi) = self.params.length_range;
                    if lo == hi || self.groups.pa.is_empty() {
                        // Nothing to estimate: fall back to the lower bound
                        // without spending anyone's report.
                        self.set_ell_s(lo)?;
                        continue;
                    }
                    let audience_len = self.groups.pa.len();
                    let oracle = self.params.length_oracle;
                    return self.open_round(
                        RoundSpec::Length {
                            audience: Audience::group(GroupId::Pa),
                            range: (lo, hi),
                            oracle,
                        },
                        Vec::new(),
                        audience_len,
                    );
                }
                Phase::SubShape => {
                    if self.ell_s <= 1 {
                        // A height-1 trie has no edges to constrain.
                        self.bigram_sets = Vec::new();
                        self.enter_expand()?;
                        continue;
                    }
                    if self.groups.pb.is_empty() {
                        // No estimation group degrades gracefully to fully
                        // permissive sets (no pruning information ⇒ no
                        // pruning).
                        self.bigram_sets = vec![BigramSet::full(self.alphabet); self.ell_s - 1];
                        self.enter_expand()?;
                        continue;
                    }
                    let audience_len = self.groups.pb.len();
                    let (ell_s, alphabet) = (self.ell_s, self.alphabet);
                    return self.open_round(
                        RoundSpec::SubShape {
                            audience: Audience::group(GroupId::Pb),
                            ell_s,
                            alphabet,
                        },
                        Vec::new(),
                        audience_len,
                    );
                }
                Phase::Expand { level } => {
                    let allowed = self.allowed_edges(level)?;
                    let trie = self.trie.as_mut().expect("trie initialized on entry");
                    trie.expand_next_level(allowed.as_ref());
                    // One packed table per level, emitted straight from the
                    // trie's flat path buffer and broadcast behind an Arc —
                    // every later clone of the spec is a refcount bump.
                    let (nodes, table) = trie.candidate_table(level)?;
                    if table.is_empty() {
                        // Dead-ended frontier: nothing to broadcast; prune
                        // bookkeeping still runs so diagnostics line up.
                        self.apply_expand_counts(level, &[], &[])?;
                        continue;
                    }
                    let (audience, audience_len) = self.expand_audience(level);
                    return self.open_round(
                        RoundSpec::Expand {
                            audience,
                            level,
                            candidates: Arc::new(table),
                        },
                        nodes,
                        audience_len,
                    );
                }
                Phase::Refine => {
                    if let Some(spec) = self.refine_round()? {
                        let audience_len = self.refine_audience_len(&spec);
                        return self.open_round(spec, Vec::new(), audience_len);
                    }
                    continue;
                }
                Phase::Complete => return Ok(None),
            }
        }
    }

    /// Ingests a batch of reports for the open round. May be called any
    /// number of times before the next [`Session::next_round`].
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] for a report the round refuses, and, before
    /// absorbing any of the batch, for a batch that would take the round
    /// past one report per user of the population.
    pub fn submit(&mut self, reports: &[Report]) -> Result<()> {
        let n = self.params.n;
        let Some(open) = self.open.as_mut() else {
            return Err(Error::Protocol(
                "submit with no open round (call next_round first)".into(),
            ));
        };
        check_room(&open.agg, reports.len() as u64, n)?;
        for report in reports {
            open.agg.absorb(report)?;
        }
        Ok(())
    }

    /// Merges a shard's partial aggregate into the open round. Chunking
    /// and merge order never change the outcome.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`], leaving the round unchanged, for a shard built
    /// for another round and for one that would take the round past one
    /// report per user of the population.
    pub fn submit_shard(&mut self, shard: &ShardAggregator) -> Result<()> {
        let n = self.params.n;
        let Some(open) = self.open.as_mut() else {
            return Err(Error::Protocol(
                "submit_shard with no open round (call next_round first)".into(),
            ));
        };
        check_room(&open.agg, shard.reports(), n)?;
        open.agg.merge(shard)
    }

    /// The unlabeled extraction, once [`Session::next_round`] has returned
    /// `None`.
    pub fn finish(self) -> Result<Extraction> {
        let diagnostics = self.diagnostics();
        match self.output {
            Some(Output::Unlabeled(shapes)) => Ok(Extraction {
                shapes,
                diagnostics,
            }),
            Some(Output::Labeled(_)) => Err(Error::Protocol(
                "labeled session: call finish_labeled".into(),
            )),
            None => Err(Error::Protocol(
                "session not complete: drive next_round until it returns None".into(),
            )),
        }
    }

    /// The labeled extraction, once [`Session::next_round`] has returned
    /// `None`.
    pub fn finish_labeled(self) -> Result<LabeledExtraction> {
        let diagnostics = self.diagnostics();
        match self.output {
            Some(Output::Labeled(classes)) => Ok(LabeledExtraction {
                classes,
                diagnostics,
            }),
            Some(Output::Unlabeled(_)) => {
                Err(Error::Protocol("unlabeled session: call finish".into()))
            }
            None => Err(Error::Protocol(
                "session not complete: drive next_round until it returns None".into(),
            )),
        }
    }

    // ---- internals ------------------------------------------------------

    fn open_round(
        &mut self,
        spec: RoundSpec,
        nodes: Vec<NodeId>,
        audience_len: usize,
    ) -> Result<Option<RoundSpec>> {
        let agg = ShardAggregator::for_round(&spec, self.params.epsilon)?;
        self.round_index += 1;
        self.open = Some(OpenRound {
            spec: spec.clone(),
            agg,
            nodes,
            audience_len,
        });
        Ok(Some(spec))
    }

    fn finalize(&mut self, open: OpenRound) -> Result<()> {
        match open.spec {
            RoundSpec::Length { range: (lo, _), .. } => {
                let ell_s = open.agg.finalize_length(lo)?;
                self.set_ell_s(ell_s)?;
            }
            RoundSpec::SubShape { alphabet, .. } => {
                self.bigram_sets = open
                    .agg
                    .finalize_subshape(self.top_m)?
                    .into_iter()
                    .map(|top| {
                        let mut set = BigramSet::new(alphabet);
                        for idx in top {
                            let (x, y) = BigramSet::domain_index_to_pair(alphabet, idx)
                                .expect("aggregator domain matches bigram domain");
                            set.insert(x, y);
                        }
                        set
                    })
                    .collect();
                self.enter_expand()?;
            }
            RoundSpec::Expand { level, .. } => {
                let counts = open.agg.finalize_selections()?;
                self.apply_expand_counts(level, &open.nodes, &counts)?;
            }
            RoundSpec::RefineUnlabeled { candidates, .. } => {
                let counts = open.agg.finalize_selections()?;
                // Cold path (once per session): unpack the table into owned
                // sequences for the k-medoids suppression step.
                let scored: Vec<(SymbolSeq, f64)> =
                    candidates.to_seqs().into_iter().zip(counts).collect();
                let shapes = select_distinct_top_k(&scored, self.k, self.params.distance)
                    .into_iter()
                    .map(|(shape, frequency)| ExtractedShape { shape, frequency })
                    .collect();
                self.output = Some(Output::Unlabeled(shapes));
                self.phase = Phase::Complete;
            }
            RoundSpec::RefineLabeled { candidates, .. } => {
                let freqs = open.agg.finalize_labeled(open.audience_len)?;
                let classes = self.labeled_classes(&candidates.to_seqs(), freqs);
                self.output = Some(Output::Labeled(classes));
                self.phase = Phase::Complete;
            }
        }
        Ok(())
    }

    /// Records ℓ_S and moves past the length phase.
    fn set_ell_s(&mut self, ell_s: usize) -> Result<()> {
        self.ell_s = ell_s;
        match self.plan {
            Plan::PrivShape => {
                self.phase = Phase::SubShape;
                Ok(())
            }
            Plan::Baseline { .. } => self.enter_expand(),
        }
    }

    fn enter_expand(&mut self) -> Result<()> {
        self.trie = Some(ShapeTrie::new(self.alphabet)?);
        self.phase = Phase::Expand { level: 1 };
        Ok(())
    }

    /// The bigram set constraining expansion into `level`, with the
    /// engineering fallback: if LDP noise produced a set disjoint from the
    /// live frontier, expanding with it would dead-end the trie, so fall
    /// back to unconstrained expansion for this level (DESIGN.md §2).
    fn allowed_edges(&self, level: usize) -> Result<Option<BigramSet>> {
        if !matches!(self.plan, Plan::PrivShape) || level == 1 {
            return Ok(None);
        }
        let set = &self.bigram_sets[level - 2];
        let trie = self.trie.as_ref().expect("trie initialized on entry");
        if frontier_has_allowed_edge(trie, level - 1, set)? {
            Ok(Some(set.clone()))
        } else {
            Ok(None)
        }
    }

    /// Applies one expansion round's counts: record frequencies, prune,
    /// log the surviving candidate count, and advance.
    fn apply_expand_counts(
        &mut self,
        level: usize,
        nodes: &[NodeId],
        counts: &[f64],
    ) -> Result<()> {
        let trie = self.trie.as_mut().expect("trie initialized on entry");
        for (&id, &count) in nodes.iter().zip(counts) {
            trie.set_freq(id, count);
        }
        match self.plan {
            Plan::PrivShape => trie.prune_top_m(level, self.top_m)?,
            Plan::Baseline { prune_threshold } => trie.prune_threshold(level, prune_threshold)?,
        };
        self.candidates_per_level
            .push(trie.live_nodes(level)?.len());
        self.phase = if level < self.ell_s {
            Phase::Expand { level: level + 1 }
        } else {
            Phase::Refine
        };
        Ok(())
    }

    /// The audience of the `level` expansion round: one chunk of the
    /// expansion group, one chunk per trie level (the baseline's labeled
    /// variant reserves one extra chunk for the label round).
    fn expand_audience(&self, level: usize) -> (Audience, usize) {
        match self.plan {
            Plan::PrivShape => {
                let len = chunk_len(self.groups.pc.len(), self.ell_s, level - 1);
                (Audience::chunk(GroupId::Pc, level - 1, self.ell_s), len)
            }
            Plan::Baseline { .. } => {
                let total = self.baseline_rounds();
                let len = chunk_len(self.groups.pb.len(), total, level - 1);
                (Audience::chunk(GroupId::Pb, level - 1, total), len)
            }
        }
    }

    /// Total baseline expansion rounds: one per level, plus the reserved
    /// label round in labeled mode.
    fn baseline_rounds(&self) -> usize {
        self.ell_s + usize::from(matches!(self.mode, Mode::Labeled { .. }))
    }

    /// Builds the refinement broadcast, or computes the final output
    /// directly when no round is needed (baseline unlabeled; empty
    /// candidate sets).
    fn refine_round(&mut self) -> Result<Option<RoundSpec>> {
        let trie = self.trie.as_ref().expect("trie initialized on entry");
        let leaves = trie.leaves_by_freq();
        match (&self.plan, self.mode) {
            (Plan::Baseline { .. }, Mode::Unlabeled) => {
                // Algorithm 1 stops at the trie: top-k most frequent leaves.
                let shapes = leaves
                    .into_iter()
                    .take(self.k)
                    .map(|(_, shape, frequency)| ExtractedShape { shape, frequency })
                    .collect();
                self.output = Some(Output::Unlabeled(shapes));
                self.phase = Phase::Complete;
                Ok(None)
            }
            (Plan::PrivShape, Mode::Unlabeled) => {
                let candidates: CandidateTable = leaves.into_iter().map(|(_, s, _)| s).collect();
                if candidates.is_empty() {
                    self.output = Some(Output::Unlabeled(Vec::new()));
                    self.phase = Phase::Complete;
                    return Ok(None);
                }
                Ok(Some(RoundSpec::RefineUnlabeled {
                    audience: Audience::group(GroupId::Pd),
                    candidates: Arc::new(candidates),
                }))
            }
            (Plan::PrivShape, Mode::Labeled { n_classes }) => {
                let candidates: CandidateTable = leaves.into_iter().map(|(_, s, _)| s).collect();
                if candidates.is_empty() {
                    self.output = Some(Output::Labeled(empty_classes(n_classes)));
                    self.phase = Phase::Complete;
                    return Ok(None);
                }
                Ok(Some(RoundSpec::RefineLabeled {
                    audience: Audience::group(GroupId::Pd),
                    candidates: Arc::new(candidates),
                    n_classes,
                }))
            }
            (Plan::Baseline { .. }, Mode::Labeled { n_classes }) => {
                let candidates: CandidateTable = leaves
                    .into_iter()
                    .take(self.k.max(n_classes))
                    .map(|(_, s, _)| s)
                    .collect();
                if candidates.is_empty() {
                    self.output = Some(Output::Labeled(empty_classes(n_classes)));
                    self.phase = Phase::Complete;
                    return Ok(None);
                }
                let total = self.baseline_rounds();
                Ok(Some(RoundSpec::RefineLabeled {
                    audience: Audience::chunk(GroupId::Pb, total - 1, total),
                    candidates: Arc::new(candidates),
                    n_classes,
                }))
            }
        }
    }

    /// The size of the group (or group chunk) a refinement round addresses.
    fn refine_audience_len(&self, spec: &RoundSpec) -> usize {
        let audience = spec.audience();
        let group_len = match audience.group {
            GroupId::Pa => self.groups.pa.len(),
            GroupId::Pb => self.groups.pb.len(),
            GroupId::Pc => self.groups.pc.len(),
            GroupId::Pd => self.groups.pd.len(),
        };
        match audience.chunk {
            None => group_len,
            Some(chunk) => chunk_len(group_len, chunk.of, chunk.index),
        }
    }

    /// Per-class shapes from the labeled refinement estimates: PrivShape
    /// suppresses similar shapes per class; the baseline sorts by
    /// frequency and truncates.
    fn labeled_classes(&self, candidates: &[SymbolSeq], freqs: Vec<Vec<f64>>) -> Vec<ClassShapes> {
        freqs
            .into_iter()
            .enumerate()
            .map(|(label, class_freqs)| {
                let shapes = match self.plan {
                    Plan::PrivShape => {
                        let scored: Vec<(SymbolSeq, f64)> =
                            candidates.iter().cloned().zip(class_freqs).collect();
                        select_distinct_top_k(&scored, self.k, self.params.distance)
                            .into_iter()
                            .map(|(shape, frequency)| ExtractedShape { shape, frequency })
                            .collect()
                    }
                    Plan::Baseline { .. } => {
                        let mut shapes: Vec<ExtractedShape> = candidates
                            .iter()
                            .zip(&class_freqs)
                            .map(|(shape, &frequency)| ExtractedShape {
                                shape: shape.clone(),
                                frequency,
                            })
                            .collect();
                        shapes.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
                        shapes.truncate(self.k);
                        shapes
                    }
                };
                ClassShapes { label, shapes }
            })
            .collect()
    }

    fn diagnostics(&self) -> Diagnostics {
        Diagnostics {
            ell_s: self.ell_s,
            candidates_per_level: self.candidates_per_level.clone(),
            trie_nodes: self.trie.as_ref().map_or(0, |t| t.node_count()),
            group_sizes: [
                self.groups.pa.len(),
                self.groups.pb.len(),
                self.groups.pc.len(),
                self.groups.pd.len(),
            ],
            unassigned_users: self.groups.unassigned,
            rejected_frames: self.ingest.rejected_frames,
            duplicate_reports: self.ingest.duplicate_reports,
            elapsed: self.started.elapsed(),
        }
    }
}

fn empty_classes(n_classes: usize) -> Vec<ClassShapes> {
    (0..n_classes)
        .map(|label| ClassShapes {
            label,
            shapes: Vec::new(),
        })
        .collect()
}

/// Whether any live node at `level` has at least one outgoing edge in
/// `set` — i.e. whether constrained expansion can make progress.
fn frontier_has_allowed_edge(trie: &ShapeTrie, level: usize, set: &BigramSet) -> Result<bool> {
    let alphabet = trie.alphabet();
    for id in trie.live_nodes(level)? {
        if let Some(&x) = trie.path_slice(id).last() {
            for y in 0..alphabet {
                let y = privshape_timeseries::Symbol::from_index(y as u8);
                if set.contains(x, y) {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

/// Each user reports at most once per round, so a round can hold at most
/// `n` reports: [`Session::restore`] refuses a logged round past that, and
/// a live round never gets there.
fn check_room(agg: &ShardAggregator, more: u64, n: usize) -> Result<()> {
    let held = agg.reports();
    if held.saturating_add(more) > n as u64 {
        return Err(Error::Protocol(format!(
            "{more} more reports would take a round holding {held} past its {n} users"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_ldp::Epsilon;
    use privshape_timeseries::SaxParams;

    fn config() -> PrivShapeConfig {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            2,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 6);
        cfg
    }

    #[test]
    fn empty_population_is_rejected() {
        assert!(matches!(
            Session::privshape(config(), 0),
            Err(Error::NotEnoughUsers { .. })
        ));
    }

    #[test]
    fn labeled_sessions_reject_zero_classes() {
        assert!(matches!(
            Session::privshape_labeled(config(), 10, 0),
            Err(Error::BadLabels(_))
        ));
    }

    #[test]
    fn submit_without_round_is_a_protocol_error() {
        let mut s = Session::privshape(config(), 100).unwrap();
        assert!(matches!(
            s.submit(&[Report::Length(0)]),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(s.shard_aggregator(), Err(Error::Protocol(_))));
    }

    #[test]
    fn finish_before_complete_is_a_protocol_error() {
        let mut s = Session::privshape(config(), 100).unwrap();
        let spec = s.next_round().unwrap().expect("length round");
        assert_eq!(spec.name(), "length");
        assert!(matches!(s.finish(), Err(Error::Protocol(_))));
    }

    #[test]
    fn first_round_is_length_to_pa() {
        let mut s = Session::privshape(config(), 500).unwrap();
        let spec = s.next_round().unwrap().unwrap();
        match spec {
            RoundSpec::Length {
                audience,
                range,
                oracle,
            } => {
                assert_eq!(audience.group, GroupId::Pa);
                assert_eq!(range, (1, 6));
                assert_eq!(oracle, crate::config::LengthOracle::Grr);
            }
            other => panic!("expected length round, got {other:?}"),
        }
        assert!(s.current_round().is_some());
    }

    /// Deterministic synthetic reports for `spec`, enough to exercise
    /// every count vector without simulating clients.
    fn synthetic_reports(spec: &RoundSpec) -> Vec<Report> {
        match spec {
            // Length reports concentrate on offset 2 so ℓ_S comes out > 1
            // and the sub-shape phase actually runs.
            RoundSpec::Length {
                range: (lo, hi), ..
            } => (0..40)
                .map(|i| {
                    let mode = 2.min(hi - lo);
                    Report::Length(if i % 4 == 0 { i % (hi - lo + 1) } else { mode })
                })
                .collect(),
            RoundSpec::SubShape {
                ell_s, alphabet, ..
            } => {
                let domain = alphabet * (alphabet - 1);
                (0..60)
                    .map(|i| Report::SubShape {
                        level: 1 + i % (ell_s - 1),
                        value: (i * 5) % domain,
                    })
                    .collect()
            }
            RoundSpec::Expand { candidates, .. } => (0..50)
                .map(|i| Report::Expand((i * 3) % candidates.len()))
                .collect(),
            RoundSpec::RefineUnlabeled { candidates, .. } => (0..50)
                .map(|i| Report::RefineSelect((i * 3) % candidates.len()))
                .collect(),
            RoundSpec::RefineLabeled {
                candidates,
                n_classes,
                ..
            } => {
                let cells = candidates.len() * n_classes;
                (0..50)
                    .map(|i| {
                        Report::RefineLabeled(
                            privshape_ldp::OueReport::from_set_bits(vec![i % cells]).unwrap(),
                        )
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn snapshot_mid_round_restores_bit_identically() {
        let mut original = Session::privshape(config(), 500).unwrap();
        let spec = original.next_round().unwrap().expect("length round");
        let reports = synthetic_reports(&spec);
        let (first, second) = reports.split_at(reports.len() / 2);
        original.submit(first).unwrap();

        // Kill mid-round: half the reports are already aggregated.
        let mut restored = Session::restore(&original.snapshot()).unwrap();
        assert_eq!(restored.current_round(), original.current_round());
        assert_eq!(restored.round_generation(), original.round_generation());

        // Both sessions keep running on identical inputs and stay in
        // lockstep through every remaining broadcast...
        original.submit(second).unwrap();
        restored.submit(second).unwrap();
        loop {
            let a = original.next_round().unwrap();
            let b = restored.next_round().unwrap();
            assert_eq!(a, b, "broadcasts diverged after restore");
            // Snapshotting at every round boundary must also round-trip.
            restored = Session::restore(&restored.snapshot()).unwrap();
            assert_eq!(restored.current_round(), original.current_round());
            let Some(spec) = a else { break };
            let reports = synthetic_reports(&spec);
            original.submit(&reports).unwrap();
            restored.submit(&reports).unwrap();
        }
        // ...down to the extracted shapes.
        let a = original.finish().unwrap();
        let b = restored.finish().unwrap();
        assert_eq!(a.shapes, b.shapes);
        assert_eq!(a.diagnostics.ell_s, b.diagnostics.ell_s);
        assert_eq!(
            a.diagnostics.candidates_per_level,
            b.diagnostics.candidates_per_level
        );
    }

    #[test]
    fn restore_rejects_tampered_snapshots() {
        let mut s = Session::privshape(config(), 300).unwrap();
        let spec = s.next_round().unwrap().unwrap();
        s.submit(&synthetic_reports(&spec)).unwrap();
        let snap = s.snapshot();
        assert!(Session::restore(&snap).is_ok());
        // Any single bit-flip is rejected (checksum or field validation).
        for i in 0..snap.len() {
            let mut forged = snap.clone();
            forged[i] ^= 0x01;
            assert!(Session::restore(&forged).is_err(), "bit-flip at {i}");
        }
        // Any truncation is rejected.
        for cut in 0..snap.len() {
            assert!(
                Session::restore(&snap[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
        // A future format version is a typed error.
        let mut future = snap.clone();
        future[1] = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            Session::restore(&future),
            Err(Error::UnsupportedVersion { .. })
        ));
    }

    /// The checksum is no MAC: bodies re-sealed under a valid checksum
    /// must still be refused, each with a typed error naming its fault.
    #[test]
    fn restore_rejects_resealed_forgeries() {
        // One genuine aggregate state per round: length, sub-shape,
        // expansion levels 1 to 3, refinement.
        let mut s = Session::privshape(config(), 500).unwrap();
        let mut states = Vec::new();
        while let Some(spec) = s.next_round().unwrap() {
            s.submit(&synthetic_reports(&spec)).unwrap();
            let mut state = Vec::new();
            s.open.as_ref().unwrap().agg.snapshot_state_into(&mut state);
            states.push(state);
        }
        let log: Vec<&[u8]> = states.iter().map(Vec::as_slice).collect();
        // The body ahead of its round count: origin, n, mode, ingest counters.
        let body = snapshot::unseal(&s.snapshot()).unwrap().to_vec();
        let mut count = Vec::new();
        crate::wire::put_varint(&mut count, log.len() as u64);
        let header = &body[..body.len() - 1 - states.concat().len() - count.len()];
        let forge = |states: &[&[u8]], complete: u8, trailing: &[u8]| {
            let mut body = header.to_vec();
            crate::wire::put_varint(&mut body, states.len() as u64);
            body.extend_from_slice(&states.concat());
            body.push(complete);
            body.extend_from_slice(trailing);
            let mut bytes = Vec::new();
            snapshot::seal(&mut bytes, &body);
            Session::restore(&bytes)
        };
        let refused = |forged: Result<Session>, fault: &str| match forged {
            Err(err) => assert!(err.to_string().contains(fault), "{fault}: got {err}"),
            Ok(_) => panic!("{fault}: forgery restored"),
        };
        // The genuine log restores complete, and with its third round open.
        assert!(forge(&log, 1, &[]).is_ok());
        assert!(forge(&log[..3], 0, &[]).is_ok());

        // (a) The sub-shape aggregate logged for the length round.
        refused(forge(&log[1..2], 0, &[]), "kind tag");
        // (b) The level-2 expansion aggregate logged for level 1.
        refused(forge(&[log[0], log[1], log[3]], 0, &[]), "generation");
        // (c) One more logged round than the protocol opens.
        refused(
            forge(&[&log[..], &log[..1]].concat(), 0, &[]),
            "more logged rounds",
        );
        // (d) The complete flag on a session with rounds left.
        refused(forge(&log[..3], 1, &[]), "complete flag");
        // (e) Trailing bytes after the complete flag.
        refused(forge(&log, 1, &[0]), "trailing bytes");
        // (f) A length round holding more reports than the 500 users; at
        // u64::MAX the next absorb would overflow its count.
        let length_state = |reports: u64| {
            let mut state = Vec::new();
            crate::wire::put_varint(&mut state, reports);
            state.push(1); // length round, GRR oracle
            crate::wire::put_varint(&mut state, 6); // lengths 1..=6
            crate::wire::put_varint(&mut state, reports); // all at length 1
            state.extend_from_slice(&[0; 5]);
            state
        };
        assert!(forge(&[&length_state(500)], 0, &[]).is_ok());
        for reports in [501, u64::MAX] {
            refused(
                forge(&[&length_state(reports)], 0, &[]),
                "reports from 500 users",
            );
        }
    }

    /// A round holds at most one report per user: a batch or a shard that
    /// would take it past the population is refused whole, so the live
    /// session never logs a round its own restore would refuse.
    #[test]
    fn rounds_refuse_more_reports_than_users() {
        let mut s = Session::privshape(config(), 100).unwrap();
        s.next_round().unwrap().expect("length round");
        let held = |s: &Session| s.open.as_ref().unwrap().agg.reports();
        let lengths = |n: usize| vec![Report::Length(0); n];
        assert!(matches!(s.submit(&lengths(150)), Err(Error::Protocol(_))));
        assert_eq!(held(&s), 0, "a refused batch absorbed reports");
        let mut shard = s.shard_aggregator().unwrap();
        for _ in 0..101 {
            shard.absorb(&Report::Length(0)).unwrap();
        }
        assert!(matches!(s.submit_shard(&shard), Err(Error::Protocol(_))));
        assert_eq!(held(&s), 0, "a refused shard was merged");
        // Up to the population is fine, and the snapshot restores.
        s.submit(&lengths(60)).unwrap();
        assert!(s.submit(&lengths(41)).is_err());
        s.submit(&lengths(40)).unwrap();
        assert_eq!(held(&s), 100);
        let restored = Session::restore(&s.snapshot()).unwrap();
        assert_eq!(held(&restored), 100);
    }

    /// Restored ingest counters are untrusted input too: a session
    /// restored with every counter at `u64::MAX` still folds another
    /// round's stats, saturating.
    #[test]
    fn restored_counters_at_max_still_fold_a_round() {
        let counters = |v: u64| IngestStats {
            accepted_reports: v,
            rejected_frames: v,
            duplicate_reports: v,
            queue_high_water: v,
            backpressure_stalls: v,
            worker_panics: v,
        };
        let mut s = Session::privshape(config(), 500).unwrap();
        s.next_round().unwrap();
        s.ingest = counters(u64::MAX);
        let mut restored = Session::restore(&s.snapshot()).unwrap();
        restored.record_ingest_stats(&counters(1));
        assert_eq!(restored.ingest_stats(), counters(u64::MAX));
    }

    #[test]
    fn unallocatable_populations_are_refused() {
        assert!(matches!(
            Session::privshape(config(), usize::MAX),
            Err(Error::Protocol(_))
        ));
        let cfg = BaselineConfig::new(
            Epsilon::new(4.0).unwrap(),
            2,
            SaxParams::new(10, 3).unwrap(),
        );
        assert!(matches!(
            Session::baseline(cfg, usize::MAX),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn round_generation_tracks_rounds() {
        let mut s = Session::privshape(config(), 500).unwrap();
        assert_eq!(s.round_generation(), None, "no open round yet");
        let spec = s.next_round().unwrap().unwrap();
        let length_gen = s.round_generation().expect("length round open");
        s.submit(&synthetic_reports(&spec)).unwrap();
        let spec = s.next_round().unwrap().unwrap();
        let subshape_gen = s.round_generation().expect("sub-shape round open");
        assert_ne!(length_gen, subshape_gen);
        s.submit(&synthetic_reports(&spec)).unwrap();
        let spec = s.next_round().unwrap().unwrap();
        let RoundSpec::Expand { candidates, .. } = &spec else {
            panic!("expected expansion round");
        };
        assert_eq!(
            s.round_generation(),
            Some(candidates.fingerprint()),
            "table rounds use the candidate-table fingerprint as generation"
        );
    }

    #[test]
    fn length_ranges_too_wide_to_count_are_refused() {
        for range in [(1, 1 << 40), (1, usize::MAX)] {
            let mut cfg = config();
            cfg.length_range = range;
            assert!(
                matches!(Session::privshape(cfg, 1000), Err(Error::InvalidConfig(_))),
                "{range:?}"
            );
            let mut cfg = BaselineConfig::new(
                Epsilon::new(4.0).unwrap(),
                2,
                SaxParams::new(10, 3).unwrap(),
            );
            cfg.length_range = range;
            assert!(
                matches!(Session::baseline(cfg, 1000), Err(Error::InvalidConfig(_))),
                "{range:?}"
            );
        }
    }

    #[test]
    fn degenerate_length_range_skips_straight_to_subshape() {
        let mut cfg = config();
        cfg.length_range = (3, 3);
        let mut s = Session::privshape(cfg, 500).unwrap();
        let spec = s.next_round().unwrap().unwrap();
        match spec {
            RoundSpec::SubShape { ell_s, .. } => assert_eq!(ell_s, 3),
            other => panic!("expected sub-shape round, got {other:?}"),
        }
    }
}
