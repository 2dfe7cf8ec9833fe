//! Mergeable per-round aggregation state.
//!
//! A round's reports need not arrive as one slice: a simulated fleet's
//! worker threads each absorb their share into a local
//! [`ShardAggregator`], and the session merges the partial sums.
//!
//! Every aggregate in the protocol is a vector of integer counts: GRR hits
//! per length value or per level × bigram, OUE bits per length value or
//! per candidate × class cell, OLH support per length value, and EM
//! selections per candidate. The piecewise length oracle keeps one exact
//! integer sum instead. A [`ShardAggregator`] is that vector beside the
//! static round it counts for, so every round kind merges, snapshots and
//! restores the same way, and [`ShardAggregator::merge`] is an elementwise
//! add: associative and commutative, so chunking and merge order can never
//! change the final extraction (enforced by the shard-merge property
//! test). The estimates are read off the counts by the mechanisms' own
//! estimators ([`Grr::estimate`], [`Oue::estimate`], [`Olh::estimate`],
//! [`PiecewiseMechanism::mean`]), the ones the `privshape-ldp` reference
//! aggregators use.

use crate::config::LengthOracle;
use crate::error::{Error, Result};
use crate::round::{labeled_grid_cells, length_round_domain, subshape_grr, Report, RoundSpec};
use crate::wire;
use privshape_ldp::{top_m, Epsilon, Grr, LdpError, Olh, OlhReport, Oue, PiecewiseMechanism};

/// Partial aggregation state for one round, mergeable across shards.
///
/// `PartialEq` compares the raw counts, so two ways of aggregating a
/// round (e.g. serial absorb vs sealed frames streamed into a session)
/// can be asserted bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAggregator {
    reports: u64,
    /// The budget the round's reports were perturbed under: shards built
    /// under different budgets count incomparable things, so
    /// [`ShardAggregator::merge`] refuses to mix them.
    epsilon: Epsilon,
    round: Round,
    /// Every count the round keeps, laid out as its [`Round`] variant
    /// says.
    counts: Vec<u64>,
    /// The piecewise length oracle's exact sum of quantized reports; 0 in
    /// every other round.
    sum: i128,
}

/// The static part of a round's aggregate, which
/// [`ShardAggregator::for_round`] builds from the spec alone: the round
/// kind, the oracle's mechanism, the piecewise oracle's domain and the
/// candidate-table generation. Every other domain is the length of the
/// count vector, so two shards count the same things exactly when their
/// rounds and their count vectors' lengths are equal.
#[derive(Debug, Clone, PartialEq)]
enum Round {
    /// One GRR count per length value.
    LengthGrr(Grr),
    /// One OUE bit count per length value.
    LengthOue(Oue),
    /// One OLH support count per length value.
    LengthOlh(Olh),
    /// No counts, only the sum, over `domain` length values.
    LengthPiecewise {
        pm: PiecewiseMechanism,
        domain: usize,
    },
    /// One GRR count per level × bigram, level by level.
    SubShape { grr: Grr, levels: usize },
    /// One EM selection count per candidate. `table_gen` is the broadcast
    /// candidate table's fingerprint: selection indices are only
    /// meaningful relative to one table generation, so shards of two
    /// generations never merge.
    Expand { level: usize, table_gen: u64 },
    /// One EM selection count per candidate of the unlabeled refinement.
    RefineSelect { table_gen: u64 },
    /// One OUE bit count per candidate × class cell (`candidate ·
    /// n_classes + class`), or none on a grid of fewer than two cells
    /// (`oue` is `None`), whose reports carry no information.
    RefineLabeled {
        oue: Option<Oue>,
        n_candidates: usize,
        n_classes: usize,
        table_gen: u64,
    },
}

impl Round {
    /// The round's snapshot kind byte and its name.
    fn kind(&self) -> (u8, &'static str) {
        match self {
            Round::LengthGrr(_) => (1, "length GRR"),
            Round::LengthOue(_) => (2, "length OUE"),
            Round::LengthOlh(_) => (3, "length OLH"),
            Round::LengthPiecewise { .. } => (4, "length piecewise"),
            Round::SubShape { .. } => (5, "sub-shape"),
            Round::Expand { .. } => (6, "expand"),
            Round::RefineSelect { .. } => (7, "refine-select"),
            Round::RefineLabeled { .. } => (8, "refine-labeled"),
        }
    }

    fn table_gen(&self) -> Option<u64> {
        match self {
            Round::Expand { table_gen, .. }
            | Round::RefineSelect { table_gen }
            | Round::RefineLabeled { table_gen, .. } => Some(*table_gen),
            _ => None,
        }
    }
}

fn check_select(sel: usize, candidates: usize) -> Result<()> {
    if sel >= candidates {
        return Err(Error::Protocol(format!(
            "selection report {sel} outside {candidates} candidates"
        )));
    }
    Ok(())
}

fn check_subshape(level: usize, value: usize, levels: usize, domain: usize) -> Result<()> {
    if level == 0 || level > levels {
        return Err(Error::Protocol(format!(
            "sub-shape report for level {level}, round has {levels}"
        )));
    }
    if value >= domain {
        return Err(Error::Protocol(format!(
            "sub-shape report {value} outside domain {domain}"
        )));
    }
    Ok(())
}

fn check_length(v: usize, domain: usize) -> Result<()> {
    if v >= domain {
        return Err(Error::Protocol(format!(
            "length report {v} outside domain {domain}"
        )));
    }
    Ok(())
}

/// Checks an OUE report (`what` names its kind) by its largest set bit:
/// bits are strictly ascending, so the last one bounds them all.
fn check_bits(what: &str, last: Option<usize>, domain: usize) -> Result<()> {
    if last.is_some_and(|b| b >= domain) {
        return Err(Error::Protocol(format!(
            "{what} report has bits outside domain {domain}"
        )));
    }
    Ok(())
}

fn check_olh(value: usize, olh: &Olh) -> Result<()> {
    if value >= olh.g() {
        return Err(Error::Protocol(format!(
            "length OLH report bucket {value} outside hash range {}",
            olh.g()
        )));
    }
    Ok(())
}

fn piecewise_err(e: LdpError) -> Error {
    Error::Protocol(format!("length piecewise report rejected: {e}"))
}

/// Counts an OUE report's set bits, which were checked against `counts`.
fn count_bits(counts: &mut [u64], bits: &[usize]) {
    for &bit in bits {
        counts[bit] += 1;
    }
}

/// Counts an OLH report as support for every length value it supports.
fn count_support(counts: &mut [u64], olh: &Olh, report: &OlhReport) {
    for (v, support) in counts.iter_mut().enumerate() {
        if olh.supports(report, v) {
            *support += 1;
        }
    }
}

/// One wire report as [`Round::decode_wire`] read it for a round: its
/// values, with an OUE bit list reduced to its last (largest) bit.
#[derive(Debug, Clone, Copy)]
enum WireReport {
    /// An expansion or unlabeled-refinement selection.
    Select(usize),
    /// A sub-shape report.
    SubShape { level: usize, value: usize },
    /// A GRR length report.
    Length(usize),
    /// An OLH length report.
    Olh(OlhReport),
    /// A quantized piecewise length report.
    Piecewise(i64),
    /// An OUE length or labeled-refinement report's last set bit.
    Bits(Option<usize>),
}

impl Round {
    /// Decodes the wire report ([`Report::encode_into`]) at `*pos` as a
    /// report of this round's kind, advancing `*pos` past it, and hands
    /// each OUE bit to `sink` as it is walked (none when the round keeps
    /// no grid). Checks the structure and the kind, not the domain.
    fn decode_wire(
        &self,
        buf: &[u8],
        pos: &mut usize,
        mut sink: impl FnMut(usize),
    ) -> Result<WireReport> {
        let tag = wire::read_tag(buf, pos)?;
        // Hot arms first: expand / refine-select / sub-shape reports are
        // the per-user-per-level bulk of every session, while each length
        // arm fires for at most one round.
        Ok(match (self, tag) {
            (Round::Expand { .. }, wire::TAG_EXPAND)
            | (Round::RefineSelect { .. }, wire::TAG_REFINE_SELECT) => {
                WireReport::Select(wire::read_usize(buf, pos)?)
            }
            (Round::SubShape { .. }, wire::TAG_SUB_SHAPE) => WireReport::SubShape {
                level: wire::read_usize(buf, pos)?,
                value: wire::read_usize(buf, pos)?,
            },
            (Round::RefineLabeled { oue, .. }, wire::TAG_REFINE_LABELED) => {
                let kept = oue.is_some();
                WireReport::Bits(wire::walk_oue_bits(buf, pos, |bit| {
                    if kept {
                        sink(bit);
                    }
                })?)
            }
            (Round::LengthGrr(_), wire::TAG_LENGTH) => {
                WireReport::Length(wire::read_usize(buf, pos)?)
            }
            (Round::LengthOue(_), wire::TAG_LENGTH_OUE) => {
                WireReport::Bits(wire::walk_oue_bits(buf, pos, sink)?)
            }
            (Round::LengthOlh(_), wire::TAG_LENGTH_OLH) => WireReport::Olh(OlhReport {
                seed: wire::read_varint(buf, pos)?,
                value: wire::read_usize(buf, pos)?,
            }),
            (Round::LengthPiecewise { .. }, wire::TAG_LENGTH_PIECEWISE) => {
                WireReport::Piecewise(wire::unzigzag(wire::read_varint(buf, pos)?))
            }
            (round, tag) => {
                return Err(Error::Protocol(format!(
                    "report tag 0x{tag:02x} does not match round aggregate {}",
                    round.kind().1,
                )));
            }
        })
    }
}

impl ShardAggregator {
    /// Creates the empty aggregation state matching a round broadcast.
    /// Every shard answering the same round builds an identical (hence
    /// mergeable) state from the spec alone.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] for a spec no session broadcasts (a length or
    /// sub-shape domain a device refuses too, a grid whose cell count
    /// overflows) and for counts that cannot be allocated.
    pub(crate) fn for_round(spec: &RoundSpec, epsilon: Epsilon) -> Result<Self> {
        let too_large = |what: &str| Error::Protocol(format!("{what} round is too large to count"));
        let (round, cells) = match spec {
            RoundSpec::Length { range, oracle, .. } => {
                let domain = length_round_domain(*range)?;
                match oracle {
                    LengthOracle::Grr => (Round::LengthGrr(Grr::new(domain, epsilon)?), domain),
                    LengthOracle::Oue => (Round::LengthOue(Oue::new(domain, epsilon)?), domain),
                    LengthOracle::Olh => (Round::LengthOlh(Olh::new(epsilon)), domain),
                    LengthOracle::Piecewise => {
                        let pm = PiecewiseMechanism::new(epsilon);
                        (Round::LengthPiecewise { pm, domain }, 0)
                    }
                }
            }
            RoundSpec::SubShape {
                ell_s, alphabet, ..
            } => {
                let grr = subshape_grr(*ell_s, *alphabet, epsilon)?;
                let levels = ell_s - 1;
                let cells = levels
                    .checked_mul(grr.domain())
                    .ok_or_else(|| too_large("sub-shape"))?;
                (Round::SubShape { grr, levels }, cells)
            }
            RoundSpec::Expand {
                level, candidates, ..
            } => (
                Round::Expand {
                    level: *level,
                    table_gen: candidates.fingerprint(),
                },
                candidates.len(),
            ),
            RoundSpec::RefineUnlabeled { candidates, .. } => (
                Round::RefineSelect {
                    table_gen: candidates.fingerprint(),
                },
                candidates.len(),
            ),
            RoundSpec::RefineLabeled {
                candidates,
                n_classes,
                ..
            } => {
                let cells = labeled_grid_cells(candidates.len(), *n_classes)?;
                let oue = (cells >= 2).then(|| Oue::new(cells, epsilon)).transpose()?;
                let kept = oue.as_ref().map_or(0, Oue::domain);
                let round = Round::RefineLabeled {
                    oue,
                    n_candidates: candidates.len(),
                    n_classes: *n_classes,
                    table_gen: candidates.fingerprint(),
                };
                (round, kept)
            }
        };
        let mut counts = Vec::new();
        counts
            .try_reserve_exact(cells)
            .map_err(|_| too_large(round.kind().1))?;
        counts.resize(cells, 0);
        Ok(Self {
            reports: 0,
            epsilon,
            round,
            counts,
            sum: 0,
        })
    }

    /// Number of reports absorbed (including merged-in shards).
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Absorbs one report, validating that its kind and domain match the
    /// round this aggregator was built for.
    ///
    /// The expand / refine-select arm comes first: those reports are the
    /// per-user-per-level bulk of every session.
    pub fn absorb(&mut self, report: &Report) -> Result<()> {
        let counts = &mut self.counts;
        match (&self.round, report) {
            (Round::Expand { .. }, Report::Expand(sel))
            | (Round::RefineSelect { .. }, Report::RefineSelect(sel)) => {
                check_select(*sel, counts.len())?;
                counts[*sel] += 1;
            }
            (Round::SubShape { grr, levels }, Report::SubShape { level, value }) => {
                check_subshape(*level, *value, *levels, grr.domain())?;
                counts[(level - 1) * grr.domain() + value] += 1;
            }
            (Round::RefineLabeled { oue: None, .. }, Report::RefineLabeled(_)) => {}
            (Round::RefineLabeled { .. }, Report::RefineLabeled(r)) => {
                check_bits("labeled", r.set_bits().last().copied(), counts.len())?;
                count_bits(counts, r.set_bits());
            }
            (Round::LengthGrr(_), Report::Length(v)) => {
                check_length(*v, counts.len())?;
                counts[*v] += 1;
            }
            (Round::LengthOue(_), Report::LengthOue(r)) => {
                check_bits("length OUE", r.set_bits().last().copied(), counts.len())?;
                count_bits(counts, r.set_bits());
            }
            (Round::LengthOlh(olh), Report::LengthOlh(r)) => {
                check_olh(r.value, olh)?;
                count_support(counts, olh, r);
            }
            (Round::LengthPiecewise { pm, .. }, Report::LengthPiecewise(q)) => {
                pm.check(*q).map_err(piecewise_err)?;
                self.sum += i128::from(*q);
            }
            (round, report) => {
                return Err(Error::Protocol(format!(
                    "report kind '{}' does not match round aggregate {}",
                    report.kind(),
                    round.kind().1,
                )));
            }
        }
        self.reports += 1;
        Ok(())
    }

    /// Decodes the wire report ([`Report::encode_into`]) at `*pos` and
    /// checks it against this round — its kind, its structure and its
    /// domain, the checks [`ShardAggregator::absorb`] runs — advancing
    /// `*pos` past it. Allocates nothing unless it fails.
    ///
    /// The ingest boundary runs this over a whole sealed frame before it
    /// claims any user, so a report the round would refuse rejects its
    /// frame instead of failing the round.
    pub(crate) fn check_wire(&self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let cells = self.counts.len();
        match (&self.round, self.round.decode_wire(buf, pos, |_| {})?) {
            (_, WireReport::Select(sel)) => check_select(sel, cells),
            (Round::SubShape { grr, levels }, WireReport::SubShape { level, value }) => {
                check_subshape(level, value, *levels, grr.domain())
            }
            (Round::RefineLabeled { oue: None, .. }, WireReport::Bits(_)) => Ok(()),
            (Round::RefineLabeled { .. }, WireReport::Bits(last)) => {
                check_bits("labeled", last, cells)
            }
            (_, WireReport::Bits(last)) => check_bits("length OUE", last, cells),
            (_, WireReport::Length(v)) => check_length(v, cells),
            (Round::LengthOlh(olh), WireReport::Olh(r)) => check_olh(r.value, olh),
            (Round::LengthPiecewise { pm, .. }, WireReport::Piecewise(q)) => {
                pm.check(q).map_err(piecewise_err)
            }
            (round, _) => Err(Error::Protocol(format!(
                "wire report decoded as another kind than this {} round",
                round.kind().1
            ))),
        }
    }

    /// Skips the wire report at `*pos`, decoding it as
    /// [`ShardAggregator::check_wire`] does but checking no domain.
    pub(crate) fn skip_wire(&self, buf: &[u8], pos: &mut usize) -> Result<()> {
        self.round.decode_wire(buf, pos, |_| {}).map(drop)
    }

    /// Decodes and counts the wire report at `*pos`, which
    /// [`ShardAggregator::check_wire`] accepted for this round, in one
    /// walk: an OUE bit list is counted bit by bit as it is decoded.
    /// Checks no domain, so a report checked only against another round of
    /// the same kind is refused only if it is malformed.
    pub(crate) fn add_wire(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let Self {
            round, counts, sum, ..
        } = self;
        match (
            &*round,
            round.decode_wire(buf, pos, |bit| counts[bit] += 1)?,
        ) {
            (_, WireReport::Select(sel) | WireReport::Length(sel)) => counts[sel] += 1,
            (Round::SubShape { grr, .. }, WireReport::SubShape { level, value }) => {
                counts[(level - 1) * grr.domain() + value] += 1;
            }
            (_, WireReport::Bits(_)) => {}
            (Round::LengthOlh(olh), WireReport::Olh(r)) => count_support(counts, olh, &r),
            (_, WireReport::Piecewise(q)) => *sum += i128::from(q),
            (round, _) => {
                return Err(Error::Protocol(format!(
                    "wire report decoded as another kind than this {} round",
                    round.kind().1
                )));
            }
        }
        self.reports += 1;
        Ok(())
    }

    /// Folds another shard's partial sums into this one. Counts add
    /// elementwise, so `a.merge(b)` equals absorbing b's reports into `a`
    /// in any order.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`], leaving `self` unchanged, when `other` was
    /// built for another round (kind, domain, oracle or candidate-table
    /// generation) or under another ε.
    pub fn merge(&mut self, other: &ShardAggregator) -> Result<()> {
        if self.epsilon != other.epsilon {
            return Err(Error::Protocol(format!(
                "cannot merge a shard built under {} into one built under {}",
                other.epsilon, self.epsilon
            )));
        }
        if self.round != other.round || self.counts.len() != other.counts.len() {
            return Err(Error::Protocol(format!(
                "cannot merge shard aggregate {} into {} (different rounds, domains, \
                 or candidate-table generations)",
                other.round.kind().1,
                self.round.kind().1,
            )));
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.reports += other.reports;
        Ok(())
    }

    /// The length estimate once all shards are in: `ℓ_S = lo + argmax`
    /// of the oracle's frequency estimates, except under the piecewise
    /// oracle, where the mean estimate is mapped back from `[−1, 1]` onto
    /// the length range, rounded, and clamped.
    pub(crate) fn finalize_length(&self, lo: usize) -> Result<usize> {
        let (counts, total) = (&self.counts, self.reports);
        let estimates = match &self.round {
            Round::LengthGrr(grr) => estimates(counts, total, |c, t| grr.estimate(c, t)),
            Round::LengthOue(oue) => estimates(counts, total, |c, t| oue.estimate(c, t)),
            Round::LengthOlh(olh) => estimates(counts, total, |c, t| olh.estimate(c, t)),
            Round::LengthPiecewise { pm, domain } => {
                // mean ∈ [−1, 1] → offset ∈ [0, domain − 1]; no reports
                // estimates the bottom of the range, matching the
                // all-zero-counts argmax of the other oracles.
                let mean = pm.mean(self.sum, total).unwrap_or(-1.0);
                let offset = (mean + 1.0) / 2.0 * (*domain as f64 - 1.0);
                return Ok(lo + (offset.round().max(0.0) as usize).min(domain - 1));
            }
            round => return Err(wrong_finalize("length", round)),
        };
        Ok(lo + top_m(&estimates, 1).first().copied().unwrap_or(0))
    }

    /// The indices of each level's `m` most frequent bigrams in a
    /// sub-shape round, each level's GRR estimates read against its own
    /// report count.
    pub(crate) fn finalize_subshape(&self, m: usize) -> Result<Vec<Vec<usize>>> {
        let Round::SubShape { grr, .. } = &self.round else {
            return Err(wrong_finalize("sub-shape", &self.round));
        };
        Ok(self
            .counts
            .chunks_exact(grr.domain())
            .map(|level| {
                let total = level.iter().sum();
                top_m(&estimates(level, total, |c, t| grr.estimate(c, t)), m)
            })
            .collect())
    }

    /// The per-candidate selection counts of an expand / unlabeled-refine
    /// round, as the f64 counts the trie and post-processing consume.
    pub(crate) fn finalize_selections(&self) -> Result<Vec<f64>> {
        match &self.round {
            Round::Expand { .. } | Round::RefineSelect { .. } => {
                Ok(self.counts.iter().map(|&c| c as f64).collect())
            }
            round => Err(wrong_finalize("selection", round)),
        }
    }

    /// The per-class per-candidate unbiased estimates of a labeled
    /// refinement round. `group_len` is the size of the addressed group,
    /// used verbatim for the degenerate single-cell grid (whose reports
    /// carry no information).
    pub(crate) fn finalize_labeled(&self, group_len: usize) -> Result<Vec<Vec<f64>>> {
        let Round::RefineLabeled {
            oue,
            n_candidates,
            n_classes,
            ..
        } = &self.round
        else {
            return Err(wrong_finalize("labeled", &self.round));
        };
        let mut freqs = vec![vec![0.0; *n_candidates]; *n_classes];
        if let Some(oue) = oue {
            let cells = estimates(&self.counts, self.reports, |c, t| oue.estimate(c, t));
            for (class, class_freqs) in freqs.iter_mut().enumerate() {
                for (cand, slot) in class_freqs.iter_mut().enumerate() {
                    *slot = cells[cand * n_classes + class];
                }
            }
        } else if *n_candidates == 1 && *n_classes == 1 {
            // One candidate, one class: everyone matches it.
            freqs[0][0] = group_len as f64;
        }
        Ok(freqs)
    }
}

/// The unbiased estimates of `counts`, a run of a round's counts drawn
/// from `total` reports, by one frequency oracle's `estimate`.
fn estimates(counts: &[u64], total: u64, estimate: impl Fn(u64, u64) -> f64) -> Vec<f64> {
    counts.iter().map(|&c| estimate(c, total)).collect()
}

fn snapshot_err(msg: impl Into<String>) -> Error {
    Error::Protocol(format!("invalid aggregator snapshot: {}", msg.into()))
}

fn wrong_finalize(wanted: &str, got: &Round) -> Error {
    Error::Protocol(format!(
        "finalizing {wanted} round but aggregate holds {} state",
        got.kind().1
    ))
}

/// Snapshot codec for the aggregator's dynamic state, one layout for
/// every round kind:
///
/// ```text
/// varint(reports) · u8(kind) · [varint(table generation)]
///     · varint(len) · varint(count)* · [i128_le(sum)]
/// ```
///
/// The generation is present in the candidate-table rounds, the sum in
/// the piecewise length round. The *static* round (domain, mechanism
/// constants) is never serialized: the restoring side rebuilds it from
/// the round spec via [`ShardAggregator::for_round`], and these methods
/// only move the counts, validating them on the way in. Raw integer
/// counts round-trip exactly, so a restored aggregator is bit-identical
/// to the one dumped.
impl ShardAggregator {
    /// Appends the dynamic state to `buf`.
    pub(crate) fn snapshot_state_into(&self, buf: &mut Vec<u8>) {
        wire::put_varint(buf, self.reports);
        buf.push(self.round.kind().0);
        if let Some(table_gen) = self.round.table_gen() {
            wire::put_varint(buf, table_gen);
        }
        wire::put_varint(buf, self.counts.len() as u64);
        for &c in &self.counts {
            wire::put_varint(buf, c);
        }
        if let Round::LengthPiecewise { .. } = self.round {
            buf.extend_from_slice(&self.sum.to_le_bytes());
        }
    }

    /// Loads a snapshot produced by
    /// [`ShardAggregator::snapshot_state_into`] into this freshly built
    /// (`for_round`) aggregator, advancing `*pos` past it.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] on truncation, when the snapshot's kind, count
    /// vector length or candidate-table generation disagrees with the
    /// round this aggregator was built for, or when its counts could not
    /// have come from its declared reports:
    ///
    /// * GRR length, sub-shape and selection rounds count each report
    ///   once, so their counts sum to the reports;
    /// * OUE length, OLH length and labeled-grid rounds count each report
    ///   at most once per cell, so no count exceeds the reports;
    /// * in-range piecewise reports cannot sum past reports × the
    ///   mechanism's quantized bound.
    ///
    /// On error the aggregator is left unusable for the round (partially
    /// restored) — callers discard it.
    pub(crate) fn restore_state(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let reports = wire::read_varint(buf, pos)?;
        let (tag, kind) = self.round.kind();
        let got = wire::read_tag(buf, pos)?;
        if got != tag {
            return Err(snapshot_err(format!(
                "snapshot kind tag {got} does not match round aggregate {kind}"
            )));
        }
        if let Some(table_gen) = self.round.table_gen() {
            let got = wire::read_varint(buf, pos)?;
            if got != table_gen {
                return Err(snapshot_err(format!(
                    "candidate-table generation {got:#x} does not match the rebuilt \
                     round's {table_gen:#x}"
                )));
            }
        }
        let len = wire::read_usize(buf, pos)?;
        if len != self.counts.len() {
            return Err(snapshot_err(format!(
                "{len} counts, the {kind} round has {}",
                self.counts.len()
            )));
        }
        for c in &mut self.counts {
            *c = wire::read_varint(buf, pos)?;
        }
        if let Round::LengthPiecewise { .. } = self.round {
            let Some((sum, _)) = buf.get(*pos..).and_then(<[u8]>::split_first_chunk) else {
                return Err(snapshot_err("truncated piecewise sum"));
            };
            *pos += 16;
            self.sum = i128::from_le_bytes(*sum);
        }
        let consistent = match &self.round {
            Round::LengthGrr(_)
            | Round::SubShape { .. }
            | Round::Expand { .. }
            | Round::RefineSelect { .. } => {
                let total = self.counts.iter().try_fold(0u64, |t, &c| t.checked_add(c));
                total == Some(reports)
            }
            Round::LengthOue(_) | Round::LengthOlh(_) | Round::RefineLabeled { .. } => {
                self.counts.iter().all(|&c| c <= reports)
            }
            Round::LengthPiecewise { pm, .. } => {
                // `unsigned_abs`: `i128::MIN` has no positive twin.
                let bound = i128::from(reports) * i128::from(pm.quantized_bound());
                self.sum.unsigned_abs() <= bound.unsigned_abs()
            }
        };
        if !consistent {
            return Err(snapshot_err(format!(
                "the {kind} counts cannot come from the declared {reports} reports"
            )));
        }
        self.reports = reports;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{Audience, GroupId};
    use privshape_timeseries::{CandidateTable, SymbolSeq, MAX_ALPHABET};

    fn eps() -> Epsilon {
        Epsilon::new(2.0).unwrap()
    }

    fn length_spec() -> RoundSpec {
        oracle_spec(LengthOracle::Grr)
    }

    fn oracle_spec(oracle: LengthOracle) -> RoundSpec {
        RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (1, 6),
            oracle,
        }
    }

    fn expand_spec(n: usize) -> RoundSpec {
        RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: std::sync::Arc::new(
                (0..n)
                    .map(|i| SymbolSeq::parse(if i % 2 == 0 { "a" } else { "b" }).unwrap())
                    .collect(),
            ),
        }
    }

    #[test]
    fn absorb_validates_kind_and_domain() {
        let mut agg = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
        assert!(agg.absorb(&Report::Length(5)).is_ok());
        assert!(matches!(
            agg.absorb(&Report::Length(6)),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(
            agg.absorb(&Report::Expand(0)),
            Err(Error::Protocol(_))
        ));
        assert_eq!(agg.reports(), 1);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let spec = expand_spec(4);
        let reports = [0usize, 1, 2, 3, 0, 0, 2];
        let mut whole = ShardAggregator::for_round(&spec, eps()).unwrap();
        for &r in &reports {
            whole.absorb(&Report::Expand(r)).unwrap();
        }
        let mut a = ShardAggregator::for_round(&spec, eps()).unwrap();
        let mut b = ShardAggregator::for_round(&spec, eps()).unwrap();
        let mut c = ShardAggregator::for_round(&spec, eps()).unwrap();
        for (i, &r) in reports.iter().enumerate() {
            [&mut a, &mut b, &mut c][i % 3]
                .absorb(&Report::Expand(r))
                .unwrap();
        }
        // c ← a, then b ← c: arbitrary association.
        c.merge(&a).unwrap();
        b.merge(&c).unwrap();
        assert_eq!(b.reports(), whole.reports());
        assert_eq!(
            b.finalize_selections().unwrap(),
            whole.finalize_selections().unwrap()
        );
    }

    #[test]
    fn merge_rejects_mismatched_rounds() {
        let mut a = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
        let b = ShardAggregator::for_round(&expand_spec(2), eps()).unwrap();
        assert!(matches!(a.merge(&b), Err(Error::Protocol(_))));
        let c = ShardAggregator::for_round(&expand_spec(3), eps()).unwrap();
        let mut d = ShardAggregator::for_round(&expand_spec(2), eps()).unwrap();
        assert!(matches!(d.merge(&c), Err(Error::Protocol(_))));
        // Length shards of one oracle and ε over two ranges count two
        // domains: no oracle may add the shorter one into the longer.
        for oracle in [
            LengthOracle::Grr,
            LengthOracle::Oue,
            LengthOracle::Olh,
            LengthOracle::Piecewise,
        ] {
            let over = |range| {
                let spec = RoundSpec::Length {
                    audience: Audience::group(GroupId::Pa),
                    range,
                    oracle,
                };
                ShardAggregator::for_round(&spec, eps()).unwrap()
            };
            let (mut short, mut long) = (over((1, 6)), over((1, 10)));
            let before = (short.clone(), long.clone());
            assert!(
                matches!(short.merge(&long), Err(Error::Protocol(_))),
                "{oracle:?}"
            );
            assert!(
                matches!(long.merge(&short), Err(Error::Protocol(_))),
                "{oracle:?}"
            );
            assert_eq!(
                (short, long),
                before,
                "{oracle:?}: a refused merge changed a shard"
            );
        }
    }

    #[test]
    fn merge_rejects_mismatched_table_generations() {
        // Same round shape (level, candidate count) but different candidate
        // contents: the selection indices mean different shapes, so merging
        // the counts would silently corrupt the extraction.
        let spec_a = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["a", "b"]).unwrap()),
        };
        let spec_b = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["a", "c"]).unwrap()),
        };
        let mut a = ShardAggregator::for_round(&spec_a, eps()).unwrap();
        let b = ShardAggregator::for_round(&spec_b, eps()).unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(
            err.to_string().contains("candidate-table generation"),
            "{err}"
        );
        // Identical table contents (even via a different Arc) still merge.
        let c = ShardAggregator::for_round(&spec_a.clone(), eps()).unwrap();
        assert!(a.merge(&c).is_ok());
    }

    /// The wire absorb the ingest boundary runs, over a frame of
    /// concatenated reports: each report is checked against the round,
    /// then added.
    fn absorb_wire(agg: &mut ShardAggregator, frame: &[u8]) -> Result<usize> {
        let (mut pos, mut absorbed) = (0, 0);
        while pos < frame.len() {
            let mut add = pos;
            agg.check_wire(frame, &mut pos)?;
            agg.add_wire(frame, &mut add)?;
            assert_eq!(add, pos);
            absorbed += 1;
        }
        Ok(absorbed)
    }

    #[test]
    fn absorb_wire_equals_decode_then_absorb() {
        let spec = expand_spec(5);
        let reports: Vec<Report> = [0usize, 4, 2, 2, 1, 0, 3]
            .iter()
            .map(|&i| Report::Expand(i))
            .collect();
        let mut frame = Vec::new();
        for r in &reports {
            r.encode_into(&mut frame);
        }
        let mut via_wire = ShardAggregator::for_round(&spec, eps()).unwrap();
        assert_eq!(absorb_wire(&mut via_wire, &frame).unwrap(), reports.len());
        let mut via_absorb = ShardAggregator::for_round(&spec, eps()).unwrap();
        for r in &reports {
            via_absorb.absorb(r).unwrap();
        }
        assert_eq!(via_wire, via_absorb);
        // Out-of-domain selection inside a frame is refused.
        let mut bad = Vec::new();
        Report::Expand(5).encode_into(&mut bad);
        assert!(via_wire.check_wire(&bad, &mut 0).is_err());
        // Wrong-kind frame is refused.
        let mut wrong = Vec::new();
        Report::Length(0).encode_into(&mut wrong);
        assert!(matches!(
            via_wire.check_wire(&wrong, &mut 0),
            Err(Error::Protocol(_))
        ));
        // A report checked against another kind of round is refused too.
        let length = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
        assert!(length.check_wire(&wrong, &mut 0).is_ok());
        assert!(via_wire.add_wire(&wrong, &mut 0).is_err());
        assert_eq!(via_wire, via_absorb);
    }

    #[test]
    fn wire_check_accepts_exactly_what_decode_and_absorb_accept() {
        use privshape_ldp::{OlhReport, OueReport};
        use rand::{RngExt, SeedableRng};
        let rounds: Vec<ShardAggregator> = every_round_kind()
            .iter()
            .map(|(spec, _)| ShardAggregator::for_round(spec, eps()).unwrap())
            .collect();
        let mut sinks = rounds.clone();
        let mut agree = |buf: &[u8]| {
            for (round, sink) in rounds.iter().zip(&mut sinks) {
                let mut pos = 0;
                let checked = round.check_wire(buf, &mut pos).map(|_| pos);
                let absorbed = Report::decode(buf).and_then(|(r, used)| {
                    sink.absorb(&r)?;
                    Ok(used)
                });
                assert_eq!(checked.ok(), absorbed.ok(), "{buf:02x?}");
            }
        };
        let reports = [
            Report::Length(300),
            Report::SubShape {
                level: 3,
                value: 70_000,
            },
            Report::Expand(17),
            Report::RefineSelect(1 << 40),
            Report::RefineLabeled(OueReport::from_set_bits(vec![0, 3, 4, 129]).unwrap()),
            Report::RefineLabeled(OueReport::from_set_bits(Vec::new()).unwrap()),
            Report::LengthOue(OueReport::from_set_bits(vec![usize::MAX - 1, usize::MAX]).unwrap()),
            Report::LengthOlh(OlhReport {
                seed: u64::MAX,
                value: 3,
            }),
            Report::LengthPiecewise(-12_345_678),
        ];
        // Every truncation and every value of every byte of each variant,
        // and of the valid reports of every round.
        let valid = every_round_kind().into_iter().flat_map(|(_, r)| r);
        for report in reports.into_iter().chain(valid) {
            let bytes = report.encode();
            for cut in 0..=bytes.len() {
                agree(&bytes[..cut]);
            }
            for i in 0..bytes.len() {
                for v in 0..=u8::MAX {
                    let mut bad = bytes.clone();
                    bad[i] = v;
                    agree(&bad);
                }
            }
        }
        // Short random buffers led by a tag in or near the tag space.
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(20);
        for _ in 0..20_000 {
            let len = rng.random_range(1..14usize);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.random::<u32>() as u8).collect();
            buf[0] = rng.random_range(0..10u32) as u8;
            agree(&buf);
        }
        // Every round accepted something, so the comparison had teeth.
        for (round, sink) in rounds.iter().zip(&sinks) {
            assert!(sink.reports() > round.reports(), "{}", round.round.kind().1);
        }
    }

    #[test]
    fn merge_refuses_shards_built_under_another_epsilon() {
        let at = |spec: &RoundSpec, reports: &[Report], eps: f64| {
            let mut shard = ShardAggregator::for_round(spec, Epsilon::new(eps).unwrap()).unwrap();
            for r in reports {
                shard.absorb(r).unwrap();
            }
            shard
        };
        for (spec, reports) in every_round_kind() {
            let mut mine = at(&spec, &reports, 1.0);
            let before = mine.clone();
            assert!(
                matches!(
                    mine.merge(&at(&spec, &reports, 3.0)),
                    Err(Error::Protocol(_))
                ),
                "{}",
                spec.name()
            );
            assert_eq!(
                mine,
                before,
                "{}: a refused merge changed the shard",
                spec.name()
            );
            mine.merge(&at(&spec, &reports, 1.0)).unwrap();
            assert_eq!(mine.reports(), 2 * reports.len() as u64);
        }
    }

    /// Specs a public caller can build but no session broadcasts are
    /// refused with a typed error, never an overflow or an aborting
    /// allocation.
    #[test]
    fn for_round_refuses_specs_it_cannot_count() {
        let length = |range| RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range,
            oracle: LengthOracle::Grr,
        };
        let subshape = |ell_s, alphabet| RoundSpec::SubShape {
            audience: Audience::group(GroupId::Pb),
            ell_s,
            alphabet,
        };
        let labeled = |n_classes| RoundSpec::RefineLabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["ab", "ba"]).unwrap()),
            n_classes,
        };
        for spec in [
            length((3, 3)),
            length((0, usize::MAX)),
            length((1, 1 << 40)),
            subshape(3, 0),
            subshape(3, 1 << 40),
            labeled(usize::MAX),
            // Cell counts that fit a usize but no allocation.
            subshape(usize::MAX / 1000, MAX_ALPHABET),
            labeled(1 << 61),
        ] {
            let refused = ShardAggregator::for_round(&spec, eps());
            assert!(matches!(refused, Err(Error::Protocol(_))), "{spec:?}");
        }
    }

    #[test]
    fn oracle_rounds_absorb_matching_reports_only() {
        use privshape_ldp::{OlhReport, OueReport};
        // Each oracle's aggregator accepts its own report kind, validates
        // domains, and rejects the other length-report kinds.
        let mut oue = ShardAggregator::for_round(&oracle_spec(LengthOracle::Oue), eps()).unwrap();
        let ok = Report::LengthOue(OueReport::from_set_bits(vec![0, 5]).unwrap());
        assert!(oue.absorb(&ok).is_ok());
        let out = Report::LengthOue(OueReport::from_set_bits(vec![6]).unwrap());
        assert!(oue.absorb(&out).is_err(), "bit outside domain 6");
        assert!(oue.absorb(&Report::Length(0)).is_err(), "wrong oracle");

        let mut olh = ShardAggregator::for_round(&oracle_spec(LengthOracle::Olh), eps()).unwrap();
        assert!(olh
            .absorb(&Report::LengthOlh(OlhReport { seed: 9, value: 0 }))
            .is_ok());
        assert!(
            olh.absorb(&Report::LengthOlh(OlhReport {
                seed: 9,
                value: 10_000
            }))
            .is_err(),
            "bucket outside hash range"
        );

        let mut pw =
            ShardAggregator::for_round(&oracle_spec(LengthOracle::Piecewise), eps()).unwrap();
        assert!(pw.absorb(&Report::LengthPiecewise(0)).is_ok());
        assert!(
            pw.absorb(&Report::LengthPiecewise(i64::MAX)).is_err(),
            "report beyond the mechanism's output bound"
        );
        assert!(pw.merge(&olh).is_err(), "cross-oracle merge refused");
    }

    #[test]
    fn oracle_wire_absorb_equals_report_absorb() {
        use privshape_ldp::{Olh, OueReport};
        let olh = Olh::new(eps());
        for oracle in [
            LengthOracle::Oue,
            LengthOracle::Olh,
            LengthOracle::Piecewise,
        ] {
            let spec = oracle_spec(oracle);
            let reports: Vec<Report> = (0..8)
                .map(|i| match oracle {
                    LengthOracle::Grr => unreachable!(),
                    LengthOracle::Oue => {
                        Report::LengthOue(OueReport::from_set_bits(vec![i % 6]).unwrap())
                    }
                    LengthOracle::Olh => Report::LengthOlh(OlhReport {
                        seed: i as u64 * 77,
                        value: i % olh.g(),
                    }),
                    LengthOracle::Piecewise => Report::LengthPiecewise((i as i64 - 4) * 100_000),
                })
                .collect();
            let mut frame = Vec::new();
            for r in &reports {
                r.encode_into(&mut frame);
            }
            let mut via_wire = ShardAggregator::for_round(&spec, eps()).unwrap();
            assert_eq!(absorb_wire(&mut via_wire, &frame).unwrap(), reports.len());
            let mut via_absorb = ShardAggregator::for_round(&spec, eps()).unwrap();
            for r in &reports {
                via_absorb.absorb(r).unwrap();
            }
            assert_eq!(via_wire, via_absorb, "{oracle:?} wire path diverged");
        }
    }

    /// A round of each kind — the four length oracles, sub-shape,
    /// expansion, unlabeled and labeled refinement — with a few valid
    /// reports for it.
    fn every_round_kind() -> Vec<(RoundSpec, Vec<Report>)> {
        use privshape_ldp::{Olh, OlhReport, OueReport};
        let olh = Olh::new(eps());
        let subshape_spec = RoundSpec::SubShape {
            audience: Audience::group(GroupId::Pb),
            ell_s: 3,
            alphabet: 4,
        };
        let refine_spec = RoundSpec::RefineUnlabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: std::sync::Arc::new(
                CandidateTable::parse_rows(&["ab", "ba", "bc"]).unwrap(),
            ),
        };
        let labeled_spec = RoundSpec::RefineLabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["ab", "cb"]).unwrap()),
            n_classes: 2,
        };
        vec![
            (
                oracle_spec(LengthOracle::Grr),
                vec![Report::Length(1), Report::Length(4), Report::Length(1)],
            ),
            (
                oracle_spec(LengthOracle::Oue),
                vec![
                    Report::LengthOue(OueReport::from_set_bits(vec![0, 3]).unwrap()),
                    Report::LengthOue(OueReport::from_set_bits(vec![]).unwrap()),
                ],
            ),
            (
                oracle_spec(LengthOracle::Olh),
                vec![
                    Report::LengthOlh(OlhReport { seed: 11, value: 0 }),
                    Report::LengthOlh(OlhReport {
                        seed: 12,
                        value: 1 % olh.g(),
                    }),
                ],
            ),
            (
                oracle_spec(LengthOracle::Piecewise),
                vec![
                    Report::LengthPiecewise(-250_000),
                    Report::LengthPiecewise(90_000),
                ],
            ),
            (
                subshape_spec,
                vec![
                    Report::SubShape { level: 1, value: 0 },
                    Report::SubShape { level: 2, value: 7 },
                    Report::SubShape {
                        level: 1,
                        value: 11,
                    },
                ],
            ),
            (
                expand_spec(4),
                vec![Report::Expand(0), Report::Expand(3), Report::Expand(0)],
            ),
            (
                refine_spec,
                vec![Report::RefineSelect(2), Report::RefineSelect(1)],
            ),
            (
                labeled_spec,
                vec![
                    Report::RefineLabeled(OueReport::from_set_bits(vec![0, 3]).unwrap()),
                    Report::RefineLabeled(OueReport::from_set_bits(vec![1]).unwrap()),
                ],
            ),
        ]
    }

    #[test]
    fn snapshot_state_round_trips_every_round_kind() {
        for (spec, reports) in every_round_kind() {
            let mut original = ShardAggregator::for_round(&spec, eps()).unwrap();
            for r in &reports {
                original.absorb(r).unwrap();
            }
            let mut buf = Vec::new();
            original.snapshot_state_into(&mut buf);
            // Restore into a freshly built aggregator for the same round.
            let mut restored = ShardAggregator::for_round(&spec, eps()).unwrap();
            let mut pos = 0;
            restored.restore_state(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len(), "{}: snapshot fully consumed", spec.name());
            assert_eq!(
                restored,
                original,
                "{}: restored state differs",
                spec.name()
            );
            // The restored aggregator keeps evolving identically.
            original.absorb(&reports[0]).unwrap();
            restored.absorb(&reports[0]).unwrap();
            assert_eq!(
                restored,
                original,
                "{}: post-restore divergence",
                spec.name()
            );
        }
    }

    /// The same perturbed reports, absorbed by a round's count vector and
    /// by the `privshape-ldp` reference aggregators, estimate the same
    /// numbers bit for bit: each length oracle, the sub-shape grid (one
    /// reference per level, each read against its own report count) and
    /// the labeled grid (candidate-major cells).
    #[test]
    fn estimates_equal_the_ldp_reference_aggregators() {
        use privshape_ldp::{GrrAggregator, OlhAggregator, OueAggregator, PiecewiseAggregator};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(24);
        let truth = |i: usize| [2, 2, 2, 3, 0, 5, 2, 1][i % 8];
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let absorbed = |spec: &RoundSpec, reports: &[Report]| {
            let mut shard = ShardAggregator::for_round(spec, eps()).unwrap();
            for r in reports {
                shard.absorb(r).unwrap();
            }
            shard
        };
        // A length round's estimates, by the mechanism its spec built.
        let estimated = |s: &ShardAggregator| {
            let (counts, total) = (&s.counts, s.reports);
            bits(&match &s.round {
                Round::LengthGrr(grr) => estimates(counts, total, |c, t| grr.estimate(c, t)),
                Round::LengthOue(oue) => estimates(counts, total, |c, t| oue.estimate(c, t)),
                Round::LengthOlh(olh) => estimates(counts, total, |c, t| olh.estimate(c, t)),
                round => panic!("{} round has no frequency oracle", round.kind().1),
            })
        };

        // The length oracles over lengths 1..=6.
        let grr = Grr::new(6, eps()).unwrap();
        let mut reference = GrrAggregator::new(&grr);
        let reports: Vec<Report> = (0..700)
            .map(|i| {
                let v = grr.perturb(&mut rng, truth(i));
                reference.add(v);
                Report::Length(v)
            })
            .collect();
        let shard = absorbed(&oracle_spec(LengthOracle::Grr), &reports);
        assert_eq!(estimated(&shard), bits(&reference.estimates()));
        assert_eq!(shard.finalize_length(1).unwrap(), 1 + reference.top_m(1)[0]);

        let oue = Oue::new(6, eps()).unwrap();
        let mut reference = OueAggregator::new(&oue);
        let reports: Vec<Report> = (0..700)
            .map(|i| {
                let r = oue.perturb(&mut rng, truth(i));
                reference.add(&r);
                Report::LengthOue(r)
            })
            .collect();
        let shard = absorbed(&oracle_spec(LengthOracle::Oue), &reports);
        assert_eq!(estimated(&shard), bits(&reference.estimates()));
        assert_eq!(shard.finalize_length(1).unwrap(), 1 + reference.top_m(1)[0]);

        let olh = Olh::new(eps());
        let mut reference = OlhAggregator::new(olh.clone(), 6).unwrap();
        let reports: Vec<Report> = (0..700)
            .map(|i| {
                let r = olh.perturb(&mut rng, truth(i));
                reference.add(&r);
                Report::LengthOlh(r)
            })
            .collect();
        let shard = absorbed(&oracle_spec(LengthOracle::Olh), &reports);
        assert_eq!(estimated(&shard), bits(&reference.estimates()));
        assert_eq!(shard.finalize_length(1).unwrap(), 1 + reference.top_m(1)[0]);

        let pm = PiecewiseMechanism::new(eps());
        let mut reference = PiecewiseAggregator::new(pm);
        let reports: Vec<Report> = (0..700)
            .map(|i| {
                let t = -1.0 + 2.0 * truth(i) as f64 / 5.0;
                let q = pm.quantize(pm.perturb(&mut rng, t));
                reference.add(q).unwrap();
                Report::LengthPiecewise(q)
            })
            .collect();
        let shard = absorbed(&oracle_spec(LengthOracle::Piecewise), &reports);
        let mean = reference.mean().unwrap();
        assert_eq!(pm.mean(shard.sum, shard.reports), Some(mean));
        let offset = ((mean + 1.0) / 2.0 * 5.0).round().max(0.0) as usize;
        assert_eq!(shard.finalize_length(1).unwrap(), 1 + offset.min(5));

        // Two sub-shape levels over the 12 bigrams of 4 symbols, with
        // twice as many level-1 reports as level-2 ones.
        let grr = Grr::new(12, eps()).unwrap();
        let mut references = [GrrAggregator::new(&grr), GrrAggregator::new(&grr)];
        let reports: Vec<Report> = (0..900)
            .map(|i| {
                let level = 1 + usize::from(i % 3 == 0);
                let value = grr.perturb(&mut rng, (truth(i) + 4 * level) % 12);
                references[level - 1].add(value);
                Report::SubShape { level, value }
            })
            .collect();
        let spec = RoundSpec::SubShape {
            audience: Audience::group(GroupId::Pb),
            ell_s: 3,
            alphabet: 4,
        };
        let shard = absorbed(&spec, &reports);
        let Round::SubShape { grr, .. } = &shard.round else {
            panic!("a sub-shape spec builds a sub-shape round");
        };
        for (level, reference) in shard.counts.chunks_exact(12).zip(&references) {
            let est = estimates(level, level.iter().sum(), |c, t| grr.estimate(c, t));
            assert_eq!(bits(&est), bits(&reference.estimates()));
        }
        let top: Vec<Vec<usize>> = references.iter().map(|r| r.top_m(3)).collect();
        assert_eq!(shard.finalize_subshape(3).unwrap(), top);

        // Three candidates × two classes.
        let spec = RoundSpec::RefineLabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: std::sync::Arc::new(
                CandidateTable::parse_rows(&["ab", "cb", "ba"]).unwrap(),
            ),
            n_classes: 2,
        };
        let oue = Oue::new(6, eps()).unwrap();
        let mut reference = OueAggregator::new(&oue);
        let reports: Vec<Report> = (0..700)
            .map(|i| {
                let r = oue.perturb(&mut rng, truth(i));
                reference.add(&r);
                Report::RefineLabeled(r)
            })
            .collect();
        let freqs = absorbed(&spec, &reports).finalize_labeled(0).unwrap();
        for (class, class_freqs) in freqs.iter().enumerate() {
            let want: Vec<f64> = (0..3).map(|c| reference.estimate(c * 2 + class)).collect();
            assert_eq!(bits(class_freqs), bits(&want), "class {class}");
        }
    }

    /// An aggregate state in the snapshot layout: `varint(reports) ·
    /// u8(kind) · [varint(table generation)] · varint(len) ·
    /// varint(count)* · [i128 sum]`.
    fn state(
        reports: u64,
        kind: u8,
        table_gen: Option<u64>,
        counts: &[u64],
        sum: Option<i128>,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::put_varint(&mut buf, reports);
        buf.push(kind);
        if let Some(table_gen) = table_gen {
            wire::put_varint(&mut buf, table_gen);
        }
        wire::put_varint(&mut buf, counts.len() as u64);
        for &c in counts {
            wire::put_varint(&mut buf, c);
        }
        if let Some(sum) = sum {
            buf.extend_from_slice(&sum.to_le_bytes());
        }
        buf
    }

    #[test]
    fn restore_state_rejects_forged_snapshots() {
        // Snapshot a GRR length round, then try to load it into rounds and
        // states it does not describe.
        let mut grr = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
        grr.absorb(&Report::Length(2)).unwrap();
        let mut grr_snap = Vec::new();
        grr.snapshot_state_into(&mut grr_snap);

        // Wrong round kind.
        let mut expand = ShardAggregator::for_round(&expand_spec(3), eps()).unwrap();
        assert!(expand.restore_state(&grr_snap, &mut 0).is_err());
        // Wrong length oracle.
        let mut oue = ShardAggregator::for_round(&oracle_spec(LengthOracle::Oue), eps()).unwrap();
        assert!(oue.restore_state(&grr_snap, &mut 0).is_err());
        // Declared reports disagreeing with the oracle's total.
        let mut forged = grr_snap.clone();
        forged[0] = 9; // reports varint
        let mut fresh = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
        assert!(fresh.restore_state(&forged, &mut 0).is_err());
        // Truncation anywhere is refused.
        for cut in 0..grr_snap.len() {
            let mut fresh = ShardAggregator::for_round(&length_spec(), eps()).unwrap();
            assert!(
                fresh.restore_state(&grr_snap[..cut], &mut 0).is_err(),
                "truncation at {cut} accepted"
            );
        }

        // An expand snapshot for a different candidate table (same size) is
        // rejected by the generation check.
        let table_a = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["a", "b"]).unwrap()),
        };
        let table_b = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 1,
            candidates: std::sync::Arc::new(CandidateTable::parse_rows(&["a", "c"]).unwrap()),
        };
        let mut a = ShardAggregator::for_round(&table_a, eps()).unwrap();
        a.absorb(&Report::Expand(1)).unwrap();
        let mut snap = Vec::new();
        a.snapshot_state_into(&mut snap);
        let mut b = ShardAggregator::for_round(&table_b, eps()).unwrap();
        let err = b.restore_state(&snap, &mut 0).unwrap_err();
        assert!(
            err.to_string().contains("generation"),
            "expected generation mismatch, got: {err}"
        );

        // Counts that no report stream could produce are refused. Each
        // case first restores a consistent state of the same shape, so the
        // refusal is the invariant's.
        let load = |spec: &RoundSpec, state: &[u8]| {
            let mut fresh = ShardAggregator::for_round(spec, eps()).unwrap();
            let mut pos = 0;
            fresh.restore_state(state, &mut pos).map(|()| pos)
        };
        let check = |spec: &RoundSpec, good: &[u8], bad: &[u8], fault: &str| {
            assert_eq!(load(spec, good).unwrap(), good.len(), "{}", spec.name());
            let err = load(spec, bad).unwrap_err().to_string();
            assert!(err.contains(fault), "{}: {err}", spec.name());
        };
        let impossible = "cannot come from";
        let gen = |spec: &RoundSpec| match spec {
            RoundSpec::Expand { candidates, .. } | RoundSpec::RefineLabeled { candidates, .. } => {
                Some(candidates.fingerprint())
            }
            _ => None,
        };
        // GRR length counts sum to the reports; past u64::MAX they are
        // refused, not wrapped to the declared 0.
        let grr = length_spec();
        check(
            &grr,
            &state(2, 1, None, &[1, 0, 1, 0, 0, 0], None),
            &state(2, 1, None, &[1, 0, 2, 0, 0, 0], None),
            impossible,
        );
        check(
            &grr,
            &state(0, 1, None, &[0; 6], None),
            &state(0, 1, None, &[u64::MAX, 1, 0, 0, 0, 0], None),
            impossible,
        );
        // A count vector of the wrong length.
        check(
            &grr,
            &state(0, 1, None, &[0; 6], None),
            &state(0, 1, None, &[0; 5], None),
            "5 counts",
        );
        // Sub-shape counts sum to the reports over every level.
        let subshape = RoundSpec::SubShape {
            audience: Audience::group(GroupId::Pb),
            ell_s: 3,
            alphabet: 3,
        };
        let mut levels = [0u64; 12];
        levels[0] = 1;
        levels[7] = 1;
        let mut overflow = [0u64; 12];
        overflow[0] = u64::MAX;
        overflow[6] = 1;
        check(
            &subshape,
            &state(2, 5, None, &levels, None),
            &state(0, 5, None, &overflow, None),
            impossible,
        );
        // Selection counts, under the table's own generation.
        let expand = expand_spec(2);
        check(
            &expand,
            &state(3, 6, gen(&expand), &[2, 1], None),
            &state(0, 6, gen(&expand), &[u64::MAX, 1], None),
            impossible,
        );
        // OUE length bits and OLH support: at most one per report.
        let oue = oracle_spec(LengthOracle::Oue);
        check(
            &oue,
            &state(2, 2, None, &[2, 1, 0, 0, 0, 2], None),
            &state(2, 2, None, &[3, 1, 0, 0, 0, 2], None),
            impossible,
        );
        let olh = oracle_spec(LengthOracle::Olh);
        check(
            &olh,
            &state(2, 3, None, &[2, 2, 1, 0, 0, 0], None),
            &state(2, 3, None, &[2, 2, 3, 0, 0, 0], None),
            impossible,
        );
        // Labeled-grid cells: at most one per report, and one per cell.
        let (labeled, _) = every_round_kind().pop().unwrap();
        check(
            &labeled,
            &state(2, 8, gen(&labeled), &[1, 0, 2, 0], None),
            &state(2, 8, gen(&labeled), &[1, 0, 0, 3], None),
            impossible,
        );
        check(
            &labeled,
            &state(2, 8, gen(&labeled), &[1, 0, 2, 0], None),
            &state(2, 8, gen(&labeled), &[1, 0, 2], None),
            "3 counts",
        );
        // The piecewise sum stays within reports × the quantized bound; a
        // sum of i128::MIN has no absolute value to bound.
        let piecewise = oracle_spec(LengthOracle::Piecewise);
        let bound = i128::from(PiecewiseMechanism::new(eps()).quantized_bound());
        check(
            &piecewise,
            &state(2, 4, None, &[], Some(-2 * bound)),
            &state(2, 4, None, &[], Some(-2 * bound - 1)),
            impossible,
        );
        check(
            &piecewise,
            &state(2, 4, None, &[], Some(2 * bound)),
            &state(2, 4, None, &[], Some(i128::MIN)),
            impossible,
        );
    }
}
