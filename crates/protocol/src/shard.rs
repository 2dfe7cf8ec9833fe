//! Mergeable per-round aggregation state.
//!
//! Reports from millions of users do not arrive as one slice: ingestion
//! nodes (shards) each absorb their stream of reports into a local
//! [`ShardAggregator`] and periodically ship the partial sums upstream.
//! Every aggregate in the protocol is a vector of integer counts, so
//! [`ShardAggregator::merge`] is associative and commutative — chunking
//! and merge order can never change the final extraction (enforced by the
//! shard-merge property test).

use crate::config::LengthOracle;
use crate::error::{Error, Result};
use crate::round::{Report, RoundSpec};
use crate::wire;
use privshape_ldp::{
    Epsilon, Grr, GrrAggregator, LdpError, Olh, OlhAggregator, OlhReport, Oue, OueAggregator,
    PiecewiseAggregator, PiecewiseMechanism,
};

/// Partial aggregation state for one round, mergeable across shards.
///
/// `PartialEq` compares the raw counts, so two ingestion pipelines (e.g.
/// serial absorb vs the streaming [`crate::ingest`] engine) can be
/// asserted bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAggregator {
    reports: u64,
    /// The budget the round's reports were perturbed under: shards built
    /// under different budgets count incomparable things, so
    /// [`ShardAggregator::merge`] refuses to mix them.
    epsilon: Epsilon,
    inner: Inner,
}

/// Per-oracle aggregation state for a length round. Each variant is pure
/// integer state (OLH support counts; piecewise reports are fixed-point
/// quantized), so every oracle keeps the merge-order-insensitivity
/// invariant exactly.
#[derive(Debug, Clone, PartialEq)]
enum LengthAgg {
    Grr(GrrAggregator),
    Oue(OueAggregator),
    Olh(OlhAggregator),
    Piecewise(PiecewiseAggregator),
}

impl LengthAgg {
    fn same_oracle(&self, other: &LengthAgg) -> bool {
        matches!(
            (self, other),
            (LengthAgg::Grr(_), LengthAgg::Grr(_))
                | (LengthAgg::Oue(_), LengthAgg::Oue(_))
                | (LengthAgg::Olh(_), LengthAgg::Olh(_))
                | (LengthAgg::Piecewise(_), LengthAgg::Piecewise(_))
        )
    }

    fn merge(&mut self, other: &LengthAgg) {
        match (self, other) {
            (LengthAgg::Grr(a), LengthAgg::Grr(b)) => a.merge(b),
            (LengthAgg::Oue(a), LengthAgg::Oue(b)) => a.merge(b),
            (LengthAgg::Olh(a), LengthAgg::Olh(b)) => a.merge(b),
            (LengthAgg::Piecewise(a), LengthAgg::Piecewise(b)) => a.merge(b),
            _ => unreachable!("same_oracle is checked before merging"),
        }
    }
}

/// Length-round absorption, split out of [`ShardAggregator::absorb`] and
/// kept out of line: the length round fires once per session over a tiny
/// domain, and folding its four-oracle dispatch into the hot absorb match
/// measurably slows the expand/refine bulk (~10 ns/report).
#[inline(never)]
fn absorb_length(agg: &mut LengthAgg, domain: usize, report: &Report) -> Result<()> {
    match (agg, report) {
        (LengthAgg::Grr(agg), Report::Length(v)) => {
            check_length(*v, domain)?;
            agg.add(*v);
        }
        (LengthAgg::Oue(agg), Report::LengthOue(r)) => {
            check_bits("length OUE", r.set_bits().last().copied(), domain)?;
            agg.add(r);
        }
        (LengthAgg::Olh(agg), Report::LengthOlh(r)) => {
            check_olh(r.value, agg)?;
            agg.add(r);
        }
        (LengthAgg::Piecewise(agg), Report::LengthPiecewise(q)) => {
            agg.add(*q).map_err(piecewise_err)?;
        }
        (_, report) => {
            return Err(Error::Protocol(format!(
                "report kind '{}' does not match round aggregate length",
                report.kind(),
            )));
        }
    }
    Ok(())
}

/// Wire-side twin of [`absorb_length`] for [`ShardAggregator::check_wire`]
/// (same once-per-session rationale).
#[inline(never)]
fn check_wire_length<'a>(
    agg: &LengthAgg,
    domain: usize,
    tag: u8,
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<WireReport<'a>> {
    Ok(match (agg, tag) {
        (LengthAgg::Grr(_), wire::TAG_LENGTH) => {
            let v = wire::read_usize(buf, pos)?;
            check_length(v, domain)?;
            WireReport::Length(v)
        }
        (LengthAgg::Oue(_), wire::TAG_LENGTH_OUE) => {
            let start = *pos;
            check_bits("length OUE", wire::walk_oue_bits(buf, pos, None)?, domain)?;
            WireReport::Bits(&buf[start..*pos])
        }
        (LengthAgg::Olh(agg), wire::TAG_LENGTH_OLH) => {
            let seed = wire::read_varint(buf, pos)?;
            let value = wire::read_usize(buf, pos)?;
            check_olh(value, agg)?;
            WireReport::Olh(OlhReport { seed, value })
        }
        (LengthAgg::Piecewise(agg), wire::TAG_LENGTH_PIECEWISE) => {
            let q = wire::unzigzag(wire::read_varint(buf, pos)?);
            agg.check(q).map_err(piecewise_err)?;
            WireReport::Piecewise(q)
        }
        (_, tag) => {
            return Err(Error::Protocol(format!(
                "report tag 0x{tag:02x} does not match round aggregate length"
            )));
        }
    })
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

fn check_olh(value: usize, agg: &OlhAggregator) -> Result<()> {
    if value >= agg.olh().g() {
        return Err(Error::Protocol(format!(
            "length OLH report bucket {value} outside hash range {}",
            agg.olh().g()
        )));
    }
    Ok(())
}

fn piecewise_err(e: LdpError) -> Error {
    Error::Protocol(format!("length piecewise report rejected: {e}"))
}

fn unchecked_report(round: &str) -> Error {
    Error::Protocol(format!(
        "wire report was not checked against this {round} round"
    ))
}

/// One wire report that [`ShardAggregator::check_wire`] accepted for a
/// round: what [`ShardAggregator::add_wire`] needs to count it, with an
/// OUE bit list left in the frame.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WireReport<'a> {
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
    /// The encoded bit list of an OUE length or labeled-refinement report.
    Bits(&'a [u8]),
}

/// Index of the largest estimate; ties go to the smaller index.
/// `total_cmp` keeps the choice deterministic even if an estimate were
/// ever NaN (it cannot be for integer counts, but the aggregator should
/// not be the component that panics on it).
fn argmax_f64(estimates: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in estimates.iter().enumerate().skip(1) {
        if v.total_cmp(&estimates[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

#[derive(Debug, Clone, PartialEq)]
enum Inner {
    /// Frequency-oracle state over the clipped-length domain.
    Length { agg: LengthAgg, domain: usize },
    /// Per-level GRR counts over the distinct-bigram domain.
    SubShape {
        aggs: Vec<GrrAggregator>,
        domain: usize,
    },
    /// EM selection counts for one expansion level. `table_gen` is the
    /// broadcast candidate table's fingerprint: selection indices are only
    /// meaningful relative to one table generation, so merging across
    /// generations is refused.
    Expand {
        counts: Vec<u64>,
        level: usize,
        table_gen: u64,
    },
    /// EM selection counts for the unlabeled refinement.
    RefineSelect { counts: Vec<u64>, table_gen: u64 },
    /// OUE bit counts over the candidate × class grid (`None` for the
    /// degenerate single-cell grid, whose reports carry no information).
    RefineLabeled {
        agg: Option<OueAggregator>,
        n_candidates: usize,
        n_classes: usize,
        table_gen: u64,
    },
}

impl ShardAggregator {
    /// Creates the empty aggregation state matching a round broadcast.
    /// Every shard answering the same round builds an identical (hence
    /// mergeable) state from the spec alone.
    pub fn for_round(spec: &RoundSpec, epsilon: Epsilon) -> Result<Self> {
        let inner = match spec {
            RoundSpec::Length { range, oracle, .. } => {
                let (lo, hi) = *range;
                if lo >= hi {
                    return Err(Error::Protocol(format!(
                        "length round needs a non-degenerate range, got [{lo}, {hi}]"
                    )));
                }
                let domain = hi - lo + 1;
                let agg = match oracle {
                    LengthOracle::Grr => {
                        LengthAgg::Grr(GrrAggregator::new(&Grr::new(domain, epsilon)?))
                    }
                    LengthOracle::Oue => {
                        LengthAgg::Oue(OueAggregator::new(&Oue::new(domain, epsilon)?))
                    }
                    LengthOracle::Olh => {
                        LengthAgg::Olh(OlhAggregator::new(Olh::new(epsilon), domain)?)
                    }
                    LengthOracle::Piecewise => LengthAgg::Piecewise(PiecewiseAggregator::new(
                        PiecewiseMechanism::new(epsilon),
                    )),
                };
                Inner::Length { agg, domain }
            }
            RoundSpec::SubShape {
                ell_s, alphabet, ..
            } => {
                if *ell_s <= 1 {
                    return Err(Error::Protocol(format!(
                        "sub-shape round with ell_s = {ell_s} has no levels"
                    )));
                }
                let domain = alphabet * (alphabet - 1);
                let grr = Grr::new(domain, epsilon)?;
                Inner::SubShape {
                    aggs: (0..ell_s - 1).map(|_| GrrAggregator::new(&grr)).collect(),
                    domain,
                }
            }
            RoundSpec::Expand {
                level, candidates, ..
            } => Inner::Expand {
                counts: vec![0; candidates.len()],
                level: *level,
                table_gen: candidates.fingerprint(),
            },
            RoundSpec::RefineUnlabeled { candidates, .. } => Inner::RefineSelect {
                counts: vec![0; candidates.len()],
                table_gen: candidates.fingerprint(),
            },
            RoundSpec::RefineLabeled {
                candidates,
                n_classes,
                ..
            } => {
                let cells = candidates.len() * n_classes;
                let agg = if cells >= 2 {
                    Some(OueAggregator::new(&Oue::new(cells, epsilon)?))
                } else {
                    None
                };
                Inner::RefineLabeled {
                    agg,
                    n_candidates: candidates.len(),
                    n_classes: *n_classes,
                    table_gen: candidates.fingerprint(),
                }
            }
        };
        Ok(Self {
            reports: 0,
            epsilon,
            inner,
        })
    }

    /// Number of reports absorbed (including merged-in shards).
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Absorbs one report, validating that its kind and domain match the
    /// round this aggregator was built for.
    ///
    /// Arm order matters here: expand / refine-select reports are the
    /// per-user-per-level bulk of every session and absorption runs at
    /// ~10 ns/report, so the hot arms come first and the once-per-session
    /// length-oracle dispatch lives in a non-inlined helper — keeping this
    /// body small enough to stay inlined into the absorb loops.
    pub fn absorb(&mut self, report: &Report) -> Result<()> {
        match (&mut self.inner, report) {
            (Inner::Expand { counts, .. }, Report::Expand(sel))
            | (Inner::RefineSelect { counts, .. }, Report::RefineSelect(sel)) => {
                check_select(*sel, counts.len())?;
                counts[*sel] += 1;
            }
            (Inner::Length { agg, domain }, report) => {
                absorb_length(agg, *domain, report)?;
            }
            (Inner::SubShape { aggs, domain }, Report::SubShape { level, value }) => {
                check_subshape(*level, *value, aggs.len(), *domain)?;
                aggs[*level - 1].add(*value);
            }
            (Inner::RefineLabeled { agg, .. }, Report::RefineLabeled(r)) => {
                if let Some(agg) = agg {
                    check_bits("labeled", r.set_bits().last().copied(), agg.domain())?;
                    agg.add(r);
                }
            }
            (inner, report) => {
                return Err(Error::Protocol(format!(
                    "report kind '{}' does not match round aggregate {}",
                    report.kind(),
                    inner.kind(),
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
    pub(crate) fn check_wire<'a>(&self, buf: &'a [u8], pos: &mut usize) -> Result<WireReport<'a>> {
        let tag = wire::read_tag(buf, pos)?;
        // Hot arms first: expand / refine-select / sub-shape reports are
        // the per-user-per-level bulk of every session, while each length
        // arm fires for at most one round.
        Ok(match (&self.inner, tag) {
            (Inner::Expand { counts, .. }, wire::TAG_EXPAND)
            | (Inner::RefineSelect { counts, .. }, wire::TAG_REFINE_SELECT) => {
                let sel = wire::read_usize(buf, pos)?;
                check_select(sel, counts.len())?;
                WireReport::Select(sel)
            }
            (Inner::SubShape { aggs, domain }, wire::TAG_SUB_SHAPE) => {
                let level = wire::read_usize(buf, pos)?;
                let value = wire::read_usize(buf, pos)?;
                check_subshape(level, value, aggs.len(), *domain)?;
                WireReport::SubShape { level, value }
            }
            (Inner::RefineLabeled { agg, .. }, wire::TAG_REFINE_LABELED) => {
                let start = *pos;
                let last = wire::walk_oue_bits(buf, pos, None)?;
                if let Some(agg) = agg {
                    check_bits("labeled", last, agg.domain())?;
                }
                WireReport::Bits(&buf[start..*pos])
            }
            (Inner::Length { agg, domain }, tag) => check_wire_length(agg, *domain, tag, buf, pos)?,
            (inner, tag) => {
                return Err(Error::Protocol(format!(
                    "report tag 0x{tag:02x} does not match round aggregate {}",
                    inner.kind(),
                )));
            }
        })
    }

    /// Counts a report [`ShardAggregator::check_wire`] accepted for this
    /// round; `bits` is reused scratch for an OUE bit list. Checks
    /// nothing: a report checked against another round is refused only
    /// when its kind differs.
    pub(crate) fn add_wire(&mut self, report: WireReport<'_>, bits: &mut Vec<usize>) -> Result<()> {
        match (&mut self.inner, report) {
            (
                Inner::Expand { counts, .. } | Inner::RefineSelect { counts, .. },
                WireReport::Select(sel),
            ) => counts[sel] += 1,
            (Inner::SubShape { aggs, .. }, WireReport::SubShape { level, value }) => {
                aggs[level - 1].add(value);
            }
            (Inner::RefineLabeled { agg, .. }, WireReport::Bits(body)) => {
                if let Some(agg) = agg {
                    wire::read_oue_bits(body, &mut 0, bits)?;
                    agg.add_bits(bits);
                }
            }
            (Inner::Length { agg, .. }, report) => match (agg, report) {
                (LengthAgg::Grr(agg), WireReport::Length(v)) => agg.add(v),
                (LengthAgg::Oue(agg), WireReport::Bits(body)) => {
                    wire::read_oue_bits(body, &mut 0, bits)?;
                    agg.add_bits(bits);
                }
                (LengthAgg::Olh(agg), WireReport::Olh(r)) => agg.add(&r),
                (LengthAgg::Piecewise(agg), WireReport::Piecewise(q)) => {
                    agg.add(q).map_err(piecewise_err)?;
                }
                _ => return Err(unchecked_report("length")),
            },
            (inner, _) => return Err(unchecked_report(inner.kind())),
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
        match (&mut self.inner, &other.inner) {
            (
                Inner::Length { agg, domain },
                Inner::Length {
                    agg: other_agg,
                    domain: other_domain,
                },
            ) if domain == other_domain && agg.same_oracle(other_agg) => agg.merge(other_agg),
            (
                Inner::SubShape { aggs, domain },
                Inner::SubShape {
                    aggs: other_aggs,
                    domain: other_domain,
                },
            ) if aggs.len() == other_aggs.len() && domain == other_domain => {
                for (mine, theirs) in aggs.iter_mut().zip(other_aggs) {
                    mine.merge(theirs);
                }
            }
            (
                Inner::Expand {
                    counts,
                    level,
                    table_gen,
                },
                Inner::Expand {
                    counts: other_counts,
                    level: other_level,
                    table_gen: other_gen,
                },
            ) if counts.len() == other_counts.len()
                && level == other_level
                && table_gen == other_gen =>
            {
                for (mine, theirs) in counts.iter_mut().zip(other_counts) {
                    *mine += theirs;
                }
            }
            (
                Inner::RefineSelect { counts, table_gen },
                Inner::RefineSelect {
                    counts: other_counts,
                    table_gen: other_gen,
                },
            ) if counts.len() == other_counts.len() && table_gen == other_gen => {
                for (mine, theirs) in counts.iter_mut().zip(other_counts) {
                    *mine += theirs;
                }
            }
            (
                Inner::RefineLabeled {
                    agg,
                    n_candidates,
                    n_classes,
                    table_gen,
                },
                Inner::RefineLabeled {
                    agg: other_agg,
                    n_candidates: other_cand,
                    n_classes: other_classes,
                    table_gen: other_gen,
                },
            ) if n_candidates == other_cand
                && n_classes == other_classes
                && table_gen == other_gen =>
            {
                if let (Some(mine), Some(theirs)) = (agg.as_mut(), other_agg.as_ref()) {
                    mine.merge(theirs);
                }
            }
            (mine, theirs) => {
                return Err(Error::Protocol(format!(
                    "cannot merge shard aggregate {} into {} (different rounds, domains, \
                     or candidate-table generations)",
                    theirs.kind(),
                    mine.kind(),
                )));
            }
        }
        self.reports += other.reports;
        Ok(())
    }

    /// The length estimate once all shards are in: `ℓ_S = lo + argmax`
    /// of the oracle's frequency estimates, except under the piecewise
    /// oracle, where the mean estimate is mapped back from `[−1, 1]` onto
    /// the length range, rounded, and clamped.
    pub fn finalize_length(&self, lo: usize) -> Result<usize> {
        match &self.inner {
            Inner::Length { agg, domain } => Ok(match agg {
                LengthAgg::Grr(agg) => lo + agg.argmax(),
                LengthAgg::Oue(agg) => lo + argmax_f64(&agg.estimates()),
                LengthAgg::Olh(agg) => lo + argmax_f64(&agg.estimates()),
                LengthAgg::Piecewise(agg) => {
                    // mean ∈ [−1, 1] → offset ∈ [0, domain − 1]; no
                    // reports estimates the bottom of the range, matching
                    // the all-zero-counts argmax of the other oracles.
                    let mean = agg.mean().unwrap_or(-1.0);
                    let offset = (mean + 1.0) / 2.0 * (*domain as f64 - 1.0);
                    lo + (offset.round().max(0.0) as usize).min(*domain - 1)
                }
            }),
            other => Err(wrong_finalize("length", other)),
        }
    }

    /// The per-level GRR aggregators of a sub-shape round.
    pub fn finalize_subshape(&self) -> Result<&[GrrAggregator]> {
        match &self.inner {
            Inner::SubShape { aggs, .. } => Ok(aggs),
            other => Err(wrong_finalize("sub-shape", other)),
        }
    }

    /// The per-candidate selection counts of an expand / unlabeled-refine
    /// round, as the f64 counts the trie and post-processing consume.
    pub fn finalize_selections(&self) -> Result<Vec<f64>> {
        match &self.inner {
            Inner::Expand { counts, .. } | Inner::RefineSelect { counts, .. } => {
                Ok(counts.iter().map(|&c| c as f64).collect())
            }
            other => Err(wrong_finalize("selection", other)),
        }
    }

    /// The per-class per-candidate unbiased estimates of a labeled
    /// refinement round. `group_len` is the size of the addressed group,
    /// used verbatim for the degenerate single-cell grid (whose reports
    /// carry no information).
    pub fn finalize_labeled(&self, group_len: usize) -> Result<Vec<Vec<f64>>> {
        match &self.inner {
            Inner::RefineLabeled {
                agg,
                n_candidates,
                n_classes,
                ..
            } => {
                let mut freqs = vec![vec![0.0; *n_candidates]; *n_classes];
                if let Some(agg) = agg {
                    for (class, class_freqs) in freqs.iter_mut().enumerate() {
                        for (cand, slot) in class_freqs.iter_mut().enumerate() {
                            *slot = agg.estimate(cand * n_classes + class);
                        }
                    }
                } else if *n_candidates == 1 && *n_classes == 1 {
                    // One candidate, one class: everyone matches it.
                    freqs[0][0] = group_len as f64;
                }
                Ok(freqs)
            }
            other => Err(wrong_finalize("labeled", other)),
        }
    }
}

/// Appends one LDP-aggregator count vector: `varint(total) varint(len)
/// varint(count)*`.
fn put_counts(buf: &mut Vec<u8>, counts: &[u64], total: u64) {
    wire::put_varint(buf, total);
    wire::put_varint(buf, counts.len() as u64);
    for &c in counts {
        wire::put_varint(buf, c);
    }
}

/// Inverse of [`put_counts`].
fn read_counts(buf: &[u8], pos: &mut usize) -> Result<(Vec<u64>, u64)> {
    let total = wire::read_varint(buf, pos)?;
    let len = wire::read_usize(buf, pos)?;
    // Every count needs at least one byte, so a length beyond the
    // remaining buffer is a truncation — refuse before reserving memory.
    if len > buf.len() - *pos {
        return Err(Error::Protocol(format!(
            "truncated snapshot: {len} counts claimed, {} bytes left",
            buf.len() - *pos
        )));
    }
    let mut counts = Vec::with_capacity(len);
    for _ in 0..len {
        counts.push(wire::read_varint(buf, pos)?);
    }
    Ok((counts, total))
}

fn snapshot_err(msg: impl Into<String>) -> Error {
    Error::Protocol(format!("invalid aggregator snapshot: {}", msg.into()))
}

/// Snapshot codec for the aggregator's dynamic state. The *static* shape
/// (round kind, domain, mechanism constants) is never serialized — the
/// restoring side rebuilds it from the round spec via
/// [`ShardAggregator::for_round`] and these methods only move the counts,
/// validating every structural invariant on the way in. Raw integer counts
/// round-trip exactly, so a restored aggregator is bit-identical to the
/// one dumped.
impl ShardAggregator {
    /// Appends the dynamic state (report total + raw counts) to `buf`
    /// using the wire codec's varint idioms.
    pub(crate) fn snapshot_state_into(&self, buf: &mut Vec<u8>) {
        wire::put_varint(buf, self.reports);
        match &self.inner {
            Inner::Length { agg, .. } => {
                buf.push(1);
                match agg {
                    LengthAgg::Grr(a) => {
                        buf.push(1);
                        put_counts(buf, a.counts(), a.total());
                    }
                    LengthAgg::Oue(a) => {
                        buf.push(2);
                        put_counts(buf, a.counts(), a.total());
                    }
                    LengthAgg::Olh(a) => {
                        buf.push(3);
                        put_counts(buf, a.support(), a.total());
                    }
                    LengthAgg::Piecewise(a) => {
                        buf.push(4);
                        wire::put_varint(buf, a.total());
                        buf.extend_from_slice(&a.sum().to_le_bytes());
                    }
                }
            }
            Inner::SubShape { aggs, .. } => {
                buf.push(2);
                wire::put_varint(buf, aggs.len() as u64);
                for a in aggs {
                    put_counts(buf, a.counts(), a.total());
                }
            }
            Inner::Expand {
                counts, table_gen, ..
            }
            | Inner::RefineSelect { counts, table_gen } => {
                buf.push(if matches!(self.inner, Inner::Expand { .. }) {
                    3
                } else {
                    4
                });
                wire::put_varint(buf, *table_gen);
                wire::put_varint(buf, counts.len() as u64);
                for &c in counts {
                    wire::put_varint(buf, c);
                }
            }
            Inner::RefineLabeled { agg, table_gen, .. } => {
                buf.push(5);
                wire::put_varint(buf, *table_gen);
                match agg {
                    Some(a) => {
                        buf.push(1);
                        put_counts(buf, a.counts(), a.total());
                    }
                    None => buf.push(0),
                }
            }
        }
    }

    /// Loads a snapshot produced by
    /// [`ShardAggregator::snapshot_state_into`] into this freshly built
    /// (`for_round`) aggregator, advancing `*pos` past it.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] when the snapshot's round kind, oracle, domain,
    /// or candidate-table generation disagrees with the round this
    /// aggregator was built for, when a count vector violates an LDP
    /// structural invariant, or on truncation. On error the aggregator is
    /// left unusable for the round (partially restored) — callers discard
    /// it.
    pub(crate) fn restore_state(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let reports = wire::read_varint(buf, pos)?;
        let tag = wire::read_tag(buf, pos)?;
        match (&mut self.inner, tag) {
            (Inner::Length { agg, .. }, 1) => {
                let oracle_tag = wire::read_tag(buf, pos)?;
                match (agg, oracle_tag) {
                    (LengthAgg::Grr(a), 1) => {
                        let (counts, total) = read_counts(buf, pos)?;
                        a.restore_counts(&counts, total)?;
                        check_total(total, reports)?;
                    }
                    (LengthAgg::Oue(a), 2) => {
                        let (counts, total) = read_counts(buf, pos)?;
                        a.restore_counts(&counts, total)?;
                        check_total(total, reports)?;
                    }
                    (LengthAgg::Olh(a), 3) => {
                        let (support, total) = read_counts(buf, pos)?;
                        a.restore_support(&support, total)?;
                        check_total(total, reports)?;
                    }
                    (LengthAgg::Piecewise(a), 4) => {
                        let total = wire::read_varint(buf, pos)?;
                        let Some(bytes) = buf.get(*pos..*pos + 16) else {
                            return Err(snapshot_err("truncated piecewise sum"));
                        };
                        *pos += 16;
                        let sum = i128::from_le_bytes(bytes.try_into().expect("16-byte slice"));
                        a.restore_sum(sum, total)?;
                        check_total(total, reports)?;
                    }
                    (_, t) => {
                        return Err(snapshot_err(format!(
                            "length oracle tag {t} does not match the round's oracle"
                        )));
                    }
                }
            }
            (Inner::SubShape { aggs, .. }, 2) => {
                let n = wire::read_usize(buf, pos)?;
                if n != aggs.len() {
                    return Err(snapshot_err(format!(
                        "sub-shape snapshot has {n} levels, round has {}",
                        aggs.len()
                    )));
                }
                let mut sum = 0u64;
                for a in aggs.iter_mut() {
                    let (counts, total) = read_counts(buf, pos)?;
                    a.restore_counts(&counts, total)?;
                    sum = sum
                        .checked_add(total)
                        .ok_or_else(|| snapshot_err("sub-shape report totals overflow u64"))?;
                }
                check_total(sum, reports)?;
            }
            (
                Inner::Expand {
                    counts, table_gen, ..
                },
                3,
            )
            | (Inner::RefineSelect { counts, table_gen }, 4) => {
                let gen = wire::read_varint(buf, pos)?;
                if gen != *table_gen {
                    return Err(snapshot_err(format!(
                        "candidate-table generation {gen:#x} does not match the rebuilt \
                         round's {:#x}",
                        table_gen
                    )));
                }
                let len = wire::read_usize(buf, pos)?;
                if len > buf.len() - *pos {
                    return Err(snapshot_err("truncated selection counts"));
                }
                let mut vals = Vec::with_capacity(len);
                for _ in 0..len {
                    vals.push(wire::read_varint(buf, pos)?);
                }
                if vals.len() != counts.len() {
                    return Err(snapshot_err(format!(
                        "{} selection counts, round has {}",
                        vals.len(),
                        counts.len()
                    )));
                }
                let sum = vals
                    .iter()
                    .try_fold(0u64, |sum, &v| sum.checked_add(v))
                    .ok_or_else(|| snapshot_err("selection counts overflow u64"))?;
                check_total(sum, reports)?;
                counts.copy_from_slice(&vals);
            }
            (Inner::RefineLabeled { agg, table_gen, .. }, 5) => {
                let gen = wire::read_varint(buf, pos)?;
                if gen != *table_gen {
                    return Err(snapshot_err(format!(
                        "candidate-table generation {gen:#x} does not match the rebuilt \
                         round's {:#x}",
                        table_gen
                    )));
                }
                let has_agg = wire::read_tag(buf, pos)?;
                match (agg.as_mut(), has_agg) {
                    (Some(a), 1) => {
                        let (counts, total) = read_counts(buf, pos)?;
                        a.restore_counts(&counts, total)?;
                        check_total(total, reports)?;
                    }
                    (None, 0) => {}
                    _ => {
                        return Err(snapshot_err(
                            "labeled-grid presence flag disagrees with the round",
                        ));
                    }
                }
            }
            (inner, tag) => {
                return Err(snapshot_err(format!(
                    "snapshot kind tag {tag} does not match round aggregate {}",
                    inner.kind()
                )));
            }
        }
        self.reports = reports;
        Ok(())
    }
}

/// A snapshot whose per-oracle report total disagrees with its declared
/// overall report count is forged or corrupted.
fn check_total(total: u64, reports: u64) -> Result<()> {
    if total != reports {
        return Err(snapshot_err(format!(
            "aggregate holds {total} reports but the snapshot declares {reports}"
        )));
    }
    Ok(())
}

fn wrong_finalize(wanted: &str, got: &Inner) -> Error {
    Error::Protocol(format!(
        "finalizing {wanted} round but aggregate holds {} state",
        got.kind()
    ))
}

impl Inner {
    fn kind(&self) -> &'static str {
        match self {
            Inner::Length { .. } => "length",
            Inner::SubShape { .. } => "sub-shape",
            Inner::Expand { .. } => "expand",
            Inner::RefineSelect { .. } => "refine-select",
            Inner::RefineLabeled { .. } => "refine-labeled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{Audience, GroupId};
    use privshape_timeseries::{CandidateTable, SymbolSeq};

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
        let (mut pos, mut bits, mut absorbed) = (0, Vec::new(), 0);
        while pos < frame.len() {
            let report = agg.check_wire(frame, &mut pos)?;
            agg.add_wire(report, &mut bits)?;
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
        let checked = length.check_wire(&wrong, &mut 0).unwrap();
        assert!(via_wire.add_wire(checked, &mut Vec::new()).is_err());
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
            assert!(sink.reports() > round.reports(), "{}", round.inner.kind());
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

    #[test]
    fn degenerate_length_round_is_rejected() {
        let spec = RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (3, 3),
            oracle: LengthOracle::Grr,
        };
        assert!(matches!(
            ShardAggregator::for_round(&spec, eps()),
            Err(Error::Protocol(_))
        ));
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

        // Sums past u64::MAX are refused, not added. Each state declares
        // one report, then its kind (and oracle or level count) bytes.
        let forged = |spec: &RoundSpec, head: &[u8], rest: &dyn Fn(&mut Vec<u8>)| {
            let mut state = [&[1], head].concat();
            rest(&mut state);
            let mut fresh = ShardAggregator::for_round(spec, eps()).unwrap();
            assert!(
                fresh.restore_state(&state, &mut 0).is_err(),
                "{}",
                spec.name()
            );
        };
        // GRR length counts.
        forged(&length_spec(), &[1, 1], &|b| {
            put_counts(b, &[u64::MAX, 1, 0, 0, 0, 0], 1)
        });
        // Sub-shape level totals.
        let subshape = RoundSpec::SubShape {
            audience: Audience::group(GroupId::Pb),
            ell_s: 3,
            alphabet: 3,
        };
        forged(&subshape, &[2, 2], &|b| {
            put_counts(b, &[u64::MAX, 0, 0, 0, 0, 0], u64::MAX);
            put_counts(b, &[1, 0, 0, 0, 0, 0], 1);
        });
        // Selection counts, under the table's own generation.
        let spec = expand_spec(2);
        let RoundSpec::Expand { candidates, .. } = &spec else {
            unreachable!()
        };
        forged(&spec, &[3], &|b| {
            for v in [candidates.fingerprint(), 2, u64::MAX, 1] {
                wire::put_varint(b, v);
            }
        });
        // A piecewise sum of i128::MIN has no absolute value to bound.
        forged(&oracle_spec(LengthOracle::Piecewise), &[1, 4, 1], &|b| {
            b.extend_from_slice(&i128::MIN.to_le_bytes())
        });
    }
}
