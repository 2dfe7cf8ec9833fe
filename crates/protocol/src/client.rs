//! The user side of the protocol: one device, one series, one report.
//!
//! A [`UserClient`] owns a single user's (already symbolized) sequence and
//! answers at most one [`RoundSpec`] per mechanism run — the one addressed
//! to its group. Everything the client does is derived locally from the
//! broadcast [`ProtocolParams`] and its own `user_id`:
//!
//! * its **group assignment** replays the server's seeded shuffle
//!   ([`GroupAssignment::derive`]), so no roster ever has to be sent;
//! * its **randomness** comes from the per-`(seed, stage, user)` ChaCha
//!   stream of [`crate::rng::user_rng`];
//! * its **report** is perturbed on-device under the full budget ε before
//!   anything is uploaded.
//!
//! Raw series and symbol sequences never cross this boundary.

use crate::config::{length_domain, LengthOracle, MAX_LENGTH_DOMAIN};
use crate::error::{Error, Result};
use crate::params::{MechanismKind, ProtocolParams};
use crate::population::{chunk_of_rank, shuffled_users, split_population};
use crate::rng::{user_rng, Stage};
use crate::round::{Audience, GroupId, Report, RoundSpec};
use crate::transform::transform_series;
use privshape_distance::{em_score, DistanceKind, DistanceWorkspace};
use privshape_ldp::{Epsilon, ExpMech, Grr, Olh, Oue, PiecewiseMechanism};
use privshape_timeseries::{CandidateTable, Symbol, SymbolSeq, TimeSeries, MAX_ALPHABET};
use privshape_trie::BigramSet;
use rand::{Rng, RngExt};
use std::sync::Arc;

/// A user's place in the population partition, derived locally.
///
/// The default is the unassigned user's: in no group, so never addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupAssignment {
    /// The group this user reports in; `None` if the split fractions left
    /// the user unassigned (they stay silent for the whole session).
    pub group: Option<GroupId>,
    /// The user's rank (position) inside its group — determines which
    /// chunked round addresses it.
    pub rank: usize,
    /// Total size of the user's group.
    pub group_len: usize,
}

impl GroupAssignment {
    /// Derives the assignment of every user in the population.
    ///
    /// This replays the server's seeded Fisher–Yates shuffle, so it is a
    /// pure function of the broadcast parameters: any client (or shard)
    /// computes the identical partition without communication.
    ///
    /// A population too large to index (`params.n` past what memory can
    /// hold, e.g. `usize::MAX`) gets no assignments: every device then
    /// enrolls unassigned, and [`crate::Session`] refuses that population
    /// with a typed error.
    pub fn derive_all(params: &ProtocolParams) -> Vec<GroupAssignment> {
        let mut out = Vec::new();
        if out.try_reserve_exact(params.n).is_err() {
            return out;
        }
        out.resize(params.n, GroupAssignment::default());
        let mut place = |users: &[usize], group: GroupId| {
            for (rank, &user) in users.iter().enumerate() {
                out[user] = GroupAssignment {
                    group: Some(group),
                    rank,
                    group_len: users.len(),
                };
            }
        };
        let placed = match &params.kind {
            MechanismKind::PrivShape { split } => split_population(params.n, split, params.seed)
                .map(|groups| {
                    place(&groups.pa, GroupId::Pa);
                    place(&groups.pb, GroupId::Pb);
                    place(&groups.pc, GroupId::Pc);
                    place(&groups.pd, GroupId::Pd);
                }),
            MechanismKind::Baseline { pa } => {
                baseline_split(params.n, *pa, params.seed).map(|(group_a, group_b)| {
                    place(&group_a, GroupId::Pa);
                    place(&group_b, GroupId::Pb);
                })
            }
        };
        if placed.is_err() {
            out = Vec::new();
        }
        out
    }

    /// Derives one user's assignment (O(n): replays the full shuffle).
    /// Simulated fleets should call [`GroupAssignment::derive_all`] once
    /// and share the result. A user id outside the session's population
    /// (`user >= params.n`) is unassigned, like the split's leftovers.
    pub fn derive(params: &ProtocolParams, user: usize) -> GroupAssignment {
        Self::derive_all(params)
            .get(user)
            .copied()
            .unwrap_or_default()
    }

    /// Whether a round addressed to `audience` is addressed to this user.
    pub fn addressed_by(&self, audience: Audience) -> bool {
        let Some(group) = self.group else {
            return false;
        };
        if group != audience.group {
            return false;
        }
        match audience.chunk {
            None => true,
            // A zero-chunk audience is malformed: addressed to no one
            // rather than a panic — the client must survive bad broadcasts.
            Some(chunk) => {
                chunk.of >= 1
                    && self.rank < self.group_len
                    && chunk_of_rank(self.rank, self.group_len, chunk.of) == chunk.index
            }
        }
    }
}

/// The baseline's two-way split: a seeded shuffle, first `round(n·pa)`
/// users to length estimation, the rest to trie expansion.
pub(crate) fn baseline_split(n: usize, pa: f64, seed: u64) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut order = shuffled_users(n, seed, 1)?;
    let na = (((n as f64) * pa).round() as usize).min(n);
    let group_b = order.split_off(na);
    Ok((order, group_b))
}

/// One user's device in the protocol.
#[derive(Debug, Clone)]
pub struct UserClient {
    user: usize,
    seq: SymbolSeq,
    label: Option<usize>,
    /// The three broadcast constants answering reads (the session seed,
    /// ε and the distance); the rest of [`ProtocolParams`] is only needed
    /// at enrollment, so devices do not each keep a copy of it.
    seed: u64,
    epsilon: Epsilon,
    distance: DistanceKind,
    assignment: GroupAssignment,
    answered: bool,
}

impl UserClient {
    /// Enrolls a user: transforms the raw series on-device and derives the
    /// group assignment from the broadcast parameters (O(n); fleets should
    /// precompute assignments via [`GroupAssignment::derive_all`] and use
    /// [`UserClient::with_assignment`]).
    pub fn new(user: usize, series: &TimeSeries, params: &ProtocolParams) -> Self {
        let assignment = GroupAssignment::derive(params, user);
        Self::with_assignment(user, series, None, params, assignment)
    }

    /// Enrolls a user with a class label (classification variant).
    pub fn labeled(
        user: usize,
        series: &TimeSeries,
        label: usize,
        params: &ProtocolParams,
    ) -> Self {
        let assignment = GroupAssignment::derive(params, user);
        Self::with_assignment(user, series, Some(label), params, assignment)
    }

    /// Enrolls a user with a precomputed assignment (the fleet-simulation
    /// path: derive all assignments once, then construct clients in
    /// parallel).
    pub fn with_assignment(
        user: usize,
        series: &TimeSeries,
        label: Option<usize>,
        params: &ProtocolParams,
        assignment: GroupAssignment,
    ) -> Self {
        let seq = transform_series(series, &params.sax, &params.preprocessing);
        Self::from_sequence(user, seq, label, params, assignment)
    }

    /// Enrolls a user whose series is already symbolized (tests, ablations
    /// that bypass SAX, or devices that preprocess separately).
    pub fn from_sequence(
        user: usize,
        seq: SymbolSeq,
        label: Option<usize>,
        params: &ProtocolParams,
        assignment: GroupAssignment,
    ) -> Self {
        Self {
            user,
            seq,
            label,
            seed: params.seed,
            epsilon: params.epsilon,
            distance: params.distance,
            assignment,
            answered: false,
        }
    }

    /// The user's id.
    pub fn user_id(&self) -> usize {
        self.user
    }

    /// The locally derived group assignment.
    pub fn assignment(&self) -> GroupAssignment {
        self.assignment
    }

    /// Whether this client has already spent its one report.
    pub fn has_answered(&self) -> bool {
        self.answered
    }

    /// Answers a round if (and only if) it is addressed to this user.
    ///
    /// Returns `Ok(None)` for rounds addressed elsewhere. Each client
    /// answers at most once per session — a second addressed round is a
    /// protocol violation (the server double-spent this user's budget) and
    /// is refused with [`Error::Protocol`].
    ///
    /// Convenience wrapper over [`UserClient::answer_with`] with a
    /// throwaway scoring workspace; fleets that pump many clients should
    /// hold one [`DistanceWorkspace`] per worker thread and call
    /// `answer_with` so the scoring buffers persist across clients and
    /// rounds.
    pub fn answer(&mut self, spec: &RoundSpec) -> Result<Option<Report>> {
        let mut ws = DistanceWorkspace::new();
        self.answer_with(spec, &mut ws)
    }

    /// [`UserClient::answer`] scoring through a caller-provided workspace.
    ///
    /// All candidates of a selection round are scored through `ws`, which
    /// allocates only to remember a sequence it has not scored against
    /// the round's table; the workspace never influences the report
    /// (results are bit-identical for any sharing pattern).
    pub fn answer_with(
        &mut self,
        spec: &RoundSpec,
        ws: &mut DistanceWorkspace,
    ) -> Result<Option<Report>> {
        if !self.assignment.addressed_by(spec.audience()) {
            return Ok(None);
        }
        if self.answered {
            return Err(Error::Protocol(format!(
                "user {} addressed twice (round {:?} would double-spend its budget)",
                self.user,
                spec.name()
            )));
        }
        let report = match spec {
            RoundSpec::Length { range, oracle, .. } => self.answer_length(*range, *oracle)?,
            RoundSpec::SubShape {
                ell_s, alphabet, ..
            } => self.answer_subshape(*ell_s, *alphabet)?,
            RoundSpec::Expand {
                level, candidates, ..
            } => Report::Expand(self.em_select(ws, candidates, Some(*level))?),
            RoundSpec::RefineUnlabeled { candidates, .. } => {
                Report::RefineSelect(self.em_select(ws, candidates, None)?)
            }
            RoundSpec::RefineLabeled {
                candidates,
                n_classes,
                ..
            } => self.answer_refine_labeled(ws, candidates, *n_classes)?,
        };
        self.answered = true;
        Ok(Some(report))
    }

    /// Frequency-oracle report of the clipped compressed length (Eq. (1);
    /// GRR by default, the spec's [`LengthOracle`] otherwise). Every
    /// oracle draws from the same `(seed, Length, user)` stream, so a
    /// session is deterministic given its params regardless of oracle.
    fn answer_length(&self, range: (usize, usize), oracle: LengthOracle) -> Result<Report> {
        let (lo, hi) = range;
        if lo >= hi {
            return Err(Error::Protocol(format!(
                "length round needs a non-degenerate range, got [{lo}, {hi}]"
            )));
        }
        let Some(domain) = length_domain(lo, hi) else {
            return Err(Error::Protocol(format!(
                "length round over [{lo}, {hi}] spans more than {MAX_LENGTH_DOMAIN} lengths"
            )));
        };
        let clipped = self.seq.len().clamp(lo, hi);
        let offset = clipped - lo;
        let mut rng = user_rng(self.seed, Stage::Length, self.user);
        Ok(match oracle {
            LengthOracle::Grr => {
                let grr = Grr::new(domain, self.epsilon)?;
                Report::Length(grr.perturb(&mut rng, offset))
            }
            LengthOracle::Oue => {
                let oue = Oue::new(domain, self.epsilon)?;
                Report::LengthOue(oue.perturb(&mut rng, offset))
            }
            LengthOracle::Olh => {
                let olh = Olh::new(self.epsilon);
                Report::LengthOlh(olh.perturb(&mut rng, offset))
            }
            LengthOracle::Piecewise => {
                // Map the clipped length onto the mechanism's [−1, 1]
                // input range, perturb, and quantize for the wire.
                let pm = PiecewiseMechanism::new(self.epsilon);
                let t = if domain > 1 {
                    -1.0 + 2.0 * offset as f64 / (domain as f64 - 1.0)
                } else {
                    0.0
                };
                Report::LengthPiecewise(pm.quantize(pm.perturb(&mut rng, t)))
            }
        })
    }

    /// GRR report of the bigram at a uniformly self-sampled level (§IV-B).
    /// The level choice is data-independent, so only the GRR report
    /// consumes budget. A broadcast alphabet outside `2..=MAX_ALPHABET`,
    /// or one the device's own symbols do not fit in, is refused before
    /// any draw.
    fn answer_subshape(&self, ell_s: usize, alphabet: usize) -> Result<Report> {
        if ell_s <= 1 {
            return Err(Error::Protocol(format!(
                "sub-shape round with ell_s = {ell_s} has no levels to sample"
            )));
        }
        if !(2..=MAX_ALPHABET).contains(&alphabet) {
            return Err(Error::Protocol(format!(
                "sub-shape round over an alphabet of {alphabet} symbols (must be 2..={MAX_ALPHABET})"
            )));
        }
        if let Some(s) = self.seq.symbols().iter().find(|s| s.index() >= alphabet) {
            return Err(Error::Protocol(format!(
                "user {} holds symbol {s}, outside the broadcast alphabet of {alphabet} symbols",
                self.user
            )));
        }
        let levels = ell_s - 1;
        let grr = Grr::new(alphabet * (alphabet - 1), self.epsilon)?;
        let mut rng = user_rng(self.seed, Stage::SubShape, self.user);
        // Uniform level choice (independent of the data).
        let level = rng.random_range(1..=levels);
        let value = bigram_at(&self.seq, level, alphabet, &mut rng);
        Ok(Report::SubShape {
            level,
            value: grr.perturb(&mut rng, value),
        })
    }

    /// EM selection among candidates (Eq. (2)): prefix-clipped during
    /// expansion (`Some(level)`), full-sequence in refinement (`None`).
    ///
    /// The selection row comes from the workspace's table scorer: the
    /// prefix-resumable batch scorer computes the distances once per
    /// distinct trie symbol, [`em_score`] and [`ExpMech::prepare`] turn
    /// them into the row, and the workspace keeps that row under this
    /// device's ε. A sequence the workspace has already seen against this
    /// table draws straight from the remembered row, allocating nothing;
    /// only the draws on the device's own stream remain.
    fn em_select(
        &self,
        ws: &mut DistanceWorkspace,
        candidates: &Arc<CandidateTable>,
        prefix_len: Option<usize>,
    ) -> Result<usize> {
        if candidates.is_empty() {
            return Err(Error::Protocol(
                "selection round broadcast with no candidates".into(),
            ));
        }
        let symbols = self.seq.symbols();
        let own: &[Symbol] = match prefix_len {
            Some(len) => &symbols[..len.min(symbols.len())],
            None => symbols,
        };
        let em = ExpMech::new(self.epsilon);
        let salt = self.epsilon.value().to_bits();
        let row = self
            .distance
            .table_row(ws, own, candidates, salt, |scores, row| {
                for s in scores.iter_mut() {
                    *s = em_score(*s);
                }
                em.prepare(scores, row);
            });
        let mut rng = user_rng(self.seed, Stage::Expand, self.user);
        Ok(em.select_prepared(&mut rng, row)?)
    }

    /// OUE report of `(nearest candidate, class label)` over the
    /// candidate × class grid (§V-E).
    fn answer_refine_labeled(
        &self,
        ws: &mut DistanceWorkspace,
        candidates: &Arc<CandidateTable>,
        n_classes: usize,
    ) -> Result<Report> {
        let label = self.label.ok_or_else(|| {
            Error::BadLabels(format!(
                "user {} has no label for a labeled round",
                self.user
            ))
        })?;
        if n_classes == 0 {
            return Err(Error::BadLabels("n_classes must be >= 1".into()));
        }
        if label >= n_classes {
            return Err(Error::BadLabels(format!(
                "user {} has label {label} >= n_classes {n_classes}",
                self.user
            )));
        }
        // Nearest candidate under the configured distance (ties toward the
        // earlier candidate — deterministic): the first minimum of the
        // distance row the workspace memoizes per sequence. An empty table
        // degrades to candidate 0 (the report then carries no candidate
        // information).
        let best_c = self
            .distance
            .argmin_table(ws, self.seq.symbols(), candidates)
            .map_or(0, |(c, _)| c);
        let cell = best_c * n_classes + label;
        let mut rng = user_rng(self.seed, Stage::Refine, self.user);
        let cells = candidates.len() * n_classes;
        let report = if cells >= 2 {
            Oue::new(cells, self.epsilon)?.perturb(&mut rng, cell)
        } else {
            // Single-cell degenerate grid: the report carries no
            // information, so emit an empty-domain OUE report.
            Oue::new(2, self.epsilon)?.perturb(&mut rng, 0)
        };
        Ok(Report::RefineLabeled(report))
    }
}

/// The user-side sub-shape at `level` (1-based): `(s_level, s_{level+1})`
/// of the sequence padded to ℓ_S.
///
/// Positions beyond the user's actual length are filled with a uniformly
/// random valid pair, keeping the report domain at `t(t−1)` and spreading
/// padding mass evenly so it cancels in the estimator's *ranking*
/// (DESIGN.md §2). A boundary pair with one real and one padded symbol is
/// completed by drawing the padded side uniformly from the symbols ≠ the
/// real one.
fn bigram_at<R: Rng + ?Sized>(
    seq: &SymbolSeq,
    level: usize,
    alphabet: usize,
    rng: &mut R,
) -> usize {
    let first = seq.get(level - 1);
    let second = seq.get(level);
    let (x, y) = match (first, second) {
        (Some(a), Some(b)) if a != b => (a, b),
        (Some(a), Some(_)) | (Some(a), None) => {
            // Degenerate equal pair (possible only for uncompressed ablation
            // input) or a boundary pair: draw the successor uniformly among
            // the other symbols.
            let mut other = rng.random_range(0..alphabet - 1);
            if other >= a.index() {
                other += 1;
            }
            (a, privshape_timeseries::Symbol::from_index(other as u8))
        }
        _ => {
            // Fully padded level: uniform valid pair.
            let idx = rng.random_range(0..alphabet * (alphabet - 1));
            BigramSet::domain_index_to_pair(alphabet, idx).expect("index in domain")
        }
    };
    BigramSet::pair_to_domain_index(alphabet, x, y).expect("distinct pair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrivShapeConfig;
    use privshape_ldp::Epsilon;
    use privshape_timeseries::SaxParams;

    fn params(n: usize) -> ProtocolParams {
        let cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            2,
            SaxParams::new(10, 3).unwrap(),
        );
        ProtocolParams::privshape(&cfg, n)
    }

    fn table(rows: &[&str]) -> std::sync::Arc<CandidateTable> {
        std::sync::Arc::new(CandidateTable::parse_rows(rows).unwrap())
    }

    fn seq_client(user: usize, seq: &str, p: &ProtocolParams) -> UserClient {
        UserClient::from_sequence(
            user,
            SymbolSeq::parse(seq).unwrap(),
            None,
            p,
            GroupAssignment {
                group: Some(GroupId::Pa),
                rank: 0,
                group_len: 1,
            },
        )
    }

    #[test]
    fn assignments_partition_the_population() {
        let p = params(1000);
        let all = GroupAssignment::derive_all(&p);
        assert_eq!(all.len(), 1000);
        // Default split sums to 1: everyone is assigned, ranks are unique
        // within each group.
        let mut per_group: std::collections::HashMap<GroupId, Vec<usize>> = Default::default();
        for a in &all {
            let g = a.group.expect("default split assigns everyone");
            per_group.entry(g).or_default().push(a.rank);
        }
        for (g, mut ranks) in per_group {
            ranks.sort_unstable();
            let len = ranks.len();
            assert_eq!(ranks, (0..len).collect::<Vec<_>>(), "{g:?}");
        }
    }

    #[test]
    fn derive_matches_derive_all() {
        let p = params(64);
        let all = GroupAssignment::derive_all(&p);
        for (u, &a) in all.iter().enumerate() {
            assert_eq!(GroupAssignment::derive(&p, u), a);
        }
    }

    #[test]
    fn unindexable_populations_get_no_assignments() {
        let baseline = crate::config::BaselineConfig::new(
            Epsilon::new(4.0).unwrap(),
            2,
            SaxParams::new(10, 3).unwrap(),
        );
        for p in [
            params(usize::MAX),
            ProtocolParams::baseline(&baseline, usize::MAX),
        ] {
            assert!(GroupAssignment::derive_all(&p).is_empty());
            for user in [0, usize::MAX - 1] {
                assert_eq!(
                    GroupAssignment::derive(&p, user),
                    GroupAssignment::default()
                );
            }
        }
    }

    #[test]
    fn addressing_respects_group_and_chunk() {
        let a = GroupAssignment {
            group: Some(GroupId::Pc),
            rank: 5,
            group_len: 10,
        };
        assert!(a.addressed_by(Audience::group(GroupId::Pc)));
        assert!(!a.addressed_by(Audience::group(GroupId::Pa)));
        // 10 users, 3 chunks: sizes 4/3/3 — rank 5 sits in chunk 1.
        assert!(a.addressed_by(Audience::chunk(GroupId::Pc, 1, 3)));
        assert!(!a.addressed_by(Audience::chunk(GroupId::Pc, 0, 3)));
        let unassigned = GroupAssignment {
            group: None,
            rank: 0,
            group_len: 0,
        };
        assert!(!unassigned.addressed_by(Audience::group(GroupId::Pa)));
    }

    #[test]
    fn users_outside_the_session_enroll_unassigned() {
        let p = params(30);
        let series =
            TimeSeries::new((0..40).map(|i| (f64::from(i) * 0.3).sin()).collect()).unwrap();
        assert_eq!(
            GroupAssignment::derive(&p, 29),
            GroupAssignment::derive_all(&p)[29]
        );
        for mut device in [
            UserClient::new(35, &series, &p),
            UserClient::labeled(35, &series, 1, &p),
        ] {
            assert_eq!(device.assignment(), GroupAssignment::default());
            for group in [GroupId::Pa, GroupId::Pb, GroupId::Pc, GroupId::Pd] {
                let spec = RoundSpec::Length {
                    audience: Audience::group(group),
                    range: (1, 6),
                    oracle: LengthOracle::Grr,
                };
                assert!(device.answer(&spec).unwrap().is_none());
            }
        }
    }

    #[test]
    fn client_ignores_rounds_for_other_groups() {
        let p = params(4);
        let mut c = seq_client(0, "ab", &p);
        let spec = RoundSpec::RefineUnlabeled {
            audience: Audience::group(GroupId::Pd),
            candidates: table(&["ab"]),
        };
        assert!(c.answer(&spec).unwrap().is_none());
        assert!(!c.has_answered());
    }

    #[test]
    fn client_refuses_second_addressed_round() {
        let p = params(4);
        let mut c = seq_client(0, "ab", &p);
        let spec = RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (1, 6),
            oracle: LengthOracle::Grr,
        };
        assert!(c.answer(&spec).unwrap().is_some());
        assert!(matches!(c.answer(&spec), Err(Error::Protocol(_))));
    }

    #[test]
    fn client_refuses_malformed_broadcasts_without_panicking() {
        let p = params(4);
        // Degenerate length range: refused, not a panic/overflow.
        let mut c = seq_client(0, "ab", &p);
        let spec = RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (6, 1),
            oracle: LengthOracle::Grr,
        };
        assert!(matches!(c.answer(&spec), Err(Error::Protocol(_))));
        // A length domain whose size `hi − lo + 1` overflows, under every
        // oracle, or that spans 2^40 one-hot cells under OUE: refused
        // before anything is drawn or allocated.
        let oracles = [
            LengthOracle::Grr,
            LengthOracle::Oue,
            LengthOracle::Olh,
            LengthOracle::Piecewise,
        ];
        let huge = oracles
            .map(|oracle| ((0, usize::MAX), oracle))
            .into_iter()
            .chain([((1, 1 << 40), LengthOracle::Oue)]);
        for (range, oracle) in huge {
            let mut c = seq_client(0, "ab", &p);
            let spec = RoundSpec::Length {
                audience: Audience::group(GroupId::Pa),
                range,
                oracle,
            };
            let got = c.answer(&spec);
            assert!(
                matches!(got, Err(Error::Protocol(_))),
                "{range:?} under {oracle:?}: {got:?}"
            );
            assert!(!c.has_answered());
        }
        // Zero-chunk audience: addressed to no one, not an assert failure.
        let a = GroupAssignment {
            group: Some(GroupId::Pc),
            rank: 0,
            group_len: 4,
        };
        assert!(!a.addressed_by(Audience::chunk(GroupId::Pc, 0, 0)));
        // Sub-shape alphabets whose bigram domain `t(t − 1)` underflows
        // (0) or overflows (2^33), and an own symbol outside the alphabet:
        // refused, and the device can still answer a well-formed round.
        let subshape = |seq: &str, alphabet: usize| {
            let mut c = seq_client(0, seq, &p);
            let spec = RoundSpec::SubShape {
                audience: Audience::group(GroupId::Pa),
                ell_s: 3,
                alphabet,
            };
            (c.answer(&spec), c.has_answered())
        };
        for (seq, alphabet) in [("ab", 0), ("ab", 1), ("ab", 1 << 33), ("ce", 2), ("ab", 27)] {
            let (got, answered) = subshape(seq, alphabet);
            assert!(
                matches!(got, Err(Error::Protocol(_))),
                "{seq:?} over {alphabet}: {got:?}"
            );
            assert!(!answered, "{seq:?} over {alphabet}");
        }
        assert!(subshape("ce", 5).0.unwrap().is_some());
    }

    #[test]
    fn devices_with_different_budgets_share_one_workspace() {
        let sharp = params(4);
        let mut flat = params(4);
        flat.epsilon = Epsilon::new(0.05).unwrap();
        let spec = RoundSpec::Expand {
            audience: Audience::group(GroupId::Pa),
            level: 2,
            candidates: table(&["aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"]),
        };
        let mut shared = DistanceWorkspace::new();
        for user in 0..32 {
            for p in [&sharp, &flat] {
                let got = seq_client(user, "acba", p).answer_with(&spec, &mut shared);
                let want = seq_client(user, "acba", p).answer(&spec);
                assert_eq!(
                    got.unwrap(),
                    want.unwrap(),
                    "user {user} at ε {}",
                    p.epsilon.value()
                );
            }
        }
    }

    #[test]
    fn length_report_is_in_domain_and_deterministic() {
        let p = params(4);
        let spec = RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (1, 6),
            oracle: LengthOracle::Grr,
        };
        let r1 = seq_client(3, "abab", &p).answer(&spec).unwrap().unwrap();
        let r2 = seq_client(3, "abab", &p).answer(&spec).unwrap().unwrap();
        assert_eq!(r1, r2, "same (seed, user) must give the same report");
        match r1 {
            Report::Length(v) => assert!(v < 6),
            other => panic!("wrong report kind {other:?}"),
        }
    }

    #[test]
    fn length_oracles_answer_with_matching_report_kinds() {
        let p = params(4);
        for oracle in [
            LengthOracle::Oue,
            LengthOracle::Olh,
            LengthOracle::Piecewise,
        ] {
            let spec = RoundSpec::Length {
                audience: Audience::group(GroupId::Pa),
                range: (1, 6),
                oracle,
            };
            let r1 = seq_client(3, "abab", &p).answer(&spec).unwrap().unwrap();
            let r2 = seq_client(3, "abab", &p).answer(&spec).unwrap().unwrap();
            assert_eq!(r1, r2, "{oracle:?} must be deterministic per user");
            match (oracle, &r1) {
                (LengthOracle::Oue, Report::LengthOue(r)) => {
                    assert!(r.set_bits().iter().all(|&b| b < 6));
                }
                (LengthOracle::Olh, Report::LengthOlh(r)) => {
                    assert!(r.value < Olh::new(p.epsilon).g());
                }
                (LengthOracle::Piecewise, Report::LengthPiecewise(q)) => {
                    assert!(q.abs() <= PiecewiseMechanism::new(p.epsilon).quantized_bound());
                }
                (oracle, other) => panic!("{oracle:?} produced {other:?}"),
            }
        }
    }

    #[test]
    fn labeled_round_validates_labels() {
        let p = params(4);
        let spec = RoundSpec::RefineLabeled {
            audience: Audience::group(GroupId::Pa),
            candidates: table(&["ab"]),
            n_classes: 2,
        };
        // No label at all.
        assert!(matches!(
            seq_client(0, "ab", &p).answer(&spec),
            Err(Error::BadLabels(_))
        ));
        // Label out of range.
        let mut c = UserClient::from_sequence(
            0,
            SymbolSeq::parse("ab").unwrap(),
            Some(7),
            &p,
            GroupAssignment {
                group: Some(GroupId::Pa),
                rank: 0,
                group_len: 1,
            },
        );
        assert!(matches!(c.answer(&spec), Err(Error::BadLabels(_))));
    }

    #[test]
    fn baseline_split_covers_everyone() {
        let (pa, pb) = baseline_split(1000, 0.02, 9).unwrap();
        assert_eq!(pa.len(), 20);
        assert_eq!(pb.len(), 980);
        let mut all: Vec<usize> = pa.iter().chain(&pb).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }
}
