//! Reusable scratch state for allocation-free distance evaluation.
//!
//! Every distance in this crate except SED works on numeric index vectors,
//! and DTW additionally needs two DP rows. The plain
//! [`DistanceKind::dist`](crate::DistanceKind::dist) entry point used to
//! rebuild all of those on every call — three heap allocations per
//! user × candidate pair on the protocol hot path. A [`DistanceWorkspace`]
//! owns the buffers once and is reused across calls (and across rounds,
//! when held per worker thread), so steady-state scoring allocates only
//! when the table scorers' memo remembers a new own sequence.

use crate::dtw::Dtw;
use crate::DistanceKind;
use privshape_timeseries::{CandidateTable, Symbol};
use std::collections::HashMap;

/// Scratch buffers for [`DistanceKind::dist_with`](crate::DistanceKind::dist_with),
/// [`DistanceKind::dist_batch_with`](crate::DistanceKind::dist_batch_with),
/// and the prefix-resumable table scorers
/// ([`DistanceKind::dist_batch_table`](crate::DistanceKind::dist_batch_table),
/// [`DistanceKind::argmin_table`](crate::DistanceKind::argmin_table)).
///
/// Holds the DTW rolling rows, the two symbol→`f64` index buffers, a
/// batch-score output buffer, and the depth-indexed DP row stack (plus its
/// per-depth minima) that lets table scoring resume shared state across
/// prefix-ordered candidates. Buffers only ever grow, so a workspace that
/// has seen the longest sequence in a population allocates again only to
/// remember new sequences. Results are bit-identical to the allocating
/// path (enforced by the workspace-equality property test).
///
/// The table scorers also remember each own sequence's result against the
/// last (kind, table) pair scored, so a population whose members share
/// sequences scores each distinct one once per table. The memo resets
/// whenever the kind or the table's *content* changes, and stops taking
/// new entries at about 1 MiB of scores.
///
/// # Example
///
/// ```
/// use privshape_distance::{DistanceKind, DistanceWorkspace};
/// use privshape_timeseries::SymbolSeq;
///
/// let a = SymbolSeq::parse("acba").unwrap();
/// let b = SymbolSeq::parse("aba").unwrap();
/// let mut ws = DistanceWorkspace::new();
/// let fast = DistanceKind::Dtw.dist_with(&mut ws, a.symbols(), b.symbols());
/// assert_eq!(fast, DistanceKind::Dtw.dist(&a, &b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DistanceWorkspace {
    pub(crate) dtw: Dtw,
    pub(crate) ia: Vec<f64>,
    pub(crate) ib: Vec<f64>,
    pub(crate) batch: Vec<f64>,
    /// Depth-indexed DP rows (DTW / SED) or prefix sums (Euclidean) for
    /// the prefix-resumable table scorers.
    pub(crate) stack: Vec<f64>,
    /// Per-depth row minima backing early-abandoned argmin scans.
    pub(crate) mins: Vec<f64>,
    /// Table-scorer results by own sequence.
    pub(crate) memo: Memo,
    /// Counters for the table scorers; purely observational, never part
    /// of a result.
    pub(crate) stats: ScanStats,
}

/// Observational counters for the table scorers, accumulated on a
/// [`DistanceWorkspace`] across calls. They never influence scoring
/// results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate rows routed through `dist_batch_table` / `argmin_table`
    /// for DTW and SED (DTW against a non-empty own sequence), whether
    /// scored afresh or answered from the workspace's memo.
    pub rows: u64,
}

impl ScanStats {
    /// Adds another set of counters into this one (used to merge
    /// per-worker workspaces into fleet totals).
    pub fn merge(&mut self, other: &ScanStats) {
        self.rows += other.rows;
    }
}

/// Scores the memo holds at most: about 1 MiB of `f64`s.
const MEMO_CAP: usize = (1 << 20) / std::mem::size_of::<f64>();

/// Table-scorer results remembered per own sequence, all against one
/// (kind, table) pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memo {
    /// The kind every entry was scored under (`None` before the first).
    kind: Option<DistanceKind>,
    /// A copy of the table every entry was scored against. Compared by
    /// content: a freed table's address can come back as the next one's.
    table: CandidateTable,
    /// Own sequence → start of its batch in `scores`.
    batches: HashMap<Box<[Symbol]>, usize>,
    /// Own sequence → its `argmin_table` result.
    argmins: HashMap<Box<[Symbol]>, (usize, f64)>,
    /// Every remembered batch, back to back.
    scores: Vec<f64>,
}

impl Memo {
    /// Forgets every entry unless they were scored under `kind` against
    /// a table with the same content as `table`.
    pub(crate) fn retarget(&mut self, kind: DistanceKind, table: &CandidateTable) {
        if self.kind != Some(kind) || self.table != *table {
            self.kind = Some(kind);
            self.table = table.clone();
            self.batches.clear();
            self.argmins.clear();
            self.scores.clear();
        }
    }

    /// The remembered batch of `own`, if any.
    pub(crate) fn batch(&self, own: &[Symbol]) -> Option<&[f64]> {
        let start = *self.batches.get(own)?;
        Some(&self.scores[start..start + self.table.len()])
    }

    /// Remembers `own`'s batch unless the memo is full.
    pub(crate) fn insert_batch(&mut self, own: &[Symbol], batch: &[f64]) {
        if self.has_room(batch.len()) {
            self.batches.insert(own.into(), self.scores.len());
            self.scores.extend_from_slice(batch);
        }
    }

    /// The remembered argmin of `own`, if any.
    pub(crate) fn argmin(&self, own: &[Symbol]) -> Option<(usize, f64)> {
        self.argmins.get(own).copied()
    }

    /// Remembers `own`'s argmin unless the memo is full.
    pub(crate) fn insert_argmin(&mut self, own: &[Symbol], best: (usize, f64)) {
        if self.has_room(1) {
            self.argmins.insert(own.into(), best);
        }
    }

    /// Whether `n` more scores fit under [`MEMO_CAP`] (an argmin counts
    /// as one).
    fn has_room(&self, n: usize) -> bool {
        self.scores.len() + self.argmins.len() + n <= MEMO_CAP
    }
}

impl DistanceWorkspace {
    /// An empty workspace; buffers are grown lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scan counters accumulated so far (see [`ScanStats`]).
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Counts a table scan of `rows` rows against `own` under `kind` in
    /// [`ScanStats::rows`]; hits and misses of the memo both land here.
    pub(crate) fn count_rows(&mut self, kind: DistanceKind, own: &[Symbol], rows: usize) {
        let routed = match kind {
            DistanceKind::Dtw => !own.is_empty(),
            DistanceKind::Sed => true,
            DistanceKind::Euclidean | DistanceKind::Hausdorff => false,
        };
        if routed {
            self.stats.rows += rows as u64;
        }
    }

    /// Fills the two index buffers with the numeric view of `a` and `b`
    /// (the allocation-free counterpart of `SymbolSeq::as_indices`).
    pub(crate) fn load_indices(&mut self, a: &[Symbol], b: &[Symbol]) {
        self.ia.clear();
        self.ia.extend(a.iter().map(|s| s.index() as f64));
        self.ib.clear();
        self.ib.extend(b.iter().map(|s| s.index() as f64));
    }

    /// Fills only the own-sequence index buffer (table scorers read the
    /// candidate symbols straight out of the packed table).
    pub(crate) fn load_own(&mut self, a: &[Symbol]) {
        self.ia.clear();
        self.ia.extend(a.iter().map(|s| s.index() as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_timeseries::SymbolSeq;

    #[test]
    fn load_indices_matches_as_indices() {
        let a = SymbolSeq::parse("acb").unwrap();
        let b = SymbolSeq::parse("za").unwrap();
        let mut ws = DistanceWorkspace::new();
        ws.load_indices(a.symbols(), b.symbols());
        assert_eq!(ws.ia, a.as_indices());
        assert_eq!(ws.ib, b.as_indices());
        // Reuse with shorter inputs truncates, never leaves stale tails.
        ws.load_indices(b.symbols(), &[]);
        assert_eq!(ws.ia, b.as_indices());
        assert!(ws.ib.is_empty());
    }
}
