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
use std::sync::Arc;

/// Scratch buffers for [`DistanceKind::dist_with`](crate::DistanceKind::dist_with),
/// [`DistanceKind::dist_batch_with`](crate::DistanceKind::dist_batch_with),
/// and the prefix-resumable table scorers
/// ([`DistanceKind::table_row`](crate::DistanceKind::table_row),
/// [`DistanceKind::dist_batch_table`](crate::DistanceKind::dist_batch_table),
/// [`DistanceKind::argmin_table`](crate::DistanceKind::argmin_table)).
///
/// Holds the DTW rolling rows, the two symbol→`f64` index buffers, a
/// batch-score output buffer, and the depth-indexed DP row stack that
/// lets table scoring resume shared state across prefix-ordered
/// candidates. Buffers only ever grow, so a workspace that has seen the
/// longest sequence in a population allocates again only to remember new
/// sequences. Results are bit-identical to the allocating path (enforced
/// by the workspace-equality property test).
///
/// The table scorers also remember each own sequence's derived row
/// against the last (kind, table, salt) scored — `argmin_table` folds the
/// distance row `dist_batch_table` keeps — so a population whose members
/// share sequences scores and derives each distinct one once per table.
/// The memo resets whenever the kind, the table or the salt changes; it
/// recognises a table by its `Arc` pointer, exact because it holds a
/// clone of that `Arc`, so the address cannot be reused and the content
/// cannot change. It stops taking new entries at about 1 MiB of stored
/// values.
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
    /// A derived row on its way into (or past a full) memo.
    pub(crate) row: Vec<f64>,
    /// Depth-indexed DP rows (DTW / SED) or prefix sums (Euclidean) for
    /// the prefix-resumable table scorers.
    pub(crate) stack: Vec<f64>,
    /// Derived rows by own sequence.
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
    /// Candidate rows routed through `table_row` / `argmin_table` for DTW
    /// and SED (DTW against a non-empty own sequence), whether
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

/// Values the memo holds at most: about 1 MiB of `f64`s.
const MEMO_CAP: usize = (1 << 20) / std::mem::size_of::<f64>();

/// Derived rows remembered per own sequence, all against one
/// (kind, table) pair and under one derivation salt.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memo {
    /// The kind every row was scored under (`None` before the first).
    kind: Option<DistanceKind>,
    /// The table every row was scored against. Holding a clone keeps
    /// the allocation alive and immutable, so a caller's `Arc` that
    /// points at it is this very table: no other table can take its
    /// address while the memo holds it.
    table: Option<Arc<CandidateTable>>,
    /// The derivation every row was derived under.
    salt: u64,
    /// Own sequence → its derived row's span in `values`.
    rows: HashMap<Box<[Symbol]>, (usize, usize)>,
    /// Every remembered row, back to back.
    values: Vec<f64>,
}

impl Memo {
    /// Forgets every row unless it was derived under `salt` from scores
    /// under `kind` against this very table (pointer identity, O(1)).
    pub(crate) fn retarget(&mut self, kind: DistanceKind, table: &Arc<CandidateTable>, salt: u64) {
        let same_table = self.table.as_ref().is_some_and(|t| Arc::ptr_eq(t, table));
        if self.kind != Some(kind) || !same_table || self.salt != salt {
            self.kind = Some(kind);
            self.table = Some(Arc::clone(table));
            self.salt = salt;
            self.rows.clear();
            self.values.clear();
        }
    }

    /// Where the remembered row of `own` lies, if any.
    pub(crate) fn row(&self, own: &[Symbol]) -> Option<(usize, usize)> {
        self.rows.get(own).copied()
    }

    /// The values of a span returned by [`Memo::row`].
    pub(crate) fn values(&self, (start, end): (usize, usize)) -> &[f64] {
        &self.values[start..end]
    }

    /// Remembers `own`'s row unless it would take the memo past
    /// [`MEMO_CAP`] values.
    pub(crate) fn insert_row(&mut self, own: &[Symbol], row: &[f64]) {
        let start = self.values.len();
        if start + row.len() <= MEMO_CAP {
            self.rows.insert(own.into(), (start, start + row.len()));
            self.values.extend_from_slice(row);
        }
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
