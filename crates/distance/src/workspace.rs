//! Reusable scratch state for allocation-free distance evaluation.
//!
//! Every distance in this crate except SED works on numeric index vectors,
//! and DTW additionally needs two DP rows. The plain
//! [`DistanceKind::dist`](crate::DistanceKind::dist) entry point used to
//! rebuild all of those on every call — three heap allocations per
//! user × candidate pair on the protocol hot path. A [`DistanceWorkspace`]
//! owns the buffers once and is reused across calls (and across rounds,
//! when held per worker thread), so steady-state scoring performs no
//! allocation at all.

use crate::dtw::Dtw;
use privshape_timeseries::Symbol;

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
/// has seen the longest sequence in a population never allocates again.
/// Results are bit-identical to the allocating path (enforced by the
/// workspace-equality property test).
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
    /// for DTW and SED.
    pub rows: u64,
}

impl ScanStats {
    /// Adds another set of counters into this one (used to merge
    /// per-worker workspaces into fleet totals).
    pub fn merge(&mut self, other: &ScanStats) {
        self.rows += other.rows;
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
