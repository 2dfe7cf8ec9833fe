//! Runtime-selectable distance over symbol sequences.

use crate::prefix;
use crate::workspace::DistanceWorkspace;
use crate::{euclidean_padded, hausdorff, sed};
use privshape_timeseries::{CandidateTable, Symbol, SymbolSeq};

/// The distance measures evaluated in the paper (§V-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceKind {
    /// Dynamic time warping over symbol indices (paper default, clustering).
    #[default]
    Dtw,
    /// String edit distance (paper default, classification).
    Sed,
    /// Euclidean over symbol indices with last-symbol padding.
    Euclidean,
    /// Hausdorff over `(time, symbol)` point sets.
    Hausdorff,
}

impl DistanceKind {
    /// All variants, in the order the paper reports them.
    pub const ALL: [DistanceKind; 4] = [
        DistanceKind::Dtw,
        DistanceKind::Sed,
        DistanceKind::Euclidean,
        DistanceKind::Hausdorff,
    ];

    /// Distance between two symbol sequences under this measure.
    ///
    /// Convenience wrapper that builds a throwaway [`DistanceWorkspace`];
    /// loops should hold one workspace and call
    /// [`DistanceKind::dist_with`] instead.
    pub fn dist(&self, a: &SymbolSeq, b: &SymbolSeq) -> f64 {
        let mut ws = DistanceWorkspace::new();
        self.dist_with(&mut ws, a.symbols(), b.symbols())
    }

    /// Distance between two symbol slices, reusing the workspace's DTW
    /// rows and index buffers — no allocation once the buffers have grown
    /// to the population's longest sequence. Bit-identical to
    /// [`DistanceKind::dist`].
    pub fn dist_with(&self, ws: &mut DistanceWorkspace, a: &[Symbol], b: &[Symbol]) -> f64 {
        match self {
            DistanceKind::Sed => sed(a, b),
            DistanceKind::Dtw => {
                ws.load_indices(a, b);
                let DistanceWorkspace { dtw, ia, ib, .. } = ws;
                dtw.dist(ia, ib)
            }
            DistanceKind::Euclidean => {
                ws.load_indices(a, b);
                euclidean_padded(&ws.ia, &ws.ib)
            }
            DistanceKind::Hausdorff => {
                ws.load_indices(a, b);
                hausdorff(&ws.ia, &ws.ib)
            }
        }
    }

    /// Distances from `own` to every candidate row, written into the
    /// workspace's batch buffer and returned as a mutable slice (callers
    /// typically transform the distances into selection scores in place).
    ///
    /// Equivalent to mapping [`DistanceKind::dist_with`] over the rows,
    /// with zero allocation in steady state.
    pub fn dist_batch_with<'w, 'a, I>(
        &self,
        ws: &'w mut DistanceWorkspace,
        own: &[Symbol],
        candidates: I,
    ) -> &'w mut [f64]
    where
        I: IntoIterator<Item = &'a [Symbol]>,
    {
        let mut batch = std::mem::take(&mut ws.batch);
        batch.clear();
        for row in candidates {
            batch.push(self.dist_with(ws, own, row));
        }
        ws.batch = batch;
        &mut ws.batch
    }

    /// Distances from `own` to every row of a packed [`CandidateTable`],
    /// written into the workspace's batch buffer.
    ///
    /// Same results as [`DistanceKind::dist_batch_with`] over
    /// `table.rows()` — bit-identical, row for row — but the table's
    /// precomputed LCP index ([`CandidateTable::lcp`]) lets DTW, SED, and
    /// Euclidean *resume* dynamic-programming state shared between
    /// consecutive rows instead of recomputing it: a prefix-ordered trie
    /// level costs O(#distinct trie symbols · n) rather than
    /// O(Σ|cᵢ| · n). Hausdorff has no prefix decomposition and takes the
    /// flat path. Zero allocation in steady state.
    pub fn dist_batch_table<'w>(
        &self,
        ws: &'w mut DistanceWorkspace,
        own: &[Symbol],
        table: &CandidateTable,
    ) -> &'w mut [f64] {
        match self {
            DistanceKind::Dtw => {
                ws.load_own(own);
                let DistanceWorkspace {
                    stack,
                    stats,
                    ia,
                    batch,
                    ..
                } = ws;
                prefix::dtw_batch(stack, stats, ia, table, batch);
            }
            DistanceKind::Sed => {
                let DistanceWorkspace {
                    stack,
                    stats,
                    batch,
                    ..
                } = ws;
                prefix::sed_batch(stack, stats, own, table, batch);
            }
            DistanceKind::Euclidean => {
                ws.load_own(own);
                let DistanceWorkspace {
                    stack, ia, batch, ..
                } = ws;
                prefix::euc_batch(stack, ia, table, batch);
            }
            DistanceKind::Hausdorff => return self.dist_batch_with(ws, own, table.rows()),
        }
        &mut ws.batch
    }

    /// `(row, distance)` of the first table row nearest to `own` under
    /// this measure, or `None` for an empty table.
    ///
    /// Equivalent to a full [`DistanceKind::dist_batch_table`] scan
    /// followed by a first-strict-minimum fold, but the argmin-only
    /// contract enables **early abandoning** on top of prefix reuse: DP
    /// values only grow with candidate depth, so once a shared row's
    /// minimum exceeds the running best, every candidate extending that
    /// prefix is skipped without touching its suffix. Ties resolve to the
    /// earlier row, exactly like the full scan.
    pub fn argmin_table(
        &self,
        ws: &mut DistanceWorkspace,
        own: &[Symbol],
        table: &CandidateTable,
    ) -> Option<(usize, f64)> {
        if table.is_empty() {
            return None;
        }
        Some(match self {
            DistanceKind::Dtw => {
                ws.load_own(own);
                let DistanceWorkspace {
                    stack,
                    mins,
                    stats,
                    ia,
                    ..
                } = ws;
                prefix::dtw_argmin(stack, mins, stats, ia, table)
            }
            DistanceKind::Sed => {
                let DistanceWorkspace {
                    stack, mins, stats, ..
                } = ws;
                prefix::sed_argmin(stack, mins, stats, own, table)
            }
            DistanceKind::Euclidean => {
                ws.load_own(own);
                let DistanceWorkspace {
                    stack, mins, ia, ..
                } = ws;
                prefix::euc_argmin(stack, mins, ia, table)
            }
            DistanceKind::Hausdorff => {
                let mut best = (0usize, f64::INFINITY);
                for (i, row) in table.rows().enumerate() {
                    let d = self.dist_with(ws, own, row);
                    if d < best.1 {
                        best = (i, d);
                    }
                }
                best
            }
        })
    }

    /// Short lowercase name used in experiment output (`dtw`, `sed`, …).
    pub fn name(&self) -> &'static str {
        match self {
            DistanceKind::Dtw => "dtw",
            DistanceKind::Sed => "sed",
            DistanceKind::Euclidean => "euclidean",
            DistanceKind::Hausdorff => "hausdorff",
        }
    }
}

impl std::fmt::Display for DistanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DistanceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dtw" => Ok(DistanceKind::Dtw),
            "sed" => Ok(DistanceKind::Sed),
            "euclidean" | "l2" => Ok(DistanceKind::Euclidean),
            "hausdorff" => Ok(DistanceKind::Hausdorff),
            other => Err(format!(
                "unknown distance {other:?} (dtw|sed|euclidean|hausdorff)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> SymbolSeq {
        SymbolSeq::parse(s).unwrap()
    }

    #[test]
    fn all_kinds_are_zero_on_identity_and_symmetric() {
        let a = seq("acba");
        let b = seq("abdc");
        for kind in DistanceKind::ALL {
            assert_eq!(kind.dist(&a, &a), 0.0, "{kind}");
            assert_eq!(kind.dist(&a, &b), kind.dist(&b, &a), "{kind}");
            assert!(kind.dist(&a, &b) > 0.0, "{kind}");
        }
    }

    #[test]
    fn kinds_disagree_where_expected() {
        // "ac" vs "ab": SED counts one edit; DTW/Euclidean see the magnitude.
        let x = seq("ac");
        let y = seq("ab");
        assert_eq!(DistanceKind::Sed.dist(&x, &y), 1.0);
        assert_eq!(DistanceKind::Dtw.dist(&x, &y), 1.0);
        let x2 = seq("az");
        assert_eq!(DistanceKind::Sed.dist(&x2, &y), 1.0); // still one edit
        assert!(DistanceKind::Dtw.dist(&x2, &y) > 20.0); // but much farther
    }

    #[test]
    fn parse_and_display_round_trip() {
        for kind in DistanceKind::ALL {
            let parsed: DistanceKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("cosine".parse::<DistanceKind>().is_err());
        assert_eq!(
            "L2".parse::<DistanceKind>().unwrap(),
            DistanceKind::Euclidean
        );
    }

    #[test]
    fn workspace_path_matches_allocating_path() {
        let pairs = [
            ("acba", "abdc"),
            ("a", "zyx"),
            ("abab", "abab"),
            ("", "ab"),
            ("", ""),
        ];
        let mut ws = DistanceWorkspace::new();
        for kind in DistanceKind::ALL {
            for (a, b) in pairs {
                let (a, b) = (seq(a), seq(b));
                let fast = kind.dist_with(&mut ws, a.symbols(), b.symbols());
                let slow = kind.dist(&a, &b);
                assert!(
                    fast == slow || (fast.is_infinite() && slow.is_infinite()),
                    "{kind} {a} {b}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_pairwise() {
        let own = seq("acb");
        let cands = [seq("ab"), seq("cba"), seq("a")];
        let mut ws = DistanceWorkspace::new();
        for kind in DistanceKind::ALL {
            let rows: Vec<&[_]> = cands.iter().map(|c| c.symbols()).collect();
            let batch = kind
                .dist_batch_with(&mut ws, own.symbols(), rows.iter().copied())
                .to_vec();
            let pairwise: Vec<f64> = cands.iter().map(|c| kind.dist(&own, c)).collect();
            assert_eq!(batch, pairwise, "{kind}");
        }
        // A second batch with fewer rows must not retain stale entries.
        let batch = DistanceKind::Sed
            .dist_batch_with(&mut ws, own.symbols(), std::iter::once(cands[0].symbols()))
            .to_vec();
        assert_eq!(batch.len(), 1);
    }
}
