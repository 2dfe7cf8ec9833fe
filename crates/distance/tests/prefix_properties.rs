//! Property tests for the prefix-resumable table scorers: resuming shared
//! DP state across candidates, and abandoning a shared prefix early in an
//! argmin scan, must be pure optimizations — bit-identical distances and
//! identical argmins versus the flat per-candidate path, for every
//! distance kind.
//!
//! Each property runs on two table shapes: free rows, and sibling runs
//! (1–5 children under each shared parent, the shape of a trie level).
//! Each shape is fed trie-ordered, in insertion order, and shuffled, with
//! one workspace reused throughout.

use privshape_distance::{DistanceKind, DistanceWorkspace};
use privshape_timeseries::{CandidateTable, Symbol, SymbolSeq};
use proptest::prelude::*;

fn seq_strategy() -> impl Strategy<Value = SymbolSeq> {
    // A small alphabet over moderately long rows makes shared prefixes
    // (and therefore real DP-state reuse) common rather than accidental.
    prop::collection::vec(0u8..4, 0..16)
        .prop_map(|v| SymbolSeq::from_symbols(v.into_iter().map(Symbol::from_index).collect()))
}

fn table_of(rows: &[SymbolSeq]) -> CandidateTable {
    let mut t = CandidateTable::new();
    for row in rows {
        t.push_seq(row);
    }
    t
}

/// Lexicographically sorted rows — the maximal-prefix-sharing order, the
/// shape of a trie level in creation order.
fn trie_ordered(rows: &[SymbolSeq]) -> Vec<SymbolSeq> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.symbols().cmp(b.symbols()));
    sorted
}

/// Exact equality that also accepts two same-signed infinities.
fn same(a: f64, b: f64) -> bool {
    a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
}

/// Sibling-group rows: each group is a shared prefix plus 1..=5 children
/// differing only in their final symbol (duplicates allowed).
fn sibling_rows_strategy() -> impl Strategy<Value = Vec<SymbolSeq>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u8..4, 0..10),
            prop::collection::vec(0u8..4, 1..6),
        ),
        1..6,
    )
    .prop_map(|groups| {
        let mut rows = Vec::new();
        for (prefix, lasts) in groups {
            for last in lasts {
                let mut r = prefix.clone();
                r.push(last);
                rows.push(SymbolSeq::from_symbols(
                    r.into_iter().map(Symbol::from_index).collect(),
                ));
            }
        }
        rows
    })
}

/// Deterministic Fisher–Yates driven by an LCG on `seed` (the vendored
/// proptest has no shuffle combinator).
fn shuffled(rows: &[SymbolSeq], mut seed: u64) -> Vec<SymbolSeq> {
    let mut v = rows.to_vec();
    for i in (1..v.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

/// `rows` trie-ordered, in insertion order, and shuffled by `seed`.
fn orderings(rows: &[SymbolSeq], seed: u64) -> [Vec<SymbolSeq>; 3] {
    [trie_ordered(rows), rows.to_vec(), shuffled(rows, seed)]
}

/// Every kind's table batch equals the flat allocating path bit for bit,
/// row for row, on each ordering of `rows`, with `ws` reused throughout.
fn check_batch_matches_flat(
    ws: &mut DistanceWorkspace,
    own: &SymbolSeq,
    rows: &[SymbolSeq],
    seed: u64,
) {
    for ordered in orderings(rows, seed) {
        let table = table_of(&ordered);
        for kind in DistanceKind::ALL {
            let batch = kind.dist_batch_table(ws, own.symbols(), &table).to_vec();
            prop_assert_eq!(batch.len(), ordered.len());
            for (got, cand) in batch.iter().zip(&ordered) {
                let want = kind.dist(own, cand);
                prop_assert!(
                    same(*got, want),
                    "{} on {} vs {}: {} != {}",
                    kind,
                    own,
                    cand,
                    got,
                    want
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The table batch scorer equals the flat allocating path bit for bit,
    /// row for row, on free rows — whether or not they arrive in prefix
    /// order, and with one workspace reused across every kind and order.
    #[test]
    fn prefix_batch_is_bit_identical_to_flat(
        own in seq_strategy(),
        rows in prop::collection::vec(seq_strategy(), 0..14),
        seed in 0u64..u64::MAX,
    ) {
        check_batch_matches_flat(&mut DistanceWorkspace::new(), &own, &rows, seed);
    }

    /// The same bit-identity on sibling-run tables, the shape of a trie
    /// level where runs of children share everything but their last
    /// symbol: trie-ordered, in insertion order, and shuffled.
    #[test]
    fn lane_batches_are_bit_identical_on_sibling_runs(
        own in seq_strategy(),
        rows in sibling_rows_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        check_batch_matches_flat(&mut DistanceWorkspace::new(), &own, &rows, seed);
    }

    /// The LCP index survives arbitrary interleavings of pushes: it never
    /// exceeds either adjacent row length and always equals the true
    /// common prefix.
    #[test]
    fn lcp_index_is_exact_for_any_insertion_order(
        rows in prop::collection::vec(seq_strategy(), 1..14),
    ) {
        let table = table_of(&rows);
        prop_assert_eq!(table.lcp(0), 0);
        for i in 1..table.len() {
            let want = table
                .row(i - 1)
                .iter()
                .zip(table.row(i))
                .take_while(|(a, b)| a == b)
                .count();
            prop_assert_eq!(table.lcp(i), want);
            prop_assert!(table.lcp(i) <= table.row(i).len());
            prop_assert!(table.lcp(i) <= table.row(i - 1).len());
        }
    }

    /// Early-abandoned argmin returns exactly what a full scan folded with
    /// first-strict-minimum returns: same row index, same distance.
    #[test]
    fn early_abandon_argmin_equals_full_scan(
        own in seq_strategy(),
        rows in prop::collection::vec(seq_strategy(), 1..14),
        siblings in sibling_rows_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut ws = DistanceWorkspace::new();
        for ordered in orderings(&rows, seed).into_iter().chain(orderings(&siblings, seed)) {
            let table = table_of(&ordered);
            for kind in DistanceKind::ALL {
                let mut want = (0usize, f64::INFINITY);
                for (i, cand) in ordered.iter().enumerate() {
                    let d = kind.dist(&own, cand);
                    if d < want.1 {
                        want = (i, d);
                    }
                }
                let got = kind
                    .argmin_table(&mut ws, own.symbols(), &table)
                    .expect("non-empty table");
                prop_assert_eq!(got.0, want.0, "{} on {}", kind, own);
                prop_assert!(
                    same(got.1, want.1),
                    "{} on {}: {} != {}", kind, own, got.1, want.1
                );
            }
        }
    }
}
