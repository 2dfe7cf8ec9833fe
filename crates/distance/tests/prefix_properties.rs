//! Property tests for the prefix-resumable table scorers: resuming shared
//! DP state across candidates must be a pure optimization — bit-identical
//! distances and identical argmins versus the flat per-candidate path, for
//! every distance kind.
//!
//! Each property runs on two table shapes: free rows, and sibling runs
//! (1–5 children under each shared parent, the shape of a trie level).
//! Each shape is fed trie-ordered, in insertion order, and shuffled, with
//! one workspace reused throughout. The workspace's memo of earlier
//! rows must be invisible too: a workspace fed repeated owns, revisited
//! tables, changing derivations and argmins folded from the remembered
//! distance rows answers and counts exactly like fresh ones.

use privshape_distance::{DistanceKind, DistanceWorkspace};
use privshape_timeseries::{CandidateTable, Symbol, SymbolSeq};
use proptest::prelude::*;
use std::sync::Arc;

fn seq_strategy() -> impl Strategy<Value = SymbolSeq> {
    // A small alphabet over moderately long rows makes shared prefixes
    // (and therefore real DP-state reuse) common rather than accidental.
    prop::collection::vec(0u8..4, 0..16)
        .prop_map(|v| SymbolSeq::from_symbols(v.into_iter().map(Symbol::from_index).collect()))
}

fn table_of(rows: &[SymbolSeq]) -> Arc<CandidateTable> {
    let mut t = CandidateTable::new();
    for row in rows {
        t.push_seq(row);
    }
    Arc::new(t)
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

/// One packed table per ordering of `rows`.
fn ordered_tables(rows: &[SymbolSeq], seed: u64) -> Vec<Arc<CandidateTable>> {
    orderings(rows, seed).iter().map(|r| table_of(r)).collect()
}

/// Every kind's table batch equals the flat allocating path bit for bit,
/// row for row, for each own in turn against each table, with `ws` reused
/// throughout. Kinds are the outer loop, so a table that repeats under
/// one kind can be answered from the memo. Returns the rows fresh
/// workspaces count for the same calls.
fn check_batch_matches_flat(
    ws: &mut DistanceWorkspace,
    owns: &[SymbolSeq],
    tables: &[Arc<CandidateTable>],
) -> u64 {
    let mut fresh_rows = 0;
    for kind in DistanceKind::ALL {
        for table in tables {
            let rows = table.to_seqs();
            for own in owns {
                let batch = kind.dist_batch_table(ws, own.symbols(), table).to_vec();
                let mut fresh = DistanceWorkspace::new();
                kind.dist_batch_table(&mut fresh, own.symbols(), table);
                fresh_rows += fresh.stats().rows;
                prop_assert_eq!(batch.len(), rows.len());
                for (got, cand) in batch.iter().zip(&rows) {
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
    fresh_rows
}

/// `argmin_table` returns exactly what the flat path folded with
/// first-strict-minimum returns (same row index, same distance), for each
/// own against each non-empty table, in the loop order of
/// [`check_batch_matches_flat`]. Returns the rows fresh workspaces count.
fn check_argmin_matches_full_scan(
    ws: &mut DistanceWorkspace,
    owns: &[SymbolSeq],
    tables: &[Arc<CandidateTable>],
) -> u64 {
    let mut fresh_rows = 0;
    for kind in DistanceKind::ALL {
        for table in tables {
            let rows = table.to_seqs();
            for own in owns {
                let mut want = (0usize, f64::INFINITY);
                for (i, cand) in rows.iter().enumerate() {
                    let d = kind.dist(own, cand);
                    if d < want.1 {
                        want = (i, d);
                    }
                }
                let got = kind
                    .argmin_table(ws, own.symbols(), table)
                    .expect("non-empty table");
                let mut fresh = DistanceWorkspace::new();
                kind.argmin_table(&mut fresh, own.symbols(), table);
                fresh_rows += fresh.stats().rows;
                prop_assert_eq!(got.0, want.0, "{} on {}", kind, own);
                prop_assert!(
                    same(got.1, want.1),
                    "{} on {}: {} != {}",
                    kind,
                    own,
                    got.1,
                    want.1
                );
            }
        }
    }
    fresh_rows
}

/// A table-scorer call sharing the workspace's row memo.
#[derive(Clone, Copy)]
enum Call {
    /// `dist_batch_table`.
    Batch,
    /// `table_row` under a salt, with what it derives from the distances.
    Row(u64, fn(&mut [f64], &mut Vec<f64>)),
    /// `argmin_table`, folded from the remembered distance row.
    Argmin,
}

/// Shifted distances, one value per table row.
fn shifted(d: &mut [f64], row: &mut Vec<f64>) {
    row.extend(d.iter().map(|x| x + 0.5));
}

/// The distances' sum, then the distances doubled in place.
fn summed(d: &mut [f64], row: &mut Vec<f64>) {
    row.push(d.iter().sum());
    for x in d.iter_mut() {
        *x *= 2.0;
    }
    row.extend_from_slice(d);
}

/// What `call` answers for `own` against `table` through `ws`, as values
/// (an argmin as its row index, exact in `f64`, then its distance).
fn derived(
    ws: &mut DistanceWorkspace,
    kind: DistanceKind,
    own: &SymbolSeq,
    table: &Arc<CandidateTable>,
    call: Call,
) -> Vec<f64> {
    match call {
        Call::Batch => kind.dist_batch_table(ws, own.symbols(), table).to_vec(),
        Call::Row(salt, derive) => kind
            .table_row(ws, own.symbols(), table, salt, derive)
            .to_vec(),
        Call::Argmin => kind
            .argmin_table(ws, own.symbols(), table)
            .map_or_else(Vec::new, |(i, d)| vec![i as f64, d]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One workspace serving `table_row` under two salts with two
    /// derivations, interleaved with `dist_batch_table` and
    /// `argmin_table` (which share one row map), returns what fresh
    /// workspaces return and counts the same rows. The tables are A, B,
    /// A again (the same `Arc`), A rebuilt in a new `Arc` and A with one
    /// symbol changed; every call kind runs once per own in turn, then
    /// over all owns one call kind at a time.
    #[test]
    fn derived_rows_equal_fresh_workspaces(
        owns in prop::collection::vec(seq_strategy(), 1..4),
        rows in prop::collection::vec(seq_strategy(), 1..14),
        siblings in sibling_rows_strategy(),
    ) {
        let a = table_of(&rows);
        let mut changed = rows.clone();
        match changed.iter_mut().find(|r| !r.is_empty()) {
            Some(row) => {
                let mut symbols = row.symbols().to_vec();
                let last = symbols.last_mut().expect("non-empty row");
                *last = Symbol::from_index((last.index() as u8 + 1) % 4);
                *row = SymbolSeq::from_symbols(symbols);
            }
            None => changed.push(SymbolSeq::parse("a").unwrap()),
        }
        let tables = [
            a.clone(),
            table_of(&siblings),
            a.clone(),
            table_of(&rows),
            table_of(&changed),
        ];
        let call_kinds = [Call::Row(1, shifted), Call::Batch, Call::Argmin, Call::Row(2, summed)];
        // Each table's calls end under the salt the next table's begin
        // with, so only the table's identity can tell them apart.
        let mut calls = Vec::new();
        for table in &tables {
            for own in &owns {
                calls.extend(call_kinds.iter().map(|&call| (table, own, call)));
            }
            for &call in call_kinds.iter().rev() {
                calls.extend(owns.iter().map(|own| (table, own, call)));
            }
        }
        for kind in DistanceKind::ALL {
            let mut ws = DistanceWorkspace::new();
            let mut fresh_rows = 0;
            for &(table, own, call) in &calls {
                let got = derived(&mut ws, kind, own, table, call);
                let mut fresh = DistanceWorkspace::new();
                let want = derived(&mut fresh, kind, own, table, call);
                fresh_rows += fresh.stats().rows;
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(same(*g, *w), "{} on {}: {:?} != {:?}", kind, own, got, want);
                }
            }
            prop_assert_eq!(ws.stats().rows, fresh_rows);
        }
    }

    /// The table batch scorer equals the flat allocating path bit for bit,
    /// row for row, on free rows — whether or not they arrive in prefix
    /// order, and with one workspace reused across every kind and order.
    #[test]
    fn prefix_batch_is_bit_identical_to_flat(
        own in seq_strategy(),
        rows in prop::collection::vec(seq_strategy(), 0..14),
        seed in 0u64..u64::MAX,
    ) {
        check_batch_matches_flat(&mut DistanceWorkspace::new(), &[own], &ordered_tables(&rows, seed));
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
        check_batch_matches_flat(&mut DistanceWorkspace::new(), &[own], &ordered_tables(&rows, seed));
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

    /// `argmin_table` returns exactly what a full flat scan folded with
    /// first-strict-minimum returns: same row index, same distance (the
    /// test's name is historical; nothing is abandoned).
    #[test]
    fn early_abandon_argmin_equals_full_scan(
        own in seq_strategy(),
        rows in prop::collection::vec(seq_strategy(), 1..14),
        siblings in sibling_rows_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let tables: Vec<Arc<CandidateTable>> =
            ordered_tables(&rows, seed).into_iter().chain(ordered_tables(&siblings, seed)).collect();
        check_argmin_matches_full_scan(&mut DistanceWorkspace::new(), &[own], &tables);
    }

    /// One workspace fed repeated and interleaved owns (the empty one
    /// among them) and tables answers every batch and argmin like a fresh
    /// workspace and counts the same rows. The table schedule repeats a
    /// table, returns to an earlier one, rebuilds one with equal content
    /// in a new `Arc`, and runs under every kind in turn.
    #[test]
    fn memoized_scores_equal_fresh_workspaces(
        owns in prop::collection::vec(seq_strategy(), 1..4),
        picks in prop::collection::vec(0usize..8, 4..16),
        rows in prop::collection::vec(seq_strategy(), 1..14),
        siblings in sibling_rows_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let empty = SymbolSeq::from_symbols(Vec::new());
        let mut pool = owns;
        pool.push(empty.clone());
        let mut sequence: Vec<SymbolSeq> =
            picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        sequence.push(empty);
        let [trie, _, shuffled_rows] = orderings(&rows, seed);
        let (trie, siblings) = (table_of(&trie), table_of(&siblings));
        let tables = [
            trie.clone(),
            siblings.clone(),
            trie.clone(),
            trie.clone(),
            table_of(&trie.to_seqs()),
            table_of(&shuffled_rows),
            siblings,
        ];
        let mut ws = DistanceWorkspace::new();
        let batch_rows = check_batch_matches_flat(&mut ws, &sequence, &tables);
        let argmin_rows = check_argmin_matches_full_scan(&mut ws, &sequence, &tables);
        prop_assert_eq!(ws.stats().rows, batch_rows + argmin_rows);
    }
}
