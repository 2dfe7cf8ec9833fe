//! Prefix-resumable batch scoring over a [`CandidateTable`].
//!
//! Candidates broadcast from a trie level are sibling paths: consecutive
//! rows share long prefixes, and the table ships a precomputed LCP index
//! ([`CandidateTable::lcp`]) saying exactly how long. Every engine here
//! keeps its dynamic-programming state as a *stack indexed by candidate
//! depth* — moving from row `i` to row `i + 1` pops back to depth
//! `lcp[i + 1]` and extends only the unshared suffix, so a level of `r`
//! candidates costs O(#distinct trie symbols · n) instead of O(Σ|cᵢ| · n).
//!
//! # Exactness
//!
//! Results are **bit-identical** to the flat per-candidate path
//! ([`crate::DistanceKind::dist_with`]), not approximately equal:
//!
//! * **DTW** — the DP table is computed with the candidate driving the
//!   outer loop. Transposing a DTW table preserves every cell bit-for-bit:
//!   local costs satisfy `|a − b| ≡ |b − a|`, and each cell is
//!   `cost + min{up, left, diag}` where `f64::min` over the (NaN-free,
//!   non-negative) predecessor set is order-independent. Accumulation
//!   happens *along the alignment path* in both orientations, so the f64
//!   result cannot depend on which sequence is outer.
//! * **SED** — Levenshtein values are integers; any correct evaluation
//!   order yields the same integer, exactly representable in `f64`.
//! * **Euclidean (padded)** — the squared-difference sum is accumulated
//!   left-to-right in both paths; the prefix engine memoizes the running
//!   partial sums by depth and resumes the identical chain.
//! * **Hausdorff** has no prefix decomposition (its directed max–min scans
//!   the whole point set per row), so [`crate::DistanceKind`] routes it to
//!   the flat path.

use privshape_timeseries::{CandidateTable, Symbol};

/// Branchless minimum: identical in value to `f64::min` for non-NaN
/// operands without `±0.0` ties — the only values the DP recurrences
/// produce (non-negative sums of absolute differences, plus `∞`
/// sentinels) — but compiles to a single compare-select instead of
/// `f64::min`'s NaN-propagating sequence. The flat reference path keeps
/// `f64::min`, and the bit-identity property tests compare against it, so
/// this equivalence is pinned, not assumed.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Extends the DTW stack with the row at outer index `i` (candidate depth
/// `i + 1`). `own` is the inner (column) dimension; `m = own.len()` must
/// be non-zero.
#[inline(always)]
fn dtw_extend(stack: &mut Vec<f64>, own: &[f64], i: usize, sym: f64) {
    let m = own.len();
    let need = (i + 1) * m;
    if stack.len() < need {
        stack.resize(need, 0.0);
    }
    let (prev_part, curr_part) = stack.split_at_mut(i * m);
    let curr = &mut curr_part[..m];
    let mut left = f64::INFINITY;
    if i == 0 {
        for (j, &x) in own.iter().enumerate() {
            let cost = (sym - x).abs();
            // Cell (0, 0) starts the path at zero accumulated cost; its
            // right neighbours only have a `left` predecessor.
            let v = if j == 0 { cost } else { cost + left };
            curr[j] = v;
            left = v;
        }
    } else {
        let prev = &prev_part[(i - 1) * m..];
        let mut diag = f64::INFINITY;
        for (j, &x) in own.iter().enumerate() {
            let cost = (sym - x).abs();
            let up = prev[j];
            let v = cost + fmin(fmin(up, left), diag);
            diag = up;
            curr[j] = v;
            left = v;
        }
    }
}

/// Extends the SED stack with the row at candidate depth `d ≥ 1` (the
/// depth-0 base row `0..=m` must already be present). Rows have width
/// `own.len() + 1`.
#[inline(always)]
fn sed_extend(stack: &mut Vec<f64>, own: &[Symbol], d: usize, sym: Symbol) {
    let w = own.len() + 1;
    let need = (d + 1) * w;
    if stack.len() < need {
        stack.resize(need, 0.0);
    }
    let (prev_part, curr_part) = stack.split_at_mut(d * w);
    let prev = &prev_part[(d - 1) * w..];
    let curr = &mut curr_part[..w];
    let mut left = d as f64;
    curr[0] = left;
    for (j, &o) in own.iter().enumerate() {
        let sub = prev[j] + if sym == o { 0.0 } else { 1.0 };
        let del = prev[j + 1] + 1.0;
        let ins = left + 1.0;
        let v = fmin(fmin(sub, del), ins);
        curr[j + 1] = v;
        left = v;
    }
}

/// Writes the SED base row (`stack[j] = j` for the empty candidate prefix).
fn sed_base(stack: &mut Vec<f64>, m: usize) {
    let w = m + 1;
    if stack.len() < w {
        stack.resize(w, 0.0);
    }
    for (j, cell) in stack[..w].iter_mut().enumerate() {
        *cell = j as f64;
    }
}

/// Extends the Euclidean prefix-sum stack to candidate depth `d ≥ 1`.
/// `own` must be non-empty.
fn euc_extend(stack: &mut Vec<f64>, own: &[f64], d: usize, sym: f64) {
    let n = own.len();
    let x = if d - 1 < n { own[d - 1] } else { own[n - 1] };
    let diff = x - sym;
    let v = stack[d - 1] + diff * diff;
    if stack.len() <= d {
        stack.resize(d + 1, 0.0);
    }
    stack[d] = v;
}

/// Finishes a Euclidean distance for a candidate of length `l ≥ 1` whose
/// prefix sums are on the stack: continues the identical accumulation
/// chain over the candidate-padded tail, then takes the square root.
fn euc_finish(stack: &[f64], own: &[f64], cand: &[Symbol]) -> f64 {
    let (n, l) = (own.len(), cand.len());
    let mut acc = stack[l];
    if l < n {
        let last = cand[l - 1].index() as f64;
        for &x in &own[l..] {
            let diff = x - last;
            acc += diff * diff;
        }
    }
    acc.sqrt()
}

/// DTW distances from `own` (as alphabet indices) to every table row,
/// resuming shared DP rows across candidates. Bit-identical to the flat
/// path per row.
pub(crate) fn dtw_batch(
    stack: &mut Vec<f64>,
    own: &[f64],
    table: &CandidateTable,
    out: &mut Vec<f64>,
) {
    out.clear();
    let m = own.len();
    if m == 0 {
        // No alignment exists against an empty sequence.
        out.resize(table.len(), f64::INFINITY);
        return;
    }
    let mut valid = 0usize;
    for (ci, cand) in table.rows().enumerate() {
        let l = cand.len();
        if l == 0 {
            out.push(f64::INFINITY);
            valid = 0;
            continue;
        }
        let start = table.lcp(ci).min(valid);
        for (d, &sym) in cand.iter().enumerate().skip(start) {
            dtw_extend(stack, own, d, sym.index() as f64);
        }
        valid = l;
        out.push(stack[(l - 1) * m + m - 1]);
    }
}

/// SED distances from `own` to every table row via a resumable Levenshtein
/// row stack. Exact (integer-valued) per row.
pub(crate) fn sed_batch(
    stack: &mut Vec<f64>,
    own: &[Symbol],
    table: &CandidateTable,
    out: &mut Vec<f64>,
) {
    out.clear();
    let m = own.len();
    let w = m + 1;
    sed_base(stack, m);
    let mut valid = 0usize;
    for (ci, cand) in table.rows().enumerate() {
        let start = table.lcp(ci).min(valid);
        for (d, &sym) in cand.iter().enumerate().skip(start) {
            sed_extend(stack, own, d + 1, sym);
        }
        valid = cand.len();
        out.push(stack[cand.len() * w + w - 1]);
    }
}

/// Padded-Euclidean distances from `own` (as alphabet indices) to every
/// table row via resumable prefix sums. Bit-identical to the flat path.
pub(crate) fn euc_batch(
    stack: &mut Vec<f64>,
    own: &[f64],
    table: &CandidateTable,
    out: &mut Vec<f64>,
) {
    out.clear();
    let n = own.len();
    if stack.is_empty() {
        stack.push(0.0);
    }
    stack[0] = 0.0;
    let mut valid = 0usize;
    for (ci, cand) in table.rows().enumerate() {
        let l = cand.len();
        if l == 0 || n == 0 {
            out.push(if l == 0 && n == 0 { 0.0 } else { f64::INFINITY });
            valid = 0;
            continue;
        }
        let start = table.lcp(ci).min(valid);
        for (d, &sym) in cand.iter().enumerate().skip(start) {
            euc_extend(stack, own, d + 1, sym.index() as f64);
        }
        valid = l;
        out.push(euc_finish(stack, own, cand));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceKind, DistanceWorkspace};
    use privshape_timeseries::SymbolSeq;
    use std::sync::Arc;

    fn table(rows: &[&str]) -> Arc<CandidateTable> {
        Arc::new(CandidateTable::parse_rows(rows).unwrap())
    }

    fn flat(kind: DistanceKind, own: &str, t: &CandidateTable) -> Vec<f64> {
        let own = SymbolSeq::parse(own).unwrap();
        t.to_seqs().iter().map(|c| kind.dist(&own, c)).collect()
    }

    fn prefix(kind: DistanceKind, own: &str, t: &Arc<CandidateTable>) -> Vec<f64> {
        let own = SymbolSeq::parse(own).unwrap();
        let mut ws = DistanceWorkspace::new();
        kind.dist_batch_table(&mut ws, own.symbols(), t).to_vec()
    }

    #[test]
    fn prefix_batch_matches_flat_on_sibling_rows() {
        let t = table(&["aba", "abc", "abd", "acb", "ba"]);
        for kind in DistanceKind::ALL {
            assert_eq!(prefix(kind, "abca", &t), flat(kind, "abca", &t), "{kind}");
        }
    }

    #[test]
    fn prefix_batch_handles_empty_rows_and_empty_own() {
        let mut t = CandidateTable::new();
        t.push(&[]);
        t.push_seq(&SymbolSeq::parse("ab").unwrap());
        t.push(&[]);
        let t = Arc::new(t);
        for kind in DistanceKind::ALL {
            assert_eq!(prefix(kind, "ab", &t), flat(kind, "ab", &t), "{kind}");
            assert_eq!(prefix(kind, "", &t), flat(kind, "", &t), "{kind} empty own");
        }
    }

    #[test]
    fn prefix_batch_is_correct_for_unordered_tables() {
        // Reversed / interleaved rows: smaller reuse, same answers.
        let t = table(&["ba", "aba", "ab", "abd", "aba", "c"]);
        for kind in DistanceKind::ALL {
            assert_eq!(prefix(kind, "abad", &t), flat(kind, "abad", &t), "{kind}");
        }
    }

    #[test]
    fn argmin_matches_full_scan_first_min() {
        let t = table(&["ba", "ab", "aba", "ab"]); // duplicate min rows
        let own = SymbolSeq::parse("ab").unwrap();
        let mut ws = DistanceWorkspace::new();
        for kind in DistanceKind::ALL {
            let flat = flat(kind, "ab", &t);
            let mut want = (0usize, f64::INFINITY);
            for (i, &d) in flat.iter().enumerate() {
                if d < want.1 {
                    want = (i, d);
                }
            }
            let got = kind.argmin_table(&mut ws, own.symbols(), &t).unwrap();
            assert_eq!(got, want, "{kind}");
        }
    }

    #[test]
    fn argmin_abandons_but_still_finds_a_late_winner() {
        // Best row appears last, after a deep shared prefix of worse rows:
        // the first-minimum fold must reach it (the test's name is
        // historical; nothing is abandoned).
        let t = table(&["fefefe", "fefefa", "fefeb", "ab"]);
        let own = SymbolSeq::parse("aba").unwrap();
        let mut ws = DistanceWorkspace::new();
        for kind in DistanceKind::ALL {
            let got = kind.argmin_table(&mut ws, own.symbols(), &t).unwrap();
            assert_eq!(got.0, 3, "{kind}");
        }
    }

    #[test]
    fn argmin_on_empty_table_is_none() {
        let t = Arc::new(CandidateTable::new());
        let mut ws = DistanceWorkspace::new();
        for kind in DistanceKind::ALL {
            assert!(kind
                .argmin_table(&mut ws, SymbolSeq::parse("ab").unwrap().symbols(), &t)
                .is_none());
        }
    }
}
