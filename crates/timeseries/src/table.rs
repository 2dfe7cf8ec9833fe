//! Packed, columnar storage for a batch of candidate shapes.
//!
//! The round hot path broadcasts the same candidate list to every addressed
//! user, and every user scores every candidate. Holding the candidates as a
//! `Vec<SymbolSeq>` costs one heap allocation per shape and clones the whole
//! list each time a broadcast is copied. A [`CandidateTable`] packs all
//! shapes into one flat symbol buffer plus a row-offset vector, so
//!
//! * the whole table is **three** allocations regardless of row count,
//! * rows come back as borrowed `&[Symbol]` slices (no per-row rebuild),
//! * wrapping the table in `Arc` makes broadcasting it to millions of
//!   simulated clients a pointer copy.

use crate::error::Result;
use crate::symbol::{Symbol, SymbolSeq};
use std::fmt;

/// A packed table of symbol sequences: one flat symbol buffer (a `u8`
/// buffer in memory — [`Symbol`] is a `u8` newtype) plus row offsets.
///
/// Row order is insertion order and is significant: protocol rounds
/// identify candidates by their row index.
///
/// # Example
///
/// ```
/// use privshape_timeseries::{CandidateTable, SymbolSeq};
///
/// let seqs = [SymbolSeq::parse("acb").unwrap(), SymbolSeq::parse("ca").unwrap()];
/// let table = CandidateTable::from_seqs(&seqs);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.row(0), seqs[0].symbols());
/// assert_eq!(table.total_symbols(), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct CandidateTable {
    /// All rows' symbols, concatenated.
    symbols: Vec<Symbol>,
    /// `offsets[i]` is the *end* of row `i` (its start is the previous
    /// row's end, or 0), so `offsets.len()` is the row count and the
    /// representation is canonical — equal contents always compare equal
    /// under the derived `PartialEq`/`Hash`, including empty tables.
    offsets: Vec<usize>,
    /// `lcp[i]` is the longest common prefix (in symbols) of rows `i − 1`
    /// and `i`; `lcp[0]` is 0. Maintained by [`CandidateTable::push`] for
    /// *any* insertion order, so it is a pure function of the row contents
    /// and the derived `PartialEq`/`Hash` stay canonical. Prefix-ordered
    /// producers (a trie level in creation order) yield large values and
    /// let batch scorers resume shared DP state; arbitrary orders merely
    /// yield small values, never wrong ones.
    lcp: Vec<usize>,
}

impl CandidateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `rows` rows totalling `symbols`
    /// symbols, so bulk construction never reallocates.
    pub fn with_capacity(rows: usize, symbols: usize) -> Self {
        Self {
            symbols: Vec::with_capacity(symbols),
            offsets: Vec::with_capacity(rows),
            lcp: Vec::with_capacity(rows),
        }
    }

    /// Packs a slice of owned sequences (the compatibility constructor for
    /// call sites that still produce `SymbolSeq`s).
    pub fn from_seqs(seqs: &[SymbolSeq]) -> Self {
        let total = seqs.iter().map(SymbolSeq::len).sum();
        let mut table = Self::with_capacity(seqs.len(), total);
        for seq in seqs {
            table.push(seq.symbols());
        }
        table
    }

    /// Parses one table row per string, e.g. `["acb", "ca"]` (test helper).
    pub fn parse_rows<S: AsRef<str>>(rows: &[S]) -> Result<Self> {
        let mut table = Self::new();
        for row in rows {
            table.push_seq(&SymbolSeq::parse(row.as_ref())?);
        }
        Ok(table)
    }

    /// Appends one row, extending the LCP index in O(|row|): the common
    /// prefix with the previous row is measured by direct comparison, so
    /// the index is correct for arbitrary (non-trie-ordered) insertion
    /// orders — a whole table is still built in one O(total symbols) pass.
    pub fn push(&mut self, row: &[Symbol]) {
        let lcp = match self.offsets.len() {
            0 => 0,
            rows => {
                let prev = self.row(rows - 1);
                let lcp = prev.iter().zip(row).take_while(|(a, b)| a == b).count();
                debug_assert!(
                    lcp <= prev.len() && lcp <= row.len(),
                    "lcp {lcp} exceeds a row length ({} / {})",
                    prev.len(),
                    row.len()
                );
                lcp
            }
        };
        self.symbols.extend_from_slice(row);
        self.offsets.push(self.symbols.len());
        self.lcp.push(lcp);
    }

    /// Appends one row from an owned sequence.
    pub fn push_seq(&mut self, seq: &SymbolSeq) {
        self.push(seq.symbols());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total symbols across all rows (the size of the flat buffer).
    pub fn total_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Longest common prefix of rows `i − 1` and `i` (0 for row 0).
    ///
    /// Never exceeds either row's length. Batch scorers use this to resume
    /// shared dynamic-programming state instead of recomputing it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn lcp(&self, i: usize) -> usize {
        self.lcp[i]
    }

    /// The whole LCP index (`lcps().len() == len()`).
    pub fn lcps(&self) -> &[usize] {
        &self.lcp
    }

    /// A 64-bit fingerprint of the table contents (FNV-1a over every row's
    /// symbols with a per-row terminator), identifying the *generation* of
    /// a candidate broadcast: two tables fingerprint equal iff their row
    /// contents and boundaries are equal.
    ///
    /// Deliberately not `std::hash::Hash`-based: FNV-1a is stable across
    /// processes, platforms, and Rust versions, so distributed shards can
    /// use the fingerprint to refuse merging aggregates that were built
    /// from different candidate tables.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for row in self.rows() {
            for &s in row {
                h = (h ^ s.index() as u64).wrapping_mul(PRIME);
            }
            // Terminator outside the symbol range, so row boundaries are
            // part of the identity: ["ab"] never collides with ["a", "b"].
            h = (h ^ 0xff).wrapping_mul(PRIME);
        }
        h
    }

    /// Row `i` as a borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[Symbol] {
        let start = if i == 0 { 0 } else { self.offsets[i - 1] };
        &self.symbols[start..self.offsets[i]]
    }

    /// Row `i`, or `None` when out of range.
    pub fn get(&self, i: usize) -> Option<&[Symbol]> {
        if i < self.len() {
            Some(self.row(i))
        } else {
            None
        }
    }

    /// Iterates the rows as borrowed slices, in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Symbol]> + '_ {
        let mut start = 0;
        self.offsets.iter().map(move |&end| {
            let row = &self.symbols[start..end];
            start = end;
            row
        })
    }

    /// Row `i` as an owned [`SymbolSeq`] (allocates; cold paths only).
    pub fn seq(&self, i: usize) -> SymbolSeq {
        SymbolSeq::from_symbols(self.row(i).to_vec())
    }

    /// All rows as owned [`SymbolSeq`]s (allocates; cold paths only).
    pub fn to_seqs(&self) -> Vec<SymbolSeq> {
        self.rows()
            .map(|row| SymbolSeq::from_symbols(row.to_vec()))
            .collect()
    }
}

impl fmt::Debug for CandidateTable {
    /// Renders rows in compact letter form, e.g. `CandidateTable["acb", "ca"]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CandidateTable[")?;
        for (i, row) in self.rows().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "\"")?;
            for s in row {
                write!(f, "{}", s.as_char())?;
            }
            write!(f, "\"")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<SymbolSeq> for CandidateTable {
    fn from_iter<T: IntoIterator<Item = SymbolSeq>>(iter: T) -> Self {
        let mut table = Self::new();
        for seq in iter {
            table.push_seq(&seq);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[&str]) -> CandidateTable {
        CandidateTable::parse_rows(rows).unwrap()
    }

    #[test]
    fn empty_table() {
        let t = CandidateTable::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.total_symbols(), 0);
        assert!(t.rows().next().is_none());
        assert!(t.get(0).is_none());
    }

    #[test]
    fn rows_round_trip() {
        let t = table(&["acb", "ca", "b"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_symbols(), 6);
        assert_eq!(t.seq(0).to_string(), "acb");
        assert_eq!(t.seq(1).to_string(), "ca");
        assert_eq!(t.seq(2).to_string(), "b");
        let seqs = t.to_seqs();
        assert_eq!(CandidateTable::from_seqs(&seqs), t);
    }

    #[test]
    fn empty_rows_are_representable() {
        let mut t = CandidateTable::new();
        t.push(&[]);
        t.push_seq(&SymbolSeq::parse("ab").unwrap());
        t.push(&[]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(0), &[]);
        assert_eq!(t.row(1).len(), 2);
        assert_eq!(t.row(2), &[]);
    }

    #[test]
    fn rows_iterator_matches_indexing() {
        let t = table(&["ab", "ba", "cab"]);
        let via_iter: Vec<&[Symbol]> = t.rows().collect();
        assert_eq!(via_iter.len(), t.len());
        for (i, row) in via_iter.iter().enumerate() {
            assert_eq!(*row, t.row(i));
            assert_eq!(t.get(i), Some(*row));
        }
    }

    #[test]
    fn empty_tables_are_equal_regardless_of_construction() {
        // The Eq/Hash contract: observably identical tables must compare
        // equal no matter how they were built.
        assert_eq!(CandidateTable::new(), CandidateTable::from_seqs(&[]));
        assert_eq!(CandidateTable::new(), CandidateTable::with_capacity(4, 9));
        assert_eq!(CandidateTable::new(), CandidateTable::default());
        let roundtrip = CandidateTable::from_seqs(&CandidateTable::new().to_seqs());
        assert_eq!(roundtrip, CandidateTable::new());
    }

    #[test]
    fn tables_differing_in_one_symbol_or_a_boundary_are_unequal() {
        let base = table(&["acb", "ca", "bab"]);
        assert_eq!(base, table(&["acb", "ca", "bab"]));
        assert_ne!(base, table(&["acb", "ca", "bac"]));
        assert_ne!(base, table(&["acb", "cab", "ab"]));
        assert_ne!(base, table(&["acb", "ca"]));
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut a = CandidateTable::with_capacity(2, 5);
        let mut b = CandidateTable::new();
        for t in [&mut a, &mut b] {
            t.push_seq(&SymbolSeq::parse("acb").unwrap());
            t.push_seq(&SymbolSeq::parse("ba").unwrap());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn debug_is_compact() {
        let t = table(&["ab", "c"]);
        assert_eq!(format!("{t:?}"), "CandidateTable[\"ab\", \"c\"]");
    }

    #[test]
    fn from_iterator_collects() {
        let t: CandidateTable = ["ab", "ba"]
            .iter()
            .map(|s| SymbolSeq::parse(s).unwrap())
            .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.seq(1).to_string(), "ba");
    }

    #[test]
    fn fingerprint_identifies_contents_and_boundaries() {
        assert_eq!(
            table(&["acb", "ca"]).fingerprint(),
            table(&["acb", "ca"]).fingerprint()
        );
        // Different contents, same shape.
        assert_ne!(
            table(&["acb", "ca"]).fingerprint(),
            table(&["acb", "cb"]).fingerprint()
        );
        // Same symbols, different row boundaries.
        assert_ne!(
            table(&["ab"]).fingerprint(),
            table(&["a", "b"]).fingerprint()
        );
        // Row order matters (rounds identify candidates by index).
        assert_ne!(
            table(&["ab", "ba"]).fingerprint(),
            table(&["ba", "ab"]).fingerprint()
        );
        // Empty rows are part of the identity.
        let mut with_empty = table(&["ab"]);
        with_empty.push(&[]);
        assert_ne!(with_empty.fingerprint(), table(&["ab"]).fingerprint());
    }

    #[test]
    fn parse_rows_propagates_errors() {
        assert!(CandidateTable::parse_rows(&["ab", "A!"]).is_err());
    }

    #[test]
    fn lcp_tracks_shared_prefixes() {
        let t = table(&["abc", "abd", "ab", "abda", "ca"]);
        assert_eq!(t.lcps(), &[0, 2, 2, 2, 0]);
        for i in 0..t.len() {
            assert_eq!(t.lcp(i), t.lcps()[i]);
        }
    }

    #[test]
    fn lcp_is_bounded_by_both_row_lengths_in_any_order() {
        // Shrinking, growing, duplicate, and empty rows — the index must
        // stay within both neighbours for arbitrary insertion orders.
        let t = table(&["abab", "ab", "abab", "abab", "", "ab"]);
        assert_eq!(t.lcps(), &[0, 2, 2, 4, 0, 0]);
        for i in 1..t.len() {
            assert!(t.lcp(i) <= t.row(i).len());
            assert!(t.lcp(i) <= t.row(i - 1).len());
        }
    }

    #[test]
    fn lcp_is_a_pure_function_of_contents() {
        // Same rows via different constructors ⇒ same index (and therefore
        // the derived Eq/Hash stay canonical).
        let rows = ["ab", "abc", "ba"];
        let a = table(&rows);
        let seqs: Vec<SymbolSeq> = rows.iter().map(|s| SymbolSeq::parse(s).unwrap()).collect();
        let b = CandidateTable::from_seqs(&seqs);
        let c: CandidateTable = seqs.iter().cloned().collect();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.lcps(), b.lcps());
        assert_eq!(a.lcps(), c.lcps());
    }
}
