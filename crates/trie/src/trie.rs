//! Arena-backed shape trie with level-wise expansion and pruning.

use crate::bigram::BigramSet;
use privshape_timeseries::{CandidateTable, Symbol, SymbolSeq, MAX_ALPHABET};
use std::fmt;

/// Index of a node in the trie arena.
pub type NodeId = usize;

/// Errors from trie operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrieError {
    /// Alphabet must be in `[2, MAX_ALPHABET]`.
    InvalidAlphabet(usize),
    /// A level index beyond the currently expanded depth.
    LevelOutOfRange {
        /// The requested level.
        level: usize,
        /// The trie's currently expanded depth.
        depth: usize,
    },
}

impl fmt::Display for TrieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrieError::InvalidAlphabet(t) => {
                write!(f, "trie alphabet must be in [2, {MAX_ALPHABET}], got {t}")
            }
            TrieError::LevelOutOfRange { level, depth } => {
                write!(f, "level {level} out of range (depth {depth})")
            }
        }
    }
}

impl std::error::Error for TrieError {}

#[derive(Debug, Clone)]
struct Node {
    symbol: Symbol,
    /// Start of this node's full root-to-node path in the trie's flat
    /// `paths` buffer; the path's length is the node's level. The path is
    /// materialized at creation, so no parent pointer is needed — the
    /// parent is simply the node owning the `level − 1` prefix.
    path_start: usize,
    /// 1-based level (= path length).
    level: usize,
    /// Estimated frequency set by the server after a user round.
    freq: f64,
    /// Dead nodes are pruned: excluded from candidate lists and expansion.
    alive: bool,
}

/// A trie over candidate shapes.
///
/// Level 0 is the (virtual) root; level `ℓ ≥ 1` holds candidates of length
/// `ℓ`. All paths respect the Compressive SAX invariant: a child's symbol
/// always differs from its parent's.
#[derive(Debug, Clone)]
pub struct ShapeTrie {
    alphabet: usize,
    nodes: Vec<Node>,
    /// `levels[ℓ]` lists the node ids at level `ℓ + 1` (level 0, the root,
    /// is implicit and not stored in the arena).
    levels: Vec<Vec<NodeId>>,
    /// Every node's full root-to-node path, written once at creation
    /// (`nodes[id]` owns `paths[path_start..path_start + level]`). Keeping
    /// paths flat and incremental lets [`ShapeTrie::candidate_table`] emit
    /// a whole level in O(total symbols) with no parent-pointer chasing.
    paths: Vec<Symbol>,
}

impl ShapeTrie {
    /// Creates an empty trie (root only) over an alphabet of size `t`.
    pub fn new(alphabet: usize) -> Result<Self, TrieError> {
        if !(2..=MAX_ALPHABET).contains(&alphabet) {
            return Err(TrieError::InvalidAlphabet(alphabet));
        }
        Ok(Self {
            alphabet,
            nodes: Vec::new(),
            levels: Vec::new(),
            paths: Vec::new(),
        })
    }

    /// Alphabet size `t`.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Number of expanded levels (excluding the root).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total number of nodes ever created (including pruned ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Expands one more level and returns the ids of the newly created
    /// nodes.
    ///
    /// From the root, the first expansion creates one node per alphabet
    /// symbol. Later expansions grow every *live* frontier node `…x` with
    /// children `y ≠ x`; when `allowed` is given, only edges with
    /// `(x, y) ∈ allowed` are created (PrivShape's sub-shape pruning).
    pub fn expand_next_level(&mut self, allowed: Option<&BigramSet>) -> Vec<NodeId> {
        let mut created = Vec::new();
        if self.levels.is_empty() {
            // Root → level 1: all symbols are candidates.
            for s in 0..self.alphabet {
                let id = self.nodes.len();
                let symbol = Symbol::from_index(s as u8);
                let path_start = self.paths.len();
                self.paths.push(symbol);
                self.nodes.push(Node {
                    symbol,
                    path_start,
                    level: 1,
                    freq: 0.0,
                    alive: true,
                });
                created.push(id);
            }
        } else {
            let frontier: Vec<NodeId> = self
                .levels
                .last()
                .expect("non-empty checked above")
                .iter()
                .copied()
                .filter(|&id| self.nodes[id].alive)
                .collect();
            for parent_id in frontier {
                let x = self.nodes[parent_id].symbol;
                let parent_start = self.nodes[parent_id].path_start;
                let parent_level = self.nodes[parent_id].level;
                for s in 0..self.alphabet {
                    let y = Symbol::from_index(s as u8);
                    if y == x {
                        continue;
                    }
                    if let Some(set) = allowed {
                        if !set.contains(x, y) {
                            continue;
                        }
                    }
                    let id = self.nodes.len();
                    // Child path = parent path + own symbol, written once
                    // at creation so later reads never chase pointers.
                    let path_start = self.paths.len();
                    self.paths
                        .extend_from_within(parent_start..parent_start + parent_level);
                    self.paths.push(y);
                    self.nodes.push(Node {
                        symbol: y,
                        path_start,
                        level: parent_level + 1,
                        freq: 0.0,
                        alive: true,
                    });
                    created.push(id);
                }
            }
        }
        self.levels.push(created.clone());
        created
    }

    /// Live node ids at `level` (1-based, as in the paper).
    pub fn live_nodes(&self, level: usize) -> Result<Vec<NodeId>, TrieError> {
        self.level_slice(level).map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| self.nodes[id].alive)
                .collect()
        })
    }

    /// The candidate shape (root-to-node path) for a node, borrowed from
    /// the trie's flat path buffer — O(1), no allocation, no
    /// parent-pointer walk.
    pub fn path_slice(&self, id: NodeId) -> &[Symbol] {
        let node = &self.nodes[id];
        &self.paths[node.path_start..node.path_start + node.level]
    }

    /// The candidate shape (root-to-node path) for a node, as an owned
    /// sequence.
    ///
    /// Compatibility shim over [`ShapeTrie::path_slice`]; prefer the slice
    /// (or [`ShapeTrie::candidate_table`] for whole levels) on hot paths —
    /// this allocates per call.
    pub fn path(&self, id: NodeId) -> SymbolSeq {
        SymbolSeq::from_symbols(self.path_slice(id).to_vec())
    }

    /// Live candidates at `level` as a packed [`CandidateTable`] plus the
    /// node ids backing each row, in creation order.
    ///
    /// Runs in O(total symbols at the level): each row is one `memcpy`
    /// out of the flat path buffer, and the table's LCP index
    /// ([`CandidateTable::lcp`]) is filled in the same pass. Creation
    /// order groups siblings under their parent, so consecutive rows with
    /// a common parent get `lcp = level − 1` by construction — exactly
    /// the structure the prefix-resumable batch scorers exploit.
    pub fn candidate_table(
        &self,
        level: usize,
    ) -> Result<(Vec<NodeId>, CandidateTable), TrieError> {
        let nodes = self.live_nodes(level)?;
        let mut table = CandidateTable::with_capacity(nodes.len(), nodes.len() * level);
        for &id in &nodes {
            table.push(self.path_slice(id));
        }
        Ok((nodes, table))
    }

    /// Live candidates (id + owned shape) at `level`, in creation order.
    ///
    /// Compatibility shim (allocates one `SymbolSeq` per row); hot paths
    /// use [`ShapeTrie::candidate_table`].
    pub fn candidates(&self, level: usize) -> Result<Vec<(NodeId, SymbolSeq)>, TrieError> {
        Ok(self
            .live_nodes(level)?
            .into_iter()
            .map(|id| (id, self.path(id)))
            .collect())
    }

    /// Records the server's estimated frequency for a node.
    pub fn set_freq(&mut self, id: NodeId, freq: f64) {
        self.nodes[id].freq = freq;
    }

    /// The recorded frequency.
    pub fn freq(&self, id: NodeId) -> f64 {
        self.nodes[id].freq
    }

    /// Prunes `level` down to its `m` most frequent live nodes (ties broken
    /// toward earlier creation, i.e. lexicographically earlier shapes).
    /// Returns the number of nodes pruned.
    pub fn prune_top_m(&mut self, level: usize, m: usize) -> Result<usize, TrieError> {
        let mut live = self.live_nodes(level)?;
        if live.len() <= m {
            return Ok(0);
        }
        // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN frequency
        // estimate must never panic the server mid-session (NaN orders
        // above every finite value here, i.e. it sorts as most frequent).
        live.sort_by(|&a, &b| {
            self.nodes[b]
                .freq
                .total_cmp(&self.nodes[a].freq)
                .then(a.cmp(&b))
        });
        let mut pruned = 0;
        for &id in &live[m..] {
            self.nodes[id].alive = false;
            pruned += 1;
        }
        Ok(pruned)
    }

    /// Prunes every live node at `level` whose frequency is strictly below
    /// `threshold` (the baseline's rule). Returns the number pruned.
    ///
    /// If the threshold would kill *every* candidate, the single most
    /// frequent one is kept alive: an empty frontier would deadlock the
    /// mechanism, and the paper's server always has at least one candidate
    /// to send.
    pub fn prune_threshold(&mut self, level: usize, threshold: f64) -> Result<usize, TrieError> {
        let live = self.live_nodes(level)?;
        let survivors = live
            .iter()
            .filter(|&&id| self.nodes[id].freq >= threshold)
            .count();
        if survivors == 0 {
            let keep = live.iter().copied().max_by(|&a, &b| {
                self.nodes[a]
                    .freq
                    .total_cmp(&self.nodes[b].freq)
                    .then(b.cmp(&a))
            });
            let mut pruned = 0;
            for id in live {
                if Some(id) != keep {
                    self.nodes[id].alive = false;
                    pruned += 1;
                }
            }
            return Ok(pruned);
        }
        let mut pruned = 0;
        for id in live {
            if self.nodes[id].freq < threshold {
                self.nodes[id].alive = false;
                pruned += 1;
            }
        }
        Ok(pruned)
    }

    /// Live leaf candidates (deepest level) with frequencies, sorted by
    /// descending frequency (creation-order tie-break).
    pub fn leaves_by_freq(&self) -> Vec<(NodeId, SymbolSeq, f64)> {
        let Some(last) = self.levels.last() else {
            return Vec::new();
        };
        let mut out: Vec<(NodeId, SymbolSeq, f64)> = last
            .iter()
            .copied()
            .filter(|&id| self.nodes[id].alive)
            .map(|id| (id, self.path(id), self.nodes[id].freq))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    fn level_slice(&self, level: usize) -> Result<&[NodeId], TrieError> {
        if level == 0 || level > self.levels.len() {
            return Err(TrieError::LevelOutOfRange {
                level,
                depth: self.levels.len(),
            });
        }
        Ok(&self.levels[level - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(trie: &ShapeTrie, level: usize) -> Vec<String> {
        trie.candidates(level)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s.to_string())
            .collect()
    }

    #[test]
    fn construction_validates_alphabet() {
        assert!(ShapeTrie::new(1).is_err());
        assert!(ShapeTrie::new(27).is_err());
        assert!(ShapeTrie::new(2).is_ok());
    }

    #[test]
    fn first_expansion_yields_all_symbols() {
        let mut t = ShapeTrie::new(4).unwrap();
        let ids = t.expand_next_level(None);
        assert_eq!(ids.len(), 4);
        assert_eq!(shapes(&t, 1), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn expansion_respects_no_repeat_invariant() {
        let mut t = ShapeTrie::new(3).unwrap();
        t.expand_next_level(None);
        t.expand_next_level(None);
        let level2 = shapes(&t, 2);
        assert_eq!(level2, vec!["ab", "ac", "ba", "bc", "ca", "cb"]);
        t.expand_next_level(None);
        for s in shapes(&t, 3) {
            let seq = SymbolSeq::parse(&s).unwrap();
            assert!(privshape_timeseries::is_compressed(&seq), "{s}");
        }
    }

    #[test]
    fn fig5_expansion_counts() {
        // Fig. 5: t = 4 ⇒ 4 nodes at level 1, 12 at level 2.
        let mut t = ShapeTrie::new(4).unwrap();
        assert_eq!(t.expand_next_level(None).len(), 4);
        assert_eq!(t.expand_next_level(None).len(), 12);
        assert_eq!(t.expand_next_level(None).len(), 36); // 12 × 3
    }

    #[test]
    fn bigram_constrained_expansion() {
        // Fig. 6: only whitelisted sub-shapes may extend candidates.
        let mut t = ShapeTrie::new(4).unwrap();
        t.expand_next_level(None);
        let mut allowed = BigramSet::new(4);
        allowed.insert(
            Symbol::from_char('a').unwrap(),
            Symbol::from_char('b').unwrap(),
        );
        allowed.insert(
            Symbol::from_char('c').unwrap(),
            Symbol::from_char('d').unwrap(),
        );
        let created = t.expand_next_level(Some(&allowed));
        assert_eq!(created.len(), 2);
        assert_eq!(shapes(&t, 2), vec!["ab", "cd"]);
    }

    #[test]
    fn prune_top_m_keeps_most_frequent() {
        let mut t = ShapeTrie::new(3).unwrap();
        let ids = t.expand_next_level(None);
        t.set_freq(ids[0], 5.0);
        t.set_freq(ids[1], 20.0);
        t.set_freq(ids[2], 10.0);
        let pruned = t.prune_top_m(1, 2).unwrap();
        assert_eq!(pruned, 1);
        assert_eq!(shapes(&t, 1), vec!["b", "c"]);
        // Pruned nodes are not expanded.
        let created = t.expand_next_level(None);
        assert_eq!(created.len(), 4); // 2 live × (3 − 1)
    }

    #[test]
    fn prune_top_m_noop_when_under_m() {
        let mut t = ShapeTrie::new(3).unwrap();
        t.expand_next_level(None);
        assert_eq!(t.prune_top_m(1, 10).unwrap(), 0);
        assert_eq!(t.live_nodes(1).unwrap().len(), 3);
    }

    #[test]
    fn prune_threshold_filters_and_keeps_one_survivor() {
        let mut t = ShapeTrie::new(3).unwrap();
        let ids = t.expand_next_level(None);
        t.set_freq(ids[0], 1.0);
        t.set_freq(ids[1], 3.0);
        t.set_freq(ids[2], 2.0);
        assert_eq!(t.prune_threshold(1, 2.0).unwrap(), 1);
        assert_eq!(shapes(&t, 1), vec!["b", "c"]);
        // Threshold above every frequency still keeps the best node.
        let mut t2 = ShapeTrie::new(3).unwrap();
        let ids2 = t2.expand_next_level(None);
        t2.set_freq(ids2[2], 0.5);
        assert_eq!(t2.prune_threshold(1, 100.0).unwrap(), 2);
        assert_eq!(shapes(&t2, 1), vec!["c"]);
    }

    #[test]
    fn paths_reconstruct_full_shapes() {
        let mut t = ShapeTrie::new(3).unwrap();
        t.expand_next_level(None);
        t.expand_next_level(None);
        let created = t.expand_next_level(None);
        let all: Vec<String> = created.iter().map(|&id| t.path(id).to_string()).collect();
        assert!(all.contains(&"aba".to_string()));
        assert!(all.contains(&"acb".to_string()));
        assert!(all.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn leaves_by_freq_sorts_descending() {
        let mut t = ShapeTrie::new(3).unwrap();
        t.expand_next_level(None);
        let ids = t.expand_next_level(None);
        for (i, &id) in ids.iter().enumerate() {
            t.set_freq(id, (i % 3) as f64);
        }
        let leaves = t.leaves_by_freq();
        assert_eq!(leaves.len(), 6);
        for w in leaves.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn level_bounds_are_checked() {
        let mut t = ShapeTrie::new(3).unwrap();
        assert!(t.live_nodes(1).is_err());
        t.expand_next_level(None);
        assert!(t.live_nodes(0).is_err());
        assert!(t.live_nodes(2).is_err());
        assert!(t.live_nodes(1).is_ok());
    }

    #[test]
    fn empty_trie_has_no_leaves() {
        let t = ShapeTrie::new(3).unwrap();
        assert!(t.leaves_by_freq().is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn candidate_table_matches_candidates() {
        let mut t = ShapeTrie::new(4).unwrap();
        for level in 1..=3 {
            let created = t.expand_next_level(None);
            for (j, &id) in created.iter().enumerate() {
                t.set_freq(id, (j % 5) as f64);
            }
            t.prune_top_m(level, 7).unwrap();
            let (ids, table) = t.candidate_table(level).unwrap();
            let legacy = t.candidates(level).unwrap();
            assert_eq!(ids.len(), legacy.len());
            assert_eq!(table.len(), legacy.len());
            for (row, (id, (legacy_id, shape))) in ids.iter().zip(&legacy).enumerate() {
                assert_eq!(id, legacy_id);
                assert_eq!(table.row(row), shape.symbols());
                assert_eq!(t.path_slice(*id), shape.symbols());
            }
        }
        assert!(t.candidate_table(0).is_err());
        assert!(t.candidate_table(4).is_err());
    }

    #[test]
    fn candidate_table_lcp_reflects_shared_parent_paths() {
        let mut t = ShapeTrie::new(4).unwrap();
        t.expand_next_level(None);
        t.expand_next_level(None);
        t.expand_next_level(None);
        let level = 3;
        let (ids, table) = t.candidate_table(level).unwrap();
        // Row 0 has no predecessor; every later row shares at least the
        // empty prefix and at most `level` symbols with its neighbour.
        assert_eq!(table.lcp(0), 0);
        for i in 1..table.len() {
            let expect = table
                .row(i - 1)
                .iter()
                .zip(table.row(i))
                .take_while(|(a, b)| a == b)
                .count();
            assert_eq!(table.lcp(i), expect);
            // Same-parent siblings (paths equal up to the last symbol)
            // share exactly level − 1 symbols.
            if t.path_slice(ids[i - 1])[..level - 1] == t.path_slice(ids[i])[..level - 1] {
                assert_eq!(table.lcp(i), level - 1);
            }
        }
        // Sibling grouping is real: most transitions at a full level are
        // same-parent (alphabet 4 ⇒ 36 rows from 12 parents).
        let deep = (1..table.len())
            .filter(|&i| table.lcp(i) == level - 1)
            .count();
        assert_eq!(deep, 24);
    }

    #[test]
    fn nan_frequencies_never_panic_pruning() {
        let mut t = ShapeTrie::new(3).unwrap();
        let ids = t.expand_next_level(None);
        t.set_freq(ids[0], f64::NAN);
        t.set_freq(ids[1], 2.0);
        t.set_freq(ids[2], 1.0);
        // total_cmp orders NaN above every finite value, so it survives
        // top-m pruning deterministically instead of panicking.
        t.prune_top_m(1, 2).unwrap();
        assert_eq!(t.live_nodes(1).unwrap().len(), 2);

        let mut t2 = ShapeTrie::new(3).unwrap();
        let ids2 = t2.expand_next_level(None);
        for &id in &ids2 {
            t2.set_freq(id, f64::NAN);
        }
        t2.prune_threshold(1, 5.0).unwrap();
        assert_eq!(t2.live_nodes(1).unwrap().len(), 1);
        t2.expand_next_level(None);
        let _ = t2.leaves_by_freq();
    }
}
