//! The shape trie at the heart of the baseline mechanism and PrivShape
//! (§III-C, §IV-B).
//!
//! The trie's level-`ℓ` nodes are candidate shapes of length `ℓ` — sequences
//! of SAX symbols with no adjacent repeats (the Compressive SAX invariant).
//! The server expands it level by level, records the estimated frequency of
//! each candidate, and prunes before the next expansion:
//!
//! * the **baseline** expands every live node to all `t − 1` children and
//!   prunes by an absolute frequency threshold `N`;
//! * **PrivShape** restricts child edges to the top-`c·k` frequent sub-shapes
//!   (bigrams) of that level and prunes candidates to the top-`c·k`.
//!
//! The trie has no serialized form. Expansion and pruning are
//! deterministic post-processing of each round's aggregate, so a restored
//! protocol session rebuilds its trie by replaying the rounds' counts
//! through these same calls.
//!
//! # Example
//!
//! ```
//! use privshape_trie::ShapeTrie;
//!
//! let mut trie = ShapeTrie::new(3).unwrap(); // alphabet {a, b, c}
//! let level1 = trie.expand_next_level(None); // "a", "b", "c"
//! assert_eq!(level1.len(), 3);
//! let level2 = trie.expand_next_level(None); // "ab", "ac", "ba", ...
//! assert_eq!(level2.len(), 6); // 3 × (3 − 1): no adjacent repeats
//! ```

mod bigram;
mod trie;

pub use bigram::BigramSet;
pub use trie::{NodeId, ShapeTrie, TrieError};
