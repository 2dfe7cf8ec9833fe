//! Sets of permitted sub-shapes (ordered symbol pairs) used to constrain
//! trie expansion in PrivShape (§IV-B).

use privshape_timeseries::Symbol;

/// A set of ordered symbol pairs `(x, y)` with `x ≠ y`, stored as a dense
/// `t × t` boolean matrix for O(1) membership tests in the expansion loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigramSet {
    alphabet: usize,
    allowed: Vec<bool>,
}

impl BigramSet {
    /// Empty set over an alphabet of size `t`.
    pub fn new(alphabet: usize) -> Self {
        Self {
            alphabet,
            allowed: vec![false; alphabet * alphabet],
        }
    }

    /// Set containing every valid (distinct-component) pair — expanding with
    /// this is equivalent to unconstrained expansion.
    pub fn full(alphabet: usize) -> Self {
        let mut set = Self::new(alphabet);
        for x in 0..alphabet {
            for y in 0..alphabet {
                if x != y {
                    set.allowed[x * alphabet + y] = true;
                }
            }
        }
        set
    }

    /// Inserts a pair. Pairs with equal components are ignored: they cannot
    /// occur in compressed sequences, so admitting them would only leak
    /// noise into the expansion.
    pub fn insert(&mut self, from: Symbol, to: Symbol) {
        if from != to && from.index() < self.alphabet && to.index() < self.alphabet {
            self.allowed[from.index() * self.alphabet + to.index()] = true;
        }
    }

    /// Membership test.
    pub fn contains(&self, from: Symbol, to: Symbol) -> bool {
        from.index() < self.alphabet
            && to.index() < self.alphabet
            && self.allowed[from.index() * self.alphabet + to.index()]
    }

    /// Number of pairs in the set.
    pub fn len(&self) -> usize {
        self.allowed.iter().filter(|&&b| b).count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.allowed.iter().any(|&b| b)
    }

    /// Enumerates the contained pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Symbol)> + '_ {
        (0..self.alphabet).flat_map(move |x| {
            (0..self.alphabet).filter_map(move |y| {
                if self.allowed[x * self.alphabet + y] {
                    Some((Symbol::from_index(x as u8), Symbol::from_index(y as u8)))
                } else {
                    None
                }
            })
        })
    }

    /// The canonical index of pair `(x, y)`, `x ≠ y`, in the paper's
    /// `t(t−1)`-sized report domain: pairs ordered row-major with the
    /// diagonal skipped.
    pub fn pair_to_domain_index(alphabet: usize, from: Symbol, to: Symbol) -> Option<usize> {
        let (x, y) = (from.index(), to.index());
        if x == y || x >= alphabet || y >= alphabet {
            return None;
        }
        let col = if y > x { y - 1 } else { y };
        Some(x * (alphabet - 1) + col)
    }

    /// Inverse of [`BigramSet::pair_to_domain_index`].
    pub fn domain_index_to_pair(alphabet: usize, index: usize) -> Option<(Symbol, Symbol)> {
        if index >= alphabet * (alphabet - 1) {
            return None;
        }
        let x = index / (alphabet - 1);
        let col = index % (alphabet - 1);
        let y = if col >= x { col + 1 } else { col };
        Some((Symbol::from_index(x as u8), Symbol::from_index(y as u8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(c: char) -> Symbol {
        Symbol::from_char(c).unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut s = BigramSet::new(4);
        assert!(s.is_empty());
        s.insert(sym('a'), sym('c'));
        assert!(s.contains(sym('a'), sym('c')));
        assert!(!s.contains(sym('c'), sym('a'))); // ordered pairs
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn diagonal_pairs_are_rejected() {
        let mut s = BigramSet::new(3);
        s.insert(sym('b'), sym('b'));
        assert!(s.is_empty());
    }

    #[test]
    fn full_set_has_t_times_t_minus_1_pairs() {
        for t in 2..6 {
            let s = BigramSet::full(t);
            assert_eq!(s.len(), t * (t - 1));
            assert_eq!(s.iter().count(), t * (t - 1));
        }
    }

    #[test]
    fn domain_index_round_trips() {
        for t in 2..8usize {
            let domain = t * (t - 1);
            for idx in 0..domain {
                let (x, y) = BigramSet::domain_index_to_pair(t, idx).unwrap();
                assert_ne!(x, y);
                assert_eq!(BigramSet::pair_to_domain_index(t, x, y), Some(idx));
            }
            assert!(BigramSet::domain_index_to_pair(t, domain).is_none());
        }
    }

    #[test]
    fn domain_index_rejects_diagonal_and_out_of_range() {
        assert_eq!(BigramSet::pair_to_domain_index(3, sym('a'), sym('a')), None);
        assert_eq!(BigramSet::pair_to_domain_index(3, sym('z'), sym('a')), None);
    }

    #[test]
    fn iter_matches_inserted_pairs() {
        let mut s = BigramSet::new(3);
        s.insert(sym('c'), sym('a'));
        s.insert(sym('a'), sym('b'));
        let pairs: Vec<String> = s.iter().map(|(x, y)| format!("{x}{y}")).collect();
        assert_eq!(pairs, vec!["ab", "ca"]); // row-major order
    }
}
