use crate::error::{Result, TsError};
use std::fmt;

/// Largest supported SAX alphabet (`'a'..='z'`).
pub const MAX_ALPHABET: usize = 26;

/// One SAX symbol, stored as its index into the alphabet (`0 ⇒ 'a'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u8);

impl Symbol {
    /// Creates a symbol, validating it against an alphabet size.
    pub fn new(index: usize, alphabet: usize) -> Result<Self> {
        if !(2..=MAX_ALPHABET).contains(&alphabet) {
            return Err(TsError::InvalidAlphabet(alphabet));
        }
        if index >= alphabet {
            return Err(TsError::SymbolOutOfRange {
                symbol: index,
                alphabet,
            });
        }
        Ok(Symbol(index as u8))
    }

    /// Creates a symbol without alphabet validation. The caller must ensure
    /// `index < alphabet` wherever this symbol is later consumed.
    pub fn from_index(index: u8) -> Self {
        debug_assert!((index as usize) < MAX_ALPHABET);
        Symbol(index)
    }

    /// Index into the alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The display character (`'a' + index`).
    pub fn as_char(self) -> char {
        (b'a' + self.0) as char
    }

    /// Parses a lowercase ASCII letter.
    pub fn from_char(c: char) -> Result<Self> {
        if c.is_ascii_lowercase() {
            Ok(Symbol(c as u8 - b'a'))
        } else {
            Err(TsError::InvalidSymbolChar(c))
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// A sequence of SAX symbols — the paper's `S = {s_1, …}`.
///
/// Formats as a compact string (`"acba"`) and parses back from one, which
/// keeps tests and experiment output readable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SymbolSeq {
    symbols: Vec<Symbol>,
}

impl SymbolSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        Self {
            symbols: Vec::new(),
        }
    }

    /// Builds from raw symbols.
    pub fn from_symbols(symbols: Vec<Symbol>) -> Self {
        Self { symbols }
    }

    /// Parses a string of lowercase letters, e.g. `"acba"`.
    pub fn parse(s: &str) -> Result<Self> {
        let symbols = s
            .chars()
            .map(Symbol::from_char)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { symbols })
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the sequence holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Borrow the symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Symbol at `i`, if present.
    pub fn get(&self, i: usize) -> Option<Symbol> {
        self.symbols.get(i).copied()
    }

    /// Final symbol, if any.
    pub fn last(&self) -> Option<Symbol> {
        self.symbols.last().copied()
    }

    /// Appends a symbol.
    pub fn push(&mut self, s: Symbol) {
        self.symbols.push(s);
    }

    /// The first `len` symbols (or the whole sequence if shorter).
    pub fn prefix(&self, len: usize) -> SymbolSeq {
        SymbolSeq {
            symbols: self.symbols[..len.min(self.symbols.len())].to_vec(),
        }
    }

    /// Returns a copy extended with `s`.
    pub fn child(&self, s: Symbol) -> SymbolSeq {
        let mut symbols = Vec::with_capacity(self.symbols.len() + 1);
        symbols.extend_from_slice(&self.symbols);
        symbols.push(s);
        SymbolSeq { symbols }
    }

    /// Truncates to `len` symbols or pads by repeating `pad`, producing a
    /// sequence of exactly `len` symbols. Used by padding-and-sampling.
    pub fn resized(&self, len: usize, pad: Symbol) -> SymbolSeq {
        let mut symbols = self.symbols.clone();
        if symbols.len() > len {
            symbols.truncate(len);
        } else {
            symbols.resize(len, pad);
        }
        SymbolSeq { symbols }
    }

    /// Iterator over consecutive pairs `(s_j, s_{j+1})` — the paper's
    /// sub-shapes.
    pub fn bigrams(&self) -> impl Iterator<Item = (Symbol, Symbol)> + '_ {
        self.symbols.windows(2).map(|w| (w[0], w[1]))
    }

    /// Largest symbol index present (useful to sanity-check alphabet sizes).
    pub fn max_index(&self) -> Option<usize> {
        self.symbols.iter().map(|s| s.index()).max()
    }

    /// Symbol indices as a numeric vector (for numeric distance measures).
    pub fn as_indices(&self) -> Vec<f64> {
        self.symbols.iter().map(|s| s.index() as f64).collect()
    }
}

impl fmt::Display for SymbolSeq {
    /// Writes the compact letter form, e.g. `acba`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{}", s.as_char())?;
        }
        Ok(())
    }
}

impl FromIterator<Symbol> for SymbolSeq {
    fn from_iter<T: IntoIterator<Item = Symbol>>(iter: T) -> Self {
        SymbolSeq {
            symbols: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_validation() {
        assert!(Symbol::new(0, 2).is_ok());
        assert!(Symbol::new(2, 2).is_err());
        assert!(Symbol::new(0, 1).is_err());
        assert!(Symbol::new(0, 27).is_err());
    }

    #[test]
    fn symbol_char_round_trip() {
        for i in 0..26u8 {
            let s = Symbol::from_index(i);
            assert_eq!(Symbol::from_char(s.as_char()).unwrap(), s);
        }
        assert!(Symbol::from_char('A').is_err());
        assert!(Symbol::from_char('1').is_err());
    }

    #[test]
    fn parse_and_display_round_trip() {
        let seq = SymbolSeq::parse("acba").unwrap();
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.to_string(), "acba");
        assert!(SymbolSeq::parse("a!b").is_err());
    }

    #[test]
    fn bigrams_enumerate_consecutive_pairs() {
        let seq = SymbolSeq::parse("abca").unwrap();
        let pairs: Vec<String> = seq.bigrams().map(|(a, b)| format!("{a}{b}")).collect();
        assert_eq!(pairs, vec!["ab", "bc", "ca"]);
        assert_eq!(SymbolSeq::parse("a").unwrap().bigrams().count(), 0);
    }

    #[test]
    fn resized_pads_and_truncates() {
        let seq = SymbolSeq::parse("ab").unwrap();
        let pad = Symbol::from_char('z').unwrap();
        assert_eq!(seq.resized(4, pad).to_string(), "abzz");
        assert_eq!(seq.resized(1, pad).to_string(), "a");
    }

    #[test]
    fn child_and_prefix() {
        let seq = SymbolSeq::parse("ab").unwrap();
        assert_eq!(
            seq.child(Symbol::from_char('c').unwrap()).to_string(),
            "abc"
        );
        assert_eq!(seq.prefix(1).to_string(), "a");
        assert_eq!(seq.prefix(10).to_string(), "ab");
    }

    #[test]
    fn as_indices_maps_letters() {
        let seq = SymbolSeq::parse("acb").unwrap();
        assert_eq!(seq.as_indices(), vec![0.0, 2.0, 1.0]);
        assert_eq!(seq.max_index(), Some(2));
    }
}
