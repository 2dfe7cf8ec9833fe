//! Result types returned by the mechanisms, with diagnostics that surface
//! what the server learned at each stage (useful for the paper's per-level
//! analyses and for debugging utility regressions).

use privshape_timeseries::SymbolSeq;
use std::time::Duration;

/// One extracted frequent shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedShape {
    /// The shape (a compressed symbol sequence).
    pub shape: SymbolSeq,
    /// Its estimated frequency (selection count or unbiased estimate,
    /// depending on the producing stage).
    pub frequency: f64,
}

/// Server-side diagnostics of one mechanism run.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Estimated frequent sequence length ℓ_S (the trie height).
    pub ell_s: usize,
    /// Live candidate count after pruning, per level `1..=ℓ_S`.
    pub candidates_per_level: Vec<usize>,
    /// Nodes ever created in the trie (expansion work).
    pub trie_nodes: usize,
    /// Users in each task group (`[Pa, Pb, Pc, Pd]`; the baseline uses
    /// `[Pa, Pb, 0, 0]`).
    pub group_sizes: [usize; 4],
    /// Users assigned to no group at all — non-zero whenever the population
    /// fractions sum to less than 1, in which case that many users sit idle
    /// instead of contributing reports.
    pub unassigned_users: usize,
    /// Whole wire frames rejected at the sealed-frame ingest boundary
    /// (checksum mismatch or malformed body), summed across rounds. Stays
    /// zero unless the sealed path
    /// ([`crate::Session::submit_sealed_frame`]) was used.
    pub rejected_frames: u64,
    /// Reports dropped by per-round user-id deduplication at the sealed
    /// ingest boundary, summed across rounds.
    pub duplicate_reports: u64,
    /// Wall-clock time of the full run.
    pub elapsed: Duration,
}

/// Result of an unlabeled (clustering-oriented) extraction.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// Top-k shapes, most frequent first.
    pub shapes: Vec<ExtractedShape>,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
}

impl Extraction {
    /// The shapes without frequencies (convenience for classifiers).
    pub fn sequences(&self) -> Vec<SymbolSeq> {
        self.shapes.iter().map(|s| s.shape.clone()).collect()
    }
}

/// Per-class shapes from a labeled (classification-oriented) extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassShapes {
    /// The class label.
    pub label: usize,
    /// Shapes for this class, most frequent first.
    pub shapes: Vec<ExtractedShape>,
}

/// Result of a labeled extraction.
#[derive(Debug, Clone)]
pub struct LabeledExtraction {
    /// One entry per class, in label order.
    pub classes: Vec<ClassShapes>,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
}

impl LabeledExtraction {
    /// `(shape, label)` prototypes — the classification criteria of §V-E
    /// (each class's most frequent shapes).
    pub fn prototypes(&self) -> Vec<(SymbolSeq, usize)> {
        self.classes
            .iter()
            .flat_map(|c| c.shapes.iter().map(move |s| (s.shape.clone(), c.label)))
            .collect()
    }

    /// Only each class's single most frequent shape.
    pub fn top_prototype_per_class(&self) -> Vec<(SymbolSeq, usize)> {
        self.classes
            .iter()
            .filter_map(|c| c.shapes.first().map(|s| (s.shape.clone(), c.label)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(s: &str, f: f64) -> ExtractedShape {
        ExtractedShape {
            shape: SymbolSeq::parse(s).unwrap(),
            frequency: f,
        }
    }

    #[test]
    fn extraction_sequences() {
        let e = Extraction {
            shapes: vec![shape("ab", 10.0), shape("ba", 5.0)],
            diagnostics: Diagnostics::default(),
        };
        let seqs = e.sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].to_string(), "ab");
    }

    #[test]
    fn labeled_prototypes_flatten_classes() {
        let le = LabeledExtraction {
            classes: vec![
                ClassShapes {
                    label: 0,
                    shapes: vec![shape("ab", 9.0), shape("ac", 1.0)],
                },
                ClassShapes {
                    label: 1,
                    shapes: vec![shape("ba", 7.0)],
                },
                ClassShapes {
                    label: 2,
                    shapes: vec![],
                },
            ],
            diagnostics: Diagnostics::default(),
        };
        assert_eq!(le.prototypes().len(), 3);
        let top = le.top_prototype_per_class();
        assert_eq!(top.len(), 2); // class 2 extracted nothing
        assert_eq!(top[0], (SymbolSeq::parse("ab").unwrap(), 0));
        assert_eq!(top[1], (SymbolSeq::parse("ba").unwrap(), 1));
    }
}
