//! Per-round behavioral tests at the protocol boundary: clients answer a
//! single broadcast, a shard aggregates, and the finalized estimate must
//! recover the planted signal. These port the stage-level guarantees that
//! used to be tested inside the monolithic mechanism (length clipping,
//! sub-shape recovery, EM concentration, labeled-grid unbiasing) onto the
//! client/aggregator API. They live in the crate because the estimators
//! (`ShardAggregator::finalize_*`) are the session's, not public API.

use crate::{
    Audience, GroupAssignment, GroupId, LengthOracle, PrivShapeConfig, ProtocolParams, RoundSpec,
    ShardAggregator, UserClient,
};
use privshape_ldp::Epsilon;
use privshape_timeseries::{CandidateTable, SaxParams, SymbolSeq};
use std::sync::Arc;

/// Protocol params with a given budget (the SAX settings are irrelevant
/// here: clients are constructed from explicit symbol sequences).
fn params(eps: f64, n: usize) -> ProtocolParams {
    let mut cfg = PrivShapeConfig::new(
        Epsilon::new(eps).unwrap(),
        2,
        SaxParams::new(10, 3).unwrap(),
    );
    cfg.distance = privshape_distance::DistanceKind::Sed;
    cfg.seed = 1;
    ProtocolParams::privshape(&cfg, n)
}

/// One client per sequence, all assigned to `group`.
fn clients_for(seqs: &[SymbolSeq], group: GroupId, p: &ProtocolParams) -> Vec<UserClient> {
    seqs.iter()
        .enumerate()
        .map(|(user, seq)| {
            UserClient::from_sequence(
                user,
                seq.clone(),
                None,
                p,
                GroupAssignment {
                    group: Some(group),
                    rank: user,
                    group_len: seqs.len(),
                },
            )
        })
        .collect()
}

/// Answers `spec` with every client and aggregates into one shard.
fn aggregate(clients: &mut [UserClient], spec: &RoundSpec, p: &ProtocolParams) -> ShardAggregator {
    let mut agg = ShardAggregator::for_round(spec, p.epsilon).unwrap();
    for client in clients {
        if let Some(report) = client.answer(spec).unwrap() {
            agg.absorb(&report).unwrap();
        }
    }
    agg
}

fn seq_of_len(len: usize) -> SymbolSeq {
    // Alternating ab… keeps the sequence compressed-valid.
    let s: String = (0..len)
        .map(|i| if i % 2 == 0 { 'a' } else { 'b' })
        .collect();
    SymbolSeq::parse(&s).unwrap()
}

#[test]
fn length_round_recovers_dominant_length() {
    // 80% of users have length 4, the rest length 7.
    let seqs: Vec<SymbolSeq> = (0..5000)
        .map(|i| seq_of_len(if i % 5 == 4 { 7 } else { 4 }))
        .collect();
    let p = params(2.0, seqs.len());
    let spec = RoundSpec::Length {
        audience: Audience::group(GroupId::Pa),
        range: (1, 10),
        oracle: LengthOracle::Grr,
    };
    let mut clients = clients_for(&seqs, GroupId::Pa, &p);
    let agg = aggregate(&mut clients, &spec, &p);
    assert_eq!(agg.reports(), 5000);
    assert_eq!(agg.finalize_length(1).unwrap(), 4);
}

#[test]
fn length_round_clips_out_of_range_lengths() {
    // All users have length 30, clipped to ℓ_high = 8.
    let seqs: Vec<SymbolSeq> = (0..3000).map(|_| seq_of_len(30)).collect();
    let p = params(3.0, seqs.len());
    let spec = RoundSpec::Length {
        audience: Audience::group(GroupId::Pa),
        range: (2, 8),
        oracle: LengthOracle::Grr,
    };
    let mut clients = clients_for(&seqs, GroupId::Pa, &p);
    let agg = aggregate(&mut clients, &spec, &p);
    assert_eq!(agg.finalize_length(2).unwrap(), 8);
}

#[test]
fn subshape_round_recovers_planted_bigrams() {
    // Everyone holds "abc": level-1 pair (a,b), level-2 pair (b,c).
    let seqs: Vec<SymbolSeq> = (0..6000)
        .map(|_| SymbolSeq::parse("abc").unwrap())
        .collect();
    let p = params(2.0, seqs.len());
    let spec = RoundSpec::SubShape {
        audience: Audience::group(GroupId::Pb),
        ell_s: 3,
        alphabet: 3,
    };
    let mut clients = clients_for(&seqs, GroupId::Pb, &p);
    let agg = aggregate(&mut clients, &spec, &p);
    let top = agg.finalize_subshape(2).unwrap();
    assert_eq!(top.len(), 2);
    let ab = privshape_trie::BigramSet::pair_to_domain_index(
        3,
        privshape_timeseries::Symbol::from_char('a').unwrap(),
        privshape_timeseries::Symbol::from_char('b').unwrap(),
    )
    .unwrap();
    let bc = privshape_trie::BigramSet::pair_to_domain_index(
        3,
        privshape_timeseries::Symbol::from_char('b').unwrap(),
        privshape_timeseries::Symbol::from_char('c').unwrap(),
    )
    .unwrap();
    assert!(top[0].contains(&ab), "level 1 should keep (a,b): {top:?}");
    assert!(top[1].contains(&bc), "level 2 should keep (b,c): {top:?}");
}

#[test]
fn subshape_padding_spreads_over_pairs_with_the_real_prefix() {
    // All users hold just "a": level-1 bigrams are (a, random≠a); the top
    // pairs should start with the real symbol.
    let seqs: Vec<SymbolSeq> = (0..3000).map(|_| SymbolSeq::parse("a").unwrap()).collect();
    let p = params(3.0, seqs.len());
    let spec = RoundSpec::SubShape {
        audience: Audience::group(GroupId::Pb),
        ell_s: 2,
        alphabet: 3,
    };
    let mut clients = clients_for(&seqs, GroupId::Pb, &p);
    let agg = aggregate(&mut clients, &spec, &p);
    let top: Vec<(char, char)> = agg.finalize_subshape(2).unwrap()[0]
        .iter()
        .map(|&idx| {
            let (x, y) = privshape_trie::BigramSet::domain_index_to_pair(3, idx).unwrap();
            (x.as_char(), y.as_char())
        })
        .collect();
    assert!(
        top.iter().any(|&(x, _)| x == 'a'),
        "top pairs should start with the real symbol: {top:?}"
    );
}

#[test]
fn expand_round_concentrates_on_matching_candidate() {
    let seqs: Vec<SymbolSeq> = (0..3000)
        .map(|_| SymbolSeq::parse("acb").unwrap())
        .collect();
    let p = params(4.0, seqs.len());
    let candidates = Arc::new(CandidateTable::parse_rows(&["ab", "ac", "ba", "ca"]).unwrap());
    let spec = RoundSpec::Expand {
        audience: Audience::chunk(GroupId::Pc, 0, 1),
        level: 2,
        candidates,
    };
    let mut clients = clients_for(&seqs, GroupId::Pc, &p);
    let agg = aggregate(&mut clients, &spec, &p);
    let counts = agg.finalize_selections().unwrap();
    // Users' prefix "ac" matches candidate 1 exactly.
    let best = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(best, 1, "counts={counts:?}");
    assert_eq!(counts.iter().sum::<f64>(), 3000.0);
}

#[test]
fn low_budget_flattens_selections() {
    let seqs: Vec<SymbolSeq> = (0..4000).map(|_| SymbolSeq::parse("ab").unwrap()).collect();
    let candidates = Arc::new(CandidateTable::parse_rows(&["ab", "ba"]).unwrap());
    let frac_for = |eps: f64| {
        let p = params(eps, seqs.len());
        let spec = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 1),
            level: 2,
            candidates: candidates.clone(),
        };
        let mut clients = clients_for(&seqs, GroupId::Pc, &p);
        let counts = aggregate(&mut clients, &spec, &p)
            .finalize_selections()
            .unwrap();
        counts[0] / 4000.0
    };
    let strong = frac_for(8.0);
    let weak = frac_for(0.1);
    assert!(strong > 0.8, "strong={strong}");
    assert!((weak - 0.5).abs() < 0.1, "weak={weak}");
}

#[test]
fn labeled_refine_round_recovers_class_structure() {
    // Class 0 holds "ab", class 1 holds "ba".
    let n = 8000;
    let p = params(4.0, n);
    let candidates = Arc::new(CandidateTable::parse_rows(&["ab", "ba"]).unwrap());
    let spec = RoundSpec::RefineLabeled {
        audience: Audience::group(GroupId::Pd),
        candidates,
        n_classes: 2,
    };
    let mut agg = ShardAggregator::for_round(&spec, p.epsilon).unwrap();
    for user in 0..n {
        let seq = SymbolSeq::parse(if user % 2 == 0 { "ab" } else { "ba" }).unwrap();
        let mut client = UserClient::from_sequence(
            user,
            seq,
            Some(user % 2),
            &p,
            GroupAssignment {
                group: Some(GroupId::Pd),
                rank: user,
                group_len: n,
            },
        );
        let report = client.answer(&spec).unwrap().unwrap();
        agg.absorb(&report).unwrap();
    }
    let freqs = agg.finalize_labeled(n).unwrap();
    // Class 0's dominant candidate is "ab" (index 0), class 1's "ba".
    assert!(freqs[0][0] > freqs[0][1], "class 0: {:?}", freqs[0]);
    assert!(freqs[1][1] > freqs[1][0], "class 1: {:?}", freqs[1]);
    // Estimates are near n/2 for the true cells.
    assert!((freqs[0][0] - (n / 2) as f64).abs() < 0.2 * n as f64);
}

#[test]
fn single_cell_labeled_grid_falls_back_to_group_size() {
    let p = params(1.0, 3);
    let spec = RoundSpec::RefineLabeled {
        audience: Audience::group(GroupId::Pd),
        candidates: Arc::new(CandidateTable::parse_rows(&["ab"]).unwrap()),
        n_classes: 1,
    };
    let mut agg = ShardAggregator::for_round(&spec, p.epsilon).unwrap();
    for user in 0..3 {
        let mut client = UserClient::from_sequence(
            user,
            SymbolSeq::parse("ab").unwrap(),
            Some(0),
            &p,
            GroupAssignment {
                group: Some(GroupId::Pd),
                rank: user,
                group_len: 3,
            },
        );
        let report = client.answer(&spec).unwrap().unwrap();
        agg.absorb(&report).unwrap();
    }
    assert_eq!(agg.finalize_labeled(3).unwrap(), vec![vec![3.0]]);
}
