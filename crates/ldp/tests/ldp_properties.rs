//! Property tests for the LDP primitives: the ε-LDP probability bounds and
//! estimator identities must hold for arbitrary parameters, not just the
//! handful in the unit tests.

use privshape_ldp::{
    Epsilon, ExpMech, Grr, GrrAggregator, Olh, OlhAggregator, Oue, OueAggregator,
    PiecewiseMechanism,
};
use proptest::prelude::*;
use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The EM sampler written out with both logarithms on every draw, for
/// sensitivity 1: what `ExpMech::select` must match, index for index and
/// draw for draw.
fn select_full_log(eps: f64, rng: &mut ChaCha12Rng, scores: &[f64]) -> usize {
    let scale = eps / 2.0;
    let mut best = (0, f64::NEG_INFINITY);
    for (j, &s) in scores.iter().enumerate() {
        let u: f64 = loop {
            let u = rng.random::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        let key = scale * s + -(-u.ln()).ln();
        if key > best.1 {
            best = (j, key);
        }
    }
    best.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grr_probabilities_are_a_distribution_with_exact_ratio(
        d in 2usize..200,
        eps in 0.05f64..8.0,
    ) {
        let grr = Grr::new(d, Epsilon::new(eps).unwrap()).unwrap();
        let total = grr.p() + (d as f64 - 1.0) * grr.q();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!((grr.p() / grr.q() - eps.exp()).abs() / eps.exp() < 1e-9);
        prop_assert!(grr.p() > grr.q());
    }

    #[test]
    fn grr_reports_stay_in_domain(
        d in 2usize..50,
        eps in 0.1f64..6.0,
        value_frac in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let grr = Grr::new(d, Epsilon::new(eps).unwrap()).unwrap();
        let value = ((value_frac * d as f64) as usize).min(d - 1);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert!(grr.perturb(&mut rng, value) < d);
        }
    }

    #[test]
    fn oue_flip_probabilities_satisfy_eps(
        d in 2usize..100,
        eps in 0.05f64..8.0,
    ) {
        let oue = Oue::new(d, Epsilon::new(eps).unwrap()).unwrap();
        // OUE's privacy bound: (p(1−q)) / (q(1−p)) = e^ε with p = 1/2.
        let p = Oue::P;
        let q = oue.q();
        let ratio = (p * (1.0 - q)) / (q * (1.0 - p));
        prop_assert!((ratio - eps.exp()).abs() / eps.exp() < 1e-9);
    }

    #[test]
    fn em_probabilities_form_distribution_and_bound_ratio(
        scores in prop::collection::vec(0.0f64..1.0, 1..20),
        eps in 0.05f64..8.0,
    ) {
        let em = ExpMech::new(Epsilon::new(eps).unwrap());
        let probs = em.probabilities(&scores);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let max = probs.iter().copied().fold(0.0f64, f64::max);
        let min = probs.iter().copied().fold(1.0f64, f64::min);
        // Scores live in [0,1] with Δ=1 ⇒ ratio bounded by e^{ε/2}.
        prop_assert!(max / min <= (eps / 2.0).exp() * (1.0 + 1e-9));
    }

    #[test]
    fn em_select_returns_valid_index(
        scores in prop::collection::vec(0.0f64..1.0, 1..20),
        eps in 0.1f64..8.0,
        seed in 0u64..500,
    ) {
        let em = ExpMech::new(Epsilon::new(eps).unwrap());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let idx = em.select(&mut rng, &scores).unwrap();
        prop_assert!(idx < scores.len());
    }

    #[test]
    fn piecewise_output_always_within_bound(
        eps in 0.1f64..8.0,
        t in -1.0f64..1.0,
        seed in 0u64..500,
    ) {
        let pm = PiecewiseMechanism::new(Epsilon::new(eps).unwrap());
        let c = pm.output_bound();
        prop_assert!(c > 1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..20 {
            let y = pm.perturb(&mut rng, t);
            prop_assert!((-c..=c).contains(&y));
        }
    }

    /// Any ε, log-uniform over [1e-9, 1e6], is either refused by
    /// `Epsilon::new` (only where `e^ε` overflows) or yields GRR, OUE, OLH
    /// and piecewise mechanisms whose probabilities lie in [0, 1] and whose
    /// perturbations return instead of panicking.
    #[test]
    fn any_epsilon_is_refused_or_yields_sound_mechanisms(
        log10_eps in -9.0f64..6.0,
        seed in 0u64..500,
    ) {
        let eps = 10f64.powf(log10_eps);
        match Epsilon::new(eps) {
            Err(_) => prop_assert!(!eps.exp().is_finite(), "refused ε = {}", eps),
            Ok(e) => {
                let grr = Grr::new(4, e).unwrap();
                let oue = Oue::new(4, e).unwrap();
                let olh = Olh::new(e);
                let pm = PiecewiseMechanism::new(e);
                // The piecewise plateau mass e^{ε/2} / (e^{ε/2} + 1), written
                // through the public bound C = (e^{ε/2} + 1) / (e^{ε/2} − 1).
                let c = pm.output_bound();
                let plateau = (c + 1.0) / (2.0 * c);
                for p in [grr.p(), grr.q(), Oue::P, oue.q(), olh.p(), plateau] {
                    prop_assert!((0.0..=1.0).contains(&p), "ε = {}: p = {}", eps, p);
                }
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                prop_assert!(grr.try_perturb(&mut rng, 1).unwrap() < 4);
                prop_assert!(oue.try_perturb(&mut rng, 1).is_ok());
                prop_assert!(olh.perturb(&mut rng, 1).value < olh.g());
                prop_assert!(pm.try_perturb(&mut rng, 0.5).unwrap().abs() <= c);
            }
        }
    }

    /// Budgets log-uniform over [0.01, 1000]: each is valid exactly when
    /// its `e^ε` is finite, and sequential composition of two valid ones
    /// is refused exactly when `e^(a + b)` overflows.
    #[test]
    fn epsilon_composition_laws(log10_a in -2.0f64..3.0, log10_b in -2.0f64..3.0) {
        let (a, b) = (10f64.powf(log10_a), 10f64.powf(log10_b));
        match (Epsilon::new(a), Epsilon::new(b)) {
            (Ok(ea), Ok(eb)) => {
                prop_assert!((ea.parallel(eb).value() - a.max(b)).abs() < 1e-12);
                match ea.sequential(eb) {
                    Err(_) => prop_assert!(!(a + b).exp().is_finite(), "refused {} + {}", a, b),
                    Ok(sum) => {
                        prop_assert!((sum.value() - (a + b)).abs() < 1e-12);
                        // Parallel never exceeds sequential.
                        prop_assert!(ea.parallel(eb).value() <= sum.value());
                    }
                }
            }
            _ => prop_assert!(!a.exp().is_finite() || !b.exp().is_finite()),
        }
    }
}

/// The score vectors the EM equivalence properties run on: the first `n`
/// of `raw` (shape 0), all equal (1), {0, 1}-valued (2), device-shaped (3)
/// or all zero (4).
fn shaped_scores(n: usize, shape: u8, raw: &[f64], dists: &[u32]) -> Vec<f64> {
    match shape {
        0 => raw[..n].to_vec(),
        1 => vec![raw[0]; n],
        2 => raw[..n]
            .iter()
            .map(|&x| if x < 0.5 { 0.0 } else { 1.0 })
            .collect(),
        // What devices score: `em_score(d) = 1/(1 + d)` of an integer
        // distance, about a quarter of them exact matches (`d = 0`).
        3 => raw[..n]
            .iter()
            .zip(dists)
            .map(|(&x, &d)| {
                if x < 0.25 {
                    1.0
                } else {
                    1.0 / (1.0 + d as f64)
                }
            })
            .collect(),
        // Every distance infinite, so every `em_score` is 0.
        _ => vec![0.0; n],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `select`, which skips the logarithms of draws that cannot win,
    /// picks what the full-log loop picks and leaves the stream at the
    /// same draw: for the table sizes devices score, random, all-equal,
    /// {0, 1}-valued, device-shaped and all-zero scores, and ε
    /// log-uniform over [0.01, 100].
    #[test]
    fn em_select_equals_full_log_reference(
        n in prop_oneof![Just(1usize), Just(2), Just(6), Just(18), Just(55), Just(324)],
        shape in 0u8..5,
        raw in prop::collection::vec(0.0f64..1.0, 324),
        log10_eps in -2.0f64..2.0,
        seed in any::<u64>(),
        dists in prop::collection::vec(0u32..40, 324),
    ) {
        let scores = shaped_scores(n, shape, &raw, &dists);
        let eps = 10f64.powf(log10_eps);
        let em = ExpMech::new(Epsilon::new(eps).unwrap());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut reference = rng.clone();
        prop_assert_eq!(
            em.select(&mut rng, &scores).unwrap(),
            select_full_log(eps, &mut reference, &scores)
        );
        prop_assert_eq!(rng.next_u64(), reference.next_u64());
    }

    /// Drawing from a row `prepare` wrote picks what the full-log loop
    /// picks and leaves the stream at the same draw, on the shapes, sizes
    /// and budgets of `em_select_equals_full_log_reference`; and one row
    /// reused across eight streams, as the scoring memo reuses it, picks
    /// what eight fresh `select`s pick.
    #[test]
    fn em_select_prepared_equals_full_log_reference(
        n in prop_oneof![Just(1usize), Just(2), Just(6), Just(18), Just(55), Just(324)],
        shape in 0u8..5,
        raw in prop::collection::vec(0.0f64..1.0, 324),
        log10_eps in -2.0f64..2.0,
        seed in any::<u64>(),
        dists in prop::collection::vec(0u32..40, 324),
    ) {
        let scores = shaped_scores(n, shape, &raw, &dists);
        let eps = 10f64.powf(log10_eps);
        let em = ExpMech::new(Epsilon::new(eps).unwrap());
        let mut row = Vec::new();
        em.prepare(&scores, &mut row);
        prop_assert_eq!(row.len(), 2 * n + 1);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut reference = rng.clone();
        prop_assert_eq!(
            em.select_prepared(&mut rng, &row).unwrap(),
            select_full_log(eps, &mut reference, &scores)
        );
        prop_assert_eq!(rng.next_u64(), reference.next_u64());
        for stream in 1..=8u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ stream);
            let mut fresh = rng.clone();
            prop_assert_eq!(
                em.select_prepared(&mut rng, &row).unwrap(),
                em.select(&mut fresh, &scores).unwrap()
            );
            prop_assert_eq!(rng.next_u64(), fresh.next_u64());
        }
    }
}

/// `select`, and `select_prepared` on the prepared row, match the
/// full-log loop, index and stream position, on score vectors holding NaN,
/// ±∞ and ±1e300, alone and scattered through a device-sized table.
#[test]
fn em_select_equals_full_log_reference_on_nan_infinite_and_huge_scores() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let mut vectors: Vec<Vec<f64>> = vec![
        vec![nan],
        vec![nan; 6],
        vec![0.5, nan, 1.0, nan],
        vec![inf],
        vec![1.0, 0.5, inf, 0.2, inf],
        vec![-inf; 4],
        vec![-inf, 0.3, -inf, 1.0],
        vec![inf, -inf, nan, 0.0],
        vec![1e300, -1e300],
        vec![-1e300, 0.0, 1e300, 1e300],
        vec![1e300; 5],
        vec![-1e300, -inf, -1e300],
    ];
    for special in [nan, inf, -inf, 1e300, -1e300] {
        vectors.push(
            (0..55)
                .map(|i| {
                    if i % 7 == 3 {
                        special
                    } else {
                        1.0 / (1.0 + (i % 11) as f64)
                    }
                })
                .collect(),
        );
    }
    for eps in [0.01, 1.0, 4.0, 100.0] {
        let em = ExpMech::new(Epsilon::new(eps).unwrap());
        let mut row = Vec::new();
        for scores in &vectors {
            em.prepare(scores, &mut row);
            for seed in 0..64 {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let mut prepared = rng.clone();
                let mut reference = rng.clone();
                let want = select_full_log(eps, &mut reference, scores);
                assert_eq!(
                    em.select(&mut rng, scores).unwrap(),
                    want,
                    "ε {eps}, seed {seed}, scores {scores:?}"
                );
                assert_eq!(
                    em.select_prepared(&mut prepared, &row).unwrap(),
                    want,
                    "prepared: ε {eps}, seed {seed}, scores {scores:?}"
                );
                let next = reference.next_u64();
                assert_eq!(rng.next_u64(), next);
                assert_eq!(prepared.next_u64(), next);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// GRR's estimator identity Σ_v ĉ(v) = n holds for every report set.
    #[test]
    fn grr_estimates_sum_to_population(
        d in 2usize..12,
        eps in 0.2f64..4.0,
        n in 1usize..400,
        seed in 0u64..100,
    ) {
        let grr = Grr::new(d, Epsilon::new(eps).unwrap()).unwrap();
        let mut agg = GrrAggregator::new(&grr);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for i in 0..n {
            agg.add(grr.perturb(&mut rng, i % d));
        }
        let sum: f64 = agg.estimates().iter().sum();
        prop_assert!((sum - n as f64).abs() < 1e-6 * n as f64 + 1e-6);
    }
}

#[test]
fn top_m_survives_nan_estimates() {
    // At ε = 1e-300, e^ε rounds to 1, so p = q and every estimate is 0/0.
    let eps = Epsilon::new(1e-300).unwrap();
    let grr = GrrAggregator::new(&Grr::new(4, eps).unwrap());
    let oue = OueAggregator::new(&Oue::new(4, eps).unwrap());
    let olh = OlhAggregator::new(Olh::new(eps), 4).unwrap();
    for est in [grr.estimates(), oue.estimates(), olh.estimates()] {
        assert!(est.iter().all(|e| e.is_nan()), "{est:?}");
    }
    assert_eq!(grr.top_m(2), vec![0, 1]);
    assert_eq!(oue.top_m(2), vec![0, 1]);
    assert_eq!(olh.top_m(2), vec![0, 1]);
}
