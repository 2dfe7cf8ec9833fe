//! The stress-matrix invariants as tier-1 tests (small populations, so the
//! suite stays fast in dev profile): the transport adversary is shed
//! without touching the extraction, the planted minority shape never
//! surfaces at small ε, and the JSON → gate-metric round trip regresses
//! when distances rise.

use privshape::protocol::LengthOracle;
use privshape_bench::gate::{self, Json};
use privshape_bench::scenario::{
    self, cells_to_json, run_cell, Scenario, ScenarioKind, EPSILONS, KINDS, ORACLES,
};

const USERS: usize = 240;
const SEED: u64 = 424242;

fn cell(oracle: LengthOracle, eps: f64, kind: ScenarioKind) -> Scenario {
    Scenario {
        oracle,
        eps,
        kind,
        users: USERS,
        seed: SEED,
    }
}

/// The adversarial cells' whole claim, asserted directly: replayed and
/// bit-flipped sealed frames bump the counters, and the extraction is
/// bit-identical to a clean twin's. One GRR cell and one OLH cell, so both
/// a direct-encoding and a hash-encoding length round face the adversary.
#[test]
fn adversarial_cells_shed_hostile_input_without_touching_extraction() {
    for oracle in [LengthOracle::Grr, LengthOracle::Olh] {
        let out = run_cell(&cell(oracle, 2.0, ScenarioKind::Adversarial));
        assert!(
            out.rejected_frames > 0,
            "{}: no corrupted frame was rejected",
            oracle.name()
        );
        assert!(
            out.duplicate_reports > 0,
            "{}: no replayed report was deduplicated",
            oracle.name()
        );
        assert!(
            out.clean_twin_match,
            "{}: hostile ingest diverged from the clean twin",
            oracle.name()
        );
        assert!(
            out.quality.is_some(),
            "{}: nothing extracted",
            oracle.name()
        );
    }
}

/// Clean cells must never trip the boundary counters: the dedup/checksum
/// machinery is free for honest traffic.
#[test]
fn clean_cells_keep_ingest_counters_at_zero() {
    let out = run_cell(&cell(LengthOracle::Oue, 1.0, ScenarioKind::Zipf));
    assert_eq!(out.rejected_frames, 0);
    assert_eq!(out.duplicate_reports, 0);
    assert!(out.quality.is_some());
}

/// The PMP-style leak probe: a sensitive shape held by
/// [`scenario::leak_user_count`] users (here 4 of 240) must stay below the
/// extraction's frequency floor at small ε, for every mechanism.
#[test]
fn planted_minority_shape_never_surfaces_at_small_eps() {
    for oracle in ORACLES {
        let out = run_cell(&cell(oracle, 0.5, ScenarioKind::Leak));
        assert!(
            !out.leak_surfaced,
            "{}: the planted shape surfaced among {:?}",
            oracle.name(),
            out.shapes
        );
        assert!(
            !out.shapes.is_empty(),
            "{}: leak cell extracted nothing at all",
            oracle.name()
        );
    }
}

/// A quarter of the population enrolled-but-unassigned shows up in the
/// diagnostics and still leaves a working extraction.
#[test]
fn unassigned_cells_report_idle_users() {
    let out = run_cell(&cell(LengthOracle::Grr, 4.0, ScenarioKind::Unassigned));
    assert_eq!(out.unassigned_users, USERS / 4);
    assert!(out.quality.is_some());
}

/// JSON → `quality_metrics` → `compare` round trip: a run gates cleanly
/// against itself, leak rows stay out of the metric set, and an inflated
/// distance regresses.
#[test]
fn quality_json_gates_lower_is_better() {
    let outcomes = [
        run_cell(&cell(LengthOracle::Grr, 4.0, ScenarioKind::UniformSed)),
        run_cell(&cell(LengthOracle::Grr, 0.5, ScenarioKind::Leak)),
    ];
    let json = cells_to_json(USERS, SEED, &outcomes);
    let doc = Json::parse(&json).expect("valid JSON");
    let metrics = gate::quality_metrics(&doc);
    assert_eq!(
        metrics.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        vec![
            "quality.grr.eps4.uniform-sed.dtw",
            "quality.grr.eps4.uniform-sed.sed"
        ],
        "leak rows must stay informational"
    );

    let (_, pass) = gate::compare(&metrics, &metrics, 0.20);
    assert!(pass, "a run must gate cleanly against itself");

    let inflated: Vec<(String, f64)> = metrics
        .iter()
        .map(|(n, v)| (n.clone(), v * 2.0 + 2.0))
        .collect();
    let (_, pass) = gate::compare(&metrics, &inflated, 0.20);
    assert!(!pass, "doubled distances must fail the quality gate");
}

/// The committed matrix shape: every (oracle, ε, kind) combination present
/// exactly once, plus the leak probes — ≥ 48 cells, as the quality file
/// promises CI.
#[test]
fn full_matrix_is_complete_and_large_enough() {
    let cells = scenario::full_matrix(720, 2023);
    assert!(cells.len() >= 48, "only {} cells", cells.len());
    assert_eq!(
        cells.len(),
        ORACLES.len() * EPSILONS.len() * KINDS.len()
            + ORACLES.len() * scenario::LEAK_EPSILONS.len()
    );
}
