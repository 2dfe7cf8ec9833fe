//! Adversarial & utility stress matrix: mechanism × ε × population-skew
//! scenario cells for the quality gate.
//!
//! Each cell drives a full PrivShape session **end-to-end through the
//! streaming sealed-frame ingest path** (`Session::submit_sealed_frame`)
//! over a generated Trace-like
//! population, then scores the extracted shapes against the generator's
//! noiseless ground truth with [`crate::quality::shape_quality`]. The axes:
//!
//! * **mechanism** — which frequency oracle the length round runs
//!   (GRR / OUE / OLH / piecewise, via [`LengthOracle`]);
//! * **ε** — 0.5, 1, 2, 4 (the paper's budget sweep);
//! * **skew / adversary** — what the population and transport look like:
//!   balanced classes under DTW and SED scoring, heavy-tailed Zipf class
//!   sizes, a quarter of users left unassigned, and a transport adversary
//!   that replays and bit-flips sealed frames at the ingest boundary;
//! * **leak probes** — a PMP-style memorization check: a sensitive shape
//!   planted in a handful of users must *not* surface in the extraction at
//!   small ε.
//!
//! Everything is deterministic given `(users, seed)`: per-cell seeds are
//! derived, sessions are seeded, and no wall-clock values enter the cell
//! outcomes — so `BENCH_quality.json` is byte-stable and CI can regress-gate
//! its utility numbers against committed baselines (`bench_gate`, with the
//! lower-is-better direction).

use crate::quality::{shape_quality, trace_ground_truth, Quality};
use privshape::protocol::{seal_frame, LengthOracle, Report, Session, UserClient};
use privshape::{Extraction, PrivShapeConfig};
use privshape_datasets::{
    generate_leak_series, generate_trace_like_counts, leak_template, zipf_counts, TraceLikeConfig,
    TRACE_CLASSES, TRACE_LEN,
};
use privshape_distance::DistanceKind;
use privshape_ldp::Epsilon;
use privshape_timeseries::{compressive_sax, SaxParams, TimeSeries};

/// The mechanism axis.
pub const ORACLES: [LengthOracle; 4] = [
    LengthOracle::Grr,
    LengthOracle::Oue,
    LengthOracle::Olh,
    LengthOracle::Piecewise,
];

/// The budget axis (the paper's sweep).
pub const EPSILONS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// The skew/adversary axis (leak probes are added separately by
/// [`full_matrix`]).
pub const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::UniformDtw,
    ScenarioKind::UniformSed,
    ScenarioKind::Zipf,
    ScenarioKind::Unassigned,
    ScenarioKind::Adversarial,
];

/// Budgets the leak probes run at: the claim is about *small* ε, where LDP
/// noise must drown a shape held by a handful of users.
pub const LEAK_EPSILONS: [f64; 2] = [0.5, 1.0];

/// Zipf exponent for the heavy-tailed skew cells.
const ZIPF_EXPONENT: f64 = 1.2;
/// Fraction of the population that stays assigned in the unassigned cells.
const ASSIGNED_FRAC: f64 = 0.75;
/// Reports per sealed frame.
const FRAME_REPORTS: usize = 16;

/// What one scenario cell stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Balanced classes, DTW as the session's scoring distance.
    UniformDtw,
    /// Balanced classes, SED as the session's scoring distance.
    UniformSed,
    /// Heavy-tailed Zipf class sizes: minority classes get few reporters.
    Zipf,
    /// A quarter of users enrolled but assigned to no task group.
    Unassigned,
    /// Transport adversary: every sealed frame is replayed verbatim and a
    /// bit-flipped copy is injected; the ingest boundary must shed both.
    Adversarial,
    /// PMP-style leak probe: a sensitive shape planted in a few users.
    Leak,
}

impl ScenarioKind {
    /// Stable name used in JSON rows and gate metric keys.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::UniformDtw => "uniform-dtw",
            ScenarioKind::UniformSed => "uniform-sed",
            ScenarioKind::Zipf => "zipf",
            ScenarioKind::Unassigned => "unassigned",
            ScenarioKind::Adversarial => "adversarial",
            ScenarioKind::Leak => "leak",
        }
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Length-round frequency oracle.
    pub oracle: LengthOracle,
    /// Privacy budget ε.
    pub eps: f64,
    /// Skew/adversary setting.
    pub kind: ScenarioKind,
    /// Total enrolled users.
    pub users: usize,
    /// Cell seed (already decorrelated per cell by [`full_matrix`]).
    pub seed: u64,
}

/// Everything one cell measured. Deliberately excludes wall-clock time:
/// the file must be byte-identical across runs with the same seed.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's coordinates.
    pub scenario: Scenario,
    /// Distances to ground truth (`None` when nothing was extracted).
    pub quality: Option<Quality>,
    /// Extracted shapes as strings, most frequent first.
    pub shapes: Vec<String>,
    /// Sealed frames rejected at the ingest boundary.
    pub rejected_frames: u64,
    /// Reports deduplicated at the ingest boundary.
    pub duplicate_reports: u64,
    /// Users the population split left idle.
    pub unassigned_users: usize,
    /// Adversarial cells: the hostile run's extraction was bit-identical
    /// to a clean twin with the same seed. Vacuously `true` elsewhere.
    pub clean_twin_match: bool,
    /// Leak cells: the planted shape appeared among the extracted shapes.
    /// Vacuously `false` elsewhere.
    pub leak_surfaced: bool,
}

/// The full matrix: every oracle × ε × kind cell, plus one leak probe per
/// oracle at each of [`LEAK_EPSILONS`]. With the default axes that is
/// `4 × 4 × 5 + 4 × 2 = 88` cells.
pub fn full_matrix(users: usize, seed: u64) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for oracle in ORACLES {
        for eps in EPSILONS {
            for kind in KINDS {
                cells.push(Scenario {
                    oracle,
                    eps,
                    kind,
                    users,
                    seed: cell_seed(seed, cells.len()),
                });
            }
        }
    }
    for oracle in ORACLES {
        for eps in LEAK_EPSILONS {
            cells.push(Scenario {
                oracle,
                eps,
                kind: ScenarioKind::Leak,
                users,
                seed: cell_seed(seed, cells.len()),
            });
        }
    }
    cells
}

/// SplitMix64 decorrelation of the master seed per cell index.
fn cell_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of users that hold the planted leak shape.
pub fn leak_user_count(users: usize) -> usize {
    (users / 90).max(4)
}

/// The planted shape's Compressive-SAX string under the Trace settings.
pub fn leak_shape_string(params: &SaxParams) -> String {
    let raw = leak_template().sample(TRACE_LEN);
    let z = TimeSeries::new(raw)
        .expect("template samples are finite")
        .z_normalized();
    compressive_sax(z.values(), params).to_string()
}

/// Session config for one cell (the paper's Trace settings: w=10, t=4,
/// k=3, lengths clipped to [1, 10]).
fn cell_config(sc: &Scenario) -> PrivShapeConfig {
    let mut cfg = PrivShapeConfig::new(
        Epsilon::new(sc.eps).expect("positive eps"),
        TRACE_CLASSES,
        SaxParams::new(10, 4).expect("valid SAX parameters"),
    );
    cfg.length_range = (1, 10);
    cfg.seed = sc.seed;
    cfg.length_oracle = sc.oracle;
    cfg.distance = match sc.kind {
        ScenarioKind::UniformDtw => DistanceKind::Dtw,
        _ => DistanceKind::Sed,
    };
    if sc.kind == ScenarioKind::Unassigned {
        cfg.split.pa *= ASSIGNED_FRAC;
        cfg.split.pb *= ASSIGNED_FRAC;
        cfg.split.pc *= ASSIGNED_FRAC;
        cfg.split.pd *= ASSIGNED_FRAC;
    }
    cfg
}

/// The cell's population. Leak cells replace the last
/// [`leak_user_count`] balanced users with holders of the planted shape.
fn cell_population(sc: &Scenario) -> Vec<TimeSeries> {
    let gen_cfg = TraceLikeConfig {
        seed: sc.seed,
        ..Default::default()
    };
    let counts: Vec<usize> = match sc.kind {
        ScenarioKind::Zipf => zipf_counts(sc.users, TRACE_CLASSES, ZIPF_EXPONENT),
        ScenarioKind::Leak => zipf_counts(sc.users - leak_user_count(sc.users), TRACE_CLASSES, 0.0),
        _ => zipf_counts(sc.users, TRACE_CLASSES, 0.0),
    };
    let mut series = generate_trace_like_counts(&gen_cfg, &counts)
        .series()
        .to_vec();
    if sc.kind == ScenarioKind::Leak {
        series.extend(generate_leak_series(
            leak_user_count(sc.users),
            TRACE_LEN,
            &gen_cfg.augment,
            sc.seed,
        ));
    }
    series
}

/// Drives one session over `series` with every round fed through its
/// sealed-frame boundary. With `inject`, each frame is also replayed
/// verbatim and submitted once more with one bit flipped — the transport
/// adversary the boundary must shed, counted in the extraction's
/// diagnostics.
fn drive_sealed(cfg: PrivShapeConfig, series: &[TimeSeries], inject: bool) -> Extraction {
    let mut session = Session::privshape(cfg, series.len()).expect("valid session");
    let params = session.params().clone();
    let mut clients: Vec<UserClient> = series
        .iter()
        .enumerate()
        .map(|(u, s)| UserClient::new(u, s, &params))
        .collect();
    while let Some(spec) = session.next_round().expect("protocol advances") {
        let entries: Vec<(usize, Report)> = clients
            .iter_mut()
            .enumerate()
            .filter_map(|(u, c)| c.answer(&spec).expect("client answers").map(|r| (u, r)))
            .collect();
        // No chaos plan, so the round cannot fail.
        for (i, chunk) in entries.chunks(FRAME_REPORTS).enumerate() {
            let frame = seal_frame(chunk);
            session
                .submit_sealed_frame(&frame, None)
                .expect("round open");
            if inject {
                session
                    .submit_sealed_frame(&frame, None)
                    .expect("round open");
                let mut bad = frame.clone();
                let pos = (i * 31) % bad.len();
                bad[pos] ^= 1u8 << (i % 8);
                session.submit_sealed_frame(&bad, None).expect("round open");
            }
        }
    }
    session.finish().expect("session complete")
}

/// Runs one cell to completion.
pub fn run_cell(sc: &Scenario) -> CellOutcome {
    let series = cell_population(sc);
    let extraction = drive_sealed(
        cell_config(sc),
        &series,
        sc.kind == ScenarioKind::Adversarial,
    );

    let clean_twin_match = if sc.kind == ScenarioKind::Adversarial {
        let clean = drive_sealed(cell_config(sc), &series, false);
        clean.diagnostics.rejected_frames == 0
            && clean.diagnostics.duplicate_reports == 0
            && clean.shapes == extraction.shapes
    } else {
        true
    };

    let params = SaxParams::new(10, 4).expect("valid SAX parameters");
    let shapes: Vec<String> = extraction
        .shapes
        .iter()
        .map(|s| s.shape.to_string())
        .collect();
    let leak_surfaced =
        sc.kind == ScenarioKind::Leak && { shapes.contains(&leak_shape_string(&params)) };
    let extracted: Vec<_> = extraction.shapes.iter().map(|s| s.shape.clone()).collect();
    CellOutcome {
        scenario: *sc,
        quality: shape_quality(&extracted, &trace_ground_truth(&params)),
        shapes,
        rejected_frames: extraction.diagnostics.rejected_frames,
        duplicate_reports: extraction.diagnostics.duplicate_reports,
        unassigned_users: extraction.diagnostics.unassigned_users,
        clean_twin_match,
        leak_surfaced,
    }
}

/// Formats ε the way the gate's metric keys expect: integral budgets
/// without the trailing `.0` (`0.5`, `1`, `2`, `4`).
pub fn fmt_eps(eps: f64) -> String {
    if eps.fract() == 0.0 {
        format!("{}", eps as u64)
    } else {
        format!("{eps}")
    }
}

/// Serializes cell outcomes as the `BENCH_quality.json` document. Pure
/// function of the outcomes — no timestamps, no durations — so the same
/// seed yields byte-identical output.
pub fn cells_to_json(users: usize, seed: u64, outcomes: &[CellOutcome]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"users\": {users},\n  \"seed\": {seed},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, out) in outcomes.iter().enumerate() {
        let sc = &out.scenario;
        let (dtw, sed, euc) = match out.quality {
            Some(q) => (
                format!("{:.6}", q.dtw),
                format!("{:.6}", q.sed),
                format!("{:.6}", q.euclidean),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        json.push_str(&format!(
            "    {{\n      \"mechanism\": \"{}\", \"eps\": {}, \"kind\": \"{}\",\n      \
             \"dtw\": {dtw}, \"sed\": {sed}, \"euclidean\": {euc},\n      \
             \"shapes\": {}, \"rejected_frames\": {}, \"duplicate_reports\": {},\n      \
             \"unassigned_users\": {}, \"clean_twin_match\": {}, \"leak_surfaced\": {}\n    }}{}\n",
            sc.oracle.name(),
            fmt_eps(sc.eps),
            sc.kind.name(),
            out.shapes.len(),
            out.rejected_frames,
            out.duplicate_reports,
            out.unassigned_users,
            out.clean_twin_match,
            out.leak_surfaced,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_axis() {
        let cells = full_matrix(720, 2023);
        assert_eq!(cells.len(), 4 * 4 * 5 + 4 * 2);
        for oracle in ORACLES {
            for eps in EPSILONS {
                for kind in KINDS {
                    assert!(
                        cells
                            .iter()
                            .any(|c| c.oracle == oracle && c.eps == eps && c.kind == kind),
                        "missing cell {}/{}/{}",
                        oracle.name(),
                        eps,
                        kind.name()
                    );
                }
            }
            assert_eq!(
                cells
                    .iter()
                    .filter(|c| c.oracle == oracle && c.kind == ScenarioKind::Leak)
                    .count(),
                LEAK_EPSILONS.len()
            );
        }
        // Per-cell seeds are pairwise distinct.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn eps_formatting_is_stable() {
        assert_eq!(fmt_eps(0.5), "0.5");
        assert_eq!(fmt_eps(1.0), "1");
        assert_eq!(fmt_eps(4.0), "4");
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let sc = Scenario {
            oracle: LengthOracle::Grr,
            eps: 4.0,
            kind: ScenarioKind::UniformSed,
            users: 240,
            seed: 99,
        };
        let out = run_cell(&sc);
        let a = cells_to_json(240, 99, std::slice::from_ref(&out));
        let b = cells_to_json(240, 99, std::slice::from_ref(&run_cell(&sc)));
        assert_eq!(a, b, "same cell, same seed, different JSON bytes");
        let doc = crate::gate::Json::parse(&a).expect("valid JSON");
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].num("eps"), Some(4.0));
    }
}
