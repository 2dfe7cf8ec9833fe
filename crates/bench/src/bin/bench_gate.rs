//! CI regression gate: compares the freshly written
//! `results/BENCH_quality.json` against the committed baseline under
//! `results/baselines/`, prints a before/after table, and exits non-zero
//! when any distance-to-ground-truth metric rises past its threshold — so
//! a utility drop fails the build instead of merging silently.
//!
//! Usage: `cargo run --release -p privshape-bench --bin bench_gate
//!         [--results DIR] [--baselines DIR] [--quality-threshold PCT]
//!         [--bless]`
//!
//! * `--quality-threshold PCT` — allowed distance-to-ground-truth *rise*
//!   in percent (default 20); lower is better.
//! * `--bless` — copy the fresh results over the baseline (the refresh
//!   workflow after an intentional utility change: run `quality_smoke`,
//!   eyeball the table, bless, commit `results/baselines/`).
//!
//! A missing baseline file is reported and skipped (bootstrap); a missing
//! *fresh* file for an existing baseline fails the gate — losing a
//! benchmark is losing coverage.

use privshape_bench::gate::{self, Json, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The gated trajectory file.
const FILE: &str = "BENCH_quality.json";

struct Args {
    results: PathBuf,
    baselines: PathBuf,
    quality_threshold: f64,
    bless: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        results: PathBuf::from("results"),
        baselines: PathBuf::from("results/baselines"),
        quality_threshold: 20.0,
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--results" => {
                parsed.results = PathBuf::from(args.next().expect("--results needs a directory"))
            }
            "--baselines" => {
                parsed.baselines =
                    PathBuf::from(args.next().expect("--baselines needs a directory"))
            }
            "--quality-threshold" => {
                parsed.quality_threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--quality-threshold needs a percentage")
            }
            "--bless" => parsed.bless = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    parsed
}

fn load_metrics(path: &Path) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(gate::quality_metrics(&doc))
}

fn main() -> ExitCode {
    let args = parse_args();
    let src = args.results.join(FILE);
    let base_path = args.baselines.join(FILE);

    if args.bless {
        std::fs::create_dir_all(&args.baselines).expect("create baselines dir");
        if src.exists() {
            std::fs::copy(&src, &base_path).expect("copy baseline");
            println!("blessed {FILE}");
        } else {
            println!("skipping {FILE}: no fresh results at {}", src.display());
        }
        return ExitCode::SUCCESS;
    }

    println!("== bench gate (quality: +{}%) ==", args.quality_threshold);
    if !base_path.exists() {
        println!("-- {FILE}: no baseline committed, nothing gated (bootstrap with --bless)");
        return ExitCode::SUCCESS;
    }
    let baseline = match load_metrics(&base_path) {
        Ok(m) => m,
        Err(e) => {
            println!("-- {FILE}: unreadable baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match load_metrics(&src) {
        Ok(m) => m,
        Err(e) => {
            println!("-- {FILE}: FRESH RESULTS MISSING ({e}) — did quality_smoke run?");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<44} {:>14} {:>14} {:>8}  status",
        "metric", "baseline", "current", "delta"
    );
    let (rows, pass) = gate::compare(&baseline, &current, args.quality_threshold / 100.0);
    for row in &rows {
        println!("{row}");
    }
    if pass {
        println!("\nbench gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "\nbench gate: FAIL (a quality metric rose more than {}% above its committed \
             baseline; if intentional, refresh with --bless and commit)",
            args.quality_threshold
        );
        ExitCode::FAILURE
    }
}
