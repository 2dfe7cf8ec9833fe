//! CI regression gate: compares the freshly written `BENCH_*.json`
//! trajectory files against the committed baselines under
//! `results/baselines/`, prints a before/after table, and exits non-zero
//! on any metric regressing past its threshold — so a slow ingest path or
//! a utility drop fails the build instead of merging silently.
//!
//! Usage: `cargo run --release -p privshape-bench --bin bench_gate
//!         [--results DIR] [--baselines DIR] [--threshold PCT]
//!         [--quality-threshold PCT] [--bless]`
//!
//! * `--threshold PCT` — allowed throughput drop in percent (default 25)
//!   for the perf files (higher is better).
//! * `--quality-threshold PCT` — allowed distance-to-ground-truth *rise*
//!   in percent (default 20) for `BENCH_quality.json` (lower is better).
//! * `--bless` — copy the fresh results over the baselines (the refresh
//!   workflow after an intentional perf/utility change: run the smokes,
//!   eyeball the table, bless, commit `results/baselines/`).
//!
//! A missing baseline file is reported and skipped (bootstrap); a missing
//! *fresh* file for an existing baseline fails the gate — losing a
//! benchmark is losing coverage.

use privshape_bench::gate::{self, Direction, Json, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Metric extractor for one trajectory-file shape.
type Extractor = fn(&Json) -> Metrics;

/// The gated trajectory files: extractor + improvement direction.
const FILES: [(&str, Extractor, Direction); 6] = [
    (
        "BENCH_protocol.json",
        gate::protocol_metrics,
        Direction::HigherIsBetter,
    ),
    (
        "BENCH_streaming.json",
        gate::streaming_metrics,
        Direction::HigherIsBetter,
    ),
    (
        "BENCH_service.json",
        gate::service_metrics,
        Direction::HigherIsBetter,
    ),
    (
        "BENCH_chaos.json",
        gate::chaos_metrics,
        Direction::HigherIsBetter,
    ),
    (
        "BENCH_continual.json",
        gate::continual_metrics,
        Direction::HigherIsBetter,
    ),
    (
        "BENCH_quality.json",
        gate::quality_metrics,
        Direction::LowerIsBetter,
    ),
];

struct Args {
    results: PathBuf,
    baselines: PathBuf,
    threshold: f64,
    quality_threshold: f64,
    bless: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        results: PathBuf::from("results"),
        baselines: PathBuf::from("results/baselines"),
        threshold: 25.0,
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
            "--threshold" => {
                parsed.threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a percentage")
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

fn load_metrics(path: &Path, extract: Extractor) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(extract(&doc))
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.bless {
        std::fs::create_dir_all(&args.baselines).expect("create baselines dir");
        for (file, _, _) in FILES {
            let src = args.results.join(file);
            if src.exists() {
                std::fs::copy(&src, args.baselines.join(file)).expect("copy baseline");
                println!("blessed {file}");
            } else {
                println!("skipping {file}: no fresh results at {}", src.display());
            }
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "== bench gate (throughput: -{}%, quality: +{}%) ==",
        args.threshold, args.quality_threshold
    );
    println!(
        "{:<44} {:>14} {:>14} {:>8}  status",
        "metric", "baseline", "current", "delta"
    );
    let mut pass = true;
    let mut gated_files = 0usize;
    for (file, extract, direction) in FILES {
        let base_path = args.baselines.join(file);
        if !base_path.exists() {
            println!("-- {file}: no baseline committed, skipping (bootstrap with --bless)");
            continue;
        }
        let baseline = match load_metrics(&base_path, extract) {
            Ok(m) => m,
            Err(e) => {
                println!("-- {file}: unreadable baseline: {e}");
                pass = false;
                continue;
            }
        };
        let fresh_path = args.results.join(file);
        let current = match load_metrics(&fresh_path, extract) {
            Ok(m) => m,
            Err(e) => {
                println!("-- {file}: FRESH RESULTS MISSING ({e}) — did the smoke run?");
                pass = false;
                continue;
            }
        };
        gated_files += 1;
        let threshold = match direction {
            Direction::HigherIsBetter => args.threshold,
            Direction::LowerIsBetter => args.quality_threshold,
        } / 100.0;
        let (rows, file_pass) = gate::compare_directed(&baseline, &current, threshold, direction);
        for row in &rows {
            println!("{row}");
        }
        pass &= file_pass;
    }

    if gated_files == 0 {
        println!(
            "\nno baselines found under {} — nothing gated",
            args.baselines.display()
        );
    }
    if pass {
        println!("\nbench gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "\nbench gate: FAIL (a throughput metric dropped more than {}% below — or a \
             quality metric rose more than {}% above — its committed baseline; if \
             intentional, refresh with --bless and commit)",
            args.threshold, args.quality_threshold
        );
        ExitCode::FAILURE
    }
}
