//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V). Each binary in `src/bin/` reproduces one artifact and
//! prints the same rows/series the paper reports (plus CSV under
//! `results/`); `table5_execution_time` covers Table V.
//!
//! Scale note: the paper runs 40 000 users and 500 trials on a Xeon server.
//! Defaults here are laptop-sized (`--users 8000 --trials 3`); pass
//! `--full` for paper scale. The *shape* of every comparison (who wins,
//! by roughly what factor, where curves cross) is stable across scales
//! because all mechanisms see the same population.

pub mod args;
pub mod classification;
pub mod clustering;
pub mod gate;
pub mod output;
pub mod quality;
pub mod scenario;

pub use args::ExpCtx;
pub use output::{write_csv, Table};

/// The paper's Trace classification parameters (§V-E): w = 10, t = 4, k = 3.
pub fn trace_settings() -> (usize, usize, usize) {
    (10, 4, 3)
}
