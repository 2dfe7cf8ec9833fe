//! The reference kernel: a fixed amount of compute in the benchmark's own
//! code, timed just before every sample on the workload's thread count. It
//! calls nothing in the library, so a change to the library cannot move it;
//! only the host can. On a shared host the speed of the CPU drifts by tens
//! of percent over minutes, and the kernel slows with it, so its time is the
//! yardstick the run's timings are normalized by (see `REFERENCE_S`).

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on a quiet host of the kind the benchmark was
/// tuned on (2 vCPUs of an Intel Xeon, built for x86-64-v3). A run's
/// timings are scaled by `REFERENCE_S / (the kernel's median time in the
/// run)`, so they read as seconds on that host at that speed.
pub const REFERENCE_S: f64 = 0.080;

/// Series length and series pairs of one kernel call.
const SERIES: usize = 24;
const PAIRS: usize = 40_000;

/// Wall time of the kernel, run once on each of `threads` threads at once.
pub fn reference_s(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads.max(1) {
            scope.spawn(move || black_box(kernel(t as u64)));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Squared-difference DTW over `PAIRS` pairs of pseudo-random series, the
/// same kind of work as the library's candidate scoring.
fn kernel(seed: u64) -> f64 {
    let mut rng = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % 64) as f64
    };
    let (mut a, mut b) = ([0.0f64; SERIES], [0.0f64; SERIES]);
    let (mut prev, mut cur) = ([0.0f64; SERIES + 1], [0.0f64; SERIES + 1]);
    let mut acc = 0.0;
    for _ in 0..PAIRS {
        a.iter_mut().for_each(|v| *v = next());
        b.iter_mut().for_each(|v| *v = next());
        prev.fill(f64::INFINITY);
        prev[0] = 0.0;
        for x in &a {
            cur[0] = f64::INFINITY;
            for (j, y) in b.iter().enumerate() {
                let d = (x - y) * (x - y);
                cur[j + 1] = d + prev[j].min(prev[j + 1]).min(cur[j]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        acc += prev[SERIES];
    }
    acc
}
