//! Deterministic fork/join over user populations (crossbeam scoped
//! threads). Outputs land in per-run vectors joined in run order, or in
//! per-item slots, so results are identical for any thread count.

use privshape_protocol::MAX_THREADS;
use std::ops::Range;

/// Applies `f` to each index in `0..n` using up to `threads` workers.
pub(crate) fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_runs(n, threads, |run| run.map(&f).collect())
}

/// Splits `0..n` into one contiguous run per worker (up to `threads`),
/// maps every run with `f` on its own thread and concatenates the outputs
/// in run order, so results are identical for any thread count.
pub(crate) fn map_runs<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n < 64 {
        return f(0..n);
    }
    let run = n.div_ceil(threads);
    let parts: Vec<Vec<T>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(run)
            .map(|lo| {
                let f = &f;
                scope.spawn(move |_| f(lo..n.min(lo + run)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect()
    })
    .expect("worker panicked");
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// The mutable-access counterpart of [`map_indexed`], used to drive
/// fleets of stateful clients deterministically: applies `f` to every
/// item of a mutable slice, collecting the results in item order, and
/// hands every worker one persistent scratch slot from `scratch` (one per
/// worker; `scratch.len()` sets the worker count). The scratch slots
/// outlive the call, so buffers grown inside them amortize across rounds —
/// this is how the fleet keeps one warmed-up `DistanceWorkspace` per
/// thread.
pub(crate) fn map_slice_mut_scratch<T, W, R, F>(items: &mut [T], scratch: &mut [W], f: F) -> Vec<R>
where
    T: Send,
    W: Send,
    R: Send,
    F: Fn(&mut T, &mut W) -> R + Sync,
{
    assert!(!scratch.is_empty(), "need at least one scratch slot");
    let n = items.len();
    let threads = scratch.len().min(n.max(1));
    if threads == 1 || n < 64 {
        let ws = &mut scratch[0];
        return items.iter_mut().map(|item| f(item, ws)).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for ((items, slots), ws) in items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .zip(scratch.iter_mut())
        {
            let f = &f;
            scope.spawn(move |_| {
                for (item, slot) in items.iter_mut().zip(slots.iter_mut()) {
                    *slot = Some(f(item, ws));
                }
            });
        }
    })
    .expect("worker panicked");
    out.into_iter()
        .map(|slot| slot.expect("all slots filled"))
        .collect()
}

/// Default worker count: available parallelism, capped.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Resolves a configured thread count: 0 means the available
/// parallelism, capped at 16, and an explicit count is clamped to
/// [`MAX_THREADS`].
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        default_threads()
    } else {
        configured.min(MAX_THREADS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_equals_sequential() {
        let a = map_indexed(500, 4, |i| i * 3);
        let b: Vec<usize> = (0..500).map(|i| i * 3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn runs_concatenate_in_order_for_any_thread_count() {
        for (n, threads) in [(0, 2), (63, 4), (500, 1), (500, 3), (701, 16)] {
            let got = map_runs(n, threads, |run| run.map(|i| i * 3).collect());
            let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!(got, want, "n={n} threads={threads}");
        }
    }

    #[test]
    fn scratch_map_mutates_and_collects_in_order() {
        let mut items: Vec<usize> = (0..500).collect();
        let mut scratch = vec![(); 4];
        let doubled = map_slice_mut_scratch(&mut items, &mut scratch, |x, ()| {
            *x += 1;
            *x * 2
        });
        assert_eq!(items[0], 1);
        assert_eq!(items[499], 500);
        let expected: Vec<usize> = (1..=500).map(|x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn resolve_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn explicit_thread_counts_are_clamped() {
        assert!(resolve_threads(0) <= 16);
        assert_eq!(resolve_threads(MAX_THREADS), MAX_THREADS);
        for configured in [MAX_THREADS + 1, 50_000, usize::MAX] {
            assert_eq!(resolve_threads(configured), MAX_THREADS, "{configured}");
        }
    }

    #[test]
    fn scratch_map_matches_plain_map_for_any_worker_count() {
        for workers in [1usize, 2, 5] {
            let mut items: Vec<usize> = (0..300).collect();
            let mut scratch = vec![0usize; workers];
            let got = map_slice_mut_scratch(&mut items, &mut scratch, |x, acc| {
                *acc += 1; // scratch is per-worker state, not part of results
                *x * 2
            });
            let expected: Vec<usize> = (0..300).map(|x| x * 2).collect();
            assert_eq!(got, expected, "workers={workers}");
            // Every item was visited exactly once across all workers.
            assert_eq!(scratch.iter().sum::<usize>(), 300);
        }
    }
}
