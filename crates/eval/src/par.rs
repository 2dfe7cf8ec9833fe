//! Minimal fork/join helper over immutable inputs, built on scoped
//! threads (`std::thread::scope`). Each worker maps one contiguous run of
//! indices and the runs are joined in order, so the output is identical
//! regardless of thread count or scheduling.

/// The most threads [`map_indexed`] starts, whatever count it is given:
/// the ceiling the protocol crate's `MAX_THREADS` sets for the drivers,
/// kept here because this crate does not depend on the protocol. A
/// mistyped setting cannot start thousands of threads.
pub(crate) const MAX_THREADS: usize = 64;

/// Applies `f` to every index in `0..n`, splitting the range across up to
/// `threads` workers (at most [`MAX_THREADS`]). Falls back to a
/// sequential loop for tiny inputs.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(n.max(1));
    if threads == 1 || n < 64 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let f = &f;
                scope.spawn(move || (lo..n.min(lo + chunk)).map(f).collect::<Vec<T>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for worker in workers {
            // Re-raise a worker's panic with its own payload.
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped to keep fork/join overhead sensible.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let seq: Vec<usize> = (0..1000).map(|i| i * i).collect();
        let par = map_indexed(1000, 4, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn small_inputs_and_single_thread() {
        assert_eq!(map_indexed(3, 8, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(map_indexed(100, 1, |i| i), (0..100).collect::<Vec<_>>());
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn an_unbounded_thread_count_starts_at_most_the_ceiling() {
        let ids = map_indexed(100, usize::MAX, |_| std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(
            distinct.len() <= MAX_THREADS,
            "{} threads started",
            distinct.len()
        );
    }

    #[test]
    fn uneven_chunks_cover_all_indices() {
        let out = map_indexed(257, 4, |i| i);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }
}
