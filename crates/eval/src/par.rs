//! Minimal fork/join helper over immutable inputs, built on crossbeam's
//! scoped threads. Results are written into per-index slots, so the output
//! is identical regardless of thread count or scheduling.

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
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for slice in out.chunks_mut(chunk).enumerate() {
            let (chunk_idx, slots) = slice;
            let f = &f;
            scope.spawn(move |_| {
                let base = chunk_idx * chunk;
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + offset));
                }
            });
        }
    })
    .expect("worker panicked");
    out.into_iter()
        .map(|slot| slot.expect("all slots filled"))
        .collect()
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
