//! Host-side parallel execution of kernel bodies.
//!
//! Functional kernel execution is embarrassingly parallel over output
//! elements (each work item writes disjoint outputs). This module provides
//! the one primitive kernels need: run a function over disjoint index ranges
//! on scoped std threads. Results are bit-identical to sequential execution
//! because ranges never overlap and the function is pure per range.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of host worker threads used for kernel bodies.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `0..n` split into contiguous ranges across host threads.
///
/// `min_chunk` bounds splitting so tiny workloads stay sequential. `f` must
/// be safe to call concurrently on disjoint ranges.
pub fn par_for(n: usize, min_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    let threads = host_threads();
    if n == 0 {
        return;
    }
    let chunk = (n.div_ceil(threads)).max(min_chunk.max(1));
    if chunk >= n {
        f(0..n);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n.div_ceil(chunk)) {
            s.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                f(start..end);
            });
        }
    });
}

/// Runs `f` over mutable, equally-sized chunks of `out` in parallel, passing
/// the chunk index. The final chunk may be shorter.
///
/// [`par_chunks_mut_with`] for kernels that need no per-worker scratch.
pub fn par_chunks_mut<T: Send>(
    out: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    par_chunks_mut_with(out, chunk_len, || (), |(), i, c| f(i, c));
}

/// Runs `f` over mutable, equally-sized chunks of `out` in parallel, passing
/// the worker's scratch and the chunk index. The final chunk may be shorter.
///
/// This is the "each work item writes its own output rows" pattern: `out`
/// is split by `chunk_len` so no two threads alias. Work is partitioned
/// statically — each worker owns one contiguous run of chunks, visited in
/// order — and `init` runs once per worker, so a kernel's scratch (a window
/// gather, a plane stream) is allocated once per dispatch per thread, not
/// once per chunk: the dispatch allocates nothing proportional to the chunk
/// count (the engine's steady-state zero-allocation contract extends
/// through kernel bodies). Results are bit-identical to sequential
/// execution either way; `f` must not let what an earlier chunk left in the
/// scratch change a later chunk's output.
pub fn par_chunks_mut_with<T: Send, S>(
    out: &mut [T],
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = out.len().div_ceil(chunk_len);
    let threads = host_threads();
    if n <= 1 || threads == 1 {
        let mut scratch = init();
        for (i, c) in out.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, i, c);
        }
        return;
    }
    let per_worker = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut first_chunk = 0;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let (init, f) = (&init, &f);
            s.spawn(move || {
                let mut scratch = init();
                for (j, c) in region.chunks_mut(chunk_len).enumerate() {
                    f(&mut scratch, first_chunk + j, c);
                }
            });
            first_chunk += per_worker;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_covers_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_is_noop() {
        par_for(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_for_small_runs_sequential() {
        let sum = AtomicU64::new(0);
        par_for(10, 100, |range| {
            sum.fetch_add(range.map(|i| i as u64).sum(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 64, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx + 1;
            }
        });
        // Every element written exactly once with its chunk id.
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 64 + 1);
        }
    }

    #[test]
    fn par_chunks_matches_sequential() {
        let mut a = vec![0f32; 513];
        let mut b = vec![0f32; 513];
        let f = |idx: usize, chunk: &mut [f32]| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 1000 + off) as f32;
            }
        };
        par_chunks_mut(&mut a, 32, f);
        for (i, c) in b.chunks_mut(32).enumerate() {
            f(i, c);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_visits_chunks_in_order() {
        let inits = AtomicUsize::new(0);
        let mut data = vec![0usize; 64 * 40];
        par_chunks_mut_with(
            &mut data,
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                None::<usize>
            },
            |last, idx, chunk| {
                // A worker's chunks are consecutive: what the kernels'
                // rolling scratch may rely on.
                assert!(last.is_none_or(|l| l + 1 == idx));
                *last = Some(idx);
                chunk.fill(idx + 1);
            },
        );
        assert!((1..=host_threads()).contains(&inits.load(Ordering::Relaxed)));
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_panics() {
        let mut data = [0u8; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }
}
