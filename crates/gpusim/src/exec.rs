//! Host-side parallel execution: kernel rows and serving streams.
//!
//! Functional kernel execution is embarrassingly parallel over output
//! elements (each work item writes disjoint outputs), and a serving runtime's
//! streams each own their queue and arena. This module provides the one
//! primitive both need: run a function over disjoint mutable chunks of a
//! slice, statically partitioned into one contiguous region per worker. The
//! calling thread runs the first region and scoped std threads the rest, so
//! a one-thread host spawns nothing. Results are bit-identical to sequential
//! execution because regions never overlap and the function is pure per
//! chunk.
//!
//! The thread count is read once per process ([`host_threads`]): on Linux
//! `available_parallelism` reads the cgroup quota files, 17–22 µs per call on
//! a 2-vCPU x86-64 guest — more than a micro model's whole dispatch — and
//! the std docs ask callers to cache it.

use std::sync::OnceLock;

/// Number of host worker threads for kernel bodies and serving streams:
/// [`std::thread::available_parallelism`] at the first call, cached for the
/// rest of the process like the kernels' `IsaTier::detected`. A process that
/// narrows its CPU affinity after its first dispatch keeps the count it
/// started with; one that pins itself first gets 1 and spawns no thread.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
/// statically — each of [`host_threads`] workers owns one contiguous run of
/// chunks, visited in order, the caller the first — and `init` runs once per
/// worker, so a kernel's scratch (a row ring, a plane stream) is
/// allocated once per dispatch per thread, not once per chunk: the dispatch
/// allocates nothing proportional to the chunk count (the engine's
/// steady-state zero-allocation contract extends through kernel bodies).
/// A single chunk runs on the caller without asking for the thread count.
/// Results are bit-identical to sequential execution either way; `f` must
/// not let what an earlier chunk left in the scratch change a later chunk's
/// output.
pub fn par_chunks_mut_with<T: Send, S>(
    out: &mut [T],
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = if out.len() <= chunk_len {
        1
    } else {
        host_threads()
    };
    par_chunks_on(workers, out, chunk_len, &init, &f);
}

/// The partition behind both entries, at an explicit worker count: regions
/// of `⌈chunks ÷ workers⌉` chunks, the first on the calling thread and
/// every other on its own scoped thread.
fn par_chunks_on<T: Send, S>(
    workers: usize,
    out: &mut [T],
    chunk_len: usize,
    init: &(impl Fn() -> S + Sync),
    f: &(impl Fn(&mut S, usize, &mut [T]) + Sync),
) {
    let chunks = out.len().div_ceil(chunk_len);
    let per_region = chunks.div_ceil(workers);
    let run = |first_chunk: usize, region: &mut [T]| {
        let mut scratch = init();
        for (j, c) in region.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, first_chunk + j, c);
        }
    };
    if chunks <= per_region {
        if chunks > 0 {
            run(0, out);
        }
        return;
    }
    let (head, rest) = out.split_at_mut(per_region * chunk_len);
    std::thread::scope(|s| {
        for (r, region) in rest.chunks_mut(per_region * chunk_len).enumerate() {
            s.spawn(move || run((r + 1) * per_region, region));
        }
        run(0, head);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn partition_is_sequential_at_every_worker_count() {
        // Chunk counts 0, 1, 5 and 41, every non-empty one with a short tail.
        for len in [0usize, 9, 4 * 16 + 9, 40 * 16 + 3] {
            let chunks = len.div_ceil(16);
            let expected: Vec<usize> = (0..len).map(|i| (i / 16) * 1000 + i % 16).collect();
            for workers in [1, 2, 3, 7, chunks + 5] {
                let inits = AtomicUsize::new(0);
                let mut data = vec![usize::MAX; len];
                par_chunks_on(
                    workers,
                    &mut data,
                    16,
                    &|| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        None::<usize>
                    },
                    &|last: &mut Option<usize>, idx, chunk: &mut [usize]| {
                        assert!(last.is_none_or(|l| l + 1 == idx), "region not consecutive");
                        *last = Some(idx);
                        for (off, v) in chunk.iter_mut().enumerate() {
                            *v = idx * 1000 + off;
                        }
                    },
                );
                assert_eq!(data, expected, "{len} elements on {workers} workers");
                let regions = chunks.div_ceil(chunks.div_ceil(workers).max(1));
                assert_eq!(inits.load(Ordering::Relaxed), regions, "{workers} workers");
            }
        }
    }

    #[test]
    fn host_threads_is_read_once() {
        assert_eq!(host_threads(), host_threads());
        assert!(host_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_panics() {
        let mut data = [0u8; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }
}
