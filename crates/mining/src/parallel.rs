//! Deterministic fork/join helpers shared by the mining counting passes
//! and by flowgraph materialization in `flowcube-core`.
//!
//! The design rule for every parallel phase in this workspace: the input
//! is cut into disjoint, *contiguous* chunks, workers produce a private
//! result per chunk, and the main thread merges those results **in chunk
//! order** with order-insensitive operations (`u64` sums, map-value sums)
//! or order-preserving concatenation. Output is therefore bit-identical
//! to the serial run at any thread count and any chunk count — the
//! differential suite in `tests/mining_differential.rs` holds us to that.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted when a threads knob is `0` (auto).
pub const THREADS_ENV: &str = "FLOWCUBE_THREADS";

/// Default minimum number of work items (candidates, join units, cells ×
/// levels) a phase must have before it spawns worker threads. Below this,
/// thread startup costs more than the work itself.
pub const DEFAULT_PARALLEL_CUTOFF: usize = 8;

/// Resolve a requested thread count: an explicit `requested > 0` wins;
/// `0` means auto — the [`THREADS_ENV`] environment variable if set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one threads policy every phase shares: resolve the knob, apply the
/// small-work cutoff (`0` = [`DEFAULT_PARALLEL_CUTOFF`]), and never use
/// more workers than there are work items. Always returns ≥ 1.
pub fn plan_threads(requested: usize, work_items: usize, cutoff: usize) -> usize {
    let cutoff = if cutoff == 0 {
        DEFAULT_PARALLEL_CUTOFF
    } else {
        cutoff
    };
    if work_items <= cutoff {
        return 1;
    }
    resolve_threads(requested).clamp(1, work_items)
}

/// Split `0..n` into exactly `chunks` contiguous ranges in index order.
/// All but the last are `ceil(n / chunks)` long; trailing ranges may be
/// empty when `chunks` exceeds `n` (running them is a no-op).
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    let size = n.div_ceil(chunks).max(1);
    (0..chunks)
        .map(|i| (i * size).min(n)..((i + 1) * size).min(n))
        .collect()
}

/// Per-chunk results from [`run_chunks_counted`], in chunk order, plus
/// how many chunks had their worker panic and were recomputed serially.
#[derive(Debug)]
pub struct ChunkReport<R> {
    /// One result per chunk, **in chunk order** — identical to what the
    /// serial run would produce, retries or not.
    pub results: Vec<R>,
    /// Chunks whose worker panicked and succeeded on the serial retry.
    pub retried_chunks: usize,
}

/// Items per chunk when a phase hands out *many small* chunks
/// ([`balanced_chunks`]): small enough that the heaviest chunk is a
/// sliver of the phase, large enough that claiming one (an atomic add
/// and a `Vec`) is noise beside the work in it.
const BALANCED_CHUNK_ITEMS: usize = 16;

/// Chunk count for a phase whose items differ in cost by orders of
/// magnitude (a cell's materialization costs its path count, and cells
/// arrive roughly largest first): equal contiguous shares would leave one
/// worker with most of the work, so such phases cut `0..n` into chunks of
/// [`BALANCED_CHUNK_ITEMS`] and let workers claim them as they go.
pub fn balanced_chunks(n: usize) -> usize {
    n.div_ceil(BALANCED_CHUNK_ITEMS).max(1)
}

/// [`run_chunks_counted`] with one chunk per thread, results only — the
/// mining counting passes, whose candidates cost about the same each (one
/// AND + popcount over a tid row).
pub fn run_chunks<R, F>(name: &'static str, n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    run_chunks_counted(name, n, threads, threads, f).results
}

/// Run `f` over `chunks` contiguous chunks of `0..n` on `threads`
/// workers, returning per-chunk results **in chunk order** plus how many
/// chunks were retried.
///
/// Workers claim the next unclaimed chunk from an atomic cursor, so which
/// worker runs which chunk depends on timing — but a chunk's result is a
/// pure function of its range and results are placed by chunk index, so
/// the output is the serial one at any thread and chunk count.
/// `threads <= 1` runs the chunks inline on the current thread — the
/// serial and parallel paths share all counting code, they differ only
/// in who runs it. Each worker opens one `name` span around everything
/// it claims, so the workers render as concurrent lanes in a Chrome
/// trace and their ends show how evenly the phase was shared.
///
/// Each chunk runs under `catch_unwind`; a panicking chunk's partial
/// state is wholly private to the worker and is discarded (the worker
/// carries on with the next chunk), so after the scope joins, every
/// failed range is recomputed serially on the calling thread — once.
/// The recomputed result is bit-identical to what the worker would have
/// produced, and merge order is unchanged. A chunk that panics again on
/// the serial retry propagates (a deterministic bug, not a transient
/// fault). Retries increment the `mining.chunk.retries` obs counter.
///
/// The `mining.chunk` failpoint (`flowcube-testkit`) fires at the top
/// of every chunk execution, including serial runs and retries — arming
/// it with a one-shot panic exercises exactly this recovery path — and
/// so does a failpoint named `name`, which reaches one phase's chunks
/// only.
pub fn run_chunks_counted<R, F>(
    name: &'static str,
    n: usize,
    chunks: usize,
    threads: usize,
    f: F,
) -> ChunkReport<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let run_one = |r: Range<usize>| {
        flowcube_testkit::fail_point_unit("mining.chunk");
        flowcube_testkit::fail_point_unit(name);
        f(r)
    };
    let ranges = chunk_ranges(n, chunks);
    if threads <= 1 {
        return ChunkReport {
            results: ranges.into_iter().map(run_one).collect(),
            retried_chunks: 0,
        };
    }
    // Relaxed: the cursor publishes nothing but itself; results reach the
    // caller through `join`.
    let (run_one, ranges, cursor) = (&run_one, &ranges, &AtomicUsize::new(0));
    let mut attempts: Vec<Option<std::thread::Result<R>>> = ranges.iter().map(|_| None).collect();
    crossbeam::scope(|s| {
        let handles: Vec<_> = (0..threads.min(ranges.len()))
            .map(|worker| {
                s.spawn(move |_| {
                    let _span = flowcube_obs::span!(name, worker = worker);
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = ranges.get(i) else {
                            return claimed;
                        };
                        // AssertUnwindSafe: the closure only borrows `f`
                        // (Sync, shared immutably) and a range; a panicked
                        // chunk's partial result is dropped and the range
                        // recomputed from scratch, so no broken invariant
                        // can leak out.
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_one(r.clone())
                            }));
                        claimed.push((i, attempt));
                    }
                })
            })
            .collect();
        for h in handles {
            let claimed = h
                .join()
                .expect("mining worker panicked outside catch_unwind");
            for (i, attempt) in claimed {
                attempts[i] = Some(attempt);
            }
        }
    })
    .expect("crossbeam scope");
    let mut retried_chunks = 0usize;
    let results = attempts
        .into_iter()
        .zip(ranges)
        .map(|(attempt, r)| {
            match attempt.expect("every chunk is claimed before the cursor runs out") {
                Ok(v) => v,
                Err(_) => {
                    retried_chunks += 1;
                    flowcube_obs::counter_add("mining.chunk.retries", 1);
                    let _span = flowcube_obs::span!(name, retry_items = r.len());
                    run_one(r.clone())
                }
            }
        })
        .collect();
    ChunkReport {
        results,
        retried_chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_in_order() {
        for (n, threads) in [(10, 3), (16, 7), (8, 8), (1, 4), (0, 3), (100, 1)] {
            let ranges = chunk_ranges(n, threads);
            assert_eq!(ranges.len(), threads.max(1), "n={n} threads={threads}");
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn chunk_ranges_empty_tails_when_threads_exceed_items() {
        let ranges = chunk_ranges(3, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.iter().filter(|r| r.is_empty()).count(), 5);
        assert_eq!(ranges[0], 0..1);
        assert_eq!(ranges[2], 2..3);
        assert!(ranges[7].is_empty());
    }

    #[test]
    fn plan_threads_applies_cutoff_and_clamp() {
        // at or below the cutoff: always serial, explicit knob or not
        assert_eq!(plan_threads(4, 8, 0), 1);
        assert_eq!(plan_threads(4, 3, 0), 1);
        // above the cutoff: explicit knob honored, clamped to the work
        assert_eq!(plan_threads(4, 9, 0), 4);
        assert_eq!(plan_threads(64, 10, 0), 10);
        // custom cutoff moves the boundary
        assert_eq!(plan_threads(4, 8, 2), 4);
        assert_eq!(plan_threads(4, 2, 2), 1);
        // requested > 0 bypasses env/auto resolution entirely
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn run_chunks_matches_serial_at_any_thread_count() {
        let data: Vec<u64> = (0..103).collect();
        let serial: u64 = data.iter().sum();
        for threads in [1, 2, 7, 8, 200] {
            let parts = run_chunks("test.chunk", data.len(), threads, |r| {
                data[r].iter().sum::<u64>()
            });
            assert_eq!(parts.len(), threads);
            assert_eq!(parts.iter().sum::<u64>(), serial, "threads={threads}");
        }
    }

    #[test]
    fn run_chunks_preserves_chunk_order() {
        let parts = run_chunks("test.chunk", 20, 6, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..20).collect::<Vec<_>>());
    }

    /// Many small chunks on few workers: whoever claims a chunk, the
    /// results come back in chunk order, and a worker survives a panicking
    /// chunk to claim the next ones.
    #[test]
    fn cursor_chunks_concatenate_in_order_at_any_thread_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1_003;
        assert_eq!(balanced_chunks(n), 63);
        assert_eq!(balanced_chunks(0), 1);
        for threads in [1, 2, 3, 7] {
            let report = run_chunks_counted("test.chunk", n, balanced_chunks(n), threads, |r| {
                r.collect::<Vec<usize>>()
            });
            assert_eq!(report.results.len(), 63);
            let flat: Vec<usize> = report.results.into_iter().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "threads={threads}");
        }
        let boom = AtomicUsize::new(0);
        let report = run_chunks_counted("test.chunk", n, 63, 2, |r| {
            if r.start == 160 && boom.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected worker fault");
            }
            r.collect::<Vec<usize>>()
        });
        assert_eq!(report.retried_chunks, 1);
        let flat: Vec<usize> = report.results.into_iter().flatten().collect();
        assert_eq!(flat, (0..n).collect::<Vec<_>>());
    }

    /// A chunk that panics mid-flight (injected, or via the `mining.chunk`
    /// failpoint in the env-gated fault suite) is recomputed serially and
    /// the merged output stays bit-identical to the clean run.
    #[test]
    fn panicking_chunk_is_retried_serially_with_identical_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let data: Vec<u64> = (0..103).collect();
        let clean = run_chunks_counted("test.chunk", data.len(), 4, 4, |r| {
            data[r].iter().sum::<u64>()
        });
        assert_eq!(clean.retried_chunks, 0);

        // First execution of chunk 2 panics; the serial retry succeeds.
        let boom = AtomicUsize::new(0);
        let faulty = run_chunks_counted("test.chunk", data.len(), 4, 4, |r| {
            if r.start == 52 && boom.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected worker fault");
            }
            data[r].iter().sum::<u64>()
        });
        assert_eq!(faulty.retried_chunks, 1);
        assert_eq!(faulty.results, clean.results);
    }

    /// Two consecutive panics on the same chunk (a deterministic bug,
    /// not a transient fault) propagate instead of retrying forever.
    #[test]
    fn chunk_that_panics_twice_propagates() {
        let outcome = std::panic::catch_unwind(|| {
            run_chunks_counted("test.chunk", 40, 4, 4, |r| {
                if r.start == 0 {
                    panic!("deterministic bug");
                }
                r.len()
            })
        });
        assert!(outcome.is_err());
    }
}
