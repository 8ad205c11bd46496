//! # fdb-exec — deterministic data parallelism for f-plan execution
//!
//! A dependency-free execution pool built on [`std::thread::scope`]. The
//! engines use it to partition work over the children of a top-level
//! union (the natural unit of work in a factorised database) and over
//! row ranges of flat relations.
//!
//! Work is scheduled **morsel-driven**: the input is carved into
//! ~[`MORSELS_PER_WORKER`]`× threads` small contiguous morsels (floor
//! one), each worker drains its own queue front-to-back and steals from
//! the back of other workers' queues once it runs dry. A skewed stage —
//! one giant union entry or group among many cheap ones — therefore
//! occupies one worker for one morsel while the rest of the input is
//! stolen and finished by the others, instead of serialising the whole
//! chunk that contains it.
//!
//! Design rules, chosen so that parallel runs are **differentially
//! testable** against serial runs:
//!
//! * `threads <= 1` (or fewer than two items) takes the exact serial
//!   code path — bit-identical to a build without this crate;
//! * every morsel writes into a pre-sized slot vector indexed by morsel
//!   id, and slots are concatenated in morsel order after the pool
//!   joins — results come back **in input order**, never in completion
//!   order, so a parallel map is a pure `map` regardless of scheduling
//!   or stealing;
//! * fallible maps report the error of the **first failing item in
//!   input order**, not whichever worker lost the race;
//! * the thread count only decides which worker computes which morsel —
//!   it never changes how partial results are combined. Callers that
//!   fold partials must pick a chunking independent of `threads` if
//!   their combine step is order-sensitive (see `fdb_core::agg`).
//!
//! Worker panics are propagated to the caller (the pool does not
//! swallow them), so `debug_assert!`s inside parallel sections still
//! fail tests. A panic mid-morsel cannot deadlock the scheduler:
//! claiming a morsel never blocks on another worker's progress.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

/// Hard ceiling on spawned workers per parallel call: far above any
/// useful oversubscription, far below OS thread limits, so an absurd
/// `--threads` value degrades instead of aborting the process.
pub const MAX_WORKERS: usize = 256;

/// Morsels carved per worker in a parallel stage. ~4× oversubscription
/// is the skew-aware sizing rule: fine enough that a single expensive
/// morsel strands at most `1/(4·threads)` of the input on its worker,
/// coarse enough that queue traffic stays negligible next to real work.
pub const MORSELS_PER_WORKER: usize = 4;

/// Resolves a requested thread count: `0` means "use the machine"
/// ([`std::thread::available_parallelism`]), anything else is taken
/// literally up to [`MAX_WORKERS`]. Never returns 0.
pub fn effective_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n.min(MAX_WORKERS),
    }
}

/// Number of morsels a stage over `items` items should be carved into
/// for `threads` workers: `MORSELS_PER_WORKER × threads`, floor 1,
/// never more than the item count.
pub fn morsel_count(items: usize, threads: usize) -> usize {
    let workers = threads.clamp(1, MAX_WORKERS);
    (workers * MORSELS_PER_WORKER).clamp(1, items.max(1))
}

/// Splits `items` into at most `parts` contiguous chunks of
/// near-equal length, preserving order. `parts` is clamped to at
/// least 1; fewer chunks are returned when there are fewer items.
pub fn split_chunks<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let parts = parts.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        out.push(c);
    }
    out
}

/// Splits `items` into [`morsel_count`] contiguous chunks — the
/// morsel-granularity counterpart of [`split_chunks`], used by
/// [`parallel_map`] itself and by callers that carve their own work
/// units (construction groups, sort runs, hash partitions) and hand the
/// chunks to it. One near-equal chunk per worker strands a skewed
/// chunk's siblings behind it; ~4× threads chunks let the scheduler
/// rebalance.
pub fn split_morsels<T>(items: Vec<T>, threads: usize) -> Vec<Vec<T>> {
    let parts = morsel_count(items.len(), threads);
    split_chunks(items, parts)
}

/// Locks ignoring poisoning: the pool's mutexes guard plain data slots
/// and are never held across user code, so a panicking sibling worker
/// leaves them consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Claims the next morsel id for worker `w`: own queue from the front
/// (keeping each worker on its contiguous, cache-warm input range),
/// then victims round-robin from `w + 1`, stealing from the **back** so
/// owner and thief contend on opposite ends of a queue.
fn claim(w: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    if let Some(id) = lock(&queues[w]).pop_front() {
        return Some(id);
    }
    let n = queues.len();
    for v in 1..n {
        if let Some(id) = lock(&queues[(w + v) % n]).pop_back() {
            return Some(id);
        }
    }
    None
}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// the results **in input order**.
///
/// With `threads <= 1` or fewer than two items this is exactly
/// `items.into_iter().map(f).collect()` on the calling thread.
/// Otherwise the items are carved into ~[`MORSELS_PER_WORKER`]`×
/// threads` morsels and drained work-stealing (see the crate docs).
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let n_items = items.len();
    let morsels = split_morsels(items, threads);
    let n_morsels = morsels.len();
    let workers = threads.min(MAX_WORKERS).min(n_morsels);
    // Input chunks are taken (once) by the claiming worker; output slots
    // are written (once) per morsel. Both are indexed by morsel id, so
    // concatenating the slots in id order restores input order no
    // matter which worker ran which morsel.
    let input: Vec<Mutex<Option<Vec<T>>>> =
        morsels.into_iter().map(|m| Mutex::new(Some(m))).collect();
    let output: Vec<Mutex<Option<Vec<R>>>> = (0..n_morsels).map(|_| Mutex::new(None)).collect();
    // Per-worker deques seeded with contiguous blocks of morsel ids:
    // each worker starts on its own input range and steals only when
    // that range is drained.
    let queues: Vec<Mutex<VecDeque<usize>>> = split_chunks((0..n_morsels).collect(), workers)
        .into_iter()
        .map(|ids| Mutex::new(ids.into_iter().collect()))
        .collect();
    // split_chunks may produce fewer blocks than workers (ceil-division
    // rounding); spawn exactly one worker per seeded queue.
    let workers = queues.len();
    let (f, input, output_ref, queues) = (&f, &input, &output, &queues);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    while let Some(id) = claim(w, queues) {
                        let chunk = lock(&input[id]).take().expect("morsel claimed twice");
                        let done: Vec<R> = chunk.into_iter().map(f).collect();
                        *lock(&output_ref[id]) = Some(done);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("fdb-exec worker panicked");
        }
    });
    let mut out = Vec::with_capacity(n_items);
    for slot in output {
        let done = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("morsel not completed");
        out.extend(done);
    }
    out
}

/// Fallible [`parallel_map`]: every item is attempted, and on failure
/// the error of the first failing item **in input order** is returned
/// (deterministic regardless of scheduling).
pub fn try_parallel_map<T, R, E, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let results = parallel_map(threads, items, f);
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn split_chunks_covers_all_items_in_order() {
        for parts in 1..8 {
            for n in 0..20 {
                let items: Vec<usize> = (0..n).collect();
                let chunks = split_chunks(items.clone(), parts);
                assert!(chunks.len() <= parts);
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, items, "parts={parts} n={n}");
            }
        }
    }

    #[test]
    fn morsel_count_sizing_rule() {
        // ~4× threads morsels, floor 1, never more than the item count.
        assert_eq!(morsel_count(1000, 4), 16);
        assert_eq!(morsel_count(1000, 1), 4);
        assert_eq!(morsel_count(3, 4), 3);
        assert_eq!(morsel_count(1, 8), 1);
        assert_eq!(morsel_count(0, 8), 1);
        assert_eq!(morsel_count(1000, 0), 4); // threads clamped to >= 1
    }

    #[test]
    fn split_morsels_covers_all_items_in_order() {
        for threads in [1, 2, 4] {
            for n in [0usize, 1, 5, 100] {
                let items: Vec<usize> = (0..n).collect();
                let chunks = split_morsels(items.clone(), threads);
                assert!(chunks.len() <= morsel_count(n, threads));
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, items, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        for threads in [1, 2, 3, 4, 7] {
            let out = parallel_map(threads, (0..100).collect::<Vec<i64>>(), |x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn parallel_map_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map(4, (0..57).collect::<Vec<usize>>(), |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn try_parallel_map_reports_first_error_in_input_order() {
        for threads in [1, 2, 4] {
            let r: Result<Vec<i64>, String> =
                try_parallel_map(threads, (0..40).collect::<Vec<i64>>(), |x| {
                    if x == 7 || x == 31 {
                        Err(format!("bad {x}"))
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(r, Err("bad 7".to_string()), "threads={threads}");
        }
    }

    #[test]
    fn absurd_thread_counts_are_clamped() {
        assert_eq!(effective_threads(1_000_000), MAX_WORKERS);
        let out = parallel_map(1_000_000, (0..500).collect::<Vec<i64>>(), |x| x + 1);
        assert_eq!(out, (1..=500).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<i32> = parallel_map(4, Vec::new(), |x: i32| x);
        assert!(out.is_empty());
        let out = parallel_map(4, vec![9], |x: i32| x + 1);
        assert_eq!(out, vec![10]);
    }

    /// Skewed workload: one item vastly more expensive than the other
    /// 63 (here: it *blocks* until the 60 items outside its morsel are
    /// done, which a static carve can never satisfy — worker 0 would
    /// hold items 1..16 hostage behind it). Under morsel stealing the
    /// giant's worker is pinned to exactly its own 4-item morsel while
    /// the remaining 15 morsels drain on the other workers.
    #[test]
    fn skewed_giant_item_load_balances() {
        const N: usize = 64; // threads=4 × 4 morsels/worker → 16 morsels of 4
        let outside_giants_morsel = N - 4;
        let progress = (Mutex::new(0usize), Condvar::new());
        let count_at_claim = AtomicUsize::new(usize::MAX);
        let by_thread: Mutex<HashMap<ThreadId, Vec<usize>>> = Mutex::new(HashMap::new());
        let out = parallel_map(4, (0..N).collect::<Vec<usize>>(), |x| {
            by_thread
                .lock()
                .unwrap()
                .entry(std::thread::current().id())
                .or_default()
                .push(x);
            if x == 0 {
                let (count, cv) = &progress;
                let g = count.lock().unwrap();
                count_at_claim.store(*g, Ordering::SeqCst);
                let (_g, timeout) = cv
                    .wait_timeout_while(g, Duration::from_secs(30), |c| *c < outside_giants_morsel)
                    .unwrap();
                assert!(
                    !timeout.timed_out(),
                    "giant item starved: siblings were not stolen"
                );
            } else {
                let (count, cv) = &progress;
                *count.lock().unwrap() += 1;
                cv.notify_all();
            }
            x
        });
        assert_eq!(out, (0..N).collect::<Vec<usize>>());
        let by_thread = by_thread.into_inner().unwrap();
        // After the giant woke, everything outside its morsel was
        // already finished elsewhere — its worker runs only the rest of
        // its own morsel {1,2,3} and finds nothing left to steal.
        let giants = by_thread
            .values()
            .find(|v| v.contains(&0))
            .expect("item 0 ran");
        let pos = giants.iter().position(|&v| v == 0).unwrap();
        assert_eq!(&giants[pos..], &[0, 1, 2, 3]);
        // If the giant had to wait at all, another worker necessarily
        // finished the outstanding items for it.
        if count_at_claim.load(Ordering::SeqCst) < outside_giants_morsel {
            assert!(by_thread.len() >= 2, "no stealing happened");
        }
    }

    /// Stealing must not introduce run-to-run nondeterminism: two
    /// parallel runs with jittered per-item cost agree with each other
    /// and with the serial path, bit for bit.
    #[test]
    fn two_runs_agree_under_stealing() {
        let jittered = |x: i64| {
            // Uneven spin so morsels finish out of order across runs.
            let spins = (x * x) % 977;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(i);
                std::hint::black_box(acc);
            }
            acc
        };
        let serial: Vec<i64> = (0..300).map(jittered).collect();
        let run1 = parallel_map(4, (0..300).collect::<Vec<i64>>(), jittered);
        let run2 = parallel_map(4, (0..300).collect::<Vec<i64>>(), jittered);
        assert_eq!(run1, serial);
        assert_eq!(run2, serial);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let _ = parallel_map(2, (0..10).collect::<Vec<i32>>(), |x| {
            assert!(x != 5, "boom");
            x
        });
    }

    /// A panic mid-morsel (not at a chunk boundary) propagates and the
    /// scheduler still drains: the pool joins every worker rather than
    /// deadlocking on the dead one's queue.
    #[test]
    #[should_panic(expected = "worker panicked")]
    fn panic_mid_morsel_does_not_deadlock() {
        let done = AtomicUsize::new(0);
        let _ = parallel_map(4, (0..64).collect::<Vec<i32>>(), |x| {
            assert!(x != 37, "mid-morsel boom");
            done.fetch_add(1, Ordering::SeqCst);
            x
        });
    }
}
