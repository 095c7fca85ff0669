//! # tiga-parallel — a minimal deterministic sharded work queue
//!
//! Shared by the job-level fan-outs: the campaign engine (`tiga fuzz
//! --jobs`), the test-campaign runner in `tiga-testing` and `tiga serve`
//! batches.  A solve never uses it: the solver runs on the calling thread.
//!
//! Jobs are claimed dynamically from a shared atomic cursor (work-stealing
//! style self-scheduling: a fast worker keeps taking jobs a slow worker has
//! not claimed yet), but every result is written back into the slot of the
//! job that produced it, so the output order — and therefore everything
//! aggregated from it — is independent of the number of worker threads and
//! of scheduling interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The SplitMix64 increment: each output of a SplitMix64 generator advances
/// its state by this odd constant (2^64 / φ).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output at state `z`: a bijective mixer with good
/// avalanche behaviour.  The `k`-th output of a generator seeded with `s`
/// is `mix64(s + k·GOLDEN_GAMMA)`.  Every seed the workspace derives (test
/// campaigns, fuzz cases) goes through here, so a fixed master seed gives
/// the same jobs on any thread count.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves a requested thread count: `0` means "all available parallelism",
/// and the result never exceeds the available parallelism nor the number
/// of jobs.  Results of [`run_indexed`] and [`run_keyed`] do not depend on
/// the thread count, so a request for more threads than the machine has
/// (say, `tiga serve --jobs 100000`) only loses the
/// threads it could not use.
///
/// A request for one thread is answered without asking the machine;
/// otherwise the available parallelism is read once per process (on Linux
/// each read parses the cgroup CPU limits).
#[must_use]
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    if requested == 1 {
        return 1;
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let wanted = if requested == 0 { hardware } else { requested };
    wanted.min(hardware).clamp(1, jobs.max(1))
}

/// Runs `f` over every `(index, item)` pair on `threads` workers and returns
/// the results in item order — bit-identical for any thread count.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn run_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = slots[index]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let result = f(index, item);
                *results[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// Runs `f` once per *distinct key* — on the first item carrying it — and
/// returns one `(result, first)` pair per input item, in item order; `first`
/// marks the item that triggered the computation, duplicates receive a clone.
///
/// This is the request-level sharding discipline of `tiga serve` batches: a
/// campaign that submits the same game many times costs one solve, the
/// distinct work is spread over `threads` workers through [`run_indexed`],
/// and the merged output — including which submission counts as the cache
/// miss — is bit-identical for any thread count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn run_keyed<K, T, R, F>(items: Vec<(K, T)>, threads: usize, f: F) -> Vec<(R, bool)>
where
    K: Eq + Hash + Clone + Send,
    T: Send,
    R: Clone + Send,
    F: Fn(&K, T) -> R + Sync,
{
    let mut slot_of_item = Vec::with_capacity(items.len());
    let mut is_first = Vec::with_capacity(items.len());
    let mut slot_of_key: HashMap<K, usize> = HashMap::new();
    let mut firsts: Vec<(K, T)> = Vec::new();
    for (key, item) in items {
        match slot_of_key.entry(key.clone()) {
            Entry::Occupied(slot) => {
                slot_of_item.push(*slot.get());
                is_first.push(false);
            }
            Entry::Vacant(slot) => {
                slot.insert(firsts.len());
                slot_of_item.push(firsts.len());
                is_first.push(true);
                firsts.push((key, item));
            }
        }
    }
    let computed = run_indexed(firsts, threads, |_, (key, item)| f(&key, item));
    slot_of_item
        .into_iter()
        .zip(is_first)
        .map(|(slot, first)| (computed[slot].clone(), first))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(items.clone(), threads, |index, item| {
                assert_eq!(index, item);
                item * 3
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(none, 4, |_, x| x).is_empty());
        assert_eq!(run_indexed(vec![7], 4, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn run_keyed_computes_once_per_key_in_item_order() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<(u8, usize)> = vec![(3, 0), (1, 1), (3, 2), (2, 3), (1, 4), (3, 5)];
        for threads in [1, 2, 8] {
            let calls = AtomicUsize::new(0);
            let out = run_keyed(items.clone(), threads, |key, item| {
                calls.fetch_add(1, Ordering::Relaxed);
                (u32::from(*key) * 10, item)
            });
            assert_eq!(
                calls.load(Ordering::Relaxed),
                3,
                "one call per distinct key"
            );
            // Every duplicate sees the result computed for the key's FIRST
            // item, and only the first occurrence is flagged.
            assert_eq!(
                out,
                vec![
                    ((30, 0), true),
                    ((10, 1), true),
                    ((30, 0), false),
                    ((20, 3), true),
                    ((10, 1), false),
                    ((30, 0), false),
                ],
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn run_keyed_handles_empty_and_all_unique() {
        let none: Vec<(u8, u8)> = Vec::new();
        assert!(run_keyed(none, 4, |_, x| x).is_empty());
        let out = run_keyed(vec![(1u8, 10u8), (2, 20)], 4, |_, x| x);
        assert_eq!(out, vec![(10, true), (20, true)]);
    }

    #[test]
    fn mix64_is_the_splitmix64_output_function() {
        // The first two outputs of SplitMix64 seeded with 0.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn effective_threads_clamps() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_threads(4, 2), hardware.min(2));
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(0, 100), hardware.min(100));
        assert_eq!(effective_threads(8, 0), 1);
    }

    #[test]
    fn one_requested_thread_is_one_thread_for_any_job_count() {
        for jobs in (0..=64).chain([100_000, usize::MAX]) {
            assert_eq!(effective_threads(1, jobs), 1, "jobs = {jobs}");
        }
    }

    #[test]
    fn effective_threads_never_exceed_the_machine() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Only the arithmetic is checked: nothing here starts a thread.
        assert_eq!(effective_threads(100_000, 5_000), hardware.min(5_000));
        assert_eq!(effective_threads(usize::MAX, usize::MAX), hardware);
        assert_eq!(effective_threads(100_000, 1), 1);
    }
}
