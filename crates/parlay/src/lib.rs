//! Parallel algorithm substrate for `rcforest`.
//!
//! This crate provides the parallel primitives that the paper's C++
//! implementation takes from ParlayLib (Blelloch, Anderson, Dhulipala 2020):
//! prefix sums, filter/pack, flatten, semisort/group-by, concurrent hash
//! tables, parallel list contraction, random shuffles, and deterministic
//! pseudo-random hashing. Everything is built on [`rayon`]'s fork-join
//! scheduler, the Rust equivalent of Parlay's work-stealing scheduler.
//!
//! Every loop here is counted in elements and chunked by the rayon shim's
//! one grain policy: loops up to `rayon::SEQUENTIAL_FLOOR` elements run
//! inline on the caller, larger ones get about eight chunks per pool
//! thread. The two-pass primitives (scan, pack, counting sort) run both
//! passes through `rayon::par_chunk_map`, which splits `0..n` the same way
//! each time; this crate picks no block size of its own.
//!
//! All primitives are deterministic given their seed arguments, which the
//! RC-tree change-propagation algorithm relies on (see `rc-core`).
//!
//! # Quick example
//!
//! ```
//! use rc_parlay::{scan, pack};
//! let mut xs = vec![1u64, 2, 3, 4];
//! let total = scan::scan_exclusive_u64(&mut xs);
//! assert_eq!(total, 10);
//! assert_eq!(xs, vec![0, 1, 3, 6]);
//! let evens = pack::pack_index(8, |i| i % 2 == 0);
//! assert_eq!(evens, vec![0, 2, 4, 6]);
//! ```

pub mod atomic_slots;
pub mod hashtable;
pub mod inline;
pub mod list;
pub mod pack;
pub mod rng;
pub mod scan;
pub mod semisort;
pub mod shuffle;
pub mod slice;
pub mod sort;

/// Sentinel "null" value used for `u32` indices throughout the workspace.
pub const NONE_U32: u32 = u32::MAX;

/// Input length up to which [`sort`] and [`shuffle`] pick a different,
/// sequential algorithm: `sort_unstable` instead of the parallel merge
/// sort, Fisher–Yates instead of a sort by hash keys. It is not a grain
/// size: how a parallel loop is chunked, and whether it runs inline, is
/// decided by the rayon shim's one grain policy (`rayon::SEQUENTIAL_FLOOR`).
pub const SEQ_THRESHOLD: usize = 2048;

/// Run `f(i)` for every `i in 0..n`, in parallel chunks sized by the grain
/// policy (inline on the caller for small `n`).
///
/// `f` must be safe to run concurrently for distinct indices.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    use rayon::prelude::*;
    (0..n).into_par_iter().for_each(f);
}

/// Map `f` over `0..n` collecting per-chunk outputs into one `Vec`,
/// in no particular order. Used to gather marked nodes without scanning
/// the whole structure.
pub fn parallel_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Vec<T>) + Sync,
{
    use rayon::prelude::*;
    (0..n)
        .into_par_iter()
        .fold(Vec::new, |mut acc, i| {
            f(i, &mut acc);
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            if a.len() < b.len() {
                std::mem::swap(&mut a, &mut b);
            }
            a.append(&mut b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_is_sequential() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_collect_gathers_everything() {
        let mut out = parallel_collect(50_000, |i, acc| {
            if i % 7 == 0 {
                acc.push(i);
            }
        });
        out.sort_unstable();
        let expect: Vec<usize> = (0..50_000).filter(|i| i % 7 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_for_zero_and_one() {
        parallel_for(0, |_| panic!("must not run"));
        let hit = AtomicUsize::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
