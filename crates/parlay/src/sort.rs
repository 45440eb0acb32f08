//! Parallel counting sort and radix sort.
//!
//! Counting sort is used by the deterministic chain-coloring MIS (§5.10:
//! "Using a counting sort, we can then deterministically find the MIS") and
//! radix sort backs the semisort / group-by primitive.

use crate::scan::scan_exclusive_u32;
use crate::slice::{uninit_copy_vec, ParSlice};
use crate::SEQ_THRESHOLD;
use rayon::par_chunk_map;
use rayon::prelude::*;

/// Stable parallel counting sort of `xs` by `key(x) in 0..num_buckets`.
///
/// Returns `(sorted, bucket_offsets)` where `bucket_offsets` has length
/// `num_buckets + 1` and bucket `b` occupies
/// `sorted[bucket_offsets[b]..bucket_offsets[b+1]]`.
pub fn counting_sort_by<T, F>(xs: &[T], num_buckets: usize, key: F) -> (Vec<T>, Vec<u32>)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let n = xs.len();
    assert!(num_buckets > 0);
    if n == 0 {
        return (Vec::new(), vec![0; num_buckets + 1]);
    }
    // Chunks hold at least `num_buckets` items so per-chunk histograms
    // amortize; a small input is one chunk, run inline.
    let hists: Vec<Vec<u32>> = par_chunk_map(n, num_buckets, |_, lo, hi| {
        let mut h = vec![0u32; num_buckets];
        for x in &xs[lo..hi] {
            h[key(x)] += 1;
        }
        h
    });
    let nchunks = hists.len();
    // Bucket-major, so the prefix sum directly yields each (bucket, chunk)
    // cell's first output slot: starts[b * nchunks + c].
    let mut starts: Vec<u32> = (0..num_buckets * nchunks)
        .map(|i| hists[i % nchunks][i / nchunks])
        .collect();
    let total = scan_exclusive_u32(&mut starts);
    debug_assert_eq!(total as usize, n);
    let mut offsets: Vec<u32> = (0..num_buckets).map(|b| starts[b * nchunks]).collect();
    offsets.push(n as u32);

    let mut out: Vec<T> = uninit_copy_vec(n);
    {
        let po = ParSlice::new(&mut out);
        let starts = &starts;
        // Same chunks as the histogram pass.
        par_chunk_map(n, num_buckets, |c, lo, hi| {
            let mut cursors: Vec<u32> = (0..num_buckets).map(|b| starts[b * nchunks + c]).collect();
            for x in &xs[lo..hi] {
                let b = key(x);
                let dst = cursors[b] as usize;
                cursors[b] += 1;
                // SAFETY: destination slots are disjoint — each (bucket,
                // chunk) range comes from the global prefix sum.
                unsafe { po.write(dst, *x) };
            }
        });
    }
    (out, offsets)
}

/// Parallel sort of items by a `u64` key. Not stable. Wraps rayon's
/// parallel unstable sort (a fork-join merge sort in the workspace shim).
pub fn sort_by_u64_key<T, F>(xs: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync + Send,
{
    if xs.len() <= SEQ_THRESHOLD {
        xs.sort_unstable_by_key(|x| key(x));
    } else {
        xs.par_sort_unstable_by_key(|x| key(x));
    }
}

/// Parallel sort of items by a composite `(u64, u64)` key. Not stable.
/// Used by the semisort to order by `(hash(key), key)` in a single pass —
/// hash collisions between distinct keys are broken by the second
/// component instead of a sequential fix-up re-sort.
pub fn sort_by_u64_pair_key<T, F>(xs: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> (u64, u64) + Sync + Send,
{
    if xs.len() <= SEQ_THRESHOLD {
        xs.sort_unstable_by_key(|x| key(x));
    } else {
        xs.par_sort_unstable_by_key(|x| key(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn counting_sort_small() {
        let xs = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let (sorted, offs) = counting_sort_by(&xs, 10, |&x| x as usize);
        let mut expect = xs.to_vec();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(offs.len(), 11);
        assert_eq!(offs[0], 0);
        assert_eq!(offs[10], 10);
        // bucket 1 holds the two 1s
        assert_eq!(&sorted[offs[1] as usize..offs[2] as usize], &[1, 1]);
    }

    #[test]
    fn counting_sort_large_matches_std() {
        let mut rng = SplitMix64::new(77);
        let xs: Vec<u32> = (0..200_000).map(|_| rng.next_below(64) as u32).collect();
        let (sorted, offs) = counting_sort_by(&xs, 64, |&x| x as usize);
        let mut expect = xs.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        for b in 0..64 {
            for &x in &sorted[offs[b] as usize..offs[b + 1] as usize] {
                assert_eq!(x as usize, b);
            }
        }
    }

    #[test]
    fn counting_sort_is_stable() {
        // items = (key, original index); stability keeps indices increasing per key.
        let mut rng = SplitMix64::new(3);
        let xs: Vec<(u32, u32)> = (0..100_000)
            .map(|i| (rng.next_below(8) as u32, i))
            .collect();
        let (sorted, _) = counting_sort_by(&xs, 8, |&(k, _)| k as usize);
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "instability at key {}", w[0].0);
            }
        }
    }

    #[test]
    fn counting_sort_empty() {
        let xs: [u32; 0] = [];
        let (sorted, offs) = counting_sort_by(&xs, 4, |&x| x as usize);
        assert!(sorted.is_empty());
        assert_eq!(offs, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn sort_by_key_large() {
        let mut rng = SplitMix64::new(9);
        let mut xs: Vec<u64> = (0..150_000).map(|_| rng.next_u64()).collect();
        let mut expect = xs.clone();
        sort_by_u64_key(&mut xs, |&x| x);
        expect.sort_unstable();
        assert_eq!(xs, expect);
    }
}
