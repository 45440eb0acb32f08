//! Filter, pack, and flatten — the scan-based gather primitives of §2.1.

use crate::parallel_for;
use crate::scan::scan_exclusive_u32;
use crate::slice::{uninit_copy_vec, ParSlice};
use rayon::prelude::*;
use rayon::{par_chunk_map, runs_inline};

/// Indices `i in 0..n` with `pred(i)`, in increasing order.
pub fn pack_index<F: Fn(usize) -> bool + Sync>(n: usize, pred: F) -> Vec<u32> {
    if runs_inline(n) {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let mut counts: Vec<u32> = par_chunk_map(n, 1, |_, lo, hi| {
        (lo..hi).filter(|&i| pred(i)).count() as u32
    });
    let total = scan_exclusive_u32(&mut counts) as usize;
    let mut out: Vec<u32> = uninit_copy_vec(total);
    {
        let ps = ParSlice::new(&mut out);
        // Same chunks as the counting pass, so chunk `c` starts writing at
        // its count's prefix sum.
        par_chunk_map(n, 1, |c, lo, hi| {
            let mut k = counts[c] as usize;
            for i in lo..hi {
                if pred(i) {
                    // SAFETY: destination ranges are disjoint per chunk
                    // (offsets come from the prefix sum of chunk counts).
                    unsafe { ps.write(k, i as u32) };
                    k += 1;
                }
            }
        });
    }
    out
}

/// Keep the elements satisfying `pred`, preserving order.
pub fn filter<T, F>(xs: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let idx = pack_index(xs.len(), |i| pred(&xs[i]));
    map_index(&idx, |i| xs[i as usize])
}

/// Gather `f(i)` for each index in `idx` (parallel map over an index list).
pub fn map_index<T, F>(idx: &[u32], f: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(u32) -> T + Sync,
{
    let mut out: Vec<T> = uninit_copy_vec(idx.len());
    {
        let ps = ParSlice::new(&mut out);
        parallel_for(idx.len(), |k| {
            // SAFETY: each k written exactly once.
            unsafe { ps.write(k, f(idx[k])) };
        });
    }
    out
}

/// Concatenate a 2-D structure into a flat vector (§2.1 "flatten").
pub fn flatten<T: Copy + Send + Sync>(nested: &[Vec<T>]) -> Vec<T> {
    let mut offsets: Vec<u32> = nested.iter().map(|v| v.len() as u32).collect();
    let total = scan_exclusive_u32(&mut offsets) as usize;
    let mut out: Vec<T> = uninit_copy_vec(total);
    {
        let ps = ParSlice::new(&mut out);
        nested.par_iter().enumerate().for_each(|(j, v)| {
            let off = offsets[j] as usize;
            for (i, &x) in v.iter().enumerate() {
                // SAFETY: output ranges [off, off+len) are disjoint across j.
                unsafe { ps.write(off + i, x) };
            }
        });
    }
    out
}

/// Count elements satisfying `pred`.
pub fn count<T, F>(xs: &[T], pred: F) -> usize
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    xs.par_iter().map(|x| pred(x) as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_index_small_and_large_agree() {
        for n in [0usize, 1, 100, 70_000] {
            let got = pack_index(n, |i| i % 3 == 1);
            let expect: Vec<u32> = (0..n).filter(|i| i % 3 == 1).map(|i| i as u32).collect();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn filter_preserves_order() {
        let xs: Vec<u64> = (0..50_000).map(|i| i * 7 % 13).collect();
        let got = filter(&xs, |&x| x > 6);
        let expect: Vec<u64> = xs.iter().copied().filter(|&x| x > 6).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn flatten_matches_concat() {
        let nested: Vec<Vec<u32>> = (0..1000)
            .map(|i| (0..(i % 7)).map(|j| (i * 10 + j) as u32).collect())
            .collect();
        let got = flatten(&nested);
        let expect: Vec<u32> = nested.iter().flatten().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn flatten_all_empty() {
        let nested: Vec<Vec<u32>> = vec![vec![], vec![], vec![]];
        assert!(flatten(&nested).is_empty());
    }

    #[test]
    fn count_parallel() {
        let xs: Vec<u32> = (0..100_000).collect();
        assert_eq!(count(&xs, |&x| x % 10 == 0), 10_000);
    }

    #[test]
    fn map_index_gathers() {
        let idx = vec![5u32, 1, 3];
        let got = map_index(&idx, |i| i * 2);
        assert_eq!(got, vec![10, 2, 6]);
    }
}
