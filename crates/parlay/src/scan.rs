//! Parallel prefix sums (scans).
//!
//! Two-pass chunked scan: per-chunk reductions in parallel, a sequential
//! scan over the (few) chunk sums, then parallel per-chunk exclusive scans
//! from the chunk offsets. Both passes run through `rayon::par_chunk_map`,
//! which chunks `0..n` identically each time. `O(n)` work, `O(log n)`
//! span — the workhorse behind `pack`, `flatten`, counting sort and the
//! batch-query offsets in `rc-core`.

use crate::slice::ParSlice;
use rayon::prelude::*;
use rayon::{par_chunk_map, runs_inline};

/// Generic exclusive scan in place. `xs[i]` becomes `op(id, xs[0..i])`;
/// returns the total reduction of the input.
///
/// `op` must be associative with identity `id`.
pub fn scan_exclusive<T, F>(xs: &mut [T], id: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let n = xs.len();
    if runs_inline(n) {
        return scan_exclusive_seq(xs, id, &op);
    }
    let ps = ParSlice::new(xs);
    // Pass 1: chunk sums. SAFETY (both passes): chunks are disjoint ranges
    // of `0..n`, and each chunk touches only its own range.
    let mut sums: Vec<T> = par_chunk_map(n, 1, |_, lo, hi| {
        (lo..hi).fold(id, |a, i| op(a, unsafe { ps.read(i) }))
    });
    let total = scan_exclusive_seq(&mut sums, id, &op);
    // Pass 2: per-chunk exclusive scans from the chunk offsets.
    par_chunk_map(n, 1, |c, lo, hi| {
        let mut acc = sums[c];
        for i in lo..hi {
            unsafe {
                let x = ps.read(i);
                ps.write(i, acc);
                acc = op(acc, x);
            }
        }
    });
    total
}

fn scan_exclusive_seq<T, F>(xs: &mut [T], id: T, op: &F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut acc = id;
    for x in xs.iter_mut() {
        let v = *x;
        *x = acc;
        acc = op(acc, v);
    }
    acc
}

/// Exclusive `+`-scan over `u64`s; returns the total.
pub fn scan_exclusive_u64(xs: &mut [u64]) -> u64 {
    scan_exclusive(xs, 0u64, |a, b| a + b)
}

/// Exclusive `+`-scan over `u32`s (sums must fit in `u32`); returns the total.
pub fn scan_exclusive_u32(xs: &mut [u32]) -> u32 {
    scan_exclusive(xs, 0u32, |a, b| a + b)
}

/// Parallel reduction with an associative operator.
pub fn reduce<T, F>(xs: &[T], id: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    xs.par_iter().map(|&x| x).reduce(|| id, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scan() {
        let mut xs: Vec<u64> = vec![];
        assert_eq!(scan_exclusive_u64(&mut xs), 0);
    }

    #[test]
    fn small_scan_matches_reference() {
        let mut xs = vec![3u64, 1, 4, 1, 5];
        let total = scan_exclusive_u64(&mut xs);
        assert_eq!(total, 14);
        assert_eq!(xs, vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn large_scan_matches_sequential() {
        let n = 100_003;
        let orig: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) % 97).collect();
        let mut par = orig.clone();
        let total = scan_exclusive_u64(&mut par);

        let mut acc = 0u64;
        let mut seq = Vec::with_capacity(n);
        for &x in &orig {
            seq.push(acc);
            acc += x;
        }
        assert_eq!(total, acc);
        assert_eq!(par, seq);
    }

    #[test]
    fn max_scan() {
        let mut xs = vec![2i64, 9, 4, 1, 12, 3];
        let total = scan_exclusive(&mut xs, i64::MIN, |a, b| a.max(b));
        assert_eq!(total, 12);
        assert_eq!(xs, vec![i64::MIN, 2, 9, 9, 9, 12]);
    }

    #[test]
    fn reduce_matches_sum() {
        let xs: Vec<u64> = (0..50_000).collect();
        assert_eq!(reduce(&xs, 0, |a, b| a + b), 50_000 * 49_999 / 2);
    }

    #[test]
    fn scan_u32() {
        let mut xs = vec![1u32; 10_000];
        let total = scan_exclusive_u32(&mut xs);
        assert_eq!(total, 10_000);
        assert_eq!(xs[9_999], 9_999);
    }
}
