//! Parallel merge sort backing [`crate::ParallelSliceMut::par_sort_unstable_by_key`].
//!
//! Classic fork-join merge sort on the pool: recursive splits via
//! [`crate::join`] down to sequential-sort leaves, then parallel merges
//! that split the larger run at its midpoint and binary-search the
//! matching split in the smaller run. `O(n log n)` work, `O(log^3 n)`
//! span. Not stable (neither is rayon's `par_sort_unstable_by_key`).
//!
//! Elements move through a single scratch buffer with raw copies; no
//! element is ever dropped from the scratch side, so each value is dropped
//! exactly once (in the input slice) even when a user comparison panics
//! mid-merge — the slice is always fully populated, merely unsorted.

use crate::pool::current_registry;
use std::cmp::Ordering;
use std::mem::MaybeUninit;

/// Below this length a slice is sorted sequentially (leaf of the fork
/// tree) and a merge runs as a single two-pointer pass.
const SORT_SEQ_CUTOFF: usize = 4096;

/// Entry point: sort `v` by `cmp` using the current pool.
pub(crate) fn par_merge_sort_by<T, C>(v: &mut [T], cmp: &C)
where
    T: Send,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    let threads = current_registry().size;
    if threads <= 1 || n <= SORT_SEQ_CUTOFF {
        v.sort_unstable_by(cmp);
        return;
    }
    // One leaf per ~2 tasks per thread, but never below the sequential
    // cutoff — deeper recursion is pure overhead.
    let leaf = (n / (threads * 2)).max(SORT_SEQ_CUTOFF);
    let mut buf: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` contents are never read before being written
    // and never dropped.
    unsafe { buf.set_len(n) };
    sort_rec(v, &mut buf, cmp, leaf);
}

fn sort_rec<T, C>(v: &mut [T], buf: &mut [MaybeUninit<T>], cmp: &C, leaf: usize)
where
    T: Send,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    if n <= leaf {
        v.sort_unstable_by(cmp);
        return;
    }
    let mid = n / 2;
    {
        let (vl, vr) = v.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        crate::join(
            || sort_rec(vl, bl, cmp, leaf),
            || sort_rec(vr, br, cmp, leaf),
        );
    }
    {
        let (vl, vr) = v.split_at_mut(mid);
        par_merge(vl, vr, buf, cmp);
    }
    // SAFETY: `buf[..n]` was fully written by the merge; the copy moves the
    // merged order back while the stale copies in `buf` are abandoned
    // without drops.
    unsafe {
        std::ptr::copy_nonoverlapping(buf.as_ptr() as *const T, v.as_mut_ptr(), n);
    }
}

/// Merge two sorted runs into `out` (`out.len() == a.len() + b.len()`),
/// splitting recursively while both the output and the pool are large
/// enough to profit.
// The runs are read-only but passed as `&mut` so the recursion closures
// are `Send` with only `T: Send` (a `&[T]` capture would demand `T: Sync`,
// which rayon's signature does not).
fn par_merge<T, C>(a: &mut [T], b: &mut [T], out: &mut [MaybeUninit<T>], cmp: &C)
where
    T: Send,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(a.len() + b.len(), out.len());
    if out.len() <= SORT_SEQ_CUTOFF {
        return seq_merge(a, b, out, cmp);
    }
    // Split the larger run at its midpoint, binary-search the matching
    // position in the smaller run, and merge the two halves in parallel.
    let a_is_first = a.len() >= b.len();
    let (first, second) = if a_is_first { (a, b) } else { (b, a) };
    let fm = first.len() / 2;
    let pivot = &first[fm];
    let sm = if a_is_first {
        // Elements of b strictly less than the pivot go left (ties stay
        // with a, which sits to the pivot's left in `a`).
        second.partition_point(|x| cmp(x, pivot) == Ordering::Less)
    } else {
        // Roles swapped: a's ties with a b-pivot must also go left.
        second.partition_point(|x| cmp(x, pivot) != Ordering::Greater)
    };
    let (out_l, out_r) = out.split_at_mut(fm + sm);
    let (fl, fr) = first.split_at_mut(fm);
    let (sl, sr) = second.split_at_mut(sm);
    let (al, bl, ar, br) = if a_is_first {
        (fl, sl, fr, sr)
    } else {
        (sl, fl, sr, fr)
    };
    crate::join(
        || par_merge(al, bl, out_l, cmp),
        || par_merge(ar, br, out_r, cmp),
    );
}

/// Serial two-pointer merge. Ties take from `a` first.
fn seq_merge<T, C>(a: &[T], b: &[T], out: &mut [MaybeUninit<T>], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = if i == a.len() {
            false
        } else if j == b.len() {
            true
        } else {
            cmp(&b[j], &a[i]) != Ordering::Less
        };
        let src = if take_a {
            let s = &a[i];
            i += 1;
            s
        } else {
            let s = &b[j];
            j += 1;
            s
        };
        // SAFETY: a raw copy; ownership of the value stays with the input
        // slice until the post-merge copy-back overwrites it.
        slot.write(unsafe { std::ptr::read(src) });
    }
}
