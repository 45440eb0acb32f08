//! Semisort / group-by (§2.1).
//!
//! A semisort groups equal keys together without fully ordering them. The
//! paper uses the expected-linear-work semisort of \[48\]; we hash keys to
//! 64 bits and sort by hash, which has the same interface and, for the
//! word-sized keys used throughout this workspace, differs only by the
//! `O(log n)` comparison-sort factor — a deliberate trade of one log in
//! work for a far simpler, deterministic-per-seed implementation. Groups
//! come back as contiguous ranges.

use crate::rng::hash2;
use crate::sort::sort_by_u64_pair_key;
use rayon::prelude::*;

/// Result of [`group_by_key`]: the permuted pairs plus the `(lo, hi)`
/// range of each key's run.
pub type Grouped<V> = (Vec<(u64, V)>, Vec<(u32, u32)>);

/// Group a sequence of `(key, value)` pairs by key.
///
/// Returns `(pairs, group_ranges)`: `pairs` is a permutation of the input
/// with equal keys adjacent; each `(lo, hi)` in `group_ranges` delimits one
/// key's run `pairs[lo..hi]`. Group order is pseudo-random (by key hash).
pub fn group_by_key<V>(pairs: &[(u64, V)], seed: u64) -> Grouped<V>
where
    V: Copy + Send + Sync,
{
    let mut items: Vec<(u64, V)> = pairs.to_vec();
    // One parallel sort by (hash(key), key): equal keys end up adjacent
    // even when two distinct keys collide in the hash (~ n^2 / 2^64 —
    // essentially never — but correctness must not depend on luck).
    sort_by_u64_pair_key(&mut items, |&(k, _)| (hash2(seed, k), k));

    let n = items.len();
    let is_start = |i: usize| i == 0 || items[i - 1].0 != items[i].0;
    let starts = crate::pack::pack_index(n, is_start);
    let mut ranges = Vec::with_capacity(starts.len());
    for (j, &s) in starts.iter().enumerate() {
        let e = if j + 1 < starts.len() {
            starts[j + 1]
        } else {
            n as u32
        };
        ranges.push((s, e));
    }
    (items, ranges)
}

/// Group u32 values by a u32 key — the common case (edges grouped by
/// endpoint in ternarization, clusters grouped by parent in batch queries).
pub fn group_u32_by_u32(pairs: &[(u32, u32)], seed: u64) -> Vec<(u32, Vec<u32>)> {
    let wide: Vec<(u64, u32)> = pairs.par_iter().map(|&(k, v)| (k as u64, v)).collect();
    let (sorted, ranges) = group_by_key(&wide, seed);
    ranges
        .into_iter()
        .map(|(lo, hi)| {
            let key = sorted[lo as usize].0 as u32;
            let vals: Vec<u32> = sorted[lo as usize..hi as usize]
                .iter()
                .map(|&(_, v)| v)
                .collect();
            (key, vals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn groups_are_complete_and_disjoint() {
        let mut rng = SplitMix64::new(11);
        let pairs: Vec<(u64, u32)> = (0..100_000u32).map(|i| (rng.next_below(500), i)).collect();
        let (sorted, ranges) = group_by_key(&pairs, 42);

        // Every range has a single key; ranges tile [0, n).
        let mut covered = 0usize;
        let mut seen_keys = std::collections::HashSet::new();
        for &(lo, hi) in &ranges {
            assert!(lo < hi);
            assert_eq!(covered, lo as usize);
            covered = hi as usize;
            let k = sorted[lo as usize].0;
            assert!(seen_keys.insert(k), "key {k} split across groups");
            assert!(sorted[lo as usize..hi as usize]
                .iter()
                .all(|&(kk, _)| kk == k));
        }
        assert_eq!(covered, sorted.len());

        // Multiset of values per key matches a reference HashMap grouping.
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for &(k, v) in &pairs {
            reference.entry(k).or_default().push(v);
        }
        for &(lo, hi) in &ranges {
            let k = sorted[lo as usize].0;
            let mut got: Vec<u32> = sorted[lo as usize..hi as usize]
                .iter()
                .map(|&(_, v)| v)
                .collect();
            got.sort_unstable();
            let mut want = reference.remove(&k).unwrap();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn group_u32_small() {
        let pairs = vec![(1u32, 10u32), (2, 20), (1, 11), (3, 30), (2, 21)];
        let groups = group_u32_by_u32(&pairs, 7);
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for (k, mut vs) in groups {
            vs.sort_unstable();
            assert!(map.insert(k, vs).is_none());
        }
        assert_eq!(map[&1], vec![10, 11]);
        assert_eq!(map[&2], vec![20, 21]);
        assert_eq!(map[&3], vec![30]);
    }

    #[test]
    fn empty_input() {
        let (sorted, ranges) = group_by_key::<u32>(&[], 1);
        assert!(sorted.is_empty());
        assert!(ranges.is_empty());
    }
}
