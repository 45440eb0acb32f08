//! Pool jobs published per parallel loop, under the one grain policy.
//!
//! A loop of at most `rayon::SEQUENTIAL_FLOOR` elements must run inline
//! (no job), one element more must publish exactly one job, and the
//! rc-parlay primitives must still publish jobs on large inputs: a
//! primitive that handed the pool a block count instead of an element
//! count would fall under the floor and silently run sequentially.
//!
//! The pool counters are process-global, so this file is its own test
//! binary with a single test. The counts are only checked when the
//! `pool-metrics` feature is on:
//! `cargo test --features pool-metrics --test pool_grain`.

use rayon::prelude::*;
use rayon::{pool_metrics, pool_metrics_enabled, ThreadPoolBuilder, SEQUENTIAL_FLOOR};
use rcforest::parlay::{pack, parallel_collect, parallel_for, scan, sort};

/// Pool jobs published while running `f`.
fn jobs(f: impl FnOnce()) -> u64 {
    let before = pool_metrics().jobs_published;
    f();
    pool_metrics().jobs_published - before
}

#[test]
fn loops_publish_jobs_by_element_count() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let n = 100_000;
    let xs: Vec<u64> = (0..n as u64).collect();
    let sum = |k: usize| assert_eq!(xs[..k].par_iter().sum::<u64>(), (k * (k - 1) / 2) as u64);
    let primitives: [(&str, &(dyn Fn() + Sync)); 7] = [
        ("par_iter at the floor", &|| sum(SEQUENTIAL_FLOOR)),
        ("par_iter above the floor", &|| sum(SEQUENTIAL_FLOOR + 1)),
        ("parallel_for", &|| parallel_for(n, |i| assert!(i < n))),
        ("parallel_collect", &|| {
            assert_eq!(parallel_collect(n, |i, acc| acc.push(i)).len(), n)
        }),
        ("scan_exclusive_u64", &|| {
            let mut ys = xs.clone();
            assert_eq!(scan::scan_exclusive_u64(&mut ys), (n * (n - 1) / 2) as u64);
            assert_eq!(ys[3], 3);
        }),
        ("pack_index", &|| {
            assert_eq!(pack::pack_index(n, |i| i % 2 == 0).len(), n / 2)
        }),
        ("counting_sort_by", &|| {
            let (sorted, offsets) = sort::counting_sort_by(&xs, 16, |&x| (x % 16) as usize);
            assert_eq!((sorted.len(), offsets[16] as usize), (n, n));
        }),
    ];
    let published: Vec<u64> = primitives
        .iter()
        .map(|(_, run)| pool.install(|| jobs(run)))
        .collect();
    if !pool_metrics_enabled() {
        eprintln!("pool-metrics is off: job counts not checked");
        return;
    }
    assert_eq!(published[0], 0, "a loop at the floor runs inline");
    assert_eq!(
        published[1], 1,
        "one element above the floor publishes one job"
    );
    for ((name, _), &jobs) in primitives.iter().zip(&published).skip(2) {
        assert!(jobs >= 1, "{name} over {n} elements published no pool job");
    }
}
