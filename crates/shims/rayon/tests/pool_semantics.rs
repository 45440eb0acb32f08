//! Behavioral contract of the persistent pool: worker reuse, dynamic
//! chunk scheduling, panic propagation, nested join, and order
//! preservation under stealing. These are the semantics `rc-parlay` and
//! `rc-core` build on, so they are pinned here rather than assumed.

use rayon::prelude::*;
use rayon::{current_num_threads, join, ThreadPoolBuilder};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Busy work whose duration scales with `spin`, defeating the optimizer.
fn spin_work(spin: usize) -> u64 {
    let mut acc = 0x9E37u64;
    for i in 0..spin {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
    }
    std::hint::black_box(acc)
}

#[test]
fn workers_persist_across_calls() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    pool.install(|| {
        for _ in 0..20 {
            (0..40_000usize).into_par_iter().for_each(|i| {
                spin_work(i % 17);
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
    });
    // 3 pool workers + the caller. A spawn-per-call executor (the old
    // shim) would accumulate fresh thread ids every iteration.
    let distinct = seen.lock().unwrap().len();
    assert!(
        distinct <= 4,
        "thread ids keep growing ({distinct}) — workers are not persistent"
    );
}

#[test]
fn dynamic_scheduling_covers_every_index_exactly_once() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let hits: Vec<AtomicUsize> = (0..100_000).map(|_| AtomicUsize::new(0)).collect();
    let href = &hits;
    pool.install(|| {
        (0..href.len()).into_par_iter().for_each(|i| {
            // Severely skewed per-item cost: dynamic claiming must still
            // cover everything exactly once.
            spin_work(if i % 1000 == 0 { 20_000 } else { 1 });
            href[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn collect_preserves_order_under_stealing() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let got: Vec<u64> = pool.install(|| {
        (0..200_000usize)
            .into_par_iter()
            .map(|i| {
                spin_work(i % 64); // uneven work shuffles chunk completion order
                i as u64 * 3
            })
            .collect()
    });
    assert_eq!(got.len(), 200_000);
    assert!(
        got.iter().enumerate().all(|(i, &x)| x == i as u64 * 3),
        "collect must place results by index, not completion order"
    );
}

#[test]
fn panic_in_worker_propagates_to_caller() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let r = std::panic::catch_unwind(|| {
        pool.install(|| {
            (0..100_000usize).into_par_iter().for_each(|i| {
                if i == 31_337 {
                    panic!("boom from a pool worker");
                }
            });
        });
    });
    let err = r.expect_err("panic must reach the caller");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom"), "payload preserved, got: {msg}");

    // The pool survives the panic and keeps computing correct results.
    let sum: usize = pool.install(|| (0..1_000usize).into_par_iter().sum());
    assert_eq!(sum, 1_000 * 999 / 2);
}

#[test]
fn join_panics_propagate_first_branch_wins() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    // Panic in the second (stealable) branch.
    let r = std::panic::catch_unwind(|| pool.install(|| join(|| 1, || panic!("b panics"))));
    assert!(r.is_err());
    // Panic in the first branch; the second still completes.
    let ran_b = AtomicUsize::new(0);
    let r = std::panic::catch_unwind(|| {
        pool.install(|| {
            join(
                || panic!("a panics"),
                || ran_b.fetch_add(1, Ordering::Relaxed),
            )
        })
    });
    let err = r.expect_err("first-branch panic propagates");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "a panics", "first branch's payload wins");
    assert_eq!(ran_b.load(Ordering::Relaxed), 1, "b resolved before unwind");
}

#[test]
fn nested_join_under_install_produces_correct_results() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    for threads in [2, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| {
            assert_eq!(current_num_threads(), threads);
            fib(18)
        });
        assert_eq!(got, 2_584, "threads = {threads}");
    }
}

#[test]
fn nested_parallel_for_inside_parallel_for() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let total = AtomicUsize::new(0);
    pool.install(|| {
        // Above the sequential floor, so the outer loop reaches the workers.
        (0..4 * rayon::SEQUENTIAL_FLOOR)
            .into_par_iter()
            .for_each(|_| {
                assert_eq!(current_num_threads(), 4, "workers route to their pool");
                let inner: usize = (0..1_000usize).into_par_iter().sum();
                total.fetch_add(inner, Ordering::Relaxed);
            });
    });
    assert_eq!(
        total.load(Ordering::Relaxed),
        4 * rayon::SEQUENTIAL_FLOOR * (1_000 * 999 / 2)
    );
}

#[test]
fn two_pools_coexist_and_route_independently() {
    let small = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let large = ThreadPoolBuilder::new().num_threads(6).build().unwrap();
    let (a, b) = small.install(|| {
        let a = current_num_threads();
        let b = large.install(current_num_threads);
        (a, b)
    });
    assert_eq!((a, b), (2, 6));
    assert_eq!(small.current_num_threads(), 2);
    assert_eq!(large.current_num_threads(), 6);
}

#[test]
fn par_sort_under_contention_matches_std() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let mut state = 7u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut xs: Vec<(u64, u32)> = (0..300_000u32).map(|i| (next() % 1_000, i)).collect();
    let mut want = xs.clone();
    pool.install(|| xs.par_sort_unstable_by_key(|&(k, _)| k));
    want.sort_unstable_by_key(|&(k, _)| k);
    // Unstable sort: compare key sequences and the full multiset.
    let got_keys: Vec<u64> = xs.iter().map(|&(k, _)| k).collect();
    let want_keys: Vec<u64> = want.iter().map(|&(k, _)| k).collect();
    assert_eq!(got_keys, want_keys);
    let mut got_sorted = xs.clone();
    got_sorted.sort_unstable();
    want.sort_unstable();
    assert_eq!(got_sorted, want);
}
