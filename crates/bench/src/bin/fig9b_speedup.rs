//! Figure 9b — end-to-end speedup vs thread count on the persistent pool.
//!
//! This bin sweeps **threads × {build, updates, each query family}** on
//! both the RC forest and the ternary forest, and writes the
//! machine-readable `BENCH_speedup.json` so the repo's multi-thread perf
//! trajectory is tracked from the moment the executor became a real
//! pool. The paper's Fig. 9 frames the same claim: batched
//! dynamic-tree operations should scale with threads.
//!
//! Per (backend, family, threads) cell the JSON records the median wall
//! time and the speedup against the 1-thread run of the same cell.
//! `machine_parallelism` is recorded too: on hosts with fewer cores than
//! the sweep's thread counts the pool is oversubscribed and speedups
//! flatten at the hardware limit — the field is what makes those numbers
//! interpretable.
//!
//! Output: `BENCH_speedup.json` (override with `RC_SPEEDUP_OUT`); scale
//! via `RC_BENCH_SCALE` (`tiny` for the CI smoke).

use rc_bench::{ms, scale, speedup_thread_counts, with_threads, Table};
use rc_core::{BuildOptions, DynamicForest, RcForest, StdAgg};
use rc_gen::{ForestGenConfig, RequestStream, RequestStreamConfig};
use rc_parlay::rng::SplitMix64;
use rc_ternary::TernaryStdForest;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const FAMILIES: [&str; 6] = [
    "build",
    "updates",
    "connected",
    "path_sum",
    "lca",
    "subtree_sum",
];

struct Sample {
    backend: &'static str,
    family: &'static str,
    threads: usize,
    d: Duration,
}

/// Median of `reps` runs.
fn measure(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Workload shared by both backends.
struct Workload {
    n: usize,
    initial: Vec<(u32, u32, u64)>,
    pairs: Vec<(u32, u32)>,
    triples: Vec<(u32, u32, u32)>,
    subs: Vec<(u32, u32)>,
    cut_batch: Vec<(u32, u32, u64)>,
}

impl Workload {
    fn generate(n: usize, k: usize) -> Workload {
        let stream = RequestStream::new(RequestStreamConfig {
            forest: ForestGenConfig {
                n,
                seed: 0xF19B,
                max_weight: 1_000,
                ..Default::default()
            },
            ..Default::default()
        });
        let initial = stream.initial_edges();
        let mut rng = SplitMix64::new(0xF19B_5EED);
        let rnd = |rng: &mut SplitMix64| rng.next_below(n as u64) as u32;
        let pairs: Vec<(u32, u32)> = (0..k).map(|_| (rnd(&mut rng), rnd(&mut rng))).collect();
        let triples: Vec<(u32, u32, u32)> = (0..k)
            .map(|_| (rnd(&mut rng), rnd(&mut rng), rnd(&mut rng)))
            .collect();
        let subs: Vec<(u32, u32)> = (0..k)
            .map(|_| {
                let (u, v, _) = initial[rng.next_below(initial.len() as u64) as usize];
                if rng.next_f64() < 0.5 {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect();
        // Distinct random edges of the initial forest for the update family.
        let mut idx: Vec<usize> = (0..initial.len()).collect();
        let kk = k.min(initial.len());
        for i in 0..kk {
            let j = i + rng.next_below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        let cut_batch: Vec<(u32, u32, u64)> = idx[..kk].iter().map(|&i| initial[i]).collect();
        Workload {
            n,
            initial,
            pairs,
            triples,
            subs,
            cut_batch,
        }
    }
}

/// Run every family at `threads` threads on one backend; `build` constructs
/// a fresh forest from the initial edges (timed as the "build" family).
fn run_backend<B, F>(w: &Workload, threads: usize, reps: usize, build: F) -> Vec<Duration>
where
    B: DynamicForest,
    F: Fn(&Workload) -> B + Sync + Send,
{
    with_threads(threads, || {
        let mut out = Vec::with_capacity(FAMILIES.len());
        // build — the previous rep's forest is dropped *outside* the timed
        // region: deallocation is sequential and would otherwise dampen
        // the build family's speedup at every thread count.
        let mut forest = None;
        let mut times: Vec<Duration> = (0..reps.max(1))
            .map(|_| {
                forest = None;
                let t0 = Instant::now();
                forest = Some(build(w));
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        out.push(times[times.len() / 2]);
        let mut f = forest.expect("build ran at least once");
        // updates: cut a batch of tree edges, then relink them (forest is
        // restored, so the query families below see the same structure).
        let cuts: Vec<(u32, u32)> = w.cut_batch.iter().map(|&(u, v, _)| (u, v)).collect();
        out.push(measure(reps, || {
            f.batch_cut(&cuts).expect("cut existing edges");
            f.batch_link(&w.cut_batch).expect("relink the same edges");
        }));
        // query families
        out.push(measure(reps, || {
            std::hint::black_box(f.batch_connected(&w.pairs));
        }));
        out.push(measure(reps, || {
            std::hint::black_box(f.batch_path_sum(&w.pairs));
        }));
        out.push(measure(reps, || {
            std::hint::black_box(f.batch_lca(&w.triples));
        }));
        out.push(measure(reps, || {
            std::hint::black_box(f.batch_subtree_sum(&w.subs));
        }));
        out
    })
}

fn main() {
    let (n, reps) = match scale() {
        "large" => (1_000_000, 3),
        "tiny" => (20_000, 3),
        _ => (200_000, 3),
    };
    let k = match scale() {
        "large" => 100_000,
        "tiny" => 1_000,
        _ => 10_000,
    };
    let threads = speedup_thread_counts();
    let machine = std::thread::available_parallelism().map_or(1, |x| x.get());
    println!(
        "# Figure 9b — speedup vs threads (n = {n}, k = {k}, machine parallelism = {machine})"
    );

    let w = Workload::generate(n, k);
    let mut samples: Vec<Sample> = Vec::new();

    for backend in ["rc", "ternary"] {
        let t = Table::new(
            &format!("{backend} (n = {n}, k = {k})"),
            &[
                "threads",
                "build ms",
                "updates ms",
                "connected ms",
                "path_sum ms",
                "lca ms",
                "subtree_sum ms",
            ],
        );
        // Untimed warmup: the first-ever build in the process pays the
        // allocator's page faults, which would otherwise be billed to the
        // 1-thread cells and fake a "speedup" at higher thread counts.
        let _ = match backend {
            "rc" => run_backend(&w, 1, 1, |w: &Workload| {
                RcForest::<StdAgg>::build_edges(w.n, &w.initial, BuildOptions::default())
                    .expect("valid initial forest")
            }),
            _ => run_backend(&w, 1, 1, |w: &Workload| {
                let mut f = TernaryStdForest::new_std(w.n);
                DynamicForest::batch_link(&mut f, &w.initial).expect("valid initial forest");
                f
            }),
        };
        for &threads in &threads {
            let ds = match backend {
                "rc" => run_backend(&w, threads, reps, |w: &Workload| {
                    RcForest::<StdAgg>::build_edges(w.n, &w.initial, BuildOptions::default())
                        .expect("valid initial forest")
                }),
                _ => run_backend(&w, threads, reps, |w: &Workload| {
                    let mut f = TernaryStdForest::new_std(w.n);
                    DynamicForest::batch_link(&mut f, &w.initial).expect("valid initial forest");
                    f
                }),
            };
            let mut row = vec![threads.to_string()];
            for (family, &d) in FAMILIES.iter().zip(&ds) {
                samples.push(Sample {
                    backend,
                    family,
                    threads,
                    d,
                });
                row.push(ms(d));
            }
            t.row(&row);
        }
    }

    // ---- BENCH_speedup.json ----
    let base_ms = |backend: &str, family: &str| {
        samples
            .iter()
            .find(|s| s.backend == backend && s.family == family && s.threads == 1)
            .map(|s| s.d.as_secs_f64())
            .unwrap_or(0.0)
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig9b_speedup\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"k\": {k},");
    let _ = writeln!(json, "  \"machine_parallelism\": {machine},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"series\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let secs = s.d.as_secs_f64();
        let speedup = base_ms(s.backend, s.family) / secs.max(1e-12);
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"family\": \"{}\", \"threads\": {}, \"ms\": {:.4}, \
             \"speedup_vs_1t\": {:.3}}}{comma}",
            s.backend,
            s.family,
            s.threads,
            secs * 1e3,
            speedup,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("RC_SPEEDUP_OUT").unwrap_or_else(|_| "BENCH_speedup.json".into());
    std::fs::write(&out, json).expect("write BENCH_speedup.json");
    println!("\nwrote {out}");
}
