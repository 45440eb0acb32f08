//! Figure 11b — the backend crossover: batched RC-tree queries vs the
//! sequential link-cut baseline, per query family, across a batch-size
//! sweep.
//!
//! This is the experiment the paper frames its headline claim around:
//! answering a batch of k queries with one `O(k log(1 + n/k))` marked
//! sweep beats k independent `O(log n)` sequential operations once k is
//! large enough. Three series per family:
//!
//! * `rc_batched` — one native batch call on the RC forest;
//! * `rc_independent` — k single-query calls on the RC forest (each
//!   walks its own ancestor chains);
//! * `lct_sequential` — k single operations on the splay link-cut tree.
//!
//! All seven query families are swept (nearest-marked over one marked
//! set shared by both backends), plus cut+relink updates. The serve
//! tier's `rc_serve::BATCHED_FROM_K` size rule is read off the
//! default-scale run of this sweep.
//!
//! Writes `BENCH_crossover.json` (override with `RC_CROSSOVER_OUT`);
//! scale via `RC_BENCH_SCALE` (`tiny` for the CI smoke).

use rc_bench::{ms, scale, Table};
use rc_core::{BuildOptions, DynamicForest, RcForest, StdAgg};
use rc_gen::{ForestGenConfig, RequestStream, RequestStreamConfig};
use rc_lct::LctForest;
use rc_parlay::rng::SplitMix64;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const BACKENDS: [&str; 3] = ["rc_batched", "rc_independent", "lct_sequential"];

struct Sample {
    family: &'static str,
    backend: &'static str,
    k: usize,
    d: Duration,
}

/// Median of `reps` runs (more reps at small k to tame noise).
fn measure(k: usize, mut f: impl FnMut()) -> Duration {
    let reps = (2_000 / k.max(1)).clamp(1, 9);
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let n = match scale() {
        "large" => 1_000_000,
        "tiny" => 20_000,
        _ => 200_000,
    };
    let mut ks = rc_bench::batch_sizes();
    ks.push(ks.last().unwrap() * 10);
    println!("# Figure 11b — RC batched vs LCT sequential vs RC independent (n = {n})");

    // Degree-capped initial forest shared by both backends.
    let stream = RequestStream::new(RequestStreamConfig {
        forest: ForestGenConfig {
            n,
            seed: 0xF11B,
            max_weight: 1_000,
            ..Default::default()
        },
        ..Default::default()
    });
    let initial = stream.initial_edges();
    let mut rc = RcForest::<StdAgg>::build_edges(n, &initial, BuildOptions::default()).unwrap();
    let mut lct = LctForest::with_max_degree(n, Some(3));
    DynamicForest::batch_link(&mut lct, &initial).unwrap();

    let mut rng = SplitMix64::new(0xF11B_5EED);
    let mut samples: Vec<Sample> = Vec::new();
    let max_k = *ks.last().unwrap();
    let rnd = |rng: &mut SplitMix64| rng.next_below(n as u64) as u32;
    let pairs: Vec<(u32, u32)> = (0..max_k).map(|_| (rnd(&mut rng), rnd(&mut rng))).collect();
    let triples: Vec<(u32, u32, u32)> = (0..max_k)
        .map(|_| (rnd(&mut rng), rnd(&mut rng), rnd(&mut rng)))
        .collect();
    let subs: Vec<(u32, u32)> = (0..max_k)
        .map(|_| {
            let (u, v, _) = initial[rng.next_below(initial.len() as u64) as usize];
            if rng.next_f64() < 0.5 {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    let singles: Vec<u32> = (0..max_k).map(|_| rnd(&mut rng)).collect();
    // One marked set, identical on both backends, for nearest_marked.
    for _ in 0..64 {
        let m = rnd(&mut rng);
        DynamicForest::set_mark(&mut rc, m, true).unwrap();
        lct.set_mark(m, true).unwrap();
    }

    // ---- query families ----
    for family in [
        "connected",
        "representatives",
        "path_sum",
        "bottleneck",
        "lca",
        "subtree_sum",
        "nearest_marked",
    ] {
        let t = Table::new(
            &format!("{family} (n = {n})"),
            &[
                "k",
                "rc batched ms",
                "rc independent ms",
                "lct ms",
                "lct/batched",
            ],
        );
        for &k in &ks {
            let mut row: Vec<Duration> = Vec::new();
            for backend in BACKENDS {
                let d = match family {
                    "connected" => {
                        let q = &pairs[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_connected(&mut rc, q));
                            }),
                            "rc_independent" => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(DynamicForest::connected(&mut rc, u, v));
                                }
                            }),
                            _ => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(lct.connected(u, v));
                                }
                            }),
                        }
                    }
                    "representatives" => {
                        let q = &singles[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_representatives(
                                    &mut rc, q,
                                ));
                            }),
                            "rc_independent" => measure(k, || {
                                for &v in q {
                                    std::hint::black_box(DynamicForest::representative(&mut rc, v));
                                }
                            }),
                            _ => measure(k, || {
                                for &v in q {
                                    std::hint::black_box(lct.representative(v));
                                }
                            }),
                        }
                    }
                    "nearest_marked" => {
                        let q = &singles[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_nearest_marked(
                                    &mut rc, q,
                                ));
                            }),
                            "rc_independent" => measure(k, || {
                                for &v in q {
                                    std::hint::black_box(DynamicForest::nearest_marked(&mut rc, v));
                                }
                            }),
                            _ => measure(k, || {
                                for &v in q {
                                    std::hint::black_box(lct.nearest_marked(v));
                                }
                            }),
                        }
                    }
                    "path_sum" => {
                        let q = &pairs[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_path_sum(&mut rc, q));
                            }),
                            "rc_independent" => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(DynamicForest::path_sum(&mut rc, u, v));
                                }
                            }),
                            _ => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(lct.path_sum(u, v));
                                }
                            }),
                        }
                    }
                    "bottleneck" => {
                        let q = &pairs[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_path_extrema(&mut rc, q));
                            }),
                            "rc_independent" => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(DynamicForest::path_extrema(
                                        &mut rc, u, v,
                                    ));
                                }
                            }),
                            _ => measure(k, || {
                                for &(u, v) in q {
                                    std::hint::black_box(lct.path_extrema(u, v));
                                }
                            }),
                        }
                    }
                    "lca" => {
                        let q = &triples[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_lca(&mut rc, q));
                            }),
                            "rc_independent" => measure(k, || {
                                for &(u, v, r) in q {
                                    std::hint::black_box(DynamicForest::lca(&mut rc, u, v, r));
                                }
                            }),
                            _ => measure(k, || {
                                for &(u, v, r) in q {
                                    std::hint::black_box(lct.lca(u, v, r));
                                }
                            }),
                        }
                    }
                    _ => {
                        let q = &subs[..k];
                        match backend {
                            "rc_batched" => measure(k, || {
                                std::hint::black_box(DynamicForest::batch_subtree_sum(&mut rc, q));
                            }),
                            "rc_independent" => measure(k, || {
                                for &(v, p) in q {
                                    std::hint::black_box(DynamicForest::subtree_sum(&mut rc, v, p));
                                }
                            }),
                            _ => measure(k, || {
                                for &(v, p) in q {
                                    std::hint::black_box(lct.subtree_sum(v, p));
                                }
                            }),
                        }
                    }
                };
                samples.push(Sample {
                    family,
                    backend,
                    k,
                    d,
                });
                row.push(d);
            }
            t.row(&[
                k.to_string(),
                ms(row[0]),
                ms(row[1]),
                ms(row[2]),
                format!(
                    "{:.2}",
                    row[2].as_secs_f64() / row[0].as_secs_f64().max(1e-12)
                ),
            ]);
        }
    }

    // ---- update family: cut k edges, relink them ----
    {
        let t = Table::new(
            &format!("updates: cut+relink (n = {n})"),
            &[
                "k",
                "rc batched ms",
                "rc independent ms",
                "lct ms",
                "lct/batched",
            ],
        );
        for &k in &ks {
            let k = k.min(initial.len());
            // Distinct random edges of the (restored) initial forest.
            let mut idx: Vec<usize> = (0..initial.len()).collect();
            for i in 0..k {
                let j = i + rng.next_below((idx.len() - i) as u64) as usize;
                idx.swap(i, j);
            }
            let batch: Vec<(u32, u32, u64)> = idx[..k].iter().map(|&i| initial[i]).collect();
            let cuts: Vec<(u32, u32)> = batch.iter().map(|&(u, v, _)| (u, v)).collect();
            let mut row: Vec<Duration> = Vec::new();
            // rc batched: one batch_cut + one batch_link.
            let t0 = Instant::now();
            DynamicForest::batch_cut(&mut rc, &cuts).unwrap();
            DynamicForest::batch_link(&mut rc, &batch).unwrap();
            row.push(t0.elapsed());
            // rc independent: singles.
            let t0 = Instant::now();
            for &(u, v) in &cuts {
                DynamicForest::cut(&mut rc, u, v).unwrap();
            }
            for &(u, v, w) in &batch {
                DynamicForest::link(&mut rc, u, v, w).unwrap();
            }
            row.push(t0.elapsed());
            // lct: singles.
            let t0 = Instant::now();
            for &(u, v) in &cuts {
                lct.cut(u, v).unwrap();
            }
            for &(u, v, w) in &batch {
                lct.link(u, v, w).unwrap();
            }
            row.push(t0.elapsed());
            for (i, backend) in BACKENDS.iter().enumerate() {
                samples.push(Sample {
                    family: "updates",
                    backend,
                    k,
                    d: row[i],
                });
            }
            t.row(&[
                k.to_string(),
                ms(row[0]),
                ms(row[1]),
                ms(row[2]),
                format!(
                    "{:.2}",
                    row[2].as_secs_f64() / row[0].as_secs_f64().max(1e-12)
                ),
            ]);
        }
    }

    // ---- BENCH_crossover.json ----
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig11b_backends\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(
        json,
        "  \"backends\": [\"rc_batched\", \"rc_independent\", \"lct_sequential\"],"
    );
    let _ = writeln!(json, "  \"series\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let secs = s.d.as_secs_f64();
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"backend\": \"{}\", \"k\": {}, \"ms\": {:.4}, \
             \"ops_per_sec\": {:.1}}}{comma}",
            s.family,
            s.backend,
            s.k,
            secs * 1e3,
            s.k as f64 / secs.max(1e-12),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("RC_CROSSOVER_OUT").unwrap_or_else(|_| "BENCH_crossover.json".into());
    std::fs::write(&out, json).expect("write BENCH_crossover.json");
    println!("\nwrote {out}");
}
