//! `msf_stream`: batch-incremental minimum spanning forest.
//!
//! Setup warms an `IncrementalMsf` on n = 100 000 vertices with one
//! spanning batch (a generated spanning tree). The timed phase is a tape
//! of random weighted edge batches, k cycling over {10, 100, 1 000,
//! 10 000}. The stream gets cheaper as it goes (fewer offered edges beat
//! the forest's falling weights), so the tape is cut into rounds of
//! [`ROUND_CYCLES`] cycles, each on a freshly warmed structure: every
//! round sees the stream at the same positions however fast the machine
//! is. After each round the maintained total weight must equal Kruskal's
//! over the round's warm-up and offered edges.

use crate::report::{block_median, median, ms, peak_rss_mib, rate, Outcome, Timed};
use crate::trace::{Tracer, ROOT};
use crate::{note, Args};
use rc_gen::{ForestGenConfig, GeneratedForest};
use rc_msf::{kruskal, BatchStats, BatchTimings, IncrementalMsf};
use rc_parlay::rng::SplitMix64;
use std::time::{Duration, Instant};

pub const N: usize = 100_000;
pub const KS: [usize; 4] = [10, 100, 1_000, 10_000];
const MAX_WEIGHT: u64 = 1 << 40;
/// k-cycles per round.
const ROUND_CYCLES: usize = 4;
/// Rounds run at least, so that set-up time is a median of several.
const MIN_ROUNDS: usize = 3;

type Edge = (u32, u32, u64);

/// The generated input: the warm-up spanning batch and a generator of
/// further random edges.
pub struct Scenario {
    pub n: usize,
    pub warm: Vec<Edge>,
    gen: GeneratedForest,
    weights: SplitMix64,
}

impl Scenario {
    pub fn new(n: usize, seed: u64) -> Self {
        let gen = GeneratedForest::generate(ForestGenConfig {
            n,
            max_weight: MAX_WEIGHT,
            seed,
            ..Default::default()
        });
        Scenario {
            n,
            warm: gen.edges(),
            gen,
            weights: SplitMix64::new(seed ^ 0x3E16_4700),
        }
    }

    /// `k` random weighted edges between distinct vertices.
    pub fn batch(&mut self, k: usize) -> Vec<Edge> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            for (u, v) in self.gen.query_pairs(k - out.len()) {
                if u != v {
                    out.push((u, v, 1 + self.weights.next_below(MAX_WEIGHT - 1)));
                }
            }
        }
        out
    }
}

/// Total weight of the minimum spanning forest of `edges`.
pub fn kruskal_weight(n: usize, edges: &[Edge]) -> u64 {
    kruskal(n, edges).into_iter().map(|i| edges[i].2).sum()
}

/// A fresh structure warmed with the spanning batch.
fn warm(sc: &Scenario, tracer: &mut Tracer, parent: u32, id: u64) -> (IncrementalMsf, Duration) {
    let t0 = Instant::now();
    let mut msf = IncrementalMsf::new(sc.n);
    msf.insert_batch(&sc.warm);
    let t1 = Instant::now();
    tracer.record(
        "build.warm_insert",
        id,
        parent,
        t0,
        t1,
        sc.warm.len() as u64,
    );
    (msf, t1 - t0)
}

/// One round's insert calls: timing, stats and the structure's own phase
/// timings.
type Calls = Vec<(Timed, BatchStats, BatchTimings)>;

/// Warm a fresh structure and insert round `r`'s batches in order, each
/// call timed and (when on) traced. Returns the calls, the warm-up time
/// and the final total weight.
fn run_round(
    sc: &Scenario,
    r: usize,
    batches: &[Vec<Edge>],
    tracer: &mut Tracer,
) -> (Calls, Duration, u64) {
    let span = tracer.open("round", r as u64, ROOT);
    let (mut msf, warm_took) = warm(sc, tracer, span, r as u64);
    let mut calls = Vec::with_capacity(batches.len());
    for (i, b) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let (stats, timings) = msf.insert_batch_timed(b);
        let t1 = Instant::now();
        let id = (r * batches.len() + i) as u64;
        tracer.record("msf.insert_batch", id, span, t0, t1, b.len() as u64);
        let t = Timed {
            block: r,
            k: b.len(),
            took: t1 - t0,
        };
        calls.push((t, stats, timings));
    }
    tracer.close(span, batches.iter().map(|b| b.len() as u64).sum());
    (calls, warm_took, msf.total_weight())
}

/// Kruskal's total weight over the warm-up batch and `batches`.
fn reference_weight(sc: &Scenario, batches: &[Vec<Edge>]) -> u64 {
    let mut all = sc.warm.clone();
    all.extend(batches.iter().flatten().copied());
    kruskal_weight(sc.n, &all)
}

fn timed(calls: &Calls) -> impl Iterator<Item = Timed> + '_ {
    calls.iter().map(|c| c.0)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut sc = Scenario::new(N, args.seed);
    note!(
        "msf_stream: n={N} warm edges={} seed={}",
        sc.warm.len(),
        args.seed
    );

    // The untraced tape: rounds are generated (untimed) and run until the
    // time spent inside insert calls reaches the budget.
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let mut rounds: Vec<Vec<Vec<Edge>>> = Vec::new();
    let mut calls: Vec<Timed> = Vec::new();
    let mut setups = Vec::new();
    let mut weights = Vec::new();
    let mut spent = Duration::ZERO;
    let mut peak = 0.0;
    while spent < args.budget() || rounds.len() < MIN_ROUNDS {
        let batches: Vec<Vec<Edge>> = (0..ROUND_CYCLES)
            .flat_map(|_| KS)
            .map(|k| sc.batch(k))
            .collect();
        let (round, warm_took, weight) = run_round(&sc, rounds.len(), &batches, tracer);
        if rounds.is_empty() {
            // Later rounds rebuild the structure; their fragmentation, and
            // so the high-water mark, would grow with the number of rounds
            // the machine's speed allows.
            peak = peak_rss_mib();
        }
        spent += timed(&round).map(|c| c.took).sum::<Duration>();
        calls.extend(timed(&round));
        setups.push(warm_took.as_secs_f64());
        weights.push(weight);
        rounds.push(batches);
    }
    tracer.set_enabled(traced);
    let offered: u64 = calls.iter().map(|c| c.k as u64).sum();
    let small: Vec<f64> = calls
        .iter()
        .filter(|c| c.k == KS[0])
        .map(|c| ms(c.took))
        .collect();
    let rates: Vec<String> = calls
        .chunk_by(|a, b| a.block == b.block)
        .map(|b| format!("{:.0}", rate(b)))
        .collect();
    note!(
        "tape: {} rounds, {offered} edges in {:.3} s; per-round edges/s: {}",
        rounds.len(),
        spent.as_secs_f64(),
        rates.join(" ")
    );

    // Correctness: each round's total weight against Kruskal.
    let wants: Vec<u64> = rounds.iter().map(|b| reference_weight(&sc, b)).collect();
    let mut failed = weights
        .iter()
        .zip(&wants)
        .filter(|(got, want)| got != want)
        .count() as u64;
    note!(
        "{} of {} round totals differ from Kruskal",
        failed,
        rounds.len()
    );
    out.attempted = offered;
    out.failed = failed;

    if !tracer.enabled() {
        out.put("setup_s", median(&setups), "s");
        out.put("ops_per_s", block_median(&calls, rate), "1/s");
        out.put("small_batch_p50_ms", median(&small), "ms");
        out.put("peak_rss_mb", peak, "MiB");
        return out;
    }

    // Traced run: the same rounds again with spans on, then the first
    // half of them on a one-thread pool.
    let mut traced_calls: Calls = Vec::new();
    for (r, batches) in rounds.iter().enumerate() {
        let (round, _, weight) = run_round(&sc, r, batches, tracer);
        failed += u64::from(weight != wants[r]);
        traced_calls.extend(round);
    }
    let half = rounds.len().div_ceil(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let mut off = Tracer::new(false, tracer.origin());
    let one: Vec<Timed> = pool.install(|| {
        (0..half)
            .flat_map(|r| run_round(&sc, r, &rounds[r], &mut off).0)
            .map(|c| c.0)
            .collect()
    });
    let par_half: Vec<Timed> = calls.iter().filter(|c| c.block < half).copied().collect();
    out.failed = failed;

    let per_edge = |name: &str, k: Option<usize>| {
        tracer.ns_per_op(|s| s.name == name && k.is_none_or(|k| s.ops == k as u64))
    };
    out.put(
        "build.ns_per_edge",
        per_edge("build.warm_insert", None),
        "ns",
    );
    out.put(
        "msf.insert.ns_per_edge",
        per_edge("msf.insert_batch", None),
        "ns",
    );
    for k in [KS[0], KS[3]] {
        out.put(
            format!("msf.k{k}.ns_per_edge"),
            per_edge("msf.insert_batch", Some(k)),
            "ns",
        );
    }
    let sum = |f: fn(&BatchTimings) -> Duration| -> f64 {
        traced_calls.iter().map(|c| f(&c.2).as_secs_f64()).sum()
    };
    let total = sum(|t| t.total);
    out.put("msf.cpt_share", sum(|t| t.cpt) / total, "ratio");
    out.put("msf.kruskal_share", sum(|t| t.kruskal) / total, "ratio");
    out.put(
        "msf.forest_update_share",
        sum(|t| t.forest_update) / total,
        "ratio",
    );
    let cpt_vertices: usize = traced_calls.iter().map(|c| c.1.cpt_vertices).sum();
    let evicted: usize = traced_calls.iter().map(|c| c.1.evicted).sum();
    out.put(
        "msf.cpt_vertices_per_endpoint",
        cpt_vertices as f64 / (2 * offered) as f64,
        "ratio",
    );
    out.put(
        "msf.evicted_per_edge",
        evicted as f64 / offered as f64,
        "ratio",
    );
    out.put("pool.speedup_vs_1t", rate(&par_half) / rate(&one), "x");
    let traced_calls: Vec<Timed> = timed(&traced_calls).collect();
    out.put(
        "bench.trace_overhead",
        rate(&calls) / rate(&traced_calls) - 1.0,
        "ratio",
    );
    out.put(
        "failed_frac",
        failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_weight_matches_kruskal_and_a_corrupted_total_does_not() {
        let mut sc = Scenario::new(2_000, 5);
        let mut msf = IncrementalMsf::new(sc.n);
        msf.insert_batch(&sc.warm);
        let mut all = sc.warm.clone();
        for k in [10, 100, 1_000] {
            let b = sc.batch(k);
            msf.insert_batch(&b);
            all.extend(b);
        }
        let want = kruskal_weight(sc.n, &all);
        assert_eq!(msf.total_weight(), want);
        assert_ne!(msf.total_weight() + 1, want);
        // Dropping one offered edge from the reference changes it too,
        // when that edge is in the forest.
        let kept = kruskal(sc.n, &all)[0];
        all.remove(kept);
        assert_ne!(kruskal_weight(sc.n, &all), want);
    }
}
