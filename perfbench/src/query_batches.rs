//! `query_batches`: the batch query engine over a static forest.
//!
//! Setup builds an arbitrary-degree forest (`paper_configs` C1, n =
//! 200 000, with a few connectors detached so that it has several trees)
//! as a `TernaryStdForest` through `DynamicForest::batch_link`, and marks
//! a handful of vertices. The timed phase is a tape of blocks; each block
//! calls every query family at every k in {10, 100, 1 000, 10 000} once,
//! in a seeded order. Every answer is checked afterwards against a
//! link-cut tree holding the same forest.

use crate::report::{block_median, median, ms, peak_rss_mib, rate, Outcome, Timed};
use crate::trace::{Tracer, ROOT};
use crate::{note, Args};
use rc_core::{DynamicForest, PathSummary, Vertex};
use rc_gen::{paper_configs, ForestGenConfig, GeneratedForest};
use rc_lct::LctForest;
use rc_parlay::rng::SplitMix64;
use rc_ternary::TernaryStdForest;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub const N: usize = 200_000;
pub const KS: [usize; 4] = [10, 100, 1_000, 10_000];
/// Trees in the forest: this many minus one connectors are detached.
const TREES: usize = 64;
/// The link-cut reference answers nearest-marked by scanning the marks.
const MARKS: usize = 8;
/// Edge weights are drawn from `1..MAX_WEIGHT`, so that path extrema do
/// not tie (the ternary backend breaks ties on inner ids).
const MAX_WEIGHT: u64 = 1 << 40;
const SETUPS: usize = 3;

pub const FAMILIES: [&str; 7] = [
    "connected",
    "representatives",
    "path_sum",
    "path_extrema",
    "lca",
    "subtree_sum",
    "nearest_marked",
];
/// Span name of each family's batch call.
const SPANS: [&str; 7] = [
    "query.connected",
    "query.representatives",
    "query.path_sum",
    "query.path_extrema",
    "query.lca",
    "query.subtree_sum",
    "query.nearest_marked",
];

/// One batch call's input.
#[derive(Clone, Debug)]
pub enum Query {
    Connected(Vec<(Vertex, Vertex)>),
    Representatives(Vec<Vertex>),
    PathSum(Vec<(Vertex, Vertex)>),
    PathExtrema(Vec<(Vertex, Vertex)>),
    Lca(Vec<(Vertex, Vertex, Vertex)>),
    SubtreeSum(Vec<(Vertex, Vertex)>),
    NearestMarked(Vec<Vertex>),
}

impl Query {
    pub fn family(&self) -> usize {
        match self {
            Query::Connected(_) => 0,
            Query::Representatives(_) => 1,
            Query::PathSum(_) => 2,
            Query::PathExtrema(_) => 3,
            Query::Lca(_) => 4,
            Query::SubtreeSum(_) => 5,
            Query::NearestMarked(_) => 6,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Query::Connected(q)
            | Query::PathSum(q)
            | Query::PathExtrema(q)
            | Query::SubtreeSum(q) => q.len(),
            Query::Representatives(q) | Query::NearestMarked(q) => q.len(),
            Query::Lca(q) => q.len(),
        }
    }

    /// Answer through the batch entry point of `f`.
    pub fn batch<F: DynamicForest>(&self, f: &mut F) -> Answers {
        match self {
            Query::Connected(q) => Answers::Bool(f.batch_connected(q)),
            Query::Representatives(q) => Answers::Vertex(f.batch_representatives(q)),
            Query::PathSum(q) => Answers::Sum(f.batch_path_sum(q)),
            Query::PathExtrema(q) => Answers::Extrema(f.batch_path_extrema(q)),
            Query::Lca(q) => Answers::Vertex(f.batch_lca(q)),
            Query::SubtreeSum(q) => Answers::Sum(f.batch_subtree_sum(q)),
            Query::NearestMarked(q) => Answers::Near(f.batch_nearest_marked(q)),
        }
    }

    /// Answer one query at a time through the single-query methods.
    pub fn singly<F: DynamicForest>(&self, f: &mut F) -> Answers {
        match self {
            Query::Connected(q) => {
                Answers::Bool(q.iter().map(|&(u, v)| f.connected(u, v)).collect())
            }
            Query::Representatives(q) => {
                Answers::Vertex(q.iter().map(|&v| f.representative(v)).collect())
            }
            Query::PathSum(q) => Answers::Sum(q.iter().map(|&(u, v)| f.path_sum(u, v)).collect()),
            Query::PathExtrema(q) => {
                Answers::Extrema(q.iter().map(|&(u, v)| f.path_extrema(u, v)).collect())
            }
            Query::Lca(q) => Answers::Vertex(q.iter().map(|&(u, v, r)| f.lca(u, v, r)).collect()),
            Query::SubtreeSum(q) => {
                Answers::Sum(q.iter().map(|&(v, p)| f.subtree_sum(v, p)).collect())
            }
            Query::NearestMarked(q) => {
                Answers::Near(q.iter().map(|&v| f.nearest_marked(v)).collect())
            }
        }
    }
}

/// One batch call's answers.
#[derive(Clone, Debug, PartialEq)]
pub enum Answers {
    Bool(Vec<bool>),
    Vertex(Vec<Option<Vertex>>),
    Sum(Vec<Option<u64>>),
    Extrema(Vec<Option<PathSummary>>),
    Near(Vec<Option<(u64, Vertex)>>),
}

fn differing<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let common = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (common + got.len().abs_diff(want.len())) as u64
}

/// Number of wrong answers in `got`, judged against the reference
/// answers `want` for the same batch. Representatives are compared as the
/// partition they induce (the backends name components differently): two
/// queries share a representative in `got` iff they share one in `want`.
pub fn mismatches(q: &Query, got: &Answers, want: &Answers) -> u64 {
    match (q, got, want) {
        (Query::Representatives(_), Answers::Vertex(g), Answers::Vertex(w)) => {
            if g.len() != w.len() {
                return g.len().abs_diff(w.len()) as u64;
            }
            let mut fwd: HashMap<Option<Vertex>, Option<Vertex>> = HashMap::new();
            let mut back: HashMap<Option<Vertex>, Option<Vertex>> = HashMap::new();
            let mut bad = 0;
            for (&gr, &wr) in g.iter().zip(w) {
                let same_class =
                    *fwd.entry(gr).or_insert(wr) == wr && *back.entry(wr).or_insert(gr) == gr;
                if !same_class || gr.is_some() != wr.is_some() {
                    bad += 1;
                }
            }
            bad
        }
        (_, Answers::Bool(g), Answers::Bool(w)) => differing(g, w),
        (_, Answers::Vertex(g), Answers::Vertex(w)) => differing(g, w),
        (_, Answers::Sum(g), Answers::Sum(w)) => differing(g, w),
        (_, Answers::Extrema(g), Answers::Extrema(w)) => differing(g, w),
        (_, Answers::Near(g), Answers::Near(w)) => differing(g, w),
        _ => q.len() as u64,
    }
}

/// The generated input: forest edges, marks, and the generator that
/// keeps drawing query inputs over the same forest.
pub struct Scenario {
    pub n: usize,
    pub edges: Vec<(Vertex, Vertex, u64)>,
    pub marks: Vec<Vertex>,
    gen: GeneratedForest,
    order_rng: SplitMix64,
}

impl Scenario {
    pub fn new(n: usize, seed: u64) -> Self {
        let (_, c1) = paper_configs(n, seed)
            .into_iter()
            .find(|(name, _)| name.starts_with("C1"))
            .expect("paper_configs has C1");
        let mut gen = GeneratedForest::generate(ForestGenConfig {
            max_weight: MAX_WEIGHT,
            ..c1
        });
        gen.delete_batch(TREES - 1);
        let edges = gen.edges();
        let mut marks: Vec<Vertex> = gen.query_pairs(MARKS).into_iter().map(|(v, _)| v).collect();
        marks.sort_unstable();
        marks.dedup();
        Scenario {
            n,
            edges,
            marks,
            gen,
            order_rng: SplitMix64::new(seed ^ 0x0B10_C4ED),
        }
    }

    /// The next block: every family at every k once, in seeded order.
    pub fn block(&mut self, ks: &[usize]) -> Vec<Query> {
        let mut cells: Vec<(usize, usize)> = (0..FAMILIES.len())
            .flat_map(|f| ks.iter().map(move |&k| (f, k)))
            .collect();
        for i in (1..cells.len()).rev() {
            let j = self.order_rng.next_below(i as u64 + 1) as usize;
            cells.swap(i, j);
        }
        cells.into_iter().map(|(f, k)| self.query(f, k)).collect()
    }

    fn query(&mut self, family: usize, k: usize) -> Query {
        let g = &mut self.gen;
        let firsts =
            |g: &mut GeneratedForest| g.query_pairs(k).into_iter().map(|(v, _)| v).collect();
        match family {
            0 => Query::Connected(g.query_pairs(k)),
            1 => Query::Representatives(firsts(g)),
            2 => Query::PathSum(g.query_pairs(k)),
            3 => Query::PathExtrema(g.query_pairs(k)),
            4 => Query::Lca(g.query_triples(k)),
            5 => Query::SubtreeSum(g.query_subtrees(k)),
            _ => Query::NearestMarked(firsts(g)),
        }
    }
}

/// Input → ready structure: the timed setup.
pub fn build<F: DynamicForest>(mut f: F, sc: &Scenario) -> F {
    f.batch_link(&sc.edges).expect("generated forest links");
    for &m in &sc.marks {
        f.set_mark(m, true).expect("marks are in range");
    }
    f
}

/// Run `block` (number `id` of the tape) through `f`, each call timed
/// and, when the tracer is on, traced. Returns the answers.
fn run_block(
    f: &mut TernaryStdForest,
    block: &[Query],
    id: usize,
    calls: &mut Vec<Timed>,
    tracer: &mut Tracer,
    parent: u32,
) -> Vec<Answers> {
    let span = tracer.open("block", id as u64, parent);
    let mut answers = Vec::with_capacity(block.len());
    for q in block {
        let t0 = Instant::now();
        let a = q.batch(f);
        let t1 = Instant::now();
        let call = calls.len() as u64;
        tracer.record(SPANS[q.family()], call, span, t0, t1, q.len() as u64);
        calls.push(Timed {
            block: id,
            k: q.len(),
            took: t1 - t0,
        });
        answers.push(a);
    }
    tracer.close(span, block.iter().map(|q| q.len() as u64).sum());
    answers
}

/// Link-cut trees holding the scenario's forest, one per core (at most
/// four), built in parallel.
fn references(sc: &Scenario) -> Vec<LctForest> {
    let cores = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    std::thread::scope(|s| {
        let builds: Vec<_> = (0..cores)
            .map(|_| s.spawn(|| build(LctForest::new(sc.n), sc)))
            .collect();
        builds
            .into_iter()
            .map(|b| b.join().expect("reference build"))
            .collect()
    })
}

/// Number of wrong answers in `answers` to `block`; the references split
/// the calls between them.
fn check(block: &[Query], answers: &[Answers], refs: &mut [LctForest]) -> u64 {
    let chunk = block.len().div_ceil(refs.len()).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = block
            .chunks(chunk)
            .zip(answers.chunks(chunk))
            .zip(refs.iter_mut())
            .map(|((qs, got), reference)| {
                s.spawn(move || {
                    qs.iter()
                        .zip(got)
                        .map(|(q, g)| mismatches(q, g, &q.batch(reference)))
                        .sum::<u64>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("check thread"))
            .sum()
    })
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut sc = Scenario::new(N, args.seed);
    note!(
        "query_batches: n={} edges={} marks={} seed={}",
        sc.n,
        sc.edges.len(),
        sc.marks.len(),
        args.seed
    );
    let mut refs = references(&sc);

    // Setup, several times; the last forest serves the tape.
    let setup_span = tracer.open("setup", 0, ROOT);
    let mut setups = Vec::new();
    let mut forest = None;
    for i in 0..SETUPS {
        drop(forest.take());
        let t0 = Instant::now();
        let f = build(TernaryStdForest::new_std(sc.n), &sc);
        let t1 = Instant::now();
        let edges = sc.edges.len() as u64;
        tracer.record("build.batch_link", i as u64, setup_span, t0, t1, edges);
        setups.push((t1 - t0).as_secs_f64());
        forest = Some(f);
    }
    tracer.close(setup_span, sc.edges.len() as u64);
    let mut forest = forest.expect("built");

    // The untraced tape: blocks are generated and, after each, checked
    // against the references (both untimed) until the time spent inside
    // batch calls reaches the budget. Answers are not kept, so memory
    // does not grow with the length of the tape.
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let mut calls: Vec<Timed> = Vec::new();
    let mut kept: Vec<Vec<Query>> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut failed = 0;
    let mut id = 0;
    while spent < args.budget() {
        let block = sc.block(&KS);
        let first = calls.len();
        let answers = run_block(&mut forest, &block, id, &mut calls, tracer, ROOT);
        spent += calls[first..].iter().map(|c| c.took).sum::<Duration>();
        failed += check(&block, &answers, &mut refs);
        if traced {
            kept.push(block);
        }
        id += 1;
    }
    tracer.set_enabled(traced);
    let peak = peak_rss_mib();
    let ops: u64 = calls.iter().map(|c| c.k as u64).sum();
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
        "tape: {id} blocks, {ops} answers in {:.3} s, {failed} wrong against rc-lct; per-block ops/s: {}",
        spent.as_secs_f64(),
        rates.join(" ")
    );
    out.attempted = ops;
    out.failed = failed;

    if !tracer.enabled() {
        out.put("setup_s", median(&setups), "s");
        out.put("ops_per_s", block_median(&calls, rate), "1/s");
        out.put("small_batch_p50_ms", median(&small), "ms");
        out.put("peak_rss_mb", peak, "MiB");
        return out;
    }
    drop(refs);

    // Traced run: each block again untraced and then traced, back to
    // back (the untraced pass above was interleaved with checks, which
    // disturb the caches), then the first half on a one-thread pool.
    let root = tracer.open("tape", 0, ROOT);
    let mut plain = Vec::new();
    let mut traced_calls = Vec::new();
    let mut off = Tracer::new(false, tracer.origin());
    for (b, block) in kept.iter().enumerate() {
        run_block(&mut forest, block, b, &mut plain, &mut off, ROOT);
        run_block(&mut forest, block, b, &mut traced_calls, tracer, root);
    }
    tracer.close(root, ops);
    let half = kept.len().div_ceil(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let mut one = Vec::new();
    pool.install(|| {
        for (b, block) in kept[..half].iter().enumerate() {
            run_block(&mut forest, block, b, &mut one, &mut off, ROOT);
        }
    });
    let plain_half: Vec<Timed> = plain.iter().filter(|c| c.block < half).copied().collect();

    // Single-query reference at the smallest k.
    let single_root = tracer.open("single", 0, ROOT);
    let smallest = kept.iter().flatten().filter(|q| q.len() == KS[0]);
    for (i, q) in smallest.enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(q.singly(&mut forest));
        let t1 = Instant::now();
        tracer.record(
            "query.single",
            i as u64,
            single_root,
            t0,
            t1,
            q.len() as u64,
        );
    }
    tracer.close(single_root, 0);

    let per_op = |name: &str| tracer.ns_per_op(|s| s.name == name);
    for (f, span) in FAMILIES.iter().zip(SPANS) {
        out.put(format!("query.{f}.ns_per_op"), per_op(span), "ns");
    }
    for k in KS {
        let at_k = tracer.ns_per_op(|s| SPANS.contains(&s.name) && s.ops == k as u64);
        out.put(format!("query.k{k}.ns_per_op"), at_k, "ns");
    }
    out.put("query.k10.single_ns_per_op", per_op("query.single"), "ns");
    out.put("query.calls", traced_calls.len() as f64, "count");
    out.put("build.ns_per_edge", per_op("build.batch_link"), "ns");
    out.put("pool.speedup_vs_1t", rate(&plain_half) / rate(&one), "x");
    out.put(
        "bench.trace_overhead",
        rate(&plain) / rate(&traced_calls) - 1.0,
        "ratio",
    );
    out.put("failed_frac", failed as f64 / ops.max(1) as f64, "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Falsify the first answer of `a`.
    fn corrupt(a: &mut Answers) {
        match a {
            Answers::Bool(a) => a[0] = !a[0],
            Answers::Vertex(a) => a[0] = if a[0].is_some() { None } else { Some(0) },
            Answers::Sum(a) => a[0] = Some(a[0].map_or(0, |s| s.wrapping_add(1))),
            Answers::Extrema(a) => {
                a[0] = Some(a[0].map_or(PathSummary::identity(), |mut p| {
                    p.sum = p.sum.wrapping_add(1);
                    p
                }))
            }
            Answers::Near(a) => a[0] = Some(a[0].map_or((0, 0), |(d, v)| (d + 1, v))),
        }
    }

    #[test]
    fn check_passes_on_true_answers_and_trips_on_each_corrupted_family() {
        let mut sc = Scenario::new(3_000, 7);
        let mut forest = build(TernaryStdForest::new_std(sc.n), &sc);
        let mut reference = build(LctForest::new(sc.n), &sc);
        let block = sc.block(&[10, 100]);
        let mut tripped = [false; 7];
        for q in &block {
            let mut got = q.batch(&mut forest);
            let want = q.batch(&mut reference);
            assert_eq!(mismatches(q, &got, &want), 0, "{}", FAMILIES[q.family()]);
            corrupt(&mut got);
            tripped[q.family()] = mismatches(q, &got, &want) > 0;
        }
        assert_eq!(tripped, [true; 7]);
    }

    #[test]
    fn representatives_compare_as_a_partition() {
        let q = Query::Representatives(vec![0, 1, 2]);
        let want = Answers::Vertex(vec![Some(5), Some(5), Some(9)]);
        let renamed = Answers::Vertex(vec![Some(1), Some(1), Some(4)]);
        assert_eq!(mismatches(&q, &renamed, &want), 0);
        let merged = Answers::Vertex(vec![Some(1), Some(1), Some(1)]);
        assert!(mismatches(&q, &merged, &want) > 0);
    }
}
