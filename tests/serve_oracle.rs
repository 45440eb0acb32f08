//! Serializability oracle for the `rc-serve` coalescer.
//!
//! N client threads hammer one server with randomized, partly-invalid
//! request streams (`rc-gen`). The server records its commit log (updates
//! in submission order, then queries, per epoch). The oracle replays that
//! log sequentially against the [`DynamicForest`] backend trait's naive
//! reference implementation ([`NaiveStdForest`]) and asserts that
//! **every** response the server produced — update outcomes including
//! exact `ForestError`s, and all seven query families — matches the
//! sequential execution. Any lost update, phantom read, torn epoch or
//! conflict-resolution bug shows up as a response mismatch.
//!
//! The only serve-layer semantics not inherited from the trait verbatim:
//! `UpdateEdgeWeight` range-checks its endpoints *before* probing edge
//! presence (the trait's `set_edge_weight` folds out-of-range ids into
//! `MissingEdge`, matching the raw core call).

use rcforest::serve::{
    CptResult, Engine, LogEntry, PathSummary, RcServe, Request, Response, ServeConfig, ServeForest,
    BATCHED_FROM_K, ENGINE_NAMES, FAMILY_NAMES,
};
use rcforest::{DynamicForest, ForestError, NaiveStdForest, RequestStream, RequestStreamConfig};
use std::collections::HashMap;
use std::time::Duration;

const MAX_DEGREE: usize = 3;

struct Oracle {
    nv: NaiveStdForest,
}

impl Oracle {
    fn new(n: usize, edges: &[(u32, u32, u64)]) -> Self {
        let mut nv = NaiveStdForest::with_max_degree(n, Some(MAX_DEGREE));
        nv.batch_link(edges).expect("valid initial forest");
        Oracle { nv }
    }

    fn in_range(&self, v: u32) -> bool {
        (v as usize) < self.nv.num_vertices()
    }

    fn range_check(&self, v: u32) -> Result<(), ForestError> {
        if self.in_range(v) {
            Ok(())
        } else {
            Err(ForestError::VertexOutOfRange {
                v,
                n: self.nv.num_vertices(),
            })
        }
    }

    /// Expected outcome of an update, in the serve layer's documented
    /// check order; applies the op on success.
    fn apply_update(&mut self, req: &Request) -> Result<(), ForestError> {
        match *req {
            Request::Link { u, v, w } => self.nv.link(u, v, w),
            Request::Cut { u, v } => self.nv.cut(u, v),
            Request::UpdateEdgeWeight { u, v, w } => {
                self.range_check(u)?;
                self.range_check(v)?;
                self.nv.set_edge_weight(u, v, w)
            }
            Request::UpdateVertexWeight { v, w } => self.nv.set_vertex_weight(v, w),
            Request::Mark { v } => self.nv.set_mark(v, true),
            Request::Unmark { v } => self.nv.set_mark(v, false),
            _ => unreachable!("query in update replay"),
        }
    }

    fn check_query(&mut self, entry: &LogEntry, repr_seen: &mut HashMap<u32, u32>) {
        let req = &entry.request;
        let resp = &entry.response;
        let ctx = || format!("epoch {} seq {} {:?}", entry.epoch, entry.seq, req);
        match *req {
            Request::Connected { u, v } => {
                assert_eq!(resp, &Response::Bool(self.nv.connected(u, v)), "{}", ctx());
            }
            Request::Representative { v } => {
                let Response::Vertex(got) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                assert_eq!(got.is_some(), self.in_range(v), "{}", ctx());
                if let Some(r) = got {
                    assert!(
                        self.in_range(*r) && self.nv.connected(v, *r),
                        "{}: repr {r} outside component",
                        ctx()
                    );
                    // Same epoch + same repr => same component.
                    if let Some(&w) = repr_seen.get(r) {
                        assert!(self.nv.connected(v, w), "{}: repr collision", ctx());
                    } else {
                        repr_seen.insert(*r, v);
                    }
                }
            }
            Request::PathSum { u, v } => {
                assert_eq!(resp, &Response::Sum(self.nv.path_sum(u, v)), "{}", ctx());
            }
            Request::SubtreeSum { v, parent } => {
                assert_eq!(
                    resp,
                    &Response::Sum(self.nv.subtree_sum(v, parent)),
                    "{}",
                    ctx()
                );
            }
            Request::Lca { u, v, r } => {
                assert_eq!(resp, &Response::Vertex(self.nv.lca(u, v, r)), "{}", ctx());
            }
            Request::Bottleneck { u, v } => {
                assert_eq!(
                    resp,
                    &Response::Extrema(self.nv.path_extrema(u, v)),
                    "{}",
                    ctx()
                );
            }
            Request::NearestMarked { v } => {
                let want = self.nv.nearest_marked(v);
                let Response::Near(got) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                // Distances must agree (witnesses only differ on ties).
                assert_eq!(got.map(|x| x.0), want.map(|x| x.0), "{}", ctx());
            }
            Request::Cpt { ref terminals } => {
                let Response::Cpt(cpt) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                self.check_cpt(terminals, cpt, &ctx());
            }
            _ => unreachable!("update in query replay"),
        }
    }

    /// The compressed tree must preserve pairwise path summaries exactly.
    fn check_cpt(&mut self, terminals: &[u32], cpt: &CptResult, ctx: &str) {
        let index: HashMap<u32, usize> = cpt
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut adj: Vec<Vec<(usize, PathSummary)>> = vec![Vec::new(); cpt.vertices.len()];
        for &(a, b, p) in &cpt.edges {
            adj[index[&a]].push((index[&b], p));
            adj[index[&b]].push((index[&a], p));
        }
        let combine = |a: &PathSummary, b: &PathSummary| PathSummary {
            sum: a.sum.wrapping_add(b.sum),
            min: match (a.min, b.min) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if (x.w, x.u, x.v) <= (y.w, y.u, y.v) {
                    x
                } else {
                    y
                }),
            },
            max: match (a.max, b.max) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if (x.w, x.u, x.v) >= (y.w, y.u, y.v) {
                    x
                } else {
                    y
                }),
            },
        };
        let in_range: Vec<u32> = terminals
            .iter()
            .copied()
            .filter(|&t| self.in_range(t))
            .collect();
        for &a in &in_range {
            for &b in &in_range {
                if a >= b {
                    continue;
                }
                let want = self.nv.path_extrema(a, b);
                // BFS in the compressed tree.
                let got = (|| {
                    let (sa, sb) = (*index.get(&a)?, *index.get(&b)?);
                    let mut val: Vec<Option<PathSummary>> = vec![None; adj.len()];
                    val[sa] = Some(PathSummary {
                        sum: 0,
                        min: None,
                        max: None,
                    });
                    let mut queue = std::collections::VecDeque::from([sa]);
                    let mut prev = vec![usize::MAX; adj.len()];
                    prev[sa] = sa;
                    while let Some(x) = queue.pop_front() {
                        let vx = val[x].unwrap();
                        for &(y, p) in &adj[x] {
                            if prev[y] == usize::MAX {
                                prev[y] = x;
                                val[y] = Some(combine(&vx, &p));
                                queue.push_back(y);
                            }
                        }
                    }
                    val[sb]
                })();
                assert_eq!(got, want, "{ctx}: cpt pair ({a},{b})");
            }
        }
    }
}

/// Query fan-outs per (family, engine), indexed like [`FAMILY_NAMES`]
/// and [`ENGINE_NAMES`].
type FanOuts = [[u64; 2]; 8];

/// Drive `threads` clients over partitioned streams, then replay the
/// commit log against the oracle. Also checks that every fan-out in the
/// flight recorder ran the engine [`BATCHED_FROM_K`] names for its
/// count, and returns the server's fan-out counters (read from the
/// `serve_dispatch_total` series) so dispatch tests can assert which
/// engines ran. Both engines must produce identical answers — that is
/// what the replay checks.
fn run_oracle(cfg: ServeConfig, threads: usize, ops_per_thread: usize, seed: u64) -> FanOuts {
    run_oracle_mix(
        cfg,
        threads,
        ops_per_thread,
        seed,
        rcforest::OpMix::balanced(),
    )
}

fn run_oracle_mix(
    cfg: ServeConfig,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
    mix: rcforest::OpMix,
) -> FanOuts {
    let stream_cfg = RequestStreamConfig {
        forest: rcforest::ForestGenConfig {
            n: 1_500,
            seed,
            max_weight: 64,
            ..Default::default()
        },
        mix,
        invalid_frac: 0.05,
        cpt_terminals: 6,
        ..Default::default()
    };
    let probe = RequestStream::new_partitioned(stream_cfg.clone(), 0, threads);
    let initial = probe.initial_edges();
    let n = probe.num_vertices();
    let forest = ServeForest::build_edges(n, &initial, rcforest::BuildOptions::default()).unwrap();

    let server = RcServe::start(forest, cfg);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let scfg = stream_cfg.clone();
            std::thread::spawn(move || {
                let mut stream = RequestStream::new_partitioned(scfg, t, threads);
                let mut served = 0usize;
                // Chunked submission: bursts build big epochs, the waits
                // create cross-epoch dependencies.
                let mut remaining = ops_per_thread;
                while remaining > 0 {
                    let chunk = remaining.min(32);
                    remaining -= chunk;
                    let handles: Vec<_> = (0..chunk)
                        .map(|_| client.submit(Request::from_stream(stream.next_op())))
                        .collect();
                    for h in handles {
                        assert!(h.wait() != Response::Rejected);
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, threads * ops_per_thread);

    // The log finishes booking after responses fill; join the worker
    // (shutdown) before draining it.
    let auditor = server.client();
    server.shutdown();
    for t in auditor.flight_dump() {
        for (f, &from) in BATCHED_FROM_K.iter().enumerate() {
            if t.family_engine[f] == 0 {
                continue;
            }
            let want = if t.family_counts[f] >= from {
                Engine::Batched
            } else {
                Engine::Independent
            };
            assert_eq!(
                t.family_engine[f],
                1 + want.index() as u8,
                "epoch {} ran {} queries of {} on the wrong engine",
                t.epoch,
                t.family_counts[f],
                FAMILY_NAMES[f]
            );
        }
    }
    let snapshot = auditor.metrics();
    let fan_outs: FanOuts = std::array::from_fn(|f| {
        std::array::from_fn(|e| {
            snapshot
                .counter(&format!(
                    "serve_dispatch_total{{family=\"{}\",engine=\"{}\"}}",
                    FAMILY_NAMES[f], ENGINE_NAMES[e]
                ))
                .unwrap_or(0)
        })
    });
    let log = auditor.take_commit_log();
    assert_eq!(log.len(), total, "every request committed exactly once");

    // Replay in log order, which must be commit order: epochs ascend, and
    // within an epoch every update precedes every query. Each query is
    // then checked against the naive replay of exactly its own epoch's
    // committed prefix — all earlier epochs plus its epoch's updates.
    let mut oracle = Oracle::new(n, &initial);
    let mut epoch = 0u64;
    let mut in_queries = false;
    let mut repr_seen: HashMap<u32, u32> = HashMap::new();
    let mut seen_seqs = std::collections::HashSet::new();
    for entry in &log {
        assert!(seen_seqs.insert(entry.seq), "seq {} duplicated", entry.seq);
        assert!(
            entry.epoch >= epoch,
            "log regresses from epoch {epoch} to {} (seq {})",
            entry.epoch,
            entry.seq
        );
        if entry.epoch != epoch {
            epoch = entry.epoch;
            in_queries = false;
            repr_seen.clear();
        }
        if entry.request.is_update() {
            assert!(
                !in_queries,
                "epoch {} seq {}: update logged after the epoch's queries",
                entry.epoch, entry.seq
            );
            let want = oracle.apply_update(&entry.request);
            assert_eq!(
                entry.response,
                Response::Updated(want.clone()),
                "epoch {} seq {} {:?}",
                entry.epoch,
                entry.seq,
                entry.request
            );
        } else {
            in_queries = true;
            oracle.check_query(entry, &mut repr_seen);
        }
    }
    fan_outs
}

#[test]
fn serializability_oracle_eight_threads_coalesced() {
    run_oracle(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        2025,
    );
}

#[test]
fn serializability_oracle_pipelined_query_heavy() {
    // Big query phases, each sweeping its epoch's committed state. (The
    // name dates from the removed pipelined mode; the traffic is kept.)
    // Every response must match naive replay of exactly its epoch's
    // committed prefix.
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        31337,
        rcforest::OpMix::query_heavy(),
    );
}

#[test]
fn serializability_oracle_pipelined_update_heavy_depth2() {
    // Update-heavy traffic behind a long linger: state changes almost
    // every epoch, so each query phase must see its own epoch's commits.
    // (The name dates from the removed pipelined mode.)
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_millis(1),
            drain_threshold: 2_048,
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        555,
        rcforest::OpMix::update_heavy(),
    );
}

#[test]
fn serializability_oracle_pipelined_release_scale() {
    // The acceptance-scale run: 100k+ operations through the default
    // server in release builds (debug builds shrink it to stay quick).
    let ops_per_thread = if cfg!(debug_assertions) { 500 } else { 13_000 };
    run_oracle(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        ops_per_thread,
        86_420,
    );
}

#[test]
fn serializability_oracle_tiny_epochs() {
    // Size-bounded epochs force constant drain/requeue traffic.
    run_oracle(
        ServeConfig {
            max_epoch_ops: 24,
            drain_threshold: 8,
            max_linger: Duration::from_micros(50),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        150,
        77,
    );
}

#[test]
fn serializability_oracle_update_heavy_toggles() {
    // Long linger + update-heavy mix: the same connector edge is routinely
    // cut and relinked (and linked and re-cut) inside one epoch, driving
    // the coalescer's cancellation paths and stale-union-find flushes.
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_millis(2),
            drain_threshold: 2_048,
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        4242,
        rcforest::OpMix::update_heavy(),
    );
}

#[test]
fn serializability_oracle_unbatched_baseline() {
    run_oracle(
        ServeConfig {
            record_commit_log: true,
            ..ServeConfig::unbatched()
        },
        4,
        80,
        9,
    );
}

// The four dispatch tests below keep the `adaptive` names that CI's
// dispatch-oracle step selects them by.

/// Fan-outs per engine, summed over families.
fn per_engine(fan_outs: &FanOuts) -> [u64; 2] {
    std::array::from_fn(|e| fan_outs.iter().map(|f| f[e]).sum())
}

#[test]
fn serializability_oracle_adaptive_exploring_all_engines() {
    // Epochs of up to 256 requests put some families above their size
    // rule entry and others below it, often in the same epoch, so both
    // engines carry real traffic; the replay proves the engine never
    // changed a single answer.
    let fan_outs = run_oracle_mix(
        ServeConfig {
            max_epoch_ops: 256,
            drain_threshold: 128,
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            flight_recorder: 1 << 15,
            ..ServeConfig::default()
        },
        8,
        300,
        60_601,
        rcforest::OpMix::query_heavy(),
    );
    let per_engine = per_engine(&fan_outs);
    assert!(
        per_engine.iter().all(|&d| d > 0),
        "both engines must carry real fan-outs: {fan_outs:?}"
    );
}

#[test]
fn serializability_oracle_adaptive_release_scale() {
    // The acceptance-scale run: 100k+ operations in release builds at
    // the default policy, replayed exactly, with every fan-out on the
    // engine the size rule names.
    let ops_per_thread = if cfg!(debug_assertions) { 500 } else { 13_000 };
    let fan_outs = run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            flight_recorder: 1 << 15,
            ..ServeConfig::default()
        },
        8,
        ops_per_thread,
        90_210,
        rcforest::OpMix::query_heavy(),
    );
    let per_engine = per_engine(&fan_outs);
    assert!(per_engine.iter().all(|&d| d > 0), "{fan_outs:?}");
}

#[test]
fn serializability_oracle_adaptive_pinned_independent() {
    // Epochs smaller than the smallest table entry: every family's
    // fan-out runs independent single-query walks.
    let below_every_entry = *BATCHED_FROM_K.iter().min().unwrap() as usize - 1;
    let fan_outs = run_oracle_mix(
        ServeConfig {
            max_epoch_ops: below_every_entry,
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            flight_recorder: 1 << 15,
            ..ServeConfig::default()
        },
        8,
        200,
        808,
        rcforest::OpMix::query_heavy(),
    );
    let [batched, independent] = per_engine(&fan_outs);
    assert_eq!(batched, 0, "no family reaches its entry: {fan_outs:?}");
    assert!(independent > 0, "{fan_outs:?}");
}

#[test]
fn serializability_oracle_adaptive_pinned_sequential() {
    // Size-1 epochs: every fan-out is a single query, answered by one
    // single-query walk on the worker thread.
    let fan_outs = run_oracle_mix(
        ServeConfig {
            max_epoch_ops: 1,
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            flight_recorder: 1 << 15,
            ..ServeConfig::default()
        },
        8,
        200,
        909,
        rcforest::OpMix::query_heavy(),
    );
    let [batched, independent] = per_engine(&fan_outs);
    assert_eq!(batched, 0, "{fan_outs:?}");
    assert!(independent > 0, "{fan_outs:?}");
}
