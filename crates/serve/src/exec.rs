//! Shared read-only query execution under a fixed size rule.
//!
//! The coalescer's query phase runs through this module on the epoch
//! worker, as do [`answer_read_only`] callers such as replication
//! followers; both follow the same rule. Everything here takes the
//! forest by shared reference: the RC forest's batch query entry points
//! are `&self` (scratch comes from an internal pool), so single-query
//! walks can fan out across the pool.
//!
//! Each family's fan-out runs on one of two engines over the same
//! forest state:
//!
//! - **batched** — one batch call per family (the shared marked-subtree
//!   sweep, `O(k log(1 + n/k))` work),
//! - **independent** — one `O(log n)` single-query walk per query through
//!   `parallel_for` (a plain loop up to `rc_parlay::SEQ_THRESHOLD`
//!   queries, parallel above).
//!
//! The paper's fig. 11 shows that batching beats independent walks only
//! above a per-family batch size, so the engine is a pure function of
//! `(family, k)`: batched when `k >= BATCHED_FROM_K[family]`, independent
//! otherwise. CPT extraction has no single-query form and stays one
//! computation per request.
//!
//! The engines are answer-invariant: the single-query entry points share
//! the batch paths' out-of-range/`None` contract and exact aggregate
//! semantics (the unit test below compares them family by family).

use crate::agg::ServeForest;
use crate::request::{CptResult, Request, Response};
use rc_core::NO_VERTEX;
use rc_obs::Engine;
use rc_parlay::parallel_for;
use rc_parlay::slice::ParSlice;
use std::time::Instant;

/// The size rule: a query family's fan-out of `k` queries runs batched
/// when `k >= BATCHED_FROM_K[family]`, independent otherwise. Indexed
/// like [`rc_obs::FAMILY_NAMES`] without `cpt` (conn, repr, path,
/// subtree, lca, bottleneck, near).
///
/// Each entry is the smallest k of the default-scale (n = 200 000) grid
/// in the committed `BENCH_crossover.json` (written by the
/// `fig11b_backends` binary) at which `rc_batched` took no longer than
/// `rc_independent`; `u32::MAX` would mean batched never won on the
/// grid. When the batched engine gets cheaper, re-run that sweep and
/// update these numbers.
pub const BATCHED_FROM_K: [u32; 7] = [
    10_000,  // conn
    100_000, // repr
    10_000,  // path
    10,      // subtree
    10_000,  // lca
    10,      // bottleneck
    10,      // near
];

/// The engine [`BATCHED_FROM_K`] names for `k` queries of `family`.
fn engine_for(family: usize, k: u32) -> Engine {
    if k >= BATCHED_FROM_K[family] {
        Engine::Batched
    } else {
        Engine::Independent
    }
}

/// Per-family wall time, query counts, and engines of one query
/// fan-out, indexed like [`rc_obs::FAMILY_NAMES`] (conn, repr, path,
/// subtree, lca, bottleneck, near, cpt).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FamilyTimings {
    pub(crate) ns: [u64; 8],
    pub(crate) counts: [u32; 8],
    /// 0 = family did not run, else `1 + Engine::index()`.
    pub(crate) engine: [u8; 8],
}

/// Span names for the per-family query spans on request traces, indexed
/// like [`rc_obs::FAMILY_NAMES`].
pub(crate) const QUERY_SPAN_NAMES: [&str; 8] = [
    "query:conn",
    "query:repr",
    "query:path",
    "query:subtree",
    "query:lca",
    "query:bottleneck",
    "query:near",
    "query:cpt",
];

/// Family index of a query request (per [`rc_obs::FAMILY_NAMES`]);
/// `None` for updates and `DumpTelemetry`.
pub(crate) fn family_index(req: &Request) -> Option<usize> {
    match req {
        Request::Connected { .. } => Some(0),
        Request::Representative { .. } => Some(1),
        Request::PathSum { .. } => Some(2),
        Request::SubtreeSum { .. } => Some(3),
        Request::Lca { .. } => Some(4),
        Request::Bottleneck { .. } => Some(5),
        Request::NearestMarked { .. } => Some(6),
        Request::Cpt { .. } => Some(7),
        _ => None,
    }
}

/// Public read-only query fan-out over a caller-owned forest: the same
/// per-family execution the coalescer uses, for callers that hold a
/// forest outside any server — replication followers answer
/// staleness-bounded reads against their replica through this. Update
/// requests answer [`Response::Rejected`]: this path is read-only by
/// construction.
pub fn answer_read_only(forest: &ServeForest, requests: &[Request]) -> Vec<Response> {
    let refs: Vec<&Request> = requests.iter().collect();
    answer_requests_timed(forest, &refs).0
}

/// Run one family's fan-out on the engine `pick` names for its count,
/// record its timing and engine in `fam`, and scatter the answers into
/// their request slots.
#[allow(clippy::too_many_arguments)]
fn run_family<A: Sync>(
    fam: &mut FamilyTimings,
    responses: &mut [Option<Response>],
    family: usize,
    args: &[A],
    idxs: &[usize],
    pick: fn(usize, u32) -> Engine,
    batch: impl FnOnce(&[A]) -> Vec<Response>,
    single: impl Fn(&A) -> Response + Sync,
) {
    if args.is_empty() {
        return;
    }
    let k = args.len() as u32;
    let engine = pick(family, k);
    let t = Instant::now();
    let answers: Vec<Response> = match engine {
        Engine::Batched => batch(args),
        Engine::Independent => {
            let mut out: Vec<Option<Response>> = vec![None; args.len()];
            let po = ParSlice::new(&mut out);
            // SAFETY: `parallel_for` hands each index `j` to exactly one
            // task, so no two tasks touch the same slot.
            parallel_for(args.len(), |j| unsafe {
                po.write(j, Some(single(&args[j])));
            });
            out.into_iter()
                .map(|r| r.expect("independent slot filled"))
                .collect()
        }
    };
    fam.ns[family] = t.elapsed().as_nanos() as u64;
    fam.counts[family] = k;
    fam.engine[family] = 1 + engine.index() as u8;
    for (ans, &i) in answers.into_iter().zip(idxs) {
        responses[i] = Some(ans);
    }
}

/// Answer `requests` against `forest`, grouping queries by family and
/// running each family on the engine [`BATCHED_FROM_K`] names for its
/// count; report per-family timings and engines for the flight recorder.
/// Updates answer [`Response::Rejected`].
pub(crate) fn answer_requests_timed(
    forest: &ServeForest,
    requests: &[&Request],
) -> (Vec<Response>, FamilyTimings) {
    answer_with(forest, requests, engine_for)
}

/// [`answer_requests_timed`] with the engine picked by `pick` (the unit
/// tests pin each engine in turn).
fn answer_with(
    forest: &ServeForest,
    requests: &[&Request],
    pick: fn(usize, u32) -> Engine,
) -> (Vec<Response>, FamilyTimings) {
    let mut fam = FamilyTimings::default();
    let mut responses: Vec<Option<Response>> = vec![None; requests.len()];

    let mut conn: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut repr: (Vec<u32>, Vec<usize>) = Default::default();
    let mut path: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut subtree: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut lca: (Vec<(u32, u32, u32)>, Vec<usize>) = Default::default();
    let mut bottleneck: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut near: (Vec<u32>, Vec<usize>) = Default::default();

    for (i, req) in requests.iter().enumerate() {
        match req {
            Request::Connected { u, v } => {
                conn.0.push((*u, *v));
                conn.1.push(i);
            }
            Request::Representative { v } => {
                repr.0.push(*v);
                repr.1.push(i);
            }
            Request::PathSum { u, v } => {
                path.0.push((*u, *v));
                path.1.push(i);
            }
            Request::SubtreeSum { v, parent } => {
                subtree.0.push((*v, *parent));
                subtree.1.push(i);
            }
            Request::Lca { u, v, r } => {
                lca.0.push((*u, *v, *r));
                lca.1.push(i);
            }
            Request::Bottleneck { u, v } => {
                bottleneck.0.push((*u, *v));
                bottleneck.1.push(i);
            }
            Request::NearestMarked { v } => {
                near.0.push(*v);
                near.1.push(i);
            }
            Request::Cpt { terminals } => {
                // CPT extraction has no single-query form — it is one
                // structured computation per request, always "batched".
                let t = Instant::now();
                let cpt = forest.compressed_path_tree(terminals);
                fam.ns[7] += t.elapsed().as_nanos() as u64;
                fam.counts[7] += 1;
                fam.engine[7] = 1 + Engine::Batched.index() as u8;
                responses[i] = Some(Response::Cpt(CptResult {
                    vertices: cpt.vertices,
                    edges: cpt.edges,
                }));
            }
            _ => responses[i] = Some(Response::Rejected),
        }
    }

    run_family(
        &mut fam,
        &mut responses,
        0,
        &conn.0,
        &conn.1,
        pick,
        |args| {
            forest
                .batch_connected(args)
                .into_iter()
                .map(Response::Bool)
                .collect()
        },
        |&(u, v)| Response::Bool(forest.connected(u, v)),
    );
    run_family(
        &mut fam,
        &mut responses,
        1,
        &repr.0,
        &repr.1,
        pick,
        |args| {
            forest
                .batch_find_representatives(args)
                .into_iter()
                .map(|ans| Response::Vertex((ans != NO_VERTEX).then_some(ans)))
                .collect()
        },
        |&v| Response::Vertex(forest.in_range(v).then(|| forest.find_representative(v))),
    );
    run_family(
        &mut fam,
        &mut responses,
        2,
        &path.0,
        &path.1,
        pick,
        |args| {
            forest
                .batch_path_aggregate(args)
                .into_iter()
                .map(|ans| Response::Sum(ans.map(|p| p.sum)))
                .collect()
        },
        |&(u, v)| Response::Sum(forest.path_aggregate(u, v).map(|p| p.sum)),
    );
    run_family(
        &mut fam,
        &mut responses,
        3,
        &subtree.0,
        &subtree.1,
        pick,
        |args| {
            forest
                .batch_subtree_aggregate(args)
                .into_iter()
                .map(Response::Sum)
                .collect()
        },
        |&(v, parent)| Response::Sum(forest.subtree_aggregate(v, parent)),
    );
    run_family(
        &mut fam,
        &mut responses,
        4,
        &lca.0,
        &lca.1,
        pick,
        |args| {
            forest
                .batch_lca(args)
                .into_iter()
                .map(Response::Vertex)
                .collect()
        },
        |&(u, v, r)| Response::Vertex(forest.lca(u, v, r)),
    );
    run_family(
        &mut fam,
        &mut responses,
        5,
        &bottleneck.0,
        &bottleneck.1,
        pick,
        |args| {
            forest
                .batch_path_extrema(args)
                .into_iter()
                .map(Response::Extrema)
                .collect()
        },
        // The single walk combines the full PathSummary monoid exactly
        // (min/max over a total order is evaluation-order independent),
        // with the same None / u==v identity contract as the CPT solver.
        |&(u, v)| Response::Extrema(forest.path_aggregate(u, v)),
    );
    run_family(
        &mut fam,
        &mut responses,
        6,
        &near.0,
        &near.1,
        pick,
        |args| {
            forest
                .batch_nearest_marked(args)
                .into_iter()
                .map(Response::Near)
                .collect()
        },
        |&v| Response::Near(forest.nearest_marked(v)),
    );

    (
        responses
            .into_iter()
            .map(|r| r.expect("every query family answered"))
            .collect(),
        fam,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::ServeVertexWeight;
    use rc_core::BuildOptions;
    use rc_gen::{ForestGenConfig, RequestStream, RequestStreamConfig};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn size_rule_switches_at_the_table_entry() {
        for (f, &from) in BATCHED_FROM_K.iter().enumerate() {
            assert_eq!(engine_for(f, from), Engine::Batched, "family {f}");
            assert_eq!(engine_for(f, u32::MAX), Engine::Batched, "family {f}");
            assert_eq!(engine_for(f, from - 1), Engine::Independent, "family {f}");
            assert_eq!(engine_for(f, 1), Engine::Independent, "family {f}");
        }
    }

    #[test]
    fn both_engines_answer_every_family_identically() {
        let n = 3_000u32;
        let edges = RequestStream::new(RequestStreamConfig {
            forest: ForestGenConfig {
                n: n as usize,
                seed: 0xE4EC,
                max_weight: 64,
                ..Default::default()
            },
            ..Default::default()
        })
        .initial_edges();
        let mut rng = SplitMix64::new(0x5EED);
        let weights: Vec<ServeVertexWeight> = (0..n)
            .map(|_| ServeVertexWeight {
                weight: rng.next_below(100),
                marked: rng.next_below(40) == 0,
            })
            .collect();
        let forest =
            ServeForest::build(n as usize, weights, &edges, BuildOptions::default()).unwrap();

        // 1 in 20 vertices is out of range; 1 in 10 second endpoints
        // repeats the first (u == v).
        let vert = |rng: &mut SplitMix64| -> u32 {
            if rng.next_below(20) == 0 {
                n + rng.next_below(5) as u32
            } else {
                rng.next_below(n as u64) as u32
            }
        };
        let other = |rng: &mut SplitMix64, u: u32| -> u32 {
            if rng.next_below(10) == 0 {
                u
            } else {
                vert(rng)
            }
        };
        // Above SEQ_THRESHOLD, so the independent engine runs parallel.
        let k = 2_100;
        let mut reqs: Vec<Request> = Vec::new();
        for _ in 0..k {
            let u = vert(&mut rng);
            let v = other(&mut rng, u);
            let r = other(&mut rng, v);
            let (a, b, _) = edges[rng.next_below(edges.len() as u64) as usize];
            // Adjacent parents in both orientations, v == parent, and
            // non-adjacent or out-of-range parents.
            let (sv, sp) = match rng.next_below(4) {
                0 => (a, b),
                1 => (b, a),
                2 => (u, u),
                _ => (u, v),
            };
            reqs.extend([
                Request::Connected { u, v },
                Request::Representative { v: u },
                Request::PathSum { u, v },
                Request::SubtreeSum { v: sv, parent: sp },
                Request::Lca { u, v, r },
                Request::Bottleneck { u, v },
                Request::NearestMarked { v: u },
            ]);
        }
        let dups: Vec<Request> = reqs[..350].to_vec();
        reqs.extend(dups);
        let refs: Vec<&Request> = reqs.iter().collect();

        let (batched, fb) = answer_with(&forest, &refs, |_, _| Engine::Batched);
        let (independent, fi) = answer_with(&forest, &refs, |_, _| Engine::Independent);
        for f in 0..7 {
            assert_eq!(fb.engine[f], 1 + Engine::Batched.index() as u8);
            assert_eq!(fi.engine[f], 1 + Engine::Independent.index() as u8);
            assert_eq!(fb.counts[f], fi.counts[f]);
        }
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(batched[i], independent[i], "request {i}: {req:?}");
        }
        // The inputs reach the edge cases: some queries answer None.
        assert!(batched.contains(&Response::Sum(None)));
        assert!(batched.contains(&Response::Vertex(None)));
    }
}
