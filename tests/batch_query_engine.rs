//! Engine-routed batch queries vs the naive oracle.
//!
//! Seeded property tests: random degree-≤3 forests evolve through rounds
//! of interleaved batch cuts and links; after every round, each batch
//! query family that routes through the marked-subtree engine
//! (connectivity, subtree, path sums, LCA, compressed path trees,
//! bottleneck, nearest-marked) is checked against `rcforest::naive`.
//! Query batches deliberately mix valid, duplicate, self-pair and
//! out-of-range entries to pin the uniform `None` contract.

use rcforest::naive::NaiveForest;
use rcforest::parlay::rng::SplitMix64;
use rcforest::{BuildOptions, MaxEdgeAgg, NearestMarkedAgg, RcForest, SumAgg, UnitAgg, NO_VERTEX};

/// Mirrored forests: one naive oracle + one RC forest per aggregate.
struct Mirror {
    n: usize,
    naive: NaiveForest<u64>,
    sum: RcForest<SumAgg<i64>>,
    unit: RcForest<UnitAgg>,
    max: RcForest<MaxEdgeAgg<u64>>,
    near: RcForest<NearestMarkedAgg>,
    marked: Vec<bool>,
}

impl Mirror {
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut naive = NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.08 {
                continue; // leave some disconnection
            }
            let u = if rng.next_f64() < 0.6 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = 1 + rng.next_below(50);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        Mirror::from_edges(n, naive, &edges)
    }

    /// Mirror `edges`, already linked in `naive`, into every RC forest.
    fn from_edges(n: usize, naive: NaiveForest<u64>, edges: &[(u32, u32, u64)]) -> Self {
        let opts = BuildOptions::default();
        let sum_edges: Vec<(u32, u32, i64)> =
            edges.iter().map(|&(u, v, w)| (u, v, w as i64)).collect();
        let unit_edges: Vec<(u32, u32, ())> = edges.iter().map(|&(u, v, _)| (u, v, ())).collect();
        Mirror {
            n,
            sum: RcForest::build_edges(n, &sum_edges, opts).unwrap(),
            unit: RcForest::build_edges(n, &unit_edges, opts).unwrap(),
            max: RcForest::build_edges(n, edges, opts).unwrap(),
            near: RcForest::build_edges(n, edges, opts).unwrap(),
            naive,
            marked: vec![false; n],
        }
    }

    /// One random batch of cuts + links applied everywhere.
    fn mutate(&mut self, rng: &mut SplitMix64) {
        let n = self.n;
        let mut cuts: Vec<(u32, u32)> = Vec::new();
        let mut links: Vec<(u32, u32, u64)> = Vec::new();
        for _ in 0..10 {
            let u = rng.next_below(n as u64) as u32;
            let v = rng.next_below(n as u64) as u32;
            if u == v {
                continue;
            }
            if self.naive.edge_weight(u, v).is_some()
                && !cuts.contains(&(u, v))
                && !cuts.contains(&(v, u))
            {
                cuts.push((u, v));
            }
        }
        for &(u, v) in &cuts {
            self.naive.cut(u, v).unwrap();
        }
        for _ in 0..10 {
            let u = rng.next_below(n as u64) as u32;
            let v = rng.next_below(n as u64) as u32;
            let w = 1 + rng.next_below(50);
            if u != v
                && self.naive.degree(u) < 3
                && self.naive.degree(v) < 3
                && self.naive.link(u, v, w).is_ok()
            {
                links.push((u, v, w));
            }
        }
        let sum_links: Vec<(u32, u32, i64)> =
            links.iter().map(|&(u, v, w)| (u, v, w as i64)).collect();
        let unit_links: Vec<(u32, u32, ())> = links.iter().map(|&(u, v, _)| (u, v, ())).collect();
        self.sum.batch_cut(&cuts).unwrap();
        self.sum.batch_link(&sum_links).unwrap();
        self.unit.batch_cut(&cuts).unwrap();
        self.unit.batch_link(&unit_links).unwrap();
        self.max.batch_cut(&cuts).unwrap();
        self.max.batch_link(&links).unwrap();
        self.near.batch_cut(&cuts).unwrap();
        self.near.batch_link(&links).unwrap();
    }

    /// Random vertex, ~10% of the time out of range.
    fn vertex(&self, rng: &mut SplitMix64) -> u32 {
        if rng.next_f64() < 0.1 {
            self.n as u32 + rng.next_below(10) as u32
        } else {
            rng.next_below(self.n as u64) as u32
        }
    }

    fn check_connectivity(&self, rng: &mut SplitMix64) {
        let pairs: Vec<(u32, u32)> = (0..80)
            .map(|_| (self.vertex(rng), self.vertex(rng)))
            .collect();
        let got = self.sum.batch_connected(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = (u as usize) < self.n && (v as usize) < self.n && self.naive.connected(u, v);
            assert_eq!(got[i], want, "connected ({u},{v})");
        }
        let reprs = self
            .sum
            .batch_find_representatives(&pairs.iter().map(|&(u, _)| u).collect::<Vec<_>>());
        for (i, &(u, _)) in pairs.iter().enumerate() {
            assert_eq!(
                reprs[i] == NO_VERTEX,
                u as usize >= self.n,
                "repr range ({u})"
            );
        }
    }

    fn check_path_sums(&self, pairs: &[(u32, u32)]) {
        let got = self.sum.batch_path_aggregate(pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = if (u as usize) < self.n && (v as usize) < self.n {
                self.naive
                    .path_edges(u, v)
                    .map(|es| es.iter().map(|&w| w as i64).sum::<i64>())
            } else {
                None
            };
            assert_eq!(got[i], want, "path sum ({u},{v})");
        }
    }

    fn check_subtree(&self, rng: &mut SplitMix64) {
        // Mostly adjacent pairs, with invalid entries sprinkled in.
        let mut queries: Vec<(u32, u32)> = Vec::new();
        for _ in 0..60 {
            let u = rng.next_below(self.n as u64) as u32;
            let nbrs: Vec<u32> = self.naive.neighbors(u).collect();
            if !nbrs.is_empty() && rng.next_f64() < 0.8 {
                queries.push((u, nbrs[rng.next_below(nbrs.len() as u64) as usize]));
            } else {
                queries.push((u, self.vertex(rng))); // possibly non-adjacent / OOR
            }
        }
        queries.push((0, 0)); // self-pair: never adjacent
        let got = self.sum.batch_subtree_aggregate(&queries);
        for (i, &(u, p)) in queries.iter().enumerate() {
            let adjacent = (u as usize) < self.n
                && (p as usize) < self.n
                && self.naive.edge_weight(u, p).is_some();
            if !adjacent {
                assert_eq!(got[i], None, "subtree ({u},{p}) should be None");
                continue;
            }
            let (_, es) = self.naive.subtree(u, p);
            let want: i64 = es.iter().map(|&w| w as i64).sum();
            assert_eq!(got[i], Some(want), "subtree ({u},{p})");
        }
    }

    fn check_lca(&self, triples: &[(u32, u32, u32)]) {
        let got = self.unit.batch_lca(triples);
        for (i, &(u, v, r)) in triples.iter().enumerate() {
            let want = if [u, v, r].iter().all(|&x| (x as usize) < self.n) {
                self.naive.lca(u, v, r)
            } else {
                None
            };
            assert_eq!(got[i], want, "lca ({u},{v},{r})");
        }
    }

    fn check_bottleneck(&self, pairs: &[(u32, u32)]) {
        let got = self.max.batch_path_extrema(pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = if (u as usize) < self.n && (v as usize) < self.n {
                self.naive.path_edges(u, v)
            } else {
                None
            };
            match (&got[i], want) {
                (None, None) => {}
                (Some(opt), Some(es)) => {
                    assert_eq!(
                        opt.map(|e| e.w),
                        es.iter().copied().max(),
                        "bottleneck ({u},{v})"
                    );
                }
                (g, w) => panic!("bottleneck ({u},{v}): {g:?} vs {w:?}"),
            }
        }
    }

    fn check_cpt(&self, rng: &mut SplitMix64) {
        let terms: Vec<u32> = (0..10).map(|_| self.vertex(rng)).collect();
        let cpt = self.max.compressed_path_tree(&terms);
        let in_range: Vec<u32> = terms
            .iter()
            .copied()
            .filter(|&t| (t as usize) < self.n)
            .collect();
        for &a in &in_range {
            for &b in &in_range {
                if a == b {
                    continue;
                }
                let want = self.naive.path_edges(a, b);
                match (cpt.path_value(a, b), want) {
                    (None, None) => {}
                    (Some(opt), Some(es)) => {
                        assert_eq!(opt.map(|e| e.w), es.iter().copied().max(), "cpt ({a},{b})");
                    }
                    (g, w) => panic!("cpt ({a},{b}): {g:?} vs {w:?}"),
                }
            }
        }
    }

    fn check_nearest_marked(&mut self, rng: &mut SplitMix64) {
        // Re-randomize the mark set, then query.
        let unmark: Vec<u32> = (0..self.n as u32)
            .filter(|&v| self.marked[v as usize])
            .collect();
        self.near.batch_unmark(&unmark).unwrap();
        self.marked.fill(false);
        let marks: Vec<u32> = (0..8)
            .map(|_| rng.next_below(self.n as u64) as u32)
            .collect();
        for &m in &marks {
            self.marked[m as usize] = true;
        }
        self.near.batch_mark(&marks).unwrap();
        let queries: Vec<u32> = (0..60).map(|_| self.vertex(rng)).collect();
        let got = self.near.batch_nearest_marked(&queries);
        for (i, &q) in queries.iter().enumerate() {
            let want = if (q as usize) < self.n {
                self.naive.nearest_marked(q, &self.marked)
            } else {
                None
            };
            // Distances must agree; witnesses may differ only on ties.
            assert_eq!(
                got[i].map(|x| x.0),
                want.map(|x| x.0),
                "nearest ({q}): {:?} vs {:?}",
                got[i],
                want
            );
        }
    }
}

#[test]
fn all_engine_queries_match_oracle_under_interleaved_updates() {
    for seed in [7u64, 1234, 998877] {
        let mut mirror = Mirror::new(250, seed);
        let mut rng = SplitMix64::new(seed ^ 0xDEAD);
        for round in 0..6 {
            mirror.mutate(&mut rng);
            mirror
                .sum
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            mirror.check_connectivity(&mut rng);
            let pairs: Vec<(u32, u32)> = (0..80)
                .map(|_| (mirror.vertex(&mut rng), mirror.vertex(&mut rng)))
                .collect();
            mirror.check_path_sums(&pairs);
            mirror.check_subtree(&mut rng);
            let triples: Vec<(u32, u32, u32)> = (0..60)
                .map(|_| {
                    (
                        mirror.vertex(&mut rng),
                        mirror.vertex(&mut rng),
                        mirror.vertex(&mut rng),
                    )
                })
                .collect();
            mirror.check_lca(&triples);
            let pairs: Vec<(u32, u32)> = (0..60)
                .map(|_| (mirror.vertex(&mut rng), mirror.vertex(&mut rng)))
                .collect();
            mirror.check_bottleneck(&pairs);
            mirror.check_cpt(&mut rng);
            mirror.check_nearest_marked(&mut rng);
        }
    }
}

/// `k` triples `(u, v, r)` over `m`, with self-pairs `(u, u, r)`,
/// repeats of earlier triples, and partners `v`, `r` that lie within
/// `reach` ids of `u` (the oracle's BFS cost) or, one time in ten,
/// anywhere — possibly out of range or in another component.
fn mixed_triples(m: &Mirror, rng: &mut SplitMix64, k: usize, reach: u32) -> Vec<(u32, u32, u32)> {
    let partner = |rng: &mut SplitMix64, u: u32| {
        if (u as usize) < m.n && rng.next_below(10) != 0 {
            let lo = u.saturating_sub(reach);
            let hi = (u + reach).min(m.n as u32 - 1);
            lo + rng.next_below((hi - lo + 1) as u64) as u32
        } else {
            m.vertex(rng)
        }
    };
    let mut triples: Vec<(u32, u32, u32)> = Vec::with_capacity(k);
    while triples.len() < k {
        let u = m.vertex(rng);
        let r = partner(rng, u);
        let triple = match rng.next_below(10) {
            0 => (u, u, r),
            1 if !triples.is_empty() => triples[rng.next_below(triples.len() as u64) as usize],
            _ => (u, partner(rng, u), r),
        };
        triples.push(triple);
    }
    triples
}

/// The three path families at k = 3 000 — above `SEQ_THRESHOLD`, so
/// marking and answer assembly run in parallel — on the deepest RC tree
/// (a 20 000-vertex path) and on a random degree-≤3 forest of four
/// components.
#[test]
fn path_families_at_parallel_size_match_oracle() {
    const K: usize = 3_000;
    const { assert!(K > rcforest::parlay::SEQ_THRESHOLD) };
    let mut rng = SplitMix64::new(0xBA7C4);

    let n = 20_000;
    let mut naive = NaiveForest::<u64>::new(n);
    let mut path: Vec<(u32, u32, u64)> = Vec::new();
    for v in 1..n as u32 {
        let w = 1 + rng.next_below(50);
        // New vertex first: the oracle's cycle check searches from it.
        naive.link(v, v - 1, w).unwrap();
        path.push((v - 1, v, w));
    }
    let path = Mirror::from_edges(n, naive, &path);

    let n = 8_000;
    let mut naive = NaiveForest::<u64>::new(n);
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for v in 4..n as u32 {
        // Attach to an earlier vertex of the same residue class mod 4.
        let u = loop {
            let u = (rng.next_below(v as u64 / 4) as u32) * 4 + v % 4;
            if naive.degree(u) < 3 {
                break u;
            }
        };
        let w = 1 + rng.next_below(50);
        naive.link(v, u, w).unwrap();
        edges.push((u, v, w));
    }
    let random = Mirror::from_edges(n, naive, &edges);

    // On the path, ids are positions: a short reach keeps the oracle's
    // BFS cheap, while `u` stays uniform over the whole path.
    for (m, reach) in [(&path, 600), (&random, 8_000)] {
        let triples = mixed_triples(m, &mut rng, K, reach);
        let pairs: Vec<(u32, u32)> = triples.iter().map(|&(u, v, _)| (u, v)).collect();
        m.check_path_sums(&pairs);
        m.check_bottleneck(&pairs);
        m.check_lca(&triples);
    }
}

#[test]
fn duplicate_and_self_entries_are_answered_independently() {
    let edges: Vec<(u32, u32, i64)> = (0..9).map(|i| (i, i + 1, (i + 1) as i64)).collect();
    let f = RcForest::<SumAgg<i64>>::build_edges(10, &edges, BuildOptions::default()).unwrap();
    // Duplicates answer identically; self-pairs answer the identity.
    let got = f.batch_path_aggregate(&[(0, 9), (0, 9), (4, 4), (0, 9)]);
    assert_eq!(got, vec![Some(45), Some(45), Some(0), Some(45)]);
    let conn = f.batch_connected(&[(3, 3), (3, 3), (3, 12)]);
    assert_eq!(conn, vec![true, true, false]);
    let lcas = f.batch_lca(&[(2, 2, 5), (2, 2, 5), (2, 5, 2)]);
    assert_eq!(lcas, vec![Some(2), Some(2), Some(2)]);
}

#[test]
fn empty_batches_everywhere() {
    let f = RcForest::<SumAgg<i64>>::new(5);
    assert!(f.batch_connected(&[]).is_empty());
    assert!(f.batch_path_aggregate(&[]).is_empty());
    assert!(f.batch_subtree_aggregate(&[]).is_empty());
    assert!(f.batch_lca(&[]).is_empty());
    assert!(f.batch_find_representatives(&[]).is_empty());
    // All-out-of-range batches: all None, no panic.
    assert_eq!(f.batch_path_aggregate(&[(9, 9)]), vec![None]);
    assert_eq!(f.batch_lca(&[(9, 9, 9)]), vec![None]);
    assert_eq!(f.batch_connected(&[(9, 9)]), vec![false]);
}
