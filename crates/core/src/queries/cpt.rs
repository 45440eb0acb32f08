//! Compressed path trees (§5.8, Anderson–Blelloch–Tangwongsan).
//!
//! Given `k` marked *terminal* vertices, produce a forest on the terminals
//! plus `O(k)` Steiner vertices such that the path aggregate between every
//! pair of terminals is preserved exactly (Fig. 4: "the max between any
//! pair of nodes is maintained in the compressed tree").
//!
//! Construction is one [`bottom_up`](crate::MarkedSweep::bottom_up)
//! visitor over the marked sweep. Each marked cluster summarizes its
//! terminals' partial Steiner tree by at most two *exposures* — the
//! nearest structure node toward each boundary with the exact path
//! aggregate from that boundary. Junctions materialize eagerly (possibly
//! as provisional degree-2 nodes); a final compaction removes non-terminal
//! leaves and splices non-terminal degree-2 nodes, combining edge
//! aggregates — which keeps every pairwise aggregate exact.
//!
//! Everything runs on flat arrays indexed by sweep slot: the terminal
//! flags, the exposures (structure nodes are named by slot), the emitted
//! edges and the compaction's CSR adjacency. Slots map back to vertex ids
//! only in the output. `O(k log(1 + n/k))` expected work, `O(k)` output.
//!
//! Out-of-range terminals are ignored — the compressed tree is a set
//! construction, so there is no per-terminal `None` slot to fill; queries
//! against [`CompressedPathTree::path_value`] answer `None` for vertices
//! absent from the tree.

use crate::aggregate::PathAggregate;
use crate::forest::RcForest;
use crate::types::{ClusterId, ClusterKind, Vertex};

/// A tree over `O(k)` vertices preserving pairwise path aggregates
/// between the `terminals` of the original forest.
#[derive(Clone, Debug)]
pub struct CompressedPathTree<P: PathAggregate> {
    /// Original vertex ids present in the compressed tree, sorted.
    pub vertices: Vec<Vertex>,
    /// Edges carrying the aggregate of the original path they contract.
    pub edges: Vec<(Vertex, Vertex, P::PathVal)>,
}

/// Exposure of a partial Steiner structure toward a boundary: the sweep
/// slot of the nearest structure node and the exact aggregate from the
/// boundary to it.
type Expose<T> = Option<(u32, T)>;

/// Exposures aligned with a cluster's sorted boundary array (unary
/// clusters use index 0 only).
type Exposures<T> = [Expose<T>; 2];

/// An edge of the Steiner structure between two sweep slots.
type SlotEdge<T> = (u32, u32, T);

#[derive(Clone)]
enum Partial<T> {
    Empty,
    Has(Exposures<T>),
}

impl<P: PathAggregate> RcForest<P> {
    /// Build the compressed path tree of `terminals` (duplicates allowed).
    pub fn compressed_path_tree(&self, terminals: &[Vertex]) -> CompressedPathTree<P> {
        let sweep = self.marked_sweep(terminals.iter().copied());
        let mut is_term = vec![false; sweep.len()];
        for &t in terminals {
            if let Some(s) = sweep.try_slot(t) {
                is_term[s as usize] = true;
            }
        }
        // Structure nodes are marked clusters' representatives, named by
        // sweep slot until the end.
        let mut emitted: Vec<SlotEdge<P::PathVal>> = Vec::new();
        // Parts attached directly at the visited representative: its rake
        // children's exposures and itself when it is a terminal.
        let mut parts: Vec<(u32, P::PathVal)> = Vec::new();

        // Bottom-up visitor over the marked sweep; emits junction edges as
        // a side effect and summarizes each cluster by its exposures. Only
        // marked children can hold terminals, so each is read once, from
        // the sweep's child lists.
        sweep.bottom_up(Partial::Empty, |s, partial| {
            let v = sweep.rep(s);
            let c = self.cluster(v);
            // Per binary child (aligned with `c.bin_children`): its
            // exposures and the index of the one toward `v`.
            let mut bin = [None, None];
            parts.clear();
            for &cs in sweep.children(s) {
                let Partial::Has(exp) = &partial[cs as usize] else {
                    continue;
                };
                let w = sweep.rep(cs);
                let wc = self.cluster(w);
                if wc.kind == ClusterKind::Unary {
                    // A rake child: its one exposure points at `v`.
                    parts.extend(exp[0].clone());
                } else {
                    let i = usize::from(c.bin_children[0] != ClusterId::vertex(w));
                    debug_assert_eq!(c.bin_children[i], ClusterId::vertex(w));
                    bin[i] = Some((exp, usize::from(wc.boundary[0] != v)));
                }
            }
            if is_term[s as usize] {
                parts.push((s, P::path_identity()));
            }
            // Exposure of binary child `i` toward `v` and toward its far
            // boundary `c.boundary[i]`.
            let near = |i: usize| bin[i].and_then(|(e, j)| e[j].clone());
            let far = |i: usize| bin[i].and_then(|(e, j)| e[1 - j].clone());
            let path = |i: usize| self.agg_of(c.bin_children[i]).cluster_path();

            match c.kind {
                ClusterKind::Unary => {
                    let e_near = near(0);
                    let dirs = parts.len() + usize::from(e_near.is_some());
                    match dirs {
                        0 => Partial::Empty,
                        1 => {
                            if e_near.is_some() {
                                Partial::Has([far(0), None])
                            } else {
                                let (t, d) = parts.pop().unwrap();
                                Partial::Has([Some((t, P::path_combine(&path(0), &d))), None])
                            }
                        }
                        _ => {
                            for (t, d) in parts.drain(..) {
                                if t != s {
                                    emitted.push((s, t, d));
                                }
                            }
                            if let Some((te, de)) = e_near {
                                emitted.push((s, te, de));
                                Partial::Has([far(0), None])
                            } else {
                                Partial::Has([Some((s, path(0))), None])
                            }
                        }
                    }
                }
                ClusterKind::Binary => {
                    let (l_near, r_near) = (near(0), near(1));
                    let dirs =
                        parts.len() + usize::from(l_near.is_some()) + usize::from(r_near.is_some());
                    match dirs {
                        0 => Partial::Empty,
                        1 => {
                            if let Some((tl, dl)) = l_near {
                                Partial::Has([far(0), Some((tl, P::path_combine(&path(1), &dl)))])
                            } else if let Some((tr, dr)) = r_near {
                                Partial::Has([Some((tr, P::path_combine(&path(0), &dr))), far(1)])
                            } else {
                                let (t, d) = parts.pop().unwrap();
                                if t != s {
                                    emitted.push((s, t, d));
                                }
                                Partial::Has([Some((s, path(0))), Some((s, path(1)))])
                            }
                        }
                        _ => {
                            for (t, d) in parts.drain(..) {
                                if t != s {
                                    emitted.push((s, t, d));
                                }
                            }
                            let e0 = if let Some((tl, dl)) = l_near {
                                emitted.push((s, tl, dl));
                                far(0)
                            } else {
                                Some((s, path(0)))
                            };
                            let e1 = if let Some((tr, dr)) = r_near {
                                emitted.push((s, tr, dr));
                                far(1)
                            } else {
                                Some((s, path(1)))
                            };
                            Partial::Has([e0, e1])
                        }
                    }
                }
                ClusterKind::Nullary => {
                    if parts.len() >= 2 {
                        for (t, d) in parts.drain(..) {
                            if t != s {
                                emitted.push((s, t, d));
                            }
                        }
                        Partial::Has([Some((s, P::path_identity())), None])
                    } else {
                        // 0 or 1 directions: structure already complete.
                        Partial::Empty
                    }
                }
                ClusterKind::Invalid => unreachable!(),
            }
        });

        let (nodes, edges) = compact::<P>(&emitted, &is_term);
        let mut vertices: Vec<Vertex> = nodes.into_iter().map(|s| sweep.rep(s)).collect();
        vertices.sort_unstable();
        CompressedPathTree {
            vertices,
            edges: edges
                .into_iter()
                .map(|(a, b, w)| (sweep.rep(a), sweep.rep(b), w))
                .collect(),
        }
    }
}

/// Compact the emitted Steiner forest over sweep slots: remove
/// non-terminal leaves, then splice the runs of non-terminal degree-2
/// nodes between *anchors* (terminals and nodes of degree ≥ 3), combining
/// the aggregates of merged edges. Returns the anchors and the compacted
/// edges.
fn compact<P: PathAggregate>(
    emitted: &[SlotEdge<P::PathVal>],
    is_term: &[bool],
) -> (Vec<u32>, Vec<SlotEdge<P::PathVal>>) {
    let m = is_term.len();
    // CSR adjacency over slots: node `x`'s edge ids are
    // `adj[off[x]..off[x + 1]]`.
    let mut deg = vec![0u32; m];
    for &(a, b, _) in emitted {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let mut off = vec![0u32; m + 1];
    for x in 0..m {
        off[x + 1] = off[x] + deg[x];
    }
    let mut cursor = off[..m].to_vec();
    let mut adj = vec![0u32; off[m] as usize];
    for (i, &(a, b, _)) in emitted.iter().enumerate() {
        for x in [a, b] {
            adj[cursor[x as usize] as usize] = i as u32;
            cursor[x as usize] += 1;
        }
    }
    let mut alive = vec![true; emitted.len()];
    let other = |i: u32, x: u32| {
        let (a, b, _) = &emitted[i as usize];
        if *a == x {
            *b
        } else {
            *a
        }
    };
    // The first live edge of `x`.
    let live_edge = |alive: &[bool], x: u32| {
        adj[off[x as usize] as usize..off[x as usize + 1] as usize]
            .iter()
            .copied()
            .find(|&i| alive[i as usize])
            .expect("node has a live edge")
    };

    // Prune non-terminal leaves; a pruned leaf's neighbour may become one.
    let mut stack: Vec<u32> = (0..m as u32)
        .filter(|&x| deg[x as usize] == 1 && !is_term[x as usize])
        .collect();
    while let Some(x) = stack.pop() {
        if deg[x as usize] != 1 {
            continue; // its last edge went with a neighbouring leaf
        }
        let i = live_edge(&alive, x);
        alive[i as usize] = false;
        deg[x as usize] = 0;
        let y = other(i, x);
        deg[y as usize] -= 1;
        if deg[y as usize] == 1 && !is_term[y as usize] {
            stack.push(y);
        }
    }

    // Walk from each anchor along every live edge, through degree-2
    // non-terminals, to the next anchor. Walked edges die, so the run is
    // emitted once.
    let is_anchor = |x: u32| is_term[x as usize] || deg[x as usize] >= 3;
    let mut nodes = Vec::new();
    let mut out = Vec::new();
    for a in (0..m as u32).filter(|&x| is_anchor(x)) {
        nodes.push(a);
        for k in off[a as usize]..off[a as usize + 1] {
            let i = adj[k as usize];
            if !alive[i as usize] {
                continue;
            }
            alive[i as usize] = false;
            let mut w = emitted[i as usize].2.clone();
            let mut y = other(i, a);
            while !is_anchor(y) {
                let j = live_edge(&alive, y);
                alive[j as usize] = false;
                w = P::path_combine(&w, &emitted[j as usize].2);
                y = other(j, y);
            }
            out.push((a, y, w));
        }
    }
    (nodes, out)
}

impl<P: PathAggregate> CompressedPathTree<P> {
    /// Path aggregate between two vertices of the compressed tree
    /// (BFS over the `O(k)` structure — test/verification helper).
    pub fn path_value(&self, u: Vertex, v: Vertex) -> Option<P::PathVal> {
        if u == v {
            return Some(P::path_identity());
        }
        let index = |x: Vertex| self.vertices.binary_search(&x).ok();
        let (iu, iv) = (index(u)?, index(v)?);
        let mut adj: Vec<Vec<(usize, &P::PathVal)>> = vec![Vec::new(); self.vertices.len()];
        for (a, b, w) in &self.edges {
            let (ia, ib) = (index(*a)?, index(*b)?);
            adj[ia].push((ib, w));
            adj[ib].push((ia, w));
        }
        let mut val: Vec<Option<P::PathVal>> = vec![None; self.vertices.len()];
        val[iu] = Some(P::path_identity());
        let mut queue = vec![iu];
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            let xv = val[x].clone().expect("queued vertices have values");
            if x == iv {
                return Some(xv);
            }
            for &(y, w) in &adj[x] {
                if val[y].is_none() {
                    val[y] = Some(P::path_combine(&xv, w));
                    queue.push(y);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::{MaxEdgeAgg, SumAgg};
    use crate::forest::{BuildOptions, RcForest};
    use crate::types::{ClusterId, ClusterKind};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn cpt_of_path_endpoints() {
        let edges: Vec<(u32, u32, i64)> = (0..9).map(|i| (i, i + 1, (i + 1) as i64)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(10, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[0, 9]);
        assert_eq!(
            cpt.edges.len(),
            1,
            "two terminals on a path compress to one edge"
        );
        assert_eq!(cpt.path_value(0, 9), Some(45));
    }

    #[test]
    fn cpt_star_center_branches() {
        // Terminals at three leaves of a star: center becomes Steiner.
        let edges = vec![(0u32, 1u32, 1i64), (0, 2, 2), (0, 3, 4)];
        let f = RcForest::<SumAgg<i64>>::build_edges(4, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[1, 2, 3]);
        assert_eq!(cpt.edges.len(), 3);
        assert!(cpt.vertices.contains(&0), "center kept as branch point");
        assert_eq!(cpt.path_value(1, 2), Some(3));
        assert_eq!(cpt.path_value(1, 3), Some(5));
        assert_eq!(cpt.path_value(2, 3), Some(6));
    }

    #[test]
    fn cpt_single_terminal() {
        let edges: Vec<(u32, u32, i64)> = (0..4).map(|i| (i, i + 1, 1)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[2]);
        assert_eq!(cpt.vertices, vec![2]);
        assert!(cpt.edges.is_empty());
    }

    #[test]
    fn cpt_disconnected_terminals() {
        let f = RcForest::<SumAgg<i64>>::build_edges(
            4,
            &[(0, 1, 3), (2, 3, 4)],
            BuildOptions::default(),
        )
        .unwrap();
        let cpt = f.compressed_path_tree(&[0, 1, 2, 3]);
        assert_eq!(cpt.path_value(0, 1), Some(3));
        assert_eq!(cpt.path_value(2, 3), Some(4));
        assert_eq!(cpt.path_value(0, 3), None);
    }

    #[test]
    fn cpt_compaction_edge_cases() {
        // A spider with centre 0 and arms 0-1-2-3, 0-4-5-6, 0-7-8-9, with
        // pendant leaves 13 on 1 and 14 on 5, plus a separate path
        // 10-11-12.
        let edges: Vec<(u32, u32, i64)> = vec![
            (0, 1, 1),
            (1, 2, 2),
            (2, 3, 4),
            (0, 4, 8),
            (4, 5, 16),
            (5, 6, 32),
            (0, 7, 64),
            (7, 8, 128),
            (8, 9, 256),
            (10, 11, 512),
            (11, 12, 1024),
            (1, 13, 2048),
            (5, 14, 4096),
        ];
        let mut naive = crate::naive::NaiveForest::<i64>::new(15);
        for &(u, v, w) in &edges {
            naive.link(u, v, w).unwrap();
        }
        let cases: [(&str, &[u32]); 6] = [
            ("duplicate terminals", &[3, 3, 6, 6, 3]),
            ("terminal at the branch point", &[0, 3, 6, 9]),
            ("terminal inside a degree-2 run", &[3, 2, 6]),
            ("degree-3 Steiner point", &[3, 6, 9]),
            ("separate components", &[3, 6, 11, 12]),
            ("single terminal", &[5]),
        ];
        // Different seeds give different RC trees over the same forest.
        for seed in 0..8u64 {
            let opts = BuildOptions {
                seed,
                ..BuildOptions::default()
            };
            let f = RcForest::<SumAgg<i64>>::build_edges(15, &edges, opts).unwrap();
            for (name, terms) in cases {
                let cpt = f.compressed_path_tree(terms);
                let mut distinct = terms.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert!(
                    cpt.vertices.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}, {name}: vertices not sorted: {:?}",
                    cpt.vertices
                );
                assert!(
                    cpt.vertices.len() <= 2 * distinct.len(),
                    "seed {seed}, {name}: {} vertices for {} terminals",
                    cpt.vertices.len(),
                    distinct.len()
                );
                assert!(
                    cpt.edges.iter().all(|(a, b, _)| a != b),
                    "seed {seed}, {name}: self-loop in {:?}",
                    cpt.edges
                );
                for &a in &distinct {
                    for &b in &distinct {
                        let want = naive.path_edges(a, b).map(|es| es.iter().sum::<i64>());
                        assert_eq!(
                            cpt.path_value(a, b),
                            want,
                            "seed {seed}, {name}: pair ({a},{b})"
                        );
                    }
                }
            }
            // The degree-3 Steiner point is kept; run interiors are not.
            let cpt = f.compressed_path_tree(&[3, 6, 9]);
            assert_eq!(cpt.vertices, vec![0, 3, 6, 9], "seed {seed}");
            let cpt = f.compressed_path_tree(&[3, 2, 6]);
            assert_eq!(cpt.vertices, vec![2, 3, 6], "seed {seed}");
            assert_eq!(cpt.edges.len(), 2, "seed {seed}");
            // A terminal alone in its component compresses to a bare
            // vertex: when it sits in a rake child, the junction emitted
            // above it is a non-terminal leaf that compaction prunes.
            for t in 0..15u32 {
                let other = if (10..13).contains(&t) { 0 } else { 11 };
                for terms in [vec![t], vec![t, other]] {
                    let cpt = f.compressed_path_tree(&terms);
                    let mut want = terms.clone();
                    want.sort_unstable();
                    assert_eq!(cpt.vertices, want, "seed {seed}, lone {terms:?}");
                    assert!(cpt.edges.is_empty(), "seed {seed}, lone {terms:?}");
                }
            }
        }

        // Leaf 3 rakes onto 1, which then compresses between the branch
        // points 0 and 2: a lone terminal at 3 emits a junction at 1 that
        // ends up a non-terminal leaf, so compaction has to prune it.
        let edges: Vec<(u32, u32, i64)> = [
            (0, 1),
            (1, 2),
            (1, 3),
            (0, 4),
            (4, 5),
            (2, 6),
            (6, 7),
            (2, 8),
            (0, 9),
        ]
        .iter()
        .map(|&(u, v)| (u, v, 1))
        .collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(10, &edges, BuildOptions::default()).unwrap();
        assert_eq!(f.cluster(1).kind, ClusterKind::Binary);
        assert!(f
            .cluster(1)
            .rake_children
            .iter()
            .any(|c| c == ClusterId::vertex(3)));
        for t in 0..10u32 {
            let cpt = f.compressed_path_tree(&[t]);
            assert_eq!(cpt.vertices, vec![t], "lone {t}");
            assert!(cpt.edges.is_empty(), "lone {t}");
        }
    }

    #[test]
    fn cpt_preserves_all_pairwise_sums_on_random_trees() {
        let n = 250usize;
        let mut rng = SplitMix64::new(808);
        for trial in 0..5 {
            let mut naive = crate::naive::NaiveForest::<i64>::new(n);
            let mut edges: Vec<(u32, u32, i64)> = Vec::new();
            for v in 1..n as u32 {
                let u = if rng.next_f64() < 0.5 {
                    v - 1
                } else {
                    rng.next_below(v as u64) as u32
                };
                let w = 1 + rng.next_below(40) as i64;
                if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                    edges.push((u, v, w));
                }
            }
            let f =
                RcForest::<SumAgg<i64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
            let terms: Vec<u32> = (0..12).map(|_| rng.next_below(n as u64) as u32).collect();
            let cpt = f.compressed_path_tree(&terms);
            assert!(
                cpt.vertices.len() <= 2 * terms.len(),
                "trial {trial}: compressed tree too large: {} vertices for {} terminals",
                cpt.vertices.len(),
                terms.len()
            );
            for &a in &terms {
                for &b in &terms {
                    let expect = naive.path_edges(a, b).map(|es| es.iter().sum::<i64>());
                    assert_eq!(
                        cpt.path_value(a, b),
                        expect,
                        "trial {trial}: pair ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn cpt_preserves_path_maxima() {
        let n = 150usize;
        let mut rng = SplitMix64::new(99);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            let u = if rng.next_f64() < 0.5 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = 1 + rng.next_below(1000);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f =
            RcForest::<MaxEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let terms: Vec<u32> = (0..10).map(|_| rng.next_below(n as u64) as u32).collect();
        let cpt = f.compressed_path_tree(&terms);
        for &a in &terms {
            for &b in &terms {
                if a == b {
                    continue;
                }
                let expect = naive
                    .path_edges(a, b)
                    .map(|es| es.iter().copied().max().unwrap());
                let got = cpt.path_value(a, b).map(|o| o.map(|e| e.w));
                assert_eq!(
                    got.map(|x| x.unwrap_or(0)),
                    expect.or(Some(0)).filter(|_| got.is_some()).or(expect),
                    "pair ({a},{b})"
                );
                match (cpt.path_value(a, b), naive.path_edges(a, b)) {
                    (Some(Some(e)), Some(es)) => {
                        assert_eq!(e.w, es.iter().copied().max().unwrap(), "max ({a},{b})")
                    }
                    (None, None) => {}
                    (Some(None), Some(es)) => assert!(es.is_empty()),
                    (x, y) => panic!("shape mismatch ({a},{b}): {x:?} vs {y:?}"),
                }
            }
        }
    }
}
