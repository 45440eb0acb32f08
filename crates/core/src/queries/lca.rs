//! LCA queries on dynamic trees (§3.5, §5.7, supplementary A.8).
//!
//! The batch algorithm marks the ancestors of all query vertices once,
//! builds depth, root-label and `root_boundary` orientation arrays and a
//! binary-lifting table (ancestor + highest unary cluster per level) over
//! the **marked subtree only**, and answers each query by the casework of
//! A.8. The RC-LCA of two marked clusters comes from the same lifting
//! table: lift the deeper one to equal depth, then descend the levels.
//!
//! * the *common boundary* `c` (representative of the RC-LCA of `U`, `V`)
//!   is the answer unless the walk to the root departs into one of the
//!   arrival children's cluster paths,
//! * in which case the answer is the vertex on that cluster path closest
//!   to the query vertex — found via the highest unary ancestor.
//!
//! Arbitrary roots reduce to three fixed-root queries XOR-ed together
//! (Lemma A.10). The paper concedes a log factor on the static LCA
//! structure — the Berkman–Vishkin structure exists but "has a 2^228
//! constant factor" (§5.7). The marked subtree is only `O(log n)` deep,
//! so its lifting table has `O(log log n)` levels: for `m` marked
//! clusters the tables cost `O(m log log n)` work, and each query
//! `O(log log n)`.

use crate::aggregate::ClusterAggregate;
use crate::forest::RcForest;
use crate::queries::engine::MarkedSweep;
use crate::types::{ClusterId, ClusterKind, Vertex, NO_VERTEX};
use rayon::prelude::*;
use rc_parlay::NONE_U32;

impl<A: ClusterAggregate> RcForest<A> {
    /// LCA of `u` and `v` in the tree rooted at `r`; `None` when the three
    /// vertices are not in one tree. `O(log n)`.
    pub fn lca(&self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        if u as usize >= self.n || v as usize >= self.n || r as usize >= self.n {
            return None;
        }
        let root = self.find_representative(u);
        if self.find_representative(v) != root || self.find_representative(r) != root {
            return None;
        }
        if u == v || u == r {
            return Some(u);
        }
        if v == r {
            return Some(v);
        }
        let l1 = self.fixed_lca(u, v, root);
        let l2 = self.fixed_lca(u, r, root);
        let l3 = self.fixed_lca(v, r, root);
        // Lemma A.10: two of the three coincide; XOR extracts the answer.
        Some(l1 ^ l2 ^ l3)
    }

    /// LCA of `u`, `v` with respect to the component root representative
    /// `root` (the vertex that contracted last — rep of the root cluster).
    fn fixed_lca(&self, u: Vertex, v: Vertex, root: Vertex) -> Vertex {
        if u == v {
            return u;
        }
        if u == root || v == root {
            return root;
        }
        // Synchronized ascent to the RC-LCA, remembering arrival children.
        let (m, arr_u, arr_v) = self.rc_meet(u, v);
        let c = m;
        if c == root {
            // The meet is the root cluster — also covers D_{u,v,r} ties.
            return self.meet_answer(u, v, m, arr_u, arr_v, NO_VERTEX);
        }
        // Orientation: which boundary of M leads to the root.
        let rb_m = self.root_boundary_single(m);
        self.meet_answer(u, v, m, arr_u, arr_v, rb_m)
    }

    /// Shared fixed-root casework, given the meet cluster rep `m`, the
    /// arrival children (`None` when the respective endpoint *is* `m`),
    /// and `rb_m` = the boundary of `M` toward the root (`NO_VERTEX` when
    /// `M` is the root cluster).
    fn meet_answer(
        &self,
        u: Vertex,
        v: Vertex,
        m: Vertex,
        arr_u: Option<Vertex>,
        arr_v: Option<Vertex>,
        rb_m: Vertex,
    ) -> Vertex {
        let c = m;
        match (arr_u, arr_v) {
            (None, None) => c, // u == v == m (excluded earlier), defensive
            (Some(x), None) => {
                // c == v: is the root on the same side of v as x?
                self.one_sided_answer(u, x, c, rb_m)
            }
            (None, Some(y)) => self.one_sided_answer(v, y, c, rb_m),
            (Some(x), Some(y)) => {
                let between_x = self.c_between(x, rb_m);
                let between_y = self.c_between(y, rb_m);
                if between_x && between_y {
                    c
                } else if !between_x {
                    self.closest_on_cluster_path(x, u)
                } else {
                    self.closest_on_cluster_path(y, v)
                }
            }
        }
    }

    /// Case `c ∈ {u, v}` (A.8): `x` is the child of `C` toward the other
    /// endpoint `w`. If `X` is unary, or the root lies on the opposite
    /// side of `c` from `X`'s cluster path, the LCA is `c`; otherwise it
    /// is the vertex on `X`'s cluster path closest to `w`.
    fn one_sided_answer(&self, w: Vertex, x: Vertex, c: Vertex, rb_m: Vertex) -> Vertex {
        let xc = self.cluster(x);
        if xc.kind != ClusterKind::Binary {
            return c;
        }
        let far = if xc.boundary[0] == c {
            xc.boundary[1]
        } else {
            xc.boundary[0]
        };
        if far != rb_m {
            c
        } else {
            self.closest_on_cluster_path(x, w)
        }
    }

    /// Is `c = rep(M)` on the path from `X`'s contents to the root?
    /// True when `X` is unary (its only exit is `c`) or its far boundary
    /// is not the root boundary of `M`.
    fn c_between(&self, x: Vertex, rb_m: Vertex) -> bool {
        let xc = self.cluster(x);
        if xc.kind != ClusterKind::Binary {
            return true;
        }
        let c_parent = xc.parent;
        debug_assert!(c_parent.is_vertex());
        let c = c_parent.as_vertex();
        let far = if xc.boundary[0] == c {
            xc.boundary[1]
        } else {
            xc.boundary[0]
        };
        far != rb_m
    }

    /// Synchronized ascent from `cluster(u)` and `cluster(v)` to their
    /// RC-LCA. Returns `(rep of meet, arrival child of u-side, arrival
    /// child of v-side)`; an arrival child is `None` when that side's
    /// start cluster *is* the meet.
    fn rc_meet(&self, u: Vertex, v: Vertex) -> (Vertex, Option<Vertex>, Option<Vertex>) {
        let mut cu = u;
        let mut cv = v;
        let mut au: Option<Vertex> = None;
        let mut av: Option<Vertex> = None;
        loop {
            if cu == cv {
                return (cu, au, av);
            }
            let ru = self.cluster(cu).round;
            let rv = self.cluster(cv).round;
            if ru <= rv {
                let p = self.cluster(cu).parent;
                assert!(!p.is_none(), "rc_meet on disconnected vertices");
                au = Some(cu);
                cu = p.as_vertex();
            } else {
                let p = self.cluster(cv).parent;
                assert!(!p.is_none(), "rc_meet on disconnected vertices");
                av = Some(cv);
                cv = p.as_vertex();
            }
        }
    }

    /// `root_boundary` of a single cluster: walk to the root collecting
    /// the chain, then orient downward (`O(log n)`).
    fn root_boundary_single(&self, m: Vertex) -> Vertex {
        let chain = self.chain_to_root(m);
        // chain[last] is the root; compute rb downward.
        let mut rb = NO_VERTEX;
        for i in (0..chain.len() - 1).rev() {
            let p_rep = chain[i + 1];
            let c = self.cluster(chain[i]);
            rb = if rb != NO_VERTEX && (c.boundary[0] == rb || c.boundary[1] == rb) {
                rb
            } else {
                p_rep
            };
        }
        rb
    }

    fn chain_to_root(&self, m: Vertex) -> Vec<Vertex> {
        let mut chain = vec![m];
        let mut c = ClusterId::vertex(m);
        loop {
            let p = self.parent_of(c);
            if p.is_none() {
                return chain;
            }
            chain.push(p.as_vertex());
            c = p;
        }
    }

    /// The vertex on the cluster path of binary cluster `X` closest to the
    /// contained vertex `w` (Lemma A.14): `w` itself if it lies on the
    /// cluster path (no unary cluster on the chain `[W, X)`), else the
    /// boundary of the highest unary cluster on that chain.
    fn closest_on_cluster_path(&self, x: Vertex, w: Vertex) -> Vertex {
        let mut cur = w;
        let mut highest_unary: Option<Vertex> = None;
        while cur != x {
            if self.cluster(cur).kind == ClusterKind::Unary {
                highest_unary = Some(cur);
            }
            let p = self.cluster(cur).parent;
            debug_assert!(p.is_vertex(), "w must be inside X");
            cur = p.as_vertex();
        }
        match highest_unary {
            None => w,
            Some(wu) => self.cluster(wu).boundary[0],
        }
    }

    /// `BatchLCA`: answer `k` arbitrary-root LCA queries `(u, v, r)`,
    /// sharing the marked subtree, its static-LCA tables and the
    /// orientation pass across the whole batch (§3.5). Queries naming an
    /// out-of-range vertex answer `None`.
    pub fn batch_lca(&self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let sweep = self.marked_sweep(queries.iter().flat_map(|&(u, v, r)| [u, v, r]));
        if sweep.is_empty() {
            return vec![None; queries.len()];
        }
        let tables = LcaTables::build(self, &sweep);

        queries
            .par_iter()
            .map(|&(u, v, r)| {
                if [u, v, r].iter().any(|&x| !self.in_range(x)) {
                    return None;
                }
                let su = sweep.slot(u);
                let sv = sweep.slot(v);
                let sr = sweep.slot(r);
                let root_u = tables.root_label[su as usize];
                if tables.root_label[sv as usize] != root_u
                    || tables.root_label[sr as usize] != root_u
                {
                    return None;
                }
                if u == v || u == r {
                    return Some(u);
                }
                if v == r {
                    return Some(v);
                }
                let l1 = tables.fixed(self, &sweep, u, v, root_u);
                let l2 = tables.fixed(self, &sweep, u, r, root_u);
                let l3 = tables.fixed(self, &sweep, v, r, root_u);
                Some(l1 ^ l2 ^ l3)
            })
            .collect()
    }
}

/// Static tables over the marked subtree: depths, root labels and
/// orientation, and binary lifting with highest-unary tracking. Shared
/// by batch LCA and batch path sums.
pub(crate) struct LcaTables {
    depth: Vec<u32>,
    /// Per slot: representative of the component's root cluster.
    pub(crate) root_label: Vec<Vertex>,
    /// Per slot: the boundary toward the component root
    /// ([`MarkedSweep::root_boundary`]).
    pub(crate) root_boundary: Vec<Vertex>,
    /// Binary lifting: `lift[j][slot]` = (the 2^j-th marked ancestor,
    /// the topmost unary cluster among the window of 2^j nodes starting
    /// at `slot` going up, or `NONE_U32`).
    lift: Vec<Vec<(u32, u32)>>,
}

impl LcaTables {
    pub(crate) fn build<A: ClusterAggregate>(f: &RcForest<A>, sweep: &MarkedSweep<'_, A>) -> Self {
        let m = sweep.len();
        // Depth + root labels + orientation via engine top-down passes.
        let root_label = sweep.root_labels();
        let root_boundary = sweep.root_boundary();
        let depth = sweep.top_down(0u32, |s, vals| match sweep.parent(s) {
            None => 0,
            Some(p) => *vals.get(p) + 1,
        });
        // Binary lifting + highest-unary windows. The marked subtree is
        // `O(log n)` deep, so there are `O(log log n)` levels.
        let maxd = depth.iter().copied().max().unwrap_or(0) as usize;
        let levels = (usize::BITS - maxd.max(1).leading_zeros()) as usize + 1;
        let mut lift: Vec<Vec<(u32, u32)>> = Vec::with_capacity(levels);
        lift.push(
            (0..m)
                .into_par_iter()
                .map(|s| {
                    let s = s as u32;
                    let unary = f.cluster(sweep.rep(s)).kind == ClusterKind::Unary;
                    (
                        sweep.parent(s).unwrap_or(NONE_U32),
                        if unary { s } else { NONE_U32 },
                    )
                })
                .collect(),
        );
        for j in 1..levels {
            let prev = &lift[j - 1];
            let level = (0..m)
                .into_par_iter()
                .map(|s| {
                    let (half, low) = prev[s];
                    if half == NONE_U32 {
                        (NONE_U32, low)
                    } else {
                        let (top, high) = prev[half as usize];
                        (top, if high != NONE_U32 { high } else { low })
                    }
                })
                .collect();
            lift.push(level);
        }
        LcaTables {
            depth,
            root_label,
            root_boundary,
            lift,
        }
    }

    /// RC-LCA of two slots of one component, with the arrival children:
    /// the ancestors of `a` and `b` one level below the meet (`None` for
    /// a side that is the meet itself). Equalizes depths, then descends
    /// the lifting levels.
    fn meet(&self, a: u32, b: u32) -> (u32, Option<u32>, Option<u32>) {
        let (da, db) = (self.depth[a as usize], self.depth[b as usize]);
        if da < db {
            let (m, arr_b, arr_a) = self.meet(b, a);
            return (m, arr_a, arr_b);
        }
        let mut x = a;
        if da > db {
            let below = self.level_anc(a, db + 1);
            x = self.lift[0][below as usize].0;
            if x == b {
                return (b, Some(below), None);
            }
        } else if a == b {
            return (a, None, None);
        }
        let mut y = b;
        for level in self.lift.iter().rev() {
            let (ux, uy) = (level[x as usize].0, level[y as usize].0);
            if ux != uy {
                x = ux;
                y = uy;
            }
        }
        (self.lift[0][x as usize].0, Some(x), Some(y))
    }

    /// Marked ancestor of `s` at depth `d` (level ancestor).
    fn level_anc(&self, mut s: u32, d: u32) -> u32 {
        let mut delta = self.depth[s as usize] - d;
        let mut j = 0;
        while delta > 0 {
            if delta & 1 == 1 {
                s = self.lift[j][s as usize].0;
            }
            delta >>= 1;
            j += 1;
        }
        s
    }

    /// Topmost unary cluster on the chain `[from, to)` (`to` exclusive);
    /// `NONE_U32` if none.
    fn highest_unary(&self, from: u32, to: u32) -> u32 {
        let mut steps = self.depth[from as usize] - self.depth[to as usize];
        let mut s = from;
        let mut best = NONE_U32;
        let mut j = 0;
        while steps > 0 {
            if steps & 1 == 1 {
                let (up, cand) = self.lift[j][s as usize];
                if cand != NONE_U32 {
                    best = cand; // later windows are higher: overwrite
                }
                s = up;
            }
            steps >>= 1;
            j += 1;
        }
        best
    }

    /// LCA of the marked vertices `u` and `v` with respect to their
    /// component root representative `root`, using the precomputed
    /// tables. The answer is `u`, `v`, `root`, the meet's representative
    /// or a boundary of a marked unary cluster, so it is always marked.
    pub(crate) fn fixed<A: ClusterAggregate>(
        &self,
        f: &RcForest<A>,
        sweep: &MarkedSweep<'_, A>,
        u: Vertex,
        v: Vertex,
        root: Vertex,
    ) -> Vertex {
        if u == v {
            return u;
        }
        if u == root || v == root {
            return root;
        }
        let su = sweep.slot(u);
        let sv = sweep.slot(v);
        let (sm, arr_u, arr_v) = self.meet(su, sv);
        let c = sweep.rep(sm);
        let rb_m = self.root_boundary[sm as usize];
        // Is `c` on the path from arrival child `X`'s contents to the
        // root? True when `X` is unary (its only exit is `c`) or its far
        // boundary is not the root boundary of the meet.
        let between = |sx: u32| -> bool {
            let xc = f.cluster(sweep.rep(sx));
            if xc.kind != ClusterKind::Binary {
                return true;
            }
            let far = if xc.boundary[0] == c {
                xc.boundary[1]
            } else {
                xc.boundary[0]
            };
            far != rb_m
        };
        // The vertex on `X`'s cluster path closest to the contained start
        // `w` (Lemma A.14).
        let closest = |sx: u32, sw: u32| -> Vertex {
            let hu = self.highest_unary(sw, sx);
            if hu == NONE_U32 {
                sweep.rep(sw)
            } else {
                f.cluster(sweep.rep(hu)).boundary[0]
            }
        };
        match (arr_u, arr_v) {
            (Some(x), _) if !between(x) => closest(x, su),
            (_, Some(y)) if !between(y) => closest(y, sv),
            _ => c,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::UnitAgg;
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    type F = RcForest<UnitAgg>;

    fn build(n: usize, edges: &[(u32, u32)]) -> F {
        let e: Vec<(u32, u32, ())> = edges.iter().map(|&(u, v)| (u, v, ())).collect();
        F::build_edges(n, &e, BuildOptions::default()).unwrap()
    }

    #[test]
    fn lca_on_small_star() {
        // 1 - 0 - 2, 0 - 3 - 4.
        let f = build(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        assert_eq!(f.lca(1, 2, 4), Some(0));
        assert_eq!(f.lca(1, 4, 2), Some(0));
        assert_eq!(f.lca(4, 0, 1), Some(0));
        assert_eq!(f.lca(4, 3, 3), Some(3));
        assert_eq!(f.lca(1, 1, 4), Some(1));
        assert_eq!(f.lca(2, 4, 4), Some(4));
    }

    #[test]
    fn lca_on_path_all_triples() {
        let n = 10u32;
        let f = build(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        // On a path, LCA(u,v,r) is the median of the three positions.
        for u in 0..n {
            for v in 0..n {
                for r in 0..n {
                    let mut t = [u, v, r];
                    t.sort_unstable();
                    assert_eq!(f.lca(u, v, r), Some(t[1]), "lca({u},{v},{r})");
                }
            }
        }
    }

    #[test]
    fn lca_disconnected() {
        let f = build(4, &[(0, 1), (2, 3)]);
        assert_eq!(f.lca(0, 1, 2), None);
        assert_eq!(f.lca(0, 2, 1), None);
        assert_eq!(f.lca(0, 1, 1), Some(1));
    }

    #[test]
    fn lca_matches_naive_on_random_trees() {
        let n = 200usize;
        let mut rng = SplitMix64::new(99);
        for trial in 0..5 {
            let mut naive = crate::naive::NaiveForest::<u64>::new(n);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for v in 1..n as u32 {
                let mut u = rng.next_below(v as u64) as u32;
                let mut guard = 0;
                while naive.degree(u) >= 3 && guard < 50 {
                    u = rng.next_below(v as u64) as u32;
                    guard += 1;
                }
                if naive.degree(u) < 3 {
                    naive.link(u, v, 1).unwrap();
                    edges.push((u, v));
                }
            }
            let f = build(n, &edges);
            for _ in 0..400 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                let r = rng.next_below(n as u64) as u32;
                assert_eq!(
                    f.lca(u, v, r),
                    naive.lca(u, v, r),
                    "trial {trial}: lca({u},{v},{r})"
                );
            }
        }
    }

    #[test]
    fn batch_lca_matches_single() {
        let n = 300usize;
        let mut rng = SplitMix64::new(4242);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.05 {
                continue; // some disconnection
            }
            let u = if rng.next_f64() < 0.7 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            if naive.degree(u) < 3 && naive.link(u, v, 1).is_ok() {
                edges.push((u, v));
            }
        }
        let f = build(n, &edges);
        let queries: Vec<(u32, u32, u32)> = (0..500)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        let batch = f.batch_lca(&queries);
        for (i, &(u, v, r)) in queries.iter().enumerate() {
            assert_eq!(batch[i], naive.lca(u, v, r), "batch lca({u},{v},{r})");
        }
    }

    #[test]
    fn lca_after_updates() {
        let mut f = build(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        assert_eq!(f.lca(0, 3, 2), Some(2));
        f.batch_link(&[(3, 4, ())]).unwrap();
        assert_eq!(f.lca(0, 7, 3), Some(3));
        assert_eq!(f.lca(0, 7, 5), Some(5));
        f.batch_cut(&[(2, 3)]).unwrap();
        assert_eq!(f.lca(0, 7, 3), None);
    }
}
