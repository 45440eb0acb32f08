//! Batch path-minima/maxima ("bottleneck") queries (§3.7).
//!
//! Semigroup path queries can't be batched below the MST-verification
//! lower bound, but extrema can: shrink the tree to the compressed path
//! tree of the `O(k)` query endpoints (which preserves pairwise extrema),
//! then solve the static offline problem on the small tree. The paper uses
//! King et al.'s `O(n + k)` MST-verification subroutine; here the
//! compressed tree is rooted by BFS and queried by binary lifting, which
//! costs `O(k log k)` — one log factor above King et al., paid for a much
//! simpler solver on a tree of only `O(k)` vertices.

use crate::aggregate::PathAggregate;
use crate::forest::RcForest;
use crate::queries::cpt::CompressedPathTree;
use crate::types::Vertex;
use rayon::prelude::*;

impl<P: PathAggregate> RcForest<P> {
    /// For each pair `(u, v)`, the path-monoid aggregate of the `u..v`
    /// path, computed through a compressed path tree shared across the
    /// batch. With [`crate::MinEdgeAgg`] / [`crate::MaxEdgeAgg`] this is
    /// `BatchPathMin` / `BatchPathMax` — the lightest/heaviest edge with
    /// its endpoints.
    pub fn batch_path_extrema(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<P::PathVal>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut terms = Vec::with_capacity(pairs.len() * 2);
        for &(u, v) in pairs {
            if (u as usize) < self.n && (v as usize) < self.n {
                terms.push(u);
                terms.push(v);
            }
        }
        let cpt = self.compressed_path_tree(&terms);
        let solver = StaticPathSolver::<P>::build(&cpt);
        pairs
            .par_iter()
            .map(|&(u, v)| {
                if u as usize >= self.n || v as usize >= self.n {
                    return None;
                }
                if u == v {
                    return Some(P::path_identity());
                }
                solver.query(u, v)
            })
            .collect()
    }
}

/// Offline static path-aggregate solver over a small tree: rooting by
/// BFS + binary lifting carrying the aggregate toward each ancestor.
/// Vertices are indexed by their position in the tree's sorted vertex
/// list.
pub(crate) struct StaticPathSolver<'t, P: PathAggregate> {
    vertices: &'t [Vertex],
    depth: Vec<u32>,
    comp: Vec<u32>,
    /// `lift[j][x]` = (the 2^j-th ancestor of `x`, self when past the
    /// root; the aggregate from `x` up to that ancestor).
    lift: Vec<Vec<(u32, P::PathVal)>>,
}

impl<'t, P: PathAggregate> StaticPathSolver<'t, P> {
    pub(crate) fn build(cpt: &'t CompressedPathTree<P>) -> Self {
        let vertices = &cpt.vertices[..];
        let n = vertices.len();
        let index = |v: Vertex| {
            vertices
                .binary_search(&v)
                .expect("edge endpoint is a tree vertex") as u32
        };
        // CSR adjacency: `x`'s (neighbour, edge index) pairs are
        // `adj[off[x]..off[x + 1]]`.
        let ends: Vec<(u32, u32)> = cpt
            .edges
            .iter()
            .map(|(a, b, _)| (index(*a), index(*b)))
            .collect();
        let mut off = vec![0u32; n + 1];
        for &(a, b) in &ends {
            off[a as usize + 1] += 1;
            off[b as usize + 1] += 1;
        }
        for x in 0..n {
            off[x + 1] += off[x];
        }
        let mut cursor = off[..n].to_vec();
        let mut adj = vec![(0u32, 0u32); 2 * ends.len()];
        for (i, &(a, b)) in ends.iter().enumerate() {
            for (x, y) in [(a, b), (b, a)] {
                adj[cursor[x as usize] as usize] = (y, i as u32);
                cursor[x as usize] += 1;
            }
        }
        // BFS rooting per component, over one queue with a head index.
        let mut parent = vec![u32::MAX; n];
        let mut pw: Vec<P::PathVal> = vec![P::path_identity(); n];
        let mut depth = vec![0u32; n];
        let mut comp = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for s in 0..n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = s;
            parent[s as usize] = s;
            let mut head = queue.len();
            queue.push(s);
            while head < queue.len() {
                let x = queue[head] as usize;
                head += 1;
                for &(y, i) in &adj[off[x] as usize..off[x + 1] as usize] {
                    if comp[y as usize] == u32::MAX {
                        comp[y as usize] = s;
                        parent[y as usize] = x as u32;
                        pw[y as usize] = cpt.edges[i as usize].2.clone();
                        depth[y as usize] = depth[x] + 1;
                        queue.push(y);
                    }
                }
            }
        }
        // Lifting tables. Roots point at themselves with the identity
        // aggregate at every level, so lifts past a root are no-ops.
        let maxd = depth.iter().copied().max().unwrap_or(0).max(1);
        let levels = (32 - maxd.leading_zeros()) as usize + 1;
        let mut lift: Vec<Vec<(u32, P::PathVal)>> = Vec::with_capacity(levels);
        lift.push(parent.into_iter().zip(pw).collect());
        for j in 1..levels {
            let prev = &lift[j - 1];
            let level = (0..n)
                .into_par_iter()
                .map(|x| {
                    let (h, below) = &prev[x];
                    let (top, above) = &prev[*h as usize];
                    (*top, P::path_combine(below, above))
                })
                .collect();
            lift.push(level);
        }
        StaticPathSolver {
            vertices,
            depth,
            comp,
            lift,
        }
    }

    fn index(&self, v: Vertex) -> Option<u32> {
        self.vertices.binary_search(&v).ok().map(|i| i as u32)
    }

    pub(crate) fn query(&self, u: Vertex, v: Vertex) -> Option<P::PathVal> {
        let mut x = self.index(u)?;
        let mut y = self.index(v)?;
        if self.comp[x as usize] != self.comp[y as usize] {
            return None;
        }
        let mut acc = P::path_identity();
        // Lift to equal depth.
        if self.depth[x as usize] < self.depth[y as usize] {
            std::mem::swap(&mut x, &mut y);
        }
        let mut delta = self.depth[x as usize] - self.depth[y as usize];
        let mut j = 0;
        while delta > 0 {
            if delta & 1 == 1 {
                let (up, a) = &self.lift[j][x as usize];
                acc = P::path_combine(&acc, a);
                x = *up;
            }
            delta >>= 1;
            j += 1;
        }
        if x == y {
            return Some(acc);
        }
        // Lift both to just below the LCA.
        for level in self.lift.iter().rev() {
            let ((ux, ax), (uy, ay)) = (&level[x as usize], &level[y as usize]);
            if ux != uy {
                acc = P::path_combine(&acc, ax);
                acc = P::path_combine(&acc, ay);
                x = *ux;
                y = *uy;
            }
        }
        acc = P::path_combine(&acc, &self.lift[0][x as usize].1);
        acc = P::path_combine(&acc, &self.lift[0][y as usize].1);
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::{MaxEdgeAgg, MinEdgeAgg};
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn batch_extrema_on_path() {
        let edges: Vec<(u32, u32, u64)> = vec![(0, 1, 5), (1, 2, 9), (2, 3, 2), (3, 4, 7)];
        let f =
            RcForest::<MinEdgeAgg<u64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let got = f.batch_path_extrema(&[(0, 4), (0, 1), (1, 3), (2, 2)]);
        assert_eq!(got[0].unwrap().unwrap().w, 2);
        assert_eq!(got[1].unwrap().unwrap().w, 5);
        assert_eq!(got[2].unwrap().unwrap().w, 2);
        assert_eq!(got[3].unwrap(), None, "empty path has no edges");
    }

    #[test]
    fn batch_extrema_matches_naive() {
        let n = 300usize;
        let mut rng = SplitMix64::new(606);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.05 {
                continue;
            }
            let u = if rng.next_f64() < 0.6 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = 1 + rng.next_below(10_000);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f =
            RcForest::<MaxEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let pairs: Vec<(u32, u32)> = (0..300)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        let got = f.batch_path_extrema(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let expect = naive.path_edges(u, v);
            match (&got[i], expect) {
                (None, None) => {}
                (Some(opt), Some(es)) => {
                    if es.is_empty() {
                        assert!(opt.is_none(), "({u},{v})");
                    } else {
                        assert_eq!(
                            opt.unwrap().w,
                            es.iter().copied().max().unwrap(),
                            "({u},{v})"
                        );
                    }
                }
                (g, e) => panic!("({u},{v}): {g:?} vs {e:?}"),
            }
        }
    }
}
