//! Batch dynamic updates via change propagation (§5.3).
//!
//! A batch of `k` edge insertions/deletions is applied by surgically
//! editing the level-0 records of the endpoints and then repairing the
//! contraction history level by level: at each level, the *frontier* (the
//! set of possibly-affected live vertices) rebuilds its records from the
//! previous level, re-decides its contraction events, rebuilds the
//! clusters of re-contracted vertices, and marks the next level's
//! frontier. Unaffected vertices keep their records, events and clusters.
//!
//! Because the randomized decision rule is a pure function of the 1-hop
//! level state, the repaired structure is **identical to a fresh rebuild**
//! of the new forest with the same seed — which the test suite asserts
//! directly. Expected work is `O(k log(1 + n/k))`, span `O(log² n)`.
//!
//! After the structural repair, a *value-propagation* pass recomputes
//! augmented values on the ancestors of every touched cluster, processing
//! dirty clusters in increasing round order and stopping early when a
//! recomputed aggregate is unchanged.

use crate::aggregate::ClusterAggregate;
use crate::build::UnionFind;
use crate::decide::decide_randomized;
use crate::forest::RcForest;
use crate::types::*;
use rayon::prelude::*;
use std::collections::HashMap;

/// Per-frontier-vertex working state for one level of repair.
struct FrontEntry {
    v: Vertex,
    /// The vertex's record at this level in the *old* history, if it was
    /// live here before the update.
    old_rec: Option<LevelRecord>,
    /// Whether the adjacency part of the record changed.
    rec_changed: bool,
    /// Newly decided event (filled in the decide phase).
    new_event: Event,
}

impl<A: ClusterAggregate> RcForest<A> {
    /// Representative of `v`'s component: the representative vertex of the
    /// root cluster (two vertices are connected iff their representatives
    /// are equal).
    pub fn find_representative(&self, v: Vertex) -> Vertex {
        let mut c = ClusterId::vertex(v);
        loop {
            let p = self.parent_of(c);
            if p.is_none() {
                return c.as_vertex();
            }
            c = p;
        }
    }

    /// Insert a batch of weighted edges in parallel.
    ///
    /// Validates ids, self-loops, duplicates, degree bounds, and acyclicity
    /// (including cycles formed *among* the new edges). `O(k log n)`
    /// validation + `O(k log(1 + n/k))` expected repair work.
    pub fn batch_link(
        &mut self,
        links: &[(Vertex, Vertex, A::EdgeWeight)],
    ) -> Result<(), ForestError> {
        self.validate_links(links, &[])?;
        // Cycle check: union-find over the batch's distinct component
        // representatives, renumbered compactly, so the check costs
        // O(k log k) rather than O(n).
        let reprs: Vec<(Vertex, Vertex)> = links
            .par_iter()
            .map(|&(u, v, _)| (self.find_representative(u), self.find_representative(v)))
            .collect();
        let mut ids: Vec<Vertex> = reprs.iter().flat_map(|&(ru, rv)| [ru, rv]).collect();
        ids.sort_unstable();
        ids.dedup();
        let id = |r: Vertex| ids.binary_search(&r).expect("representative is in ids") as u32;
        let mut uf = UnionFind::new(ids.len());
        for (i, &(ru, rv)) in reprs.iter().enumerate() {
            if ru == rv || !uf.union(id(ru), id(rv)) {
                let (u, v, _) = links[i].clone();
                return Err(ForestError::WouldCreateCycle { u, v });
            }
        }
        self.propagate(links, &[]);
        self.bump_version();
        Ok(())
    }

    /// Delete a batch of edges in parallel. Each edge must exist and may
    /// appear only once.
    pub fn batch_cut(&mut self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        self.validate_cuts(cuts)?;
        self.propagate(&[], cuts);
        self.bump_version();
        Ok(())
    }

    /// Apply deletions and insertions in a single change-propagation pass
    /// (the paper's combined update). Degree bounds and edge existence are
    /// checked; **acyclicity of the insertions is the caller's
    /// responsibility** (checking it against the post-deletion forest
    /// would require applying the deletions first — use
    /// [`RcForest::batch_cut`] followed by [`RcForest::batch_link`] when
    /// validation is wanted).
    pub fn batch_update_unchecked(
        &mut self,
        links: &[(Vertex, Vertex, A::EdgeWeight)],
        cuts: &[(Vertex, Vertex)],
    ) -> Result<(), ForestError> {
        self.validate_cuts(cuts)?;
        self.validate_links(links, cuts)?;
        self.propagate(links, cuts);
        self.bump_version();
        Ok(())
    }

    /// Update vertex weights and repropagate augmented values,
    /// `O(k log(1 + n/k))` work. Rejects out-of-range vertices up front
    /// (nothing is applied), so malformed requests cannot panic a serving
    /// loop.
    pub fn update_vertex_weights(
        &mut self,
        updates: &[(Vertex, A::VertexWeight)],
    ) -> Result<(), ForestError> {
        for &(v, _) in updates {
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
        }
        let mut seed = Vec::with_capacity(updates.len());
        for (v, w) in updates {
            self.vertex_weights[*v as usize] = w.clone();
            seed.push(*v);
        }
        self.value_pass(seed);
        self.bump_version();
        Ok(())
    }

    /// Update edge weights and repropagate augmented values. Rejects
    /// missing edges up front (nothing is applied on error).
    pub fn update_edge_weights(
        &mut self,
        updates: &[(Vertex, Vertex, A::EdgeWeight)],
    ) -> Result<(), ForestError> {
        for &(u, v, _) in updates {
            if self.find_base_edge(u, v).is_none() {
                return Err(ForestError::MissingEdge { u, v });
            }
        }
        let mut seed = Vec::with_capacity(updates.len());
        for &(u, v, ref w) in updates {
            let e = self
                .find_base_edge(u, v)
                .ok_or(ForestError::MissingEdge { u, v })?;
            let (a, b) = self.edges.ep[e as usize];
            self.edges.weight[e as usize] = w.clone();
            self.edges.agg[e as usize] = A::base_edge(a, b, w);
            let p = self.edges.parent[e as usize];
            debug_assert!(p.is_vertex());
            seed.push(p.as_vertex());
        }
        self.value_pass(seed);
        self.bump_version();
        Ok(())
    }

    // ---------------------------------------------------------------
    // validation helpers
    // ---------------------------------------------------------------

    fn validate_cuts(&self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        let mut seen = std::collections::HashSet::with_capacity(cuts.len());
        for &(u, v) in cuts {
            if u as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v: u, n: self.n });
            }
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
            if self.find_base_edge(u, v).is_none() {
                return Err(ForestError::MissingEdge { u, v });
            }
            if !seen.insert(rc_parlay::hashtable::edge_key(u, v)) {
                return Err(ForestError::MissingEdge { u, v });
            }
        }
        Ok(())
    }

    fn validate_links(
        &self,
        links: &[(Vertex, Vertex, A::EdgeWeight)],
        cuts: &[(Vertex, Vertex)],
    ) -> Result<(), ForestError> {
        let cut_keys: std::collections::HashSet<u64> = cuts
            .iter()
            .map(|&(u, v)| rc_parlay::hashtable::edge_key(u, v))
            .collect();
        let mut delta: HashMap<Vertex, i32> = HashMap::new();
        for &(u, v) in cuts {
            *delta.entry(u).or_insert(0) -= 1;
            *delta.entry(v).or_insert(0) -= 1;
        }
        let mut seen = std::collections::HashSet::with_capacity(links.len());
        for &(u, v, _) in links {
            if u as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v: u, n: self.n });
            }
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
            if u == v {
                return Err(ForestError::SelfLoop { v });
            }
            let key = rc_parlay::hashtable::edge_key(u, v);
            if !seen.insert(key) {
                return Err(ForestError::DuplicateEdge { u, v });
            }
            if self.find_base_edge(u, v).is_some() && !cut_keys.contains(&key) {
                return Err(ForestError::DuplicateEdge { u, v });
            }
            for x in [u, v] {
                let d = delta.entry(x).or_insert(0);
                *d += 1;
                if self.histories[x as usize][0].degree() as i32 + *d > MAX_DEGREE as i32 {
                    return Err(ForestError::DegreeOverflow { v: x });
                }
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // change propagation
    // ---------------------------------------------------------------

    /// Structural repair: apply the level-0 surgery and repair level by
    /// level. Inputs must be pre-validated.
    fn propagate(&mut self, links: &[(Vertex, Vertex, A::EdgeWeight)], cuts: &[(Vertex, Vertex)]) {
        if links.is_empty() && cuts.is_empty() {
            return;
        }
        // Reserve one epoch per possible level plus slack for growth.
        let max_levels = (self.levels as u64 + 96) * 2;
        let base_epoch = self.marks.new_epochs(max_levels);
        let epoch_of = |level: u32| base_epoch + level as u64;

        // ---- level-0 surgery ----
        let mut frontier: Vec<FrontEntry> = Vec::new();
        let claim0 = |f: &mut Vec<FrontEntry>, marks: &crate::forest::MarkSpace, v: Vertex| {
            if marks.claim(v, epoch_of(0)) {
                f.push(FrontEntry {
                    v,
                    old_rec: None,
                    rec_changed: true,
                    new_event: Event::Live,
                });
            }
        };
        for &(u, v) in cuts {
            claim0(&mut frontier, &self.marks, u);
            claim0(&mut frontier, &self.marks, v);
        }
        for &(u, v, _) in links {
            claim0(&mut frontier, &self.marks, u);
            claim0(&mut frontier, &self.marks, v);
        }
        // Capture pre-surgery records for the frontier.
        for fe in frontier.iter_mut() {
            fe.old_rec = Some(self.histories[fe.v as usize][0]);
        }
        // Apply cuts then links to the level-0 records.
        for &(u, v) in cuts {
            let e = self.find_base_edge(u, v).expect("validated cut");
            self.histories[u as usize][0]
                .adj
                .remove_first(|x| x.nbr == v && !x.raked);
            self.histories[v as usize][0]
                .adj
                .remove_first(|x| x.nbr == u && !x.raked);
            self.edges.release(e);
        }
        let mut new_edge_parents_pending: Vec<u32> = Vec::new();
        for &(u, v, ref w) in links {
            let e = self.edges.alloc(u, v, w.clone());
            new_edge_parents_pending.push(e);
            self.histories[u as usize][0].insert_sorted(AdjEntry {
                nbr: v,
                cluster: ClusterId::edge(e),
                raked: false,
            });
            self.histories[v as usize][0].insert_sorted(AdjEntry {
                nbr: u,
                cluster: ClusterId::edge(e),
                raked: false,
            });
        }
        // Level-0 adjacency slots keep sorted order; `remove_first` uses
        // swap-remove, so restore canonical order.
        for fe in frontier.iter_mut() {
            let rec = &mut self.histories[fe.v as usize][0];
            rec.adj.as_mut_slice().sort_unstable_by_key(|e| e.nbr);
            fe.rec_changed = fe.old_rec.is_none_or(|o| !o.same_adj(rec));
        }

        // ---- repair levels ----
        let mut level: u32 = 0;
        let mut dirty: Vec<Vertex> = Vec::new();
        while !frontier.is_empty() {
            let epoch = epoch_of(level);
            let epoch_next = epoch_of(level + 1);

            // Phase A1 (level > 0): rebuild records for frontier vertices
            // live at this level; detect changes. Level 0 was handled by
            // the surgery above.
            if level > 0 {
                let me: &RcForest<A> = self;
                #[allow(clippy::type_complexity)]
                let rebuilt: Vec<(
                    usize,
                    Option<(LevelRecord, Option<LevelRecord>)>,
                )> = frontier
                    .par_iter()
                    .enumerate()
                    .map(|(i, fe)| {
                        let v = fe.v;
                        let h = &me.histories[v as usize];
                        // Live here in the new history?
                        let live_new = h.len() > (level - 1) as usize
                            && h[(level - 1) as usize].event == Event::Live;
                        if !live_new {
                            return (i, None);
                        }
                        let old_rec = if h.len() > level as usize {
                            Some(h[level as usize])
                        } else {
                            None
                        };
                        let new_rec = me.successor_record(v, level - 1, &|u| {
                            me.histories[u as usize][(level - 1) as usize].event
                        });
                        (i, Some((new_rec, old_rec)))
                    })
                    .collect();
                // Phase A2: commit (drop dead frontier entries, write records).
                let mut kept: Vec<FrontEntry> = Vec::with_capacity(frontier.len());
                for (i, slot) in rebuilt {
                    if let Some((new_rec, old_rec)) = slot {
                        let fe = &frontier[i];
                        let v = fe.v;
                        let h = &mut self.histories[v as usize];
                        let rec_changed = old_rec.is_none_or(|o| !o.same_adj(&new_rec));
                        let mut stored = new_rec;
                        // Preserve the stored event until re-decided (the
                        // decide phase reads retained events of others).
                        stored.event = old_rec.map_or(Event::Live, |o| o.event);
                        if h.len() > level as usize {
                            h[level as usize] = stored;
                        } else {
                            h.push(stored);
                        }
                        kept.push(FrontEntry {
                            v,
                            old_rec,
                            rec_changed,
                            new_event: Event::Live,
                        });
                    }
                }
                frontier = kept;
            }

            // Phase A3: decision-neighbor extension — vertices adjacent to
            // a record-changed vertex re-decide too (their records are
            // unchanged but their decision inputs are not).
            {
                let mut extra: Vec<Vertex> = Vec::new();
                for fe in &frontier {
                    if !fe.rec_changed {
                        continue;
                    }
                    let mut consider = |u: Vertex| {
                        let h = &self.histories[u as usize];
                        let live = h.len() > level as usize
                            && (level == 0 || h[(level - 1) as usize].event == Event::Live)
                            && (h.len() - 1) as u32 >= level;
                        if live && self.marks.claim(u, epoch) {
                            extra.push(u);
                        }
                    };
                    if let Some(o) = &fe.old_rec {
                        for e in o.live() {
                            consider(e.nbr);
                        }
                    }
                    for e in self.histories[fe.v as usize][level as usize].live() {
                        consider(e.nbr);
                    }
                }
                for u in extra {
                    let old = self.histories[u as usize][level as usize];
                    frontier.push(FrontEntry {
                        v: u,
                        old_rec: Some(old),
                        rec_changed: false,
                        new_event: Event::Live,
                    });
                }
            }

            // Phase B: decide. Retained events (non-frontier neighbors)
            // are read from their stored records.
            {
                let me: &RcForest<A> = self;
                let marks = &me.marks;
                let decided: Vec<Event> = frontier
                    .par_iter()
                    .map(|fe| {
                        decide_randomized(me, fe.v, level, &|u| {
                            let h = &me.histories[u as usize];
                            let in_frontier = marks.is_marked(u, epoch);
                            if !in_frontier && h.len() > level as usize {
                                Some(h[level as usize].event)
                            } else {
                                None
                            }
                        })
                    })
                    .collect();
                for (fe, ev) in frontier.iter_mut().zip(decided) {
                    fe.new_event = ev;
                }
            }

            // Phase C: apply — rebuild clusters, persist events, truncate
            // stale histories, and mark the next frontier.
            let mut next_marks: Vec<Vertex> = Vec::new();
            {
                // Pre-compute clusters for re-contracting vertices in
                // parallel (pure reads), then commit serially.
                let me: &RcForest<A> = self;
                let built: Vec<Option<crate::forest::VertexCluster<A>>> = frontier
                    .par_iter()
                    .map(|fe| {
                        let old_event = fe.old_rec.map_or(Event::Live, |o| o.event);
                        let event_changed = fe.old_rec.is_none() || old_event != fe.new_event;
                        if fe.new_event.contracts() && (fe.rec_changed || event_changed) {
                            Some(me.make_cluster(fe.v, level, fe.new_event))
                        } else {
                            None
                        }
                    })
                    .collect();

                let mark_next =
                    |marks: &crate::forest::MarkSpace, out: &mut Vec<Vertex>, u: Vertex| {
                        if marks.claim(u, epoch_next) {
                            out.push(u);
                        }
                    };

                for (i, fe) in frontier.iter().enumerate() {
                    let v = fe.v;
                    let old_event = fe.old_rec.map_or(Event::Live, |o| o.event);
                    let event_changed = fe.old_rec.is_none() || old_event != fe.new_event;
                    if !fe.rec_changed && !event_changed {
                        continue; // converged: nothing changed for v here
                    }
                    // Persist the new event.
                    let old_len = self.histories[v as usize].len();
                    self.histories[v as usize][level as usize].event = fe.new_event;

                    if fe.new_event.contracts() {
                        // Mark the old next-level neighbors before truncating.
                        if old_len > (level + 1) as usize {
                            let old_next = self.histories[v as usize][(level + 1) as usize];
                            for e in old_next.live() {
                                mark_next(&self.marks, &mut next_marks, e.nbr);
                            }
                        }
                        self.histories[v as usize].truncate(level as usize + 1);
                        if let Some(cluster) = built[i].clone() {
                            // Preserve the existing parent pointer: if v's
                            // consumer did not change, it will not rebuild,
                            // and the old pointer is still correct. When the
                            // consumer did change, its own rebuild (at a
                            // strictly later round) overwrites this.
                            let old_parent = self.clusters[v as usize].parent;
                            self.clusters[v as usize] = cluster;
                            if self.clusters[v as usize].kind != ClusterKind::Nullary {
                                self.clusters[v as usize].parent = old_parent;
                            }
                            self.assign_parents_seq(v);
                            dirty.push(v);
                        }
                    } else {
                        // Survivor: must rebuild its next-level record.
                        mark_next(&self.marks, &mut next_marks, v);
                    }
                    if event_changed || fe.rec_changed {
                        // The event (or, for a re-contraction, the changed
                        // record — e.g. a compress with a different far
                        // neighbor) rewires neighbors' next-level records.
                        if let Some(o) = &fe.old_rec {
                            for e in o.live() {
                                mark_next(&self.marks, &mut next_marks, e.nbr);
                            }
                        }
                        for e in self.histories[v as usize][level as usize].live() {
                            mark_next(&self.marks, &mut next_marks, e.nbr);
                        }
                    }
                }
            }

            // Build next frontier.
            frontier = next_marks
                .into_iter()
                .map(|v| FrontEntry {
                    v,
                    old_rec: None,
                    rec_changed: false,
                    new_event: Event::Live,
                })
                .collect();
            level += 1;
            self.levels = self.levels.max(level + 1);
            debug_assert!(
                (level as u64) < max_levels,
                "change propagation failed to converge by level {level}"
            );
        }

        // New base edges now have parents (their consumers re-contracted);
        // seed the value pass with every touched cluster's parent chain.
        let mut seed: Vec<Vertex> = Vec::new();
        for v in dirty {
            let p = self.clusters[v as usize].parent;
            if p.is_vertex() {
                seed.push(p.as_vertex());
            }
        }
        for e in new_edge_parents_pending {
            let p = self.edges.parent[e as usize];
            debug_assert!(p.is_vertex(), "new edge was not consumed by the repair");
            if p.is_vertex() {
                seed.push(p.as_vertex());
            }
        }
        self.value_pass(seed);
    }

    /// Recompute augmented values upward from `seed` clusters, in
    /// increasing round order, stopping where values stabilize.
    pub(crate) fn value_pass(&mut self, seed: Vec<Vertex>) {
        if seed.is_empty() {
            return;
        }
        let epoch = self.marks.new_epochs(1);
        let mut buckets: Vec<Vec<Vertex>> = vec![Vec::new(); (self.levels + 1) as usize];
        for v in seed {
            if self.marks.claim(v, epoch) {
                buckets[self.cluster(v).round as usize].push(v);
            }
        }
        for r in 0..buckets.len() {
            if buckets[r].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut buckets[r]);
            // Recompute in parallel (pure reads of children), commit serially.
            let me: &RcForest<A> = self;
            let recomputed: Vec<A> = batch.par_iter().map(|&v| me.recompute_agg(v)).collect();
            let mut parents: Vec<Vertex> = Vec::new();
            for (v, agg) in batch.into_iter().zip(recomputed) {
                if self.clusters[v as usize].agg != agg {
                    self.clusters[v as usize].agg = agg;
                    let p = self.clusters[v as usize].parent;
                    if p.is_vertex() {
                        parents.push(p.as_vertex());
                    }
                }
            }
            for p in parents {
                if self.marks.claim(p, epoch) {
                    let pr = self.cluster(p).round as usize;
                    debug_assert!(pr > r);
                    buckets[pr].push(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::SumAgg;
    use crate::forest::BuildOptions;
    use rc_parlay::rng::SplitMix64;

    type F = RcForest<SumAgg<i64>>;

    fn path_edges(n: usize) -> Vec<(u32, u32, i64)> {
        (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1i64)).collect()
    }

    #[test]
    fn link_two_isolated() {
        let mut f = F::new(2);
        f.batch_link(&[(0, 1, 5)]).unwrap();
        f.validate().unwrap();
        f.assert_matches_fresh_rebuild();
        assert_eq!(f.num_edges(), 1);
        assert_eq!(f.find_representative(0), f.find_representative(1));
    }

    #[test]
    fn cut_single_edge() {
        let mut f = F::build_edges(2, &[(0, 1, 5)], BuildOptions::default()).unwrap();
        f.batch_cut(&[(0, 1)]).unwrap();
        f.validate().unwrap();
        f.assert_matches_fresh_rebuild();
        assert_ne!(f.find_representative(0), f.find_representative(1));
        assert_eq!(f.num_edges(), 0);
    }

    #[test]
    fn split_path_in_middle() {
        let mut f = F::build_edges(64, &path_edges(64), BuildOptions::default()).unwrap();
        f.batch_cut(&[(31, 32)]).unwrap();
        f.validate().unwrap();
        f.assert_matches_fresh_rebuild();
        assert_ne!(f.find_representative(0), f.find_representative(63));
        assert_eq!(f.find_representative(0), f.find_representative(31));
    }

    #[test]
    fn relink_path() {
        let mut f = F::build_edges(64, &path_edges(64), BuildOptions::default()).unwrap();
        f.batch_cut(&[(31, 32)]).unwrap();
        f.batch_link(&[(31, 32, 9)]).unwrap();
        f.validate().unwrap();
        f.assert_matches_fresh_rebuild();
        assert_eq!(f.find_representative(0), f.find_representative(63));
    }

    #[test]
    fn batch_of_many_links() {
        // Build a path incrementally in batches and verify each time.
        let n = 128usize;
        let mut f = F::new(n);
        for chunk in path_edges(n).chunks(13) {
            f.batch_link(chunk).unwrap();
            f.validate().unwrap();
            f.assert_matches_fresh_rebuild();
        }
        assert_eq!(f.num_edges(), n - 1);
    }

    #[test]
    fn mixed_update_unchecked() {
        let mut f = F::build_edges(32, &path_edges(32), BuildOptions::default()).unwrap();
        // Reroute in one propagation: cut (15,16), reconnect via (0,31).
        f.batch_update_unchecked(&[(0, 31, 7)], &[(15, 16)])
            .unwrap();
        f.validate().unwrap();
        f.assert_matches_fresh_rebuild();
        assert_eq!(f.find_representative(0), f.find_representative(31));
    }

    #[test]
    fn rejects_cycle_link() {
        let mut f = F::build_edges(8, &path_edges(8), BuildOptions::default()).unwrap();
        assert!(matches!(
            f.batch_link(&[(0, 7, 1)]),
            Err(ForestError::WouldCreateCycle { .. })
        ));
        // Cycle among the new edges themselves.
        let mut g = F::new(3);
        assert!(matches!(
            g.batch_link(&[(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            Err(ForestError::WouldCreateCycle { .. })
        ));
        // A cycle that closes through two existing trees.
        let mut h = F::build_edges(4, &[(0, 1, 1), (2, 3, 1)], BuildOptions::default()).unwrap();
        assert!(matches!(
            h.batch_link(&[(1, 2, 1), (3, 0, 1)]),
            Err(ForestError::WouldCreateCycle { u: 3, v: 0 })
        ));
        // Still a forest: the same trees join with one edge.
        h.batch_link(&[(1, 2, 1)]).unwrap();
    }

    #[test]
    fn rejects_missing_cut_and_degree_overflow() {
        let mut f = F::build_edges(8, &path_edges(8), BuildOptions::default()).unwrap();
        assert!(matches!(
            f.batch_cut(&[(0, 5)]),
            Err(ForestError::MissingEdge { .. })
        ));
        assert!(matches!(
            f.batch_link(&[(1, 5, 1), (1, 6, 1)]),
            Err(ForestError::DegreeOverflow { v: 1 })
        ));
    }

    #[test]
    fn version_stamp_counts_mutations() {
        let mut f = F::build_edges(8, &path_edges(8), BuildOptions::default()).unwrap();
        assert_eq!(f.version(), 0);
        f.batch_cut(&[(3, 4)]).unwrap();
        assert_eq!(f.version(), 1);
        f.batch_link(&[(3, 4, 2)]).unwrap();
        assert_eq!(f.version(), 2);
        f.update_vertex_weights(&[(0, 9)]).unwrap();
        f.update_edge_weights(&[(0, 1, 7)]).unwrap();
        assert_eq!(f.version(), 4);
        // Failed updates leave the version (and the weights) untouched.
        assert!(f.update_vertex_weights(&[(0, 1), (99, 1)]).is_err());
        assert!(f.update_edge_weights(&[(0, 7, 1)]).is_err());
        assert!(f.batch_cut(&[(0, 7)]).is_err());
        assert_eq!(f.version(), 4);
        assert_eq!(*f.vertex_weight(0), 9, "failed batch applied nothing");
    }

    #[test]
    fn vertex_weight_updates_propagate() {
        let mut f = F::build_edges(16, &path_edges(16), BuildOptions::default()).unwrap();
        f.update_vertex_weights(&[(3, 100), (12, 50)]).unwrap();
        f.validate().unwrap();
        let root = f.find_representative(0);
        // Total = 15 edges * 1 + 100 + 50.
        assert_eq!(f.cluster(root).agg.total, 15 + 150);
    }

    #[test]
    fn edge_weight_updates_propagate() {
        let mut f = F::build_edges(16, &path_edges(16), BuildOptions::default()).unwrap();
        f.update_edge_weights(&[(7, 8, 41)]).unwrap();
        f.validate().unwrap();
        let root = f.find_representative(0);
        assert_eq!(f.cluster(root).agg.total, 14 + 41);
    }

    #[test]
    fn randomized_stress_matches_rebuild_and_oracle() {
        let n = 96usize;
        let mut f = F::new(n);
        let mut naive = crate::naive::NaiveForest::<i64>::new(n);
        let mut rng = SplitMix64::new(2024);
        for _round in 0..40 {
            // Random batch of links and cuts.
            let mut links: Vec<(u32, u32, i64)> = Vec::new();
            let mut cuts: Vec<(u32, u32)> = Vec::new();
            for _ in 0..6 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                if u == v {
                    continue;
                }
                if naive.edge_weight(u, v).is_some() {
                    if !cuts.contains(&(u, v)) && !cuts.contains(&(v, u)) {
                        cuts.push((u, v));
                    }
                } else if naive.degree(u) < 3
                    && naive.degree(v) < 3
                    && !naive.connected(u, v)
                    && !links
                        .iter()
                        .any(|&(a, b, _)| (a, b) == (u, v) || (b, a) == (u, v))
                {
                    let w = rng.next_below(100) as i64;
                    links.push((u, v, w));
                }
            }
            // Links must also be acyclic among themselves & disjoint from cuts.
            let mut ok_links: Vec<(u32, u32, i64)> = Vec::new();
            for &(u, v, w) in &links {
                let mut trial = naive.clone();
                for &(a, b, ww) in &ok_links {
                    let _ = trial.link(a, b, ww);
                }
                if trial.link(u, v, w).is_ok() {
                    ok_links.push((u, v, w));
                }
            }
            for &(u, v) in &cuts {
                naive.cut(u, v).unwrap();
            }
            for &(u, v, w) in &ok_links {
                naive.link(u, v, w).unwrap();
            }
            f.batch_cut(&cuts).unwrap();
            f.batch_link(&ok_links).unwrap();
            f.validate()
                .unwrap_or_else(|e| panic!("round {_round}: {e}"));
            f.assert_matches_fresh_rebuild();
            // Connectivity cross-check on a few pairs.
            for _ in 0..10 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                assert_eq!(
                    f.find_representative(u) == f.find_representative(v),
                    naive.connected(u, v),
                    "connectivity mismatch {u},{v}"
                );
            }
        }
    }
}
