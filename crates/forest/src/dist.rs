//! The distributed forest of octrees.
//!
//! Leaves are `(tree, octant)` pairs ordered lexicographically — the
//! space-filling curve traverses tree 0's octree, then tree 1's, and so
//! on, exactly as in P4EST. Partitioning, balancing, ghost construction,
//! and field transfer mirror the single-tree implementations in the
//! `octree` crate, extended by the inter-tree face transforms of the
//! [`crate::Connectivity`].
//!
//! *Scope note (documented in DESIGN.md §15):* the 2:1 balance is
//! enforced over the full 26-neighborhood within each tree and across
//! tree *faces*. Inter-tree edge/corner adjacency is reached by the
//! recursive traversal layer ([`crate::traverse`]) through *composed*
//! face transforms — valid for connectivities in which every pair of
//! edge/corner-adjacent trees is also linked by a chain of at most three
//! face hops (true for `unit_cube`, `brick`, and `cubed_sphere`; general
//! arbitrary-valence corner tables remain out of scope).

use std::sync::Arc;

use octree::balance::BalanceKind;
use octree::mark::{Mark, MarkParams};
use octree::{Octant, ROOT_LEN};
use scomm::Comm;

use crate::connectivity::Connectivity;

/// A leaf of the forest: an octant within a named tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct ForestLeaf {
    pub tree: u32,
    pub oct: Octant,
}

// SAFETY: repr(C); both fields are Pod; padding (3 bytes after the inner
// octant's level) is tolerated.
unsafe impl scomm::Pod for ForestLeaf {}

impl PartialOrd for ForestLeaf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ForestLeaf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.tree.cmp(&other.tree).then(self.oct.cmp(&other.oct))
    }
}

impl ForestLeaf {
    /// Linearized curve position `(tree, morton key)` used for ownership
    /// queries.
    pub(crate) fn curve_key(&self) -> u128 {
        ((self.tree as u128) << 64) | self.oct.key() as u128
    }

    /// Containment within the same tree.
    pub(crate) fn contains(&self, other: &ForestLeaf) -> bool {
        self.tree == other.tree && self.oct.contains(&other.oct)
    }
}

/// Re-export of the partition plan shape shared with the octree crate.
pub use octree::parallel::PartitionPlan;

/// Grow-only scratch for the forest adaptation hot path, mirroring the
/// octree crate's workspace discipline: once warm, balance and partition
/// perform no steady-state heap allocation ([`Forest::alloc_bytes`]).
#[derive(Default)]
struct ForestWorkspace {
    /// Swap partner for refine/coarsen rebuilds.
    scratch: Vec<ForestLeaf>,
    /// Per-destination staging of balance size-requests.
    req_bufs: Vec<Vec<(ForestLeaf, u64)>>,
    /// Flat balance exchange buffers.
    send_flat: Vec<(ForestLeaf, u64)>,
    send_counts: Vec<usize>,
    recv_flat: Vec<(ForestLeaf, u64)>,
    recv_counts: Vec<usize>,
    /// Per-leaf refine flags.
    to_refine: Vec<bool>,
    /// Partition exchange buffers (the send side is `local` itself).
    part_counts: Vec<usize>,
    part_recv: Vec<ForestLeaf>,
    part_recv_counts: Vec<usize>,
}

impl ForestWorkspace {
    fn capacity_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        let mut b = cap(&self.scratch) + cap(&self.send_flat) + cap(&self.recv_flat);
        b += cap(&self.send_counts) + cap(&self.recv_counts) + cap(&self.to_refine);
        b += cap(&self.part_counts) + cap(&self.part_recv) + cap(&self.part_recv_counts);
        b += cap(&self.req_bufs);
        for v in &self.req_bufs {
            b += cap(v);
        }
        b
    }
}

/// A distributed forest of octrees on a simulated communicator.
pub struct Forest<'c> {
    comm: &'c Comm,
    conn: Arc<Connectivity>,
    /// Locally owned leaves in global `(tree, Morton)` order.
    pub local: Vec<ForestLeaf>,
    /// Curve key of each rank's first leaf (`u128::MAX` when empty).
    markers: Vec<u128>,
    counts: Vec<u64>,
    /// Marker gather buffer. A direct field (not part of the workspace) so
    /// `update_markers` stays usable while the workspace is temporarily
    /// moved out during balance/partition.
    gather: Vec<u64>,
    /// Grow-only adaptation scratch.
    ws: ForestWorkspace,
}

impl<'c> Forest<'c> {
    /// Build a forest with every tree uniformly refined to `level`,
    /// leaves divided evenly among ranks along the curve.
    pub fn new_uniform(comm: &'c Comm, conn: Arc<Connectivity>, level: u8) -> Self {
        let per_tree = 1u64 << (3 * level as u64);
        let n = per_tree * conn.num_trees() as u64;
        let p = comm.size() as u64;
        let r = comm.rank() as u64;
        let lo = n * r / p;
        let hi = n * (r + 1) / p;
        let local = (lo..hi)
            .map(|g| ForestLeaf {
                tree: (g / per_tree) as u32,
                oct: Octant::from_uniform_index(level, g % per_tree),
            })
            .collect();
        let mut f = Forest {
            comm,
            conn,
            local,
            markers: Vec::new(),
            counts: Vec::new(),
            gather: Vec::new(),
            ws: ForestWorkspace::default(),
        };
        f.update_markers();
        f
    }

    /// Wrap an existing curve-ordered local leaf array into a forest.
    /// `local` must be sorted `(tree, Morton)` with every tree index
    /// below `conn.num_trees()`; the collective marker exchange runs once
    /// so ownership queries work immediately. This is how single-tree
    /// [`octree::parallel::DistOctree`] states are lifted onto the
    /// forest traversal layer (e.g. the `fuzz_amr` recursive-vs-flat
    /// ghost gate).
    pub fn from_local(comm: &'c Comm, conn: Arc<Connectivity>, local: Vec<ForestLeaf>) -> Self {
        debug_assert!(local.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(local.iter().all(|l| (l.tree as usize) < conn.num_trees()));
        let mut f = Forest {
            comm,
            conn,
            local,
            markers: Vec::new(),
            counts: Vec::new(),
            gather: Vec::new(),
            ws: ForestWorkspace::default(),
        };
        f.update_markers();
        f
    }

    /// The connectivity this forest is built on.
    pub fn connectivity(&self) -> &Arc<Connectivity> {
        &self.conn
    }

    /// The communicator.
    pub fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// Replicated curve-key markers: entry `r` is the curve position of
    /// rank `r`'s first leaf (back-filled from the right for empty
    /// ranks). The recursive traversals project these per tree.
    pub(crate) fn markers(&self) -> &[u128] {
        &self.markers
    }

    fn update_markers(&mut self) {
        let comm = self.comm;
        let first = self
            .local
            .first()
            .map(|l| l.curve_key())
            .unwrap_or(u128::MAX);
        comm.allgatherv_into(
            &[(first >> 64) as u64, first as u64, self.local.len() as u64],
            &mut self.gather,
        );
        let p = comm.size();
        self.markers.clear();
        self.markers.resize(p, u128::MAX);
        self.counts.clear();
        self.counts.resize(p, 0);
        for r in 0..p {
            let hi = self.gather[3 * r] as u128;
            let lo = self.gather[3 * r + 1] as u128;
            self.markers[r] = (hi << 64) | lo;
            self.counts[r] = self.gather[3 * r + 2];
        }
        let mut next = u128::MAX;
        for r in (0..p).rev() {
            if self.counts[r] == 0 {
                self.markers[r] = next;
            } else {
                next = self.markers[r];
            }
        }
    }

    /// Global leaf count.
    pub fn global_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Global index of this rank's first leaf.
    pub fn global_offset(&self) -> u64 {
        self.counts[..self.comm.rank()].iter().sum()
    }

    /// Replicated per-rank leaf counts (one entry per rank).
    pub fn rank_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rank owning the region of `leaf`.
    pub fn owner_of(&self, leaf: &ForestLeaf) -> usize {
        let key = leaf.curve_key();
        self.markers
            .partition_point(|&m| m <= key)
            .saturating_sub(1)
    }

    /// Inclusive rank range intersecting the region of `leaf`.
    pub fn owner_range(&self, leaf: &ForestLeaf) -> (usize, usize) {
        let lo = self.owner_of(&ForestLeaf {
            tree: leaf.tree,
            oct: leaf.oct.first_descendant(),
        });
        let hi = self.owner_of(&ForestLeaf {
            tree: leaf.tree,
            oct: leaf.oct.last_descendant(),
        });
        (lo, hi)
    }

    /// Same-size neighbor of `(tree, oct)` in direction `(dx,dy,dz)`,
    /// following a face transform when exactly one axis exits the tree.
    /// Returns `None` on the domain boundary and for inter-tree
    /// edge/corner crossings (see module docs).
    pub fn neighbor(&self, leaf: &ForestLeaf, dx: i32, dy: i32, dz: i32) -> Option<ForestLeaf> {
        let o = &leaf.oct;
        let len = o.len() as i64;
        let a = [
            o.x() as i64 + dx as i64 * len,
            o.y() as i64 + dy as i64 * len,
            o.z() as i64 + dz as i64 * len,
        ];
        let lim = ROOT_LEN as i64;
        let out: Vec<usize> = (0..3).filter(|&i| a[i] < 0 || a[i] >= lim).collect();
        match out.len() {
            0 => Some(ForestLeaf {
                tree: leaf.tree,
                oct: Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, o.level()),
            }),
            1 => {
                let axis = out[0];
                let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
                let t = self.conn.neighbor_across(leaf.tree, face)?;
                Some(ForestLeaf {
                    tree: t.tree,
                    oct: t.apply(a, o.level()),
                })
            }
            _ => None,
        }
    }

    /// Binary-search the local leaves for the one containing `target`.
    pub fn find_containing(&self, target: &ForestLeaf) -> Option<usize> {
        let idx = self.local.partition_point(|l| l <= target);
        if idx == 0 {
            return None;
        }
        let cand = idx - 1;
        if self.local[cand].contains(target) {
            Some(cand)
        } else {
            None
        }
    }

    /// `RefineTree` on the forest: local, no communication. Warm calls
    /// reuse the workspace swap buffer and do not allocate.
    pub fn refine<F: FnMut(&ForestLeaf) -> bool>(&mut self, mut should_refine: F) -> usize {
        let out = &mut self.ws.scratch;
        out.clear();
        let mut count = 0;
        for &l in &self.local {
            if should_refine(&l) && l.oct.level() < octree::MAX_LEVEL {
                out.extend(l.oct.children().into_iter().map(|c| ForestLeaf {
                    tree: l.tree,
                    oct: c,
                }));
                count += 1;
            } else {
                out.push(l);
            }
        }
        std::mem::swap(&mut self.local, out);
        self.update_markers();
        count
    }

    /// `CoarsenTree` on the forest: merge complete same-tree families
    /// whose eight leaves are all marked. Warm calls reuse workspace
    /// buffers and do not allocate.
    pub fn coarsen<F: FnMut(&ForestLeaf) -> bool>(&mut self, should_coarsen: F) -> usize {
        let mut ws = std::mem::take(&mut self.ws);
        ws.to_refine.clear();
        ws.to_refine.extend(self.local.iter().map(should_coarsen));
        let ForestWorkspace {
            scratch, to_refine, ..
        } = &mut ws;
        let n = Self::coarsen_marked_into(&mut self.local, scratch, to_refine);
        self.ws = ws;
        self.update_markers();
        n
    }

    fn coarsen_marked(&mut self, marks: &[bool]) -> usize {
        Self::coarsen_marked_into(&mut self.local, &mut self.ws.scratch, marks)
    }

    fn coarsen_marked_into(
        local: &mut Vec<ForestLeaf>,
        scratch: &mut Vec<ForestLeaf>,
        marks: &[bool],
    ) -> usize {
        let leaves = &*local;
        scratch.clear();
        let mut count = 0;
        let mut i = 0;
        while i < leaves.len() {
            let l = leaves[i];
            if l.oct.level() > 0 && l.oct.child_id() == 0 && i + 8 <= leaves.len() {
                let parent = l.oct.parent();
                let ok = (0..8).all(|k| {
                    leaves[i + k].tree == l.tree
                        && leaves[i + k].oct == parent.child(k as u8)
                        && marks[i + k]
                });
                if ok {
                    scratch.push(ForestLeaf {
                        tree: l.tree,
                        oct: parent,
                    });
                    count += 1;
                    i += 8;
                    continue;
                }
            }
            scratch.push(l);
            i += 1;
        }
        std::mem::swap(local, scratch);
        count
    }

    /// `MarkElements` + apply on the forest (same threshold iteration as
    /// the octree crate, applied to forest leaves).
    pub fn adapt_to_target(&mut self, indicators: &[f64], params: &MarkParams) -> (usize, usize) {
        // Reuse the octree mark logic on the octant parts. Its octant-only
        // family detection cannot straddle trees inside one rank's local
        // list: a contiguous curve segment that contains leaves of two
        // trees contains all of the first tree's tail, which ends on a
        // child-7 leaf, so every 8-window starting at a child 0 lies in a
        // single tree. Hence mark families coincide with ours exactly.
        let octs: Vec<Octant> = self.local.iter().map(|l| l.oct).collect();
        let marks = octree::mark::mark_elements(self.comm, &octs, indicators, params);
        let coar: Vec<bool> = marks.iter().map(|m| *m == Mark::Coarsen).collect();
        let refn: Vec<bool> = marks.iter().map(|m| *m == Mark::Refine).collect();
        let coarsened = self.coarsen_marked(&coar);
        let mut new_flags = Vec::with_capacity(self.local.len());
        let mut j = 0usize;
        while new_flags.len() < self.local.len() {
            if coar[j] {
                new_flags.push(false); // freshly coarsened parent
                j += 8;
            } else {
                new_flags.push(refn[j]);
                j += 1;
            }
        }
        let mut k = 0usize;
        let refined = self.refine(|_| {
            let m = new_flags[k];
            k += 1;
            m
        });
        self.update_markers();
        (refined, coarsened)
    }

    /// Parallel 2:1 `BalanceTree` across the forest, face-connected
    /// between trees. Returns leaves added globally.
    pub fn balance(&mut self, kind: BalanceKind) -> u64 {
        let before = self.global_count();
        let dirs = kind.direction_slice();
        let p = self.comm.size();
        let me = self.comm.rank();
        let mut ws = std::mem::take(&mut self.ws);
        if ws.req_bufs.len() < p {
            ws.req_bufs.resize_with(p, Vec::new);
        }
        loop {
            let mut changed_local = true;
            // Local fixpoint: within this rank's leaves (any tree).
            while changed_local {
                changed_local = false;
                ws.to_refine.clear();
                ws.to_refine.resize(self.local.len(), false);
                for l in &self.local {
                    for &(dx, dy, dz) in dirs {
                        let Some(n) = self.neighbor(l, dx, dy, dz) else {
                            continue;
                        };
                        if let Some(i) = self.find_containing(&n) {
                            if self.local[i].oct.level() + 1 < l.oct.level() && !ws.to_refine[i] {
                                ws.to_refine[i] = true;
                                changed_local = true;
                            }
                        }
                    }
                }
                if changed_local {
                    let mut i = 0;
                    self.refine_flags_no_marker(&ws.to_refine, &mut ws.scratch, &mut i);
                }
            }
            self.update_markers();

            // Remote requests, exchanged through the flat reusable buffers.
            for buf in &mut ws.req_bufs {
                buf.clear();
            }
            for l in &self.local {
                for &(dx, dy, dz) in dirs {
                    let Some(n) = self.neighbor(l, dx, dy, dz) else {
                        continue;
                    };
                    let (rlo, rhi) = self.owner_range(&n);
                    for r in rlo..=rhi {
                        if r != me {
                            ws.req_bufs[r].push((n, l.oct.level() as u64));
                        }
                    }
                }
            }
            ws.send_flat.clear();
            ws.send_counts.clear();
            for buf in &ws.req_bufs[..p] {
                ws.send_counts.push(buf.len());
                ws.send_flat.extend_from_slice(buf);
            }
            self.comm.alltoallv_flat(
                &ws.send_flat,
                &ws.send_counts,
                &mut ws.recv_flat,
                &mut ws.recv_counts,
            );
            ws.to_refine.clear();
            ws.to_refine.resize(self.local.len(), false);
            let mut changed = 0u64;
            for &(n, lvl) in &ws.recv_flat {
                if let Some(i) = self.find_containing(&n) {
                    if (self.local[i].oct.level() as u64) + 1 < lvl && !ws.to_refine[i] {
                        ws.to_refine[i] = true;
                        changed += 1;
                    }
                }
            }
            let global_changed = self.comm.allreduce_sum(&[changed])[0];
            if global_changed == 0 {
                break;
            }
            if changed > 0 {
                let mut i = 0;
                self.refine_flags_no_marker(&ws.to_refine, &mut ws.scratch, &mut i);
            }
            self.update_markers();
        }
        self.ws = ws;
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(self.validate(), "forest invariants violated after balance");
        }
        self.global_count() - before
    }

    fn refine_flags_no_marker(
        &mut self,
        flags: &[bool],
        scratch: &mut Vec<ForestLeaf>,
        cursor: &mut usize,
    ) {
        scratch.clear();
        for &l in &self.local {
            if flags[*cursor] {
                scratch.extend(l.oct.children().into_iter().map(|c| ForestLeaf {
                    tree: l.tree,
                    oct: c,
                }));
            } else {
                scratch.push(l);
            }
            *cursor += 1;
        }
        std::mem::swap(&mut self.local, scratch);
    }

    /// `PartitionTree` on the forest: equal share of the curve per rank.
    pub fn partition(&mut self) -> PartitionPlan {
        let mut plan = PartitionPlan {
            send_ranges: Vec::new(),
            new_len: 0,
        };
        self.partition_with(&mut plan);
        plan
    }

    /// [`Forest::partition`] writing the plan into a caller-provided value
    /// (ranges cleared first, capacity reused). As in the octree crate,
    /// the send ranges tile the local leaf array contiguously in rank
    /// order, so `local` itself is the flat send buffer — no packing copy,
    /// and warm calls do not allocate.
    pub fn partition_with(&mut self, plan: &mut PartitionPlan) {
        let p = self.comm.size() as u64;
        let n = self.global_count();
        let my_off = self.global_offset();
        let my_len = self.local.len() as u64;
        let target_lo = |r: u64| (n * r) / p;
        let mut ws = std::mem::take(&mut self.ws);
        plan.send_ranges.clear();
        ws.part_counts.clear();
        for r in 0..p {
            let lo = target_lo(r).max(my_off);
            let hi = target_lo(r + 1).min(my_off + my_len);
            if lo < hi {
                let s = (lo - my_off) as usize;
                let e = (hi - my_off) as usize;
                plan.send_ranges.push((s, e));
                ws.part_counts.push(e - s);
            } else {
                let s = (lo.min(my_off + my_len).max(my_off) - my_off) as usize;
                plan.send_ranges.push((s, s));
                ws.part_counts.push(0);
            }
        }
        self.comm.alltoallv_flat(
            &self.local,
            &ws.part_counts,
            &mut ws.part_recv,
            &mut ws.part_recv_counts,
        );
        std::mem::swap(&mut self.local, &mut ws.part_recv);
        self.ws = ws;
        self.update_markers();
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(
                self.validate(),
                "forest invariants violated after partition"
            );
        }
        plan.new_len = self.local.len();
    }

    /// Heap capacity currently held by this forest's tracked buffers, in
    /// bytes; its growth across a warm adapt cycle must be zero at steady
    /// state (the forest's contribution to `amr.alloc_bytes`).
    pub fn alloc_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        self.ws.capacity_bytes()
            + cap(&self.local)
            + cap(&self.markers)
            + cap(&self.counts)
            + cap(&self.gather)
    }

    /// Collective validation: per-rank sortedness, cross-rank ordering,
    /// and per-tree volume completeness.
    pub fn validate(&self) -> bool {
        let sorted = self
            .local
            .windows(2)
            .all(|w| w[0] < w[1] && !w[0].contains(&w[1]));
        // Global order across ranks.
        let first = self
            .local
            .first()
            .map(|l| l.curve_key())
            .unwrap_or(u128::MAX);
        let last = self
            .local
            .last()
            .map(|l| ((l.tree as u128) << 64) | l.oct.last_descendant().key() as u128)
            .unwrap_or(0);
        let firsts = self.comm.allgatherv(&[(first >> 64) as u64, first as u64]);
        let lasts = self.comm.allgatherv(&[(last >> 64) as u64, last as u64]);
        let mut ordered = true;
        let mut prev = 0u128;
        for r in 0..self.comm.size() {
            let f = ((firsts[2 * r] as u128) << 64) | firsts[2 * r + 1] as u128;
            let l = ((lasts[2 * r] as u128) << 64) | lasts[2 * r + 1] as u128;
            if f == u128::MAX {
                continue;
            }
            if f < prev {
                ordered = false;
            }
            prev = prev.max(l);
        }
        // Exact per-tree volumes in u128 via two-limb transfer.
        let ntrees = self.conn.num_trees();
        let mut vol_lo = vec![0u64; ntrees];
        let mut vol_hi = vec![0u64; ntrees];
        for l in &self.local {
            let s = l.oct.len() as u128;
            let v = s * s * s;
            let t = l.tree as usize;
            let prev = ((vol_hi[t] as u128) << 64) | vol_lo[t] as u128;
            let next = prev + v;
            vol_hi[t] = (next >> 64) as u64;
            vol_lo[t] = next as u64;
        }
        // Low limbs may carry, so sum in u128 from gathered pairs.
        let gathered = self.comm.allgatherv(&{
            let mut v = Vec::with_capacity(2 * ntrees);
            for t in 0..ntrees {
                v.push(vol_hi[t]);
                v.push(vol_lo[t]);
            }
            v
        });

        let mut complete = true;
        let root_vol = (ROOT_LEN as u128).pow(3);
        for t in 0..ntrees {
            let mut total: u128 = 0;
            for r in 0..self.comm.size() {
                let base = r * 2 * ntrees + 2 * t;
                total += ((gathered[base] as u128) << 64) | gathered[base + 1] as u128;
            }
            if total != root_vol {
                complete = false;
            }
        }
        let ok = sorted && ordered && complete;
        self.comm.allreduce_min(&[ok as u64])[0] == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scomm::spmd;

    fn sphere() -> Arc<Connectivity> {
        Arc::new(Connectivity::cubed_sphere(0.55, 1.0))
    }

    #[test]
    fn uniform_forest_counts() {
        let conn = sphere();
        let counts = spmd::run(4, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            assert!(f.validate());
            assert_eq!(f.global_count(), 24 * 8);
            f.local.len()
        });
        assert_eq!(counts.iter().sum::<usize>(), 192);
        assert!(counts.iter().all(|&n| n == 48));
    }

    #[test]
    fn neighbor_within_and_across_trees() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            // Leaf at +x boundary of tree 0 crosses into tree 1.
            let l = ForestLeaf {
                tree: 0,
                oct: Octant::new(ROOT_LEN / 2, 0, 0, 1),
            };
            let n = f.neighbor(&l, 1, 0, 0).expect("crosses into tree 1");
            assert_eq!(n.tree, 1);
            assert_eq!((n.oct.x(), n.oct.y(), n.oct.z()), (0, 0, 0));
            // Interior neighbor stays in tree 0.
            let m = f.neighbor(&l, -1, 0, 0).expect("stays in tree 0");
            assert_eq!(m.tree, 0);
            // −y exits the domain.
            assert!(f.neighbor(&l, 0, -1, 0).is_none());
        });
    }

    #[test]
    fn cubed_sphere_neighbors_total() {
        // On the sphere every leaf has all 4 lateral face neighbors.
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 2);
            for l in &f.local {
                for (f_dir, (dx, dy, dz)) in [
                    (0, (-1, 0, 0)),
                    (1, (1, 0, 0)),
                    (2, (0, -1, 0)),
                    (3, (0, 1, 0)),
                ] {
                    let _ = f_dir;
                    assert!(
                        f.neighbor(l, dx, dy, dz).is_some(),
                        "lateral neighbor missing for {l:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn forest_balance_across_tree_faces() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        spmd::run(2, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            // Deep refinement hugging the shared face in tree 0 only.
            for _ in 0..3 {
                f.refine(|l| {
                    l.tree == 0
                        && l.oct.x() + l.oct.len() == ROOT_LEN
                        && l.oct.y() == 0
                        && l.oct.z() == 0
                });
            }
            let added = f.balance(BalanceKind::Full);
            assert!(f.validate());
            assert!(added > 0, "tree 1 must be refined through the shared face");
            // Verify 2:1 across the face: gather all leaves and check.
            let all: Vec<ForestLeaf> = c.allgatherv(&f.local);
            for l in &all {
                for (dx, dy, dz) in Octant::neighbor_directions() {
                    if let Some(n) = f.neighbor(l, dx, dy, dz) {
                        // Find the containing leaf in `all`.
                        if let Some(cont) = all.iter().find(|x| x.contains(&n)) {
                            assert!(
                                cont.oct.level() + 1 >= l.oct.level(),
                                "2:1 violated between {l:?} and {cont:?}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn forest_partition_even() {
        let conn = sphere();
        spmd::run(3, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            if c.rank() == 0 {
                f.refine(|l| l.tree < 4);
            } else {
                f.refine(|_| false);
            }
            let n = f.global_count();
            f.partition();
            assert!(f.validate());
            assert_eq!(f.global_count(), n);
            let share = n / 3;
            assert!((f.local.len() as u64) >= share && (f.local.len() as u64) <= share + 1);
        });
    }

    #[test]
    fn warm_forest_cycle_does_not_allocate() {
        let conn = sphere();
        spmd::run(4, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            let mut plan = PartitionPlan {
                send_ranges: Vec::new(),
                new_len: 0,
            };
            // Deterministic geometric cycle: reaches a periodic orbit, so
            // after warm-up no buffer finds a new capacity maximum.
            let cycle = |f: &mut Forest, plan: &mut PartitionPlan| {
                f.refine(|l| l.oct.level() < 3 && l.tree < 6 && l.oct.x() < ROOT_LEN / 2);
                f.coarsen(|l| l.oct.level() > 1 && l.tree >= 12);
                f.balance(BalanceKind::Full);
                f.partition_with(plan);
            };
            for _ in 0..3 {
                cycle(&mut f, &mut plan);
            }
            let baseline = f.alloc_bytes();
            for _ in 0..4 {
                cycle(&mut f, &mut plan);
                assert_eq!(
                    f.alloc_bytes(),
                    baseline,
                    "warm forest adapt cycle allocated (rank {})",
                    c.rank()
                );
            }
        });
    }

    #[test]
    fn adapt_to_target_on_forest() {
        let conn = sphere();
        spmd::run(2, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 2);
            let ind: Vec<f64> = f
                .local
                .iter()
                .map(|l| {
                    let p = f.connectivity().octant_center(l.tree, &l.oct);
                    (-(p[0] - 1.0).powi(2) * 10.0).exp()
                })
                .collect();
            let params = MarkParams {
                target_elements: 3000,
                ..Default::default()
            };
            f.adapt_to_target(&ind, &params);
            assert!(f.validate());
            let n = f.global_count() as f64;
            assert!((n - 3000.0).abs() / 3000.0 < 0.35, "count {n}");
        });
    }
}
