//! The distributed octree: Morton-curve partitioning, parallel 2:1
//! balance, repartitioning, field transfer, and the ghost layer.
//!
//! Each rank stores only the contiguous Morton segment of leaves it owns
//! (paper, Section IV-A). The only global metadata is one marker per rank
//! (the Morton key of the first owned leaf), established with an
//! `allgather` of one long integer per core — exactly the paper's scheme.

use crate::balance::{BalanceKind, BalanceWorkspace};
use crate::mark::{mark_elements_into, Mark, MarkParams};
use crate::morton::Octant;
use crate::ops::{self, find_containing};
use crate::simd;
use scomm::{pod, Comm};

/// Grow-only scratch for the distributed adaptation hot path. One instance
/// lives inside each [`DistOctree`]; once every buffer has reached its
/// steady-state capacity a warm mark→refine→coarsen→balance→partition
/// cycle performs no heap allocation in this crate. [`DistOctree::alloc_bytes`]
/// reports the tracked capacity so callers can prove it (the
/// `amr.alloc_bytes` obs counter).
#[derive(Default)]
struct TreeWorkspace {
    /// Seed-propagation balance scratch.
    bal: BalanceWorkspace,
    /// Swap partner for refine/coarsen rebuilds.
    scratch: Vec<Octant>,
    /// Per-destination staging of balance size-requests. A request is the
    /// packed key of the same-size neighbor position: its level *is* the
    /// requesting leaf's level, so the old `(Octant, level)` 16-byte tuple
    /// collapses to the padding-free 8-byte key.
    req_bufs: Vec<Vec<Octant>>,
    /// Flat send/receive buffers for the balance exchange.
    send_flat: Vec<Octant>,
    send_counts: Vec<usize>,
    recv_flat: Vec<Octant>,
    recv_counts: Vec<usize>,
    /// Batch neighbor-kernel output (one entry per local leaf, per
    /// direction; `Octant::INVALID` marks out-of-domain).
    nbrs: Vec<Octant>,
    /// Morton-key needles of the batched ownership range queries.
    key_lo: Vec<u64>,
    key_hi: Vec<u64>,
    /// Batched `upper_bounds_into` outputs over the rank markers.
    own_lo: Vec<u32>,
    own_hi: Vec<u32>,
    /// Per-leaf refine flags driven by remote requests.
    to_refine: Vec<bool>,
    /// Partition exchange buffers (the send side is `local` itself).
    part_counts: Vec<usize>,
    part_recv: Vec<Octant>,
    part_recv_counts: Vec<usize>,
    /// `adapt_to_target` buffers.
    marks: Vec<Mark>,
    coarsen_flags: Vec<bool>,
}

impl TreeWorkspace {
    fn capacity_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        let mut b = self.bal.capacity_bytes();
        b += cap(&self.scratch) + cap(&self.send_flat) + cap(&self.recv_flat);
        b += cap(&self.send_counts) + cap(&self.recv_counts);
        b += cap(&self.to_refine) + cap(&self.part_counts) + cap(&self.part_recv);
        b += cap(&self.part_recv_counts) + cap(&self.marks);
        b += cap(&self.coarsen_flags);
        b += cap(&self.nbrs) + cap(&self.key_lo) + cap(&self.key_hi);
        b += cap(&self.own_lo) + cap(&self.own_hi);
        b += cap(&self.req_bufs);
        for v in &self.req_bufs {
            b += cap(v);
        }
        b
    }
}

/// Leaves per batch of [`DistOctree::ghost_layer_into`]'s candidate
/// staging: 1024 × 832 B fits a per-core L2.
const GHOST_BLOCK: usize = 1024;

/// Grow-only scratch for [`DistOctree::ghost_layer_into`]: staging,
/// wire, and output buffers for the ghost gather, owned by the caller so
/// warm AMR cycles rebuild the ghost layer without heap allocation.
#[derive(Default)]
pub struct GhostScratch {
    nbrs: Vec<Octant>,
    key_lo: Vec<u64>,
    key_hi: Vec<u64>,
    own_lo: Vec<u32>,
    own_hi: Vec<u32>,
    outgoing: Vec<Vec<Octant>>,
    sent_to: Vec<usize>,
    send_flat: Vec<Octant>,
    send_counts: Vec<usize>,
    recv_flat: Vec<Octant>,
    recv_counts: Vec<usize>,
    ghosts: Vec<(usize, Octant)>,
}

impl GhostScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// The ghost layer produced by the most recent
    /// [`DistOctree::ghost_layer_into`] call.
    pub fn ghosts(&self) -> &[(usize, Octant)] {
        &self.ghosts
    }

    pub fn capacity_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        let mut b = cap(&self.nbrs) + cap(&self.key_lo) + cap(&self.key_hi);
        b += cap(&self.own_lo) + cap(&self.own_hi) + cap(&self.sent_to);
        b += cap(&self.send_flat) + cap(&self.send_counts);
        b += cap(&self.recv_flat) + cap(&self.recv_counts);
        b += cap(&self.ghosts) + cap(&self.outgoing);
        for v in &self.outgoing {
            b += cap(v);
        }
        b
    }
}

/// A distributed linear octree: this rank's view.
pub struct DistOctree<'c> {
    comm: &'c Comm,
    /// Locally owned leaves, Morton-sorted.
    pub local: Vec<Octant>,
    /// Morton key of each rank's first owned leaf (`u64::MAX` for a rank
    /// with no elements and none following); length = world size.
    markers: Vec<u64>,
    /// Per-rank element counts.
    counts: Vec<u64>,
    /// Reused `(first_key, count)` gather buffer for marker refresh.
    gather: Vec<(u64, u64)>,
    /// Grow-only adaptation scratch.
    ws: TreeWorkspace,
    /// Ripple rounds used by the most recent [`DistOctree::balance`] call.
    balance_rounds: u64,
}

/// Fill `ws.own_lo` / `ws.own_hi` with the batched marker range queries
/// for every neighbor position in `ws.nbrs`: `own_*[i].saturating_sub(1)`
/// is the first/last rank whose curve segment intersects the region of
/// `ws.nbrs[i]` (entries for `Octant::INVALID` are meaningless and must
/// be skipped by the caller). The two binary-search sweeps over the rank
/// markers run through the vectorized upper-bound kernel.
fn owner_ranges_batched(markers: &[u64], ws: &mut TreeWorkspace) {
    ws.key_lo.clear();
    ws.key_hi.clear();
    for &n in &ws.nbrs {
        if n == Octant::INVALID {
            ws.key_lo.push(u64::MAX);
            ws.key_hi.push(u64::MAX);
        } else {
            // First descendant shares the anchor key; last descendant
            // closes the region's Morton interval.
            ws.key_lo.push(n.key());
            ws.key_hi.push(n.last_descendant().key());
        }
    }
    ws.own_lo.clear();
    simd::upper_bounds_into(markers, &ws.key_lo, &mut ws.own_lo);
    ws.own_hi.clear();
    simd::upper_bounds_into(markers, &ws.key_hi, &mut ws.own_hi);
}

/// Description of the element movement performed by a repartition; apply
/// the same plan to element-attached data with [`transfer_fields`]
/// (the paper's `TransferFields`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionPlan {
    /// For each destination rank, the half-open local index range of
    /// elements sent there (empty ranges allowed).
    pub send_ranges: Vec<(usize, usize)>,
    /// Number of elements owned after the repartition.
    pub new_len: usize,
}

impl<'c> DistOctree<'c> {
    /// `NewTree`: build a uniform tree at `level`, leaves divided evenly
    /// between ranks in Morton order.
    pub fn new_uniform(comm: &'c Comm, level: u8) -> Self {
        let n = 1u64 << (3 * level as u64);
        let p = comm.size() as u64;
        let r = comm.rank() as u64;
        let lo = (n * r) / p;
        let hi = (n * (r + 1)) / p;
        let local: Vec<Octant> = (lo..hi)
            .map(|i| Octant::from_uniform_index(level, i))
            .collect();
        let mut tree = DistOctree {
            comm,
            local,
            markers: Vec::new(),
            counts: Vec::new(),
            gather: Vec::new(),
            ws: TreeWorkspace::default(),
            balance_rounds: 0,
        };
        tree.update_markers();
        tree
    }

    /// Wrap already-distributed leaves (must be globally Morton-sorted and
    /// non-overlapping across ranks).
    pub fn from_local(comm: &'c Comm, local: Vec<Octant>) -> Self {
        let mut tree = DistOctree {
            comm,
            local,
            markers: Vec::new(),
            counts: Vec::new(),
            gather: Vec::new(),
            ws: TreeWorkspace::default(),
            balance_rounds: 0,
        };
        tree.update_markers();
        tree
    }

    /// Re-establish the per-rank markers after any structural change.
    /// One allgather of `(first_key, count)` per rank; all buffers reused.
    fn update_markers(&mut self) {
        let comm = self.comm;
        let first = self.local.first().map(|o| o.key()).unwrap_or(u64::MAX);
        comm.allgatherv_into(&[(first, self.local.len() as u64)], &mut self.gather);
        let p = comm.size();
        self.markers.clear();
        self.markers.resize(p, u64::MAX);
        self.counts.clear();
        self.counts.resize(p, 0);
        for (r, &(key, count)) in self.gather.iter().enumerate() {
            self.counts[r] = count;
            self.markers[r] = key;
        }
        // Give empty ranks the marker of the next non-empty rank so that
        // ownership search never selects them.
        let mut next = u64::MAX;
        for r in (0..p).rev() {
            if self.counts[r] == 0 {
                self.markers[r] = next;
            } else {
                next = self.markers[r];
            }
        }
    }

    /// Global number of elements.
    pub fn global_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Global index of this rank's first element.
    pub fn global_offset(&self) -> u64 {
        self.counts[..self.comm.rank()].iter().sum()
    }

    /// The communicator this tree lives on.
    pub fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// Per-rank element counts (metadata from the last marker exchange).
    pub fn rank_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The rank owning `octant` (by its first descendant). Assumes the
    /// global tree covers the octant's region.
    pub fn owner_of(&self, octant: &Octant) -> usize {
        let key = octant.key(); // first descendant shares the anchor key
        let idx = self.markers.partition_point(|&m| m <= key);
        idx.saturating_sub(1)
    }

    /// The inclusive rank range whose segments intersect the region of
    /// `octant` (it may span several ranks).
    pub fn owner_range(&self, octant: &Octant) -> (usize, usize) {
        let lo = self.owner_of(&octant.first_descendant());
        let hi = self.owner_of(&octant.last_descendant());
        (lo, hi)
    }

    /// `RefineTree`: purely local, no communication (markers refreshed).
    pub fn refine<F: FnMut(&Octant) -> bool>(&mut self, should_refine: F) -> usize {
        let n = ops::refine_with(&mut self.local, &mut self.ws.scratch, should_refine);
        self.update_markers();
        n
    }

    /// `CoarsenTree`: local families only — as in the paper, families
    /// spanning rank boundaries are not coarsened (at most `P−1` such
    /// families exist).
    pub fn coarsen<F: FnMut(&Octant) -> bool>(&mut self, should_coarsen: F) -> usize {
        let ws = &mut self.ws;
        ws.coarsen_flags.clear();
        ws.coarsen_flags
            .extend(self.local.iter().map(should_coarsen));
        let n = ops::coarsen_marked_with(&mut self.local, &mut ws.scratch, &ws.coarsen_flags);
        self.update_markers();
        n
    }

    /// `MarkElements`: the collective threshold bisection toward a global
    /// element-count target, driven by per-element indicators. Leaves one
    /// mark per local leaf in the tree's workspace for
    /// [`DistOctree::coarsen_marked`] and [`DistOctree::refine_marked`],
    /// which must follow in that order.
    pub fn mark_for_target(&mut self, indicators: &[f64], params: &MarkParams) {
        mark_elements_into(
            self.comm,
            &self.local,
            indicators,
            params,
            &mut self.ws.marks,
        );
    }

    /// `CoarsenTree` on the marks of [`DistOctree::mark_for_target`]
    /// (family-aligned by construction). Local; returns the number of
    /// families coarsened and re-aligns the marks with the new leaves.
    pub fn coarsen_marked(&mut self) -> usize {
        let ws = &mut self.ws;
        ws.coarsen_flags.clear();
        ws.coarsen_flags
            .extend(ws.marks.iter().map(|m| *m == Mark::Coarsen));
        let coarsened =
            ops::coarsen_marked_with(&mut self.local, &mut ws.scratch, &ws.coarsen_flags);
        // Coarsened families disappear into a parent that keeps its
        // size; every other leaf keeps its mark.
        let mut j = 0usize;
        for i in 0..self.local.len() {
            if ws.coarsen_flags[j] {
                ws.marks[i] = Mark::None;
                j += 8;
            } else {
                ws.marks[i] = ws.marks[j];
                j += 1;
            }
        }
        ws.marks.truncate(self.local.len());
        coarsened
    }

    /// `RefineTree` on the surviving marks, then the one marker refresh
    /// of the adaptation. Returns the number of leaves refined.
    pub fn refine_marked(&mut self) -> usize {
        let TreeWorkspace { scratch, marks, .. } = &mut self.ws;
        let mut i = 0usize;
        let refined = ops::refine_with(&mut self.local, scratch, |_| {
            let m = marks[i] == Mark::Refine;
            i += 1;
            m
        });
        self.update_markers();
        refined
    }

    /// `MarkElements` + apply: [`DistOctree::mark_for_target`], then
    /// coarsen, then refine the survivors. Returns
    /// `(refined, coarsened_families)`. Warm calls reuse the tree's
    /// workspace and do not allocate.
    pub fn adapt_to_target(&mut self, indicators: &[f64], params: &MarkParams) -> (usize, usize) {
        self.mark_for_target(indicators, params);
        let coarsened = self.coarsen_marked();
        (self.refine_marked(), coarsened)
    }

    /// Parallel `BalanceTree`: prioritized ripple propagation. Each round
    /// balances locally, then ships boundary size-requests to neighboring
    /// ranks; rounds repeat until a global fixpoint (the round count is
    /// bounded by the number of levels, as in the paper). Returns the
    /// number of leaves added globally.
    pub fn balance(&mut self, kind: BalanceKind) -> u64 {
        let before = self.global_count();
        let dirs = kind.direction_slice();
        let p = self.comm.size();
        let me = self.comm.rank();
        let mut rounds = 0u64;
        let mut ws = std::mem::take(&mut self.ws);
        if ws.req_bufs.len() < p {
            ws.req_bufs.resize_with(p, Vec::new);
        }
        loop {
            rounds += 1;
            // Local pass first (no communication): recursive seed-set
            // propagation through the retained workspace.
            crate::balance::balance_local_kind_ws(&mut self.local, kind, &mut ws.bal);
            self.update_markers();

            // Collect remote size requests: the same-size neighbor
            // position of each boundary leaf, as a bare packed key (its
            // level field carries the requester's level). Direction-major
            // so each direction is one batched neighbor-kernel call plus
            // one batched ownership range query; per-destination request
            // sets are unordered (the receiver flags leaves idempotently),
            // so the reordering vs a leaf-major sweep is immaterial.
            for buf in &mut ws.req_bufs {
                buf.clear();
            }
            for &(dx, dy, dz) in dirs {
                ws.nbrs.clear();
                simd::neighbor_keys_into(&self.local, dx, dy, dz, &mut ws.nbrs);
                owner_ranges_batched(&self.markers, &mut ws);
                for i in 0..ws.nbrs.len() {
                    let n = ws.nbrs[i];
                    if n == Octant::INVALID {
                        continue;
                    }
                    let rlo = (ws.own_lo[i] as usize).saturating_sub(1);
                    let rhi = (ws.own_hi[i] as usize).saturating_sub(1);
                    for r in rlo..=rhi {
                        if r != me {
                            ws.req_bufs[r].push(n);
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

            // A request `n` means: some remote leaf at level `n.level()`
            // touches region `n`; any local leaf containing `n` must have
            // level ≥ n.level()−1.
            ws.to_refine.clear();
            ws.to_refine.resize(self.local.len(), false);
            let mut changed = 0u64;
            for &n in &ws.recv_flat {
                if let Some(i) = find_containing(&self.local, &n) {
                    if self.local[i].level() + 1 < n.level() && !ws.to_refine[i] {
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
                let TreeWorkspace {
                    scratch, to_refine, ..
                } = &mut ws;
                let mut i = 0usize;
                ops::refine_with(&mut self.local, scratch, |_| {
                    let m = to_refine[i];
                    i += 1;
                    m
                });
            }
            self.update_markers();
        }
        self.ws = ws;
        self.balance_rounds = rounds;
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(self.validate(), "octree invariants violated after balance");
        }
        self.global_count() - before
    }

    /// Ripple rounds (local-balance + exchange iterations) used by the
    /// most recent [`DistOctree::balance`] call — the `amr.ripple_rounds`
    /// obs counter.
    pub fn last_balance_rounds(&self) -> u64 {
        self.balance_rounds
    }

    /// Heap capacity currently held by this tree's tracked buffers (leaf
    /// array, marker metadata, and the adaptation workspace), in bytes.
    /// The growth of this value across a warm adapt cycle is the
    /// `amr.alloc_bytes` contribution of the tree layer; at steady state
    /// it must be zero.
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

    /// `PartitionTree`: redistribute leaves so that every rank owns an
    /// equal share (±1) of the Morton curve. Returns the plan, which must
    /// be replayed on element data with [`transfer_fields`].
    pub fn partition(&mut self) -> PartitionPlan {
        let mut plan = PartitionPlan {
            send_ranges: Vec::new(),
            new_len: 0,
        };
        self.partition_with(&mut plan);
        plan
    }

    /// [`DistOctree::partition`] writing the plan into a caller-provided
    /// value (ranges cleared first, capacity reused). The send ranges tile
    /// the local array contiguously in rank order, so the leaf array
    /// itself serves as the flat exchange buffer — the repartition moves
    /// each octant exactly once with no packing copy, and warm calls do
    /// not allocate.
    pub fn partition_with(&mut self, plan: &mut PartitionPlan) {
        let p = self.comm.size() as u64;
        let n = self.global_count();
        let my_off = self.global_offset();
        let my_len = self.local.len() as u64;

        // Target global ranges: rank r owns [r*n/p, (r+1)*n/p).
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
                // Keep ranges well-formed (empty) at a valid position.
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
        // Rank order = Morton order: the flat receive buffer is the new
        // local segment.
        std::mem::swap(&mut self.local, &mut ws.part_recv);
        self.ws = ws;
        self.update_markers();
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(
                self.validate(),
                "octree invariants violated after partition"
            );
        }
        plan.new_len = self.local.len();
    }

    /// Build the ghost layer: the remote leaves face/edge/corner-adjacent
    /// to this rank's leaves, with their owner ranks, Morton-sorted.
    /// One alltoallv, mirroring the paper's `ExtractMesh` ghost gather.
    /// Allocating wrapper around [`DistOctree::ghost_layer_into`].
    pub fn ghost_layer(&self) -> Vec<(usize, Octant)> {
        let mut ws = GhostScratch::default();
        self.ghost_layer_into(&mut ws);
        std::mem::take(&mut ws.ghosts)
    }

    /// Grow-only variant of [`DistOctree::ghost_layer`]: all staging and
    /// wire buffers live in caller scratch, so a warm adapt cycle
    /// rebuilds the ghost layer without steady-state heap allocation
    /// (the workspace discipline the `rhea` AMR loop asserts through
    /// `amr.alloc_bytes == 0`). The result lands in `ws.ghosts`.
    pub fn ghost_layer_into<'w>(&self, ws: &'w mut GhostScratch) -> &'w [(usize, Octant)] {
        let p = self.comm.size();
        let me = self.comm.rank();
        let dirs: Vec<(i32, i32, i32)> = Octant::neighbor_directions().collect();
        ws.outgoing.resize_with(p, Vec::new);
        for buf in ws.outgoing.iter_mut() {
            buf.clear();
        }
        // A block of leaves at a time: the 26-per-leaf staging below
        // (832 B per leaf) stays cache-sized however long the leaf array
        // is, and a caller that keeps `ws` warm does not keep 26·n
        // entries resident.
        for block in self.local.chunks(GHOST_BLOCK) {
            // Batch phase: the block's 26·n candidate neighbor positions
            // and their ownership ranges in one vectorized sweep per
            // direction (direction-major layout: entry d·n + i is leaf i
            // of the block, direction d).
            let n_block = block.len();
            ws.nbrs.clear();
            for &(dx, dy, dz) in &dirs {
                simd::neighbor_keys_into(block, dx, dy, dz, &mut ws.nbrs);
            }
            ws.key_lo.clear();
            ws.key_hi.clear();
            for &n in &ws.nbrs {
                if n == Octant::INVALID {
                    ws.key_lo.push(u64::MAX);
                    ws.key_hi.push(u64::MAX);
                } else {
                    ws.key_lo.push(n.key());
                    ws.key_hi.push(n.last_descendant().key());
                }
            }
            ws.own_lo.clear();
            ws.own_hi.clear();
            simd::upper_bounds_into(&self.markers, &ws.key_lo, &mut ws.own_lo);
            simd::upper_bounds_into(&self.markers, &ws.key_hi, &mut ws.own_hi);

            // Send each boundary leaf to every rank owning an adjacent
            // region, reading the precomputed batches leaf-major so the
            // send order is leaf order. Per-leaf dedup of destination ranks. A leaf's 26 neighbor
            // regions can span arbitrarily many ranks when the curve is
            // finely partitioned, so this must not be a fixed-size buffer.
            for (i, o) in block.iter().enumerate() {
                ws.sent_to.clear();
                for d in 0..dirs.len() {
                    let idx = d * n_block + i;
                    if ws.nbrs[idx] == Octant::INVALID {
                        continue;
                    }
                    let rlo = (ws.own_lo[idx] as usize).saturating_sub(1);
                    let rhi = (ws.own_hi[idx] as usize).saturating_sub(1);
                    for r in rlo..=rhi.min(p - 1) {
                        if r != me && !ws.sent_to.contains(&r) {
                            ws.sent_to.push(r);
                            ws.outgoing[r].push(*o);
                        }
                    }
                }
            }
        }
        ws.send_counts.clear();
        ws.send_flat.clear();
        for buf in ws.outgoing.iter() {
            ws.send_counts.push(buf.len());
        }
        for buf in ws.outgoing.iter() {
            ws.send_flat.extend_from_slice(buf);
        }
        self.comm.alltoallv_flat(
            &ws.send_flat,
            &ws.send_counts,
            &mut ws.recv_flat,
            &mut ws.recv_counts,
        );
        ws.ghosts.clear();
        let mut off = 0usize;
        for (src, &cnt) in ws.recv_counts.iter().enumerate() {
            for &o in &ws.recv_flat[off..off + cnt] {
                // Keep only ghosts actually adjacent to my leaves (the
                // sender over-approximated with owner ranges).
                let adjacent = Octant::neighbor_directions().any(|(dx, dy, dz)| {
                    o.neighbor(dx, dy, dz)
                        .map(|n| {
                            // Does region n intersect my ownership range?
                            let (rlo, rhi) = self.owner_range(&n);
                            rlo <= me && me <= rhi
                        })
                        .unwrap_or(false)
                });
                if adjacent {
                    ws.ghosts.push((src, o));
                }
            }
            off += cnt;
        }
        ws.ghosts.sort_by_key(|a| a.1);
        ws.ghosts.dedup();
        &ws.ghosts
    }

    /// Validate the distributed linear-octree invariants (collective):
    /// local validity, global sortedness across rank boundaries, global
    /// completeness.
    pub fn validate(&self) -> bool {
        let locally_valid = crate::is_valid_linear(&self.local);
        let first = self.local.first().map(|o| o.key()).unwrap_or(u64::MAX);
        let last = self
            .local
            .last()
            .map(|o| o.last_descendant().key())
            .unwrap_or(0);
        let firsts = self.comm.allgatherv(&[first]);
        let lasts = self.comm.allgatherv(&[last]);
        let mut globally_sorted = true;
        let mut prev_last = 0u64;
        for r in 0..self.comm.size() {
            if firsts[r] == u64::MAX {
                continue;
            }
            if firsts[r] < prev_last {
                globally_sorted = false;
            }
            prev_last = lasts[r].max(prev_last);
        }
        let vol: u128 = self
            .local
            .iter()
            .map(|o| {
                let s = o.len() as u128;
                s * s * s
            })
            .sum();
        let vols = self.comm.allgatherv(&[(vol >> 64) as u64, vol as u64]);
        let mut total: u128 = 0;
        for c in vols.chunks(2) {
            total += ((c[0] as u128) << 64) | c[1] as u128;
        }
        let complete = total == (crate::ROOT_LEN as u128).pow(3);
        let ok = locally_valid && globally_sorted && complete;
        self.comm.allreduce_min(&[ok as u64])[0] == 1
    }
}

/// `TransferFields`: replay a [`PartitionPlan`] on element-attached data
/// with `ncomp` values per element. Returns this rank's data after the
/// repartition, in the new element order.
pub fn transfer_fields<T: pod::Pod>(
    comm: &Comm,
    plan: &PartitionPlan,
    data: &[T],
    ncomp: usize,
) -> Vec<T> {
    let mut out = Vec::new();
    let mut counts = Vec::new();
    let mut recv_counts = Vec::new();
    transfer_fields_into(
        comm,
        plan,
        data,
        ncomp,
        &mut counts,
        &mut recv_counts,
        &mut out,
    );
    out
}

/// [`transfer_fields`] over caller-managed buffers: `out` receives the
/// repartitioned data (cleared first, capacity reused). Because a
/// [`PartitionPlan`]'s send ranges tile the element order contiguously in
/// rank order, `data` itself is the flat send buffer — no packing copy,
/// and warm calls do not allocate.
pub fn transfer_fields_into<T: pod::Pod>(
    comm: &Comm,
    plan: &PartitionPlan,
    data: &[T],
    ncomp: usize,
    counts_scratch: &mut Vec<usize>,
    recv_counts_scratch: &mut Vec<usize>,
    out: &mut Vec<T>,
) {
    let p = comm.size();
    assert_eq!(plan.send_ranges.len(), p);
    counts_scratch.clear();
    for &(s, e) in &plan.send_ranges {
        counts_scratch.push((e - s) * ncomp);
    }
    assert_eq!(
        counts_scratch.iter().sum::<usize>(),
        data.len(),
        "plan does not cover the element data"
    );
    comm.alltoallv_flat(data, counts_scratch, out, recv_counts_scratch);
    assert_eq!(out.len(), plan.new_len * ncomp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{is_balanced, BalanceKind};
    use scomm::spmd;

    #[test]
    fn uniform_tree_distributes_evenly() {
        let counts = spmd::run(4, |c| {
            let t = DistOctree::new_uniform(c, 2);
            assert!(t.validate());
            assert_eq!(t.global_count(), 64);
            t.local.len()
        });
        assert_eq!(counts, vec![16, 16, 16, 16]);
    }

    #[test]
    fn owner_of_covers_all_ranks() {
        spmd::run(4, |c| {
            let t = DistOctree::new_uniform(c, 2);
            // Every leaf of the global tree must be owned by the rank that
            // holds it locally.
            for (i, o) in crate::ops::new_tree(2).iter().enumerate() {
                let owner = t.owner_of(o);
                assert_eq!(owner, i / 16, "leaf {i}");
            }
        });
    }

    #[test]
    fn partition_rebalances_after_local_refine() {
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            // Only rank 0 refines: load becomes skewed 8:1.
            if c.rank() == 0 {
                t.refine(|_| true);
            } else {
                t.refine(|_| false);
            }
            assert!(t.validate());
            let n = t.global_count();
            let plan = t.partition();
            assert!(t.validate());
            assert_eq!(t.global_count(), n);
            assert_eq!(plan.new_len, t.local.len());
            // Even split ±1.
            let share = n / c.size() as u64;
            assert!((t.local.len() as u64) >= share && (t.local.len() as u64) <= share + 1);
        });
    }

    #[test]
    fn transfer_fields_follows_elements() {
        spmd::run(3, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            if c.rank() == 1 {
                t.refine(|o| o.child_id() < 4);
            } else {
                t.refine(|_| false);
            }
            // Attach each element's Morton key as its "field" value.
            let data: Vec<u64> = t.local.iter().map(|o| o.key()).collect();
            let plan = t.partition();
            let moved = transfer_fields(c, &plan, &data, 1);
            let expect: Vec<u64> = t.local.iter().map(|o| o.key()).collect();
            assert_eq!(moved, expect, "fields must follow their elements");
        });
    }

    #[test]
    fn parallel_balance_matches_serial() {
        // Refine a center spike split across ranks; parallel balance must
        // produce the same global tree as serial balance of the union.
        let locals = spmd::run(4, |c| {
            use crate::morton::{MAX_LEVEL, ROOT_LEN};
            let target = Octant::new(
                ROOT_LEN / 2 - 1,
                ROOT_LEN / 2 - 1,
                ROOT_LEN / 2 - 1,
                MAX_LEVEL,
            );
            let mut t = DistOctree::new_uniform(c, 1);
            for _ in 0..4 {
                t.refine(|o| o.contains(&target));
                t.partition();
            }
            t.balance(BalanceKind::Full);
            assert!(t.validate());
            t.local.clone()
        });
        let mut parallel_union: Vec<Octant> = locals.into_iter().flatten().collect();
        parallel_union.sort();

        let target = Octant::new(
            crate::ROOT_LEN / 2 - 1,
            crate::ROOT_LEN / 2 - 1,
            crate::ROOT_LEN / 2 - 1,
            crate::MAX_LEVEL,
        );
        let mut serial = crate::ops::new_tree(1);
        for _ in 0..4 {
            crate::ops::refine(&mut serial, |o| o.contains(&target));
        }
        crate::balance::balance_local(&mut serial);
        assert!(is_balanced(&parallel_union));
        assert_eq!(parallel_union, serial);
    }

    #[test]
    fn ghost_layer_is_symmetric_and_adjacent() {
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.5);
            t.balance(BalanceKind::Full);
            t.partition();
            let ghosts = t.ghost_layer();
            // Each ghost must be adjacent to at least one local leaf and
            // owned by the rank recorded.
            for (owner, g) in &ghosts {
                assert_ne!(*owner, c.rank());
                assert_eq!(t.owner_of(g), *owner);
                let touches = t.local.iter().any(|o| {
                    Octant::neighbor_directions().any(|(dx, dy, dz)| {
                        // Adjacency test via integer intervals expanded by
                        // one lattice unit.
                        let _ = (dx, dy, dz);
                        let (ox0, oy0, oz0) = (o.x() as i64, o.y() as i64, o.z() as i64);
                        let ol = o.len() as i64;
                        let (gx0, gy0, gz0) = (g.x() as i64, g.y() as i64, g.z() as i64);
                        let gl = g.len() as i64;
                        let overlap =
                            |a0: i64, al: i64, b0: i64, bl: i64| a0 <= b0 + bl && b0 <= a0 + al;
                        overlap(ox0, ol, gx0, gl)
                            && overlap(oy0, ol, gy0, gl)
                            && overlap(oz0, ol, gz0, gl)
                    })
                });
                assert!(touches, "ghost {g:?} not adjacent to any local leaf");
            }
        });
    }

    #[test]
    fn warm_ghost_layer_into_matches_and_does_not_allocate() {
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] + o.center_unit()[1] < 1.0);
            t.balance(BalanceKind::Full);
            t.partition();
            let oracle = t.ghost_layer();
            let mut ws = GhostScratch::new();
            // Warm the scratch, then assert rebuilds are allocation-free
            // and bitwise-stable.
            for _ in 0..3 {
                t.ghost_layer_into(&mut ws);
            }
            assert_eq!(ws.ghosts(), &oracle[..]);
            let cap0 = ws.capacity_bytes();
            for _ in 0..4 {
                t.ghost_layer_into(&mut ws);
                assert_eq!(ws.ghosts(), &oracle[..]);
            }
            assert_eq!(
                ws.capacity_bytes(),
                cap0,
                "warm ghost rebuild grew its scratch"
            );
        });
    }

    #[test]
    fn adapt_to_target_tracks_count() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 3);
            let ind: Vec<f64> = t
                .local
                .iter()
                .map(|o| {
                    let ctr = o.center_unit();
                    (-((ctr[0] - 0.5).powi(2) + (ctr[1] - 0.5).powi(2)) * 20.0).exp()
                })
                .collect();
            let params = MarkParams {
                target_elements: 900,
                ..Default::default()
            };
            t.adapt_to_target(&ind, &params);
            assert!(t.validate());
            let n = t.global_count() as f64;
            assert!((n - 900.0).abs() / 900.0 < 0.3, "global count {n}");
        });
    }

    #[test]
    fn three_steps_by_hand_equal_adapt_to_target() {
        for p in [1, 4] {
            spmd::run(p, |c| {
                let mut whole = DistOctree::new_uniform(c, 3);
                let mut by_hand = DistOctree::new_uniform(c, 3);
                let ind: Vec<f64> = whole
                    .local
                    .iter()
                    .map(|o| (-o.center_unit()[0] * 6.0).exp())
                    .collect();
                let params = MarkParams {
                    target_elements: 700,
                    ..Default::default()
                };
                let counts = whole.adapt_to_target(&ind, &params);
                by_hand.mark_for_target(&ind, &params);
                let coarsened = by_hand.coarsen_marked();
                let refined = by_hand.refine_marked();
                assert!(refined > 0 && coarsened > 0, "both splices must run");
                assert_eq!((refined, coarsened), counts);
                assert_eq!(by_hand.local, whole.local);
                assert_eq!(by_hand.markers, whole.markers);
                assert_eq!(by_hand.counts, whole.counts);
            });
        }
    }

    #[test]
    fn warm_adapt_cycle_does_not_allocate() {
        // Repeat an identical mark→refine→coarsen→balance→partition cycle;
        // once warm, the tree's tracked capacity must stop growing.
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            let mut plan = PartitionPlan {
                send_ranges: Vec::new(),
                new_len: 0,
            };
            // Deterministic geometric predicates: the cycle map reaches a
            // periodic orbit after a couple of applications, after which
            // all buffer sizes are steady.
            let cycle = |t: &mut DistOctree, plan: &mut PartitionPlan| {
                t.refine(|o| {
                    let c = o.center_unit();
                    let d2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2) + (c[2] - 0.5).powi(2);
                    o.level() < 4 && d2 < 0.09
                });
                t.coarsen(|o| o.level() > 2 && o.center_unit()[0] > 0.5);
                t.balance(BalanceKind::Full);
                t.partition_with(plan);
            };
            for _ in 0..3 {
                cycle(&mut t, &mut plan);
            }
            let cap = t.alloc_bytes();
            for _ in 0..4 {
                cycle(&mut t, &mut plan);
            }
            assert_eq!(t.alloc_bytes(), cap, "warm adapt cycle allocated");
        });
    }

    #[test]
    fn transfer_fields_into_matches_nested() {
        spmd::run(3, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            if c.rank() == 1 {
                t.refine(|o| o.child_id() < 4);
            } else {
                t.refine(|_| false);
            }
            let data: Vec<f64> = t
                .local
                .iter()
                .flat_map(|o| [o.key() as f64, o.level() as f64])
                .collect();
            let plan = t.partition();
            let reference = transfer_fields(c, &plan, &data, 2);
            let (mut out, mut counts, mut rc) = (Vec::new(), Vec::new(), Vec::new());
            transfer_fields_into(c, &plan, &data, 2, &mut counts, &mut rc, &mut out);
            assert_eq!(out, reference);
            // Warm call reuses the output buffer.
            let ptr = out.as_ptr();
            transfer_fields_into(c, &plan, &data, 2, &mut counts, &mut rc, &mut out);
            assert_eq!(out.as_ptr(), ptr);
        });
    }

    #[test]
    fn empty_rank_handling() {
        // More ranks than elements: level-0 tree on 3 ranks.
        spmd::run(3, |c| {
            let t = DistOctree::new_uniform(c, 0);
            assert_eq!(t.global_count(), 1);
            assert!(t.validate());
            let owner = t.owner_of(&Octant::root());
            // Exactly one rank owns the root; all agree on which.
            let owners = c.allgatherv(&[owner as u64]);
            assert!(owners.iter().all(|&o| o == owners[0]));
            assert_eq!(c.allreduce_sum(&[t.local.len() as u64])[0], 1);
        });
    }
}
