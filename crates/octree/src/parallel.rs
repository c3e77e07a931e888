//! The distributed octree: Morton-curve partitioning, parallel 2:1
//! balance, repartitioning, field transfer, and the ghost layer.
//!
//! Each rank stores only the contiguous Morton segment of leaves it owns
//! (paper, Section IV-A). The only global metadata is one marker per rank
//! (the Morton key of the first owned leaf), established with an
//! `allgather` of one long integer per core — exactly the paper's scheme.
//! Every operation is the one-tree case of the shared curve code:
//! [`LeafCurve`] (balance included) and [`crate::ghost`], with the
//! [`NoSeam`] seam — a step out of the root cube is the domain boundary.

use crate::balance::BalanceKind;
pub use crate::curve::PartitionPlan;
use crate::curve::{LeafCurve, NoSeam};
use crate::ghost::{GhostEntry, GhostLayer, GhostWorkspace};
use crate::mark::MarkParams;
use crate::morton::Octant;
use scomm::{pod, Comm};

/// The ghost workspace of a single octree. The name is kept for the
/// benchmark's import until its next change (ROADMAP item 1(g)).
pub type GhostScratch = GhostWorkspace<Octant>;

/// A distributed linear octree: this rank's view.
pub struct DistOctree<'c> {
    /// Locally owned leaves, Morton-sorted.
    pub local: Vec<Octant>,
    /// Markers, counts, and the refine/coarsen/balance/partition scratch.
    curve: LeafCurve<'c, Octant>,
}

impl<'c> DistOctree<'c> {
    /// `NewTree`: build a uniform tree at `level`, leaves divided evenly
    /// between ranks in Morton order.
    pub fn new_uniform(comm: &'c Comm, level: u8) -> Self {
        let n = 1u64 << (3 * level as u64);
        let p = comm.size() as u64;
        let r = comm.rank() as u64;
        let local = (n * r / p..n * (r + 1) / p)
            .map(|i| Octant::from_uniform_index(level, i))
            .collect();
        Self::from_local(comm, local)
    }

    /// Wrap already-distributed leaves (must be globally Morton-sorted and
    /// non-overlapping across ranks).
    pub fn from_local(comm: &'c Comm, local: Vec<Octant>) -> Self {
        DistOctree {
            curve: LeafCurve::new(comm, 1, &local),
            local,
        }
    }

    /// The shared curve metadata (markers, ownership) of this tree.
    pub fn curve(&self) -> &LeafCurve<'c, Octant> {
        &self.curve
    }

    /// Global number of elements.
    pub fn global_count(&self) -> u64 {
        self.curve.global_count()
    }

    /// Global index of this rank's first element.
    pub fn global_offset(&self) -> u64 {
        self.curve.global_offset()
    }

    /// The communicator this tree lives on.
    pub fn comm(&self) -> &'c Comm {
        self.curve.comm()
    }

    /// Per-rank element counts (metadata from the last marker exchange).
    pub fn rank_counts(&self) -> &[u64] {
        self.curve.rank_counts()
    }

    /// The rank owning `octant` (by its first descendant). Assumes the
    /// global tree covers the octant's region.
    pub fn owner_of(&self, octant: &Octant) -> usize {
        self.curve.owner_of(octant)
    }

    /// The inclusive rank range whose segments intersect the region of
    /// `octant` (it may span several ranks).
    pub fn owner_range(&self, octant: &Octant) -> (usize, usize) {
        self.curve.owner_range(octant)
    }

    /// `RefineTree`: purely local, no communication (markers refreshed).
    pub fn refine<F: FnMut(&Octant) -> bool>(&mut self, should_refine: F) -> usize {
        self.curve.refine(&mut self.local, should_refine)
    }

    /// `CoarsenTree`: local families only (see [`LeafCurve::coarsen`]).
    pub fn coarsen<F: FnMut(&Octant) -> bool>(&mut self, should_coarsen: F) -> usize {
        self.curve.coarsen(&mut self.local, should_coarsen)
    }

    /// `MarkElements` (see [`LeafCurve::mark_for_target`]); the marks stay
    /// with the tree for [`DistOctree::coarsen_marked`] and
    /// [`DistOctree::refine_marked`], which must follow in that order.
    pub fn mark_for_target(&mut self, indicators: &[f64], params: &MarkParams) {
        self.curve.mark_for_target(&self.local, indicators, params)
    }

    /// `CoarsenTree` on the marks; returns the families coarsened.
    pub fn coarsen_marked(&mut self) -> usize {
        self.curve.coarsen_marked(&mut self.local)
    }

    /// `RefineTree` on the surviving marks, then the one marker refresh
    /// of the adaptation. Returns the number of leaves refined.
    pub fn refine_marked(&mut self) -> usize {
        self.curve.refine_marked(&mut self.local)
    }

    /// `MarkElements` + apply. Returns `(refined, coarsened_families)`.
    /// Warm calls reuse the tree's scratch and do not allocate.
    pub fn adapt_to_target(&mut self, indicators: &[f64], params: &MarkParams) -> (usize, usize) {
        self.curve
            .adapt_to_target(&mut self.local, indicators, params)
    }

    /// Parallel `BalanceTree` (see [`LeafCurve::balance`]). Returns the
    /// number of leaves added globally.
    pub fn balance(&mut self, kind: BalanceKind) -> u64 {
        self.curve.balance(&mut self.local, kind, &NoSeam)
    }

    /// Ripple rounds (local-balance + exchange iterations) used by the
    /// most recent [`DistOctree::balance`] call — the `amr.ripple_rounds`
    /// obs counter.
    pub fn last_balance_rounds(&self) -> u64 {
        self.curve.last_balance_rounds()
    }

    /// Heap capacity currently held by this tree's tracked buffers (leaf
    /// array, curve metadata, and the adaptation scratch), in bytes. The
    /// growth of this value across a warm adapt cycle is the
    /// `amr.alloc_bytes` contribution of the tree layer; at steady state
    /// it must be zero.
    pub fn alloc_bytes(&self) -> u64 {
        self.curve.alloc_bytes(&self.local)
    }

    /// `PartitionTree`: redistribute leaves so that every rank owns an
    /// equal share (±1) of the Morton curve. Returns the plan, which must
    /// be replayed on element data with [`transfer_fields`].
    pub fn partition(&mut self) -> PartitionPlan {
        let mut plan = PartitionPlan::default();
        self.partition_with(&mut plan);
        plan
    }

    /// [`DistOctree::partition`] writing the plan into a caller-provided
    /// value (see [`LeafCurve::partition_with`]); warm calls do not
    /// allocate.
    pub fn partition_with(&mut self, plan: &mut PartitionPlan) {
        self.curve.partition_with(&mut self.local, plan)
    }

    /// Build the ghost layer: the remote leaves face/edge/corner-adjacent
    /// to this rank's leaves, with owner and adjacency class, sorted.
    /// One alltoallv, mirroring the paper's `ExtractMesh` ghost gather.
    /// Allocating wrapper around [`DistOctree::ghost_layer_into`].
    pub fn ghost_layer(&self) -> Vec<GhostEntry<Octant>> {
        let mut ws = GhostScratch::default();
        self.ghost_layer_into(&mut ws);
        ws.take_layer().entries
    }

    /// Grow-only variant of [`DistOctree::ghost_layer`] (see
    /// [`LeafCurve::ghost_layer_into`]): a warm adapt cycle rebuilds the
    /// ghost layer without heap allocation (the workspace discipline the
    /// `rhea` AMR loop asserts through `amr.alloc_bytes == 0`).
    pub fn ghost_layer_into<'w>(&self, ws: &'w mut GhostScratch) -> &'w GhostLayer<Octant> {
        self.curve.ghost_layer_into(&self.local, &NoSeam, ws)
    }

    /// Validate the distributed linear-octree invariants (collective):
    /// local validity (the vectorized sweep), global sortedness across
    /// rank boundaries, global completeness.
    pub fn validate(&self) -> bool {
        self.curve.validate(&self.local)
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
            for GhostEntry { owner, leaf: g, .. } in &ghosts {
                assert_ne!(*owner as usize, c.rank());
                assert_eq!(t.owner_of(g), *owner as usize);
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
                assert_eq!(by_hand.curve.markers(), whole.curve.markers());
                assert_eq!(by_hand.rank_counts(), whole.rank_counts());
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
