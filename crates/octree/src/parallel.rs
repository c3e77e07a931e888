//! The distributed octree: Morton-curve partitioning, parallel 2:1
//! balance, repartitioning, field transfer, and the ghost layer.
//!
//! Each rank stores only the contiguous Morton segment of leaves it owns
//! (paper, Section IV-A). The only global metadata is one marker per rank
//! (the Morton key of the first owned leaf), established with an
//! `allgather` of one long integer per core — exactly the paper's scheme.
//! The tree is the one-tree case of the one distributed tree type,
//! [`LeafCurve`] (balance included, and the ghost layer of
//! [`crate::ghost`]), with the [`NoSeam`] seam — a step out of the root
//! cube is the domain boundary — and its packed `u64` Morton keys.

pub use crate::curve::PartitionPlan;
use crate::curve::{LeafCurve, NoSeam};
use crate::ghost::GhostWorkspace;
use crate::morton::Octant;
use scomm::{pod, Comm};

/// The ghost workspace of a single octree. The name is kept for the
/// benchmark's import until its next change (ROADMAP item 1(g)).
pub type GhostScratch = GhostWorkspace<Octant>;

/// A distributed linear octree: this rank's view.
pub type DistOctree<'c> = LeafCurve<'c, Octant, NoSeam>;

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
        LeafCurve::new(comm, 1, NoSeam, local)
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
    use crate::ghost::GhostEntry;
    use crate::mark::MarkParams;
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
            let ghosts = t.ghosts().entries;
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
    fn warm_ghost_layer_into_matches_fresh_layer() {
        // Rebuilds into a reused scratch are bitwise-stable; their
        // allocation count is pinned in `tests/allocations.rs`.
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] + o.center_unit()[1] < 1.0);
            t.balance(BalanceKind::Full);
            t.partition();
            let oracle = t.ghosts().entries;
            let mut ws = GhostScratch::new();
            for _ in 0..7 {
                t.ghost_layer_into(&mut ws);
                assert_eq!(ws.ghosts(), &oracle[..]);
            }
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
                assert_eq!(by_hand.markers(), whole.markers());
                assert_eq!(by_hand.rank_counts(), whole.rank_counts());
            });
        }
    }

    #[test]
    fn warm_adapt_cycle_does_not_allocate() {
        // Repeat an identical refine→coarsen→balance→partition cycle. Its
        // heap allocations are counted (none once warm) by the counting
        // allocator of `tests/allocations.rs`; this pins what that count
        // rests on. The geometric predicates drive the tree onto a fixed
        // orbit, and the leaf array's role rotates through a fixed set of
        // buffers: no warm cycle brings in or regrows one.
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            let mut plan = PartitionPlan::default();
            let cycle = |t: &mut DistOctree, plan: &mut PartitionPlan| {
                t.refine(|o| {
                    let d = o.center_unit().map(|x| (x - 0.5) * (x - 0.5));
                    o.level() < 4 && d.iter().sum::<f64>() < 0.09
                });
                t.coarsen(|o| o.level() > 2 && o.center_unit()[0] > 0.5);
                t.balance(BalanceKind::Full);
                t.partition_with(plan);
                (t.local.as_ptr(), t.local.capacity())
            };
            for _ in 0..3 {
                cycle(&mut t, &mut plan);
            }
            let (leaves, ranges) = (t.local.clone(), plan.send_ranges.clone());
            let buffers: Vec<_> = (0..3).map(|_| cycle(&mut t, &mut plan)).collect();
            for _ in 0..6 {
                let buffer = cycle(&mut t, &mut plan);
                assert!(
                    buffers.contains(&buffer),
                    "warm cycle allocated a leaf array"
                );
                assert_eq!(t.local, leaves, "warm cycle left its orbit");
                assert_eq!(plan.send_ranges, ranges);
            }
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
