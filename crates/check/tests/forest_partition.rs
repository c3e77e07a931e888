//! Forest partition edge cases, each checked against
//! `check::curve_checks::partition` and leaf-count conservation; the
//! one-tree forest against the single octree stage by stage; and the
//! forest balance against its serial oracle.

use std::sync::Arc;

use check::curve_checks::{balance21, morton_order, partition};
use check::fuzz_amr::roll;
use check::oracles::forest_balance_naive;
use forest::{Connectivity, Forest, ForestLeaf};
use octree::balance::BalanceKind;
use octree::curve::adjacent_regions;
use octree::ghost::LocalGhostView;
use octree::mark::MarkParams;
use octree::parallel::{DistOctree, PartitionPlan};
use octree::{Octant, ROOT_LEN};
use scomm::{spmd, Comm};

fn assert_partition_clean(f: &Forest) {
    let v = partition(f);
    assert!(v.is_empty(), "partition checker found: {v:?}");
    let v = morton_order(f);
    assert!(v.is_empty(), "morton_order checker found: {v:?}");
}

/// A single-leaf forest on four ranks: three ranks stay empty through
/// the partition, and the lone leaf must remain owned exactly once.
#[test]
fn single_leaf_forest_with_empty_ranks() {
    let conn = Arc::new(Connectivity::brick(1, 1, 1));
    spmd::run(4, |c| {
        let mut f = Forest::new_uniform(c, conn.clone(), 0);
        assert_eq!(f.global_count(), 1);
        let plan = f.partition();
        assert!(f.validate());
        assert_eq!(f.global_count(), 1, "leaf count not conserved");
        assert_eq!(plan.send_ranges.len(), 4);
        assert_partition_clean(&f);
        let owners: usize = c.allgatherv(&[f.local.len() as u64]).iter().sum::<u64>() as usize;
        assert_eq!(owners, 1);
    });
}

/// More ranks than initial leaves, then uneven refinement: empty send
/// and receive ranks on both sides of the exchange.
#[test]
fn empty_ranks_refill_on_partition() {
    let conn = Arc::new(Connectivity::brick(2, 1, 1));
    spmd::run(6, |c| {
        let mut f = Forest::new_uniform(c, conn.clone(), 0);
        // Two leaves on six ranks: four ranks start empty.
        assert_eq!(f.global_count(), 2);
        f.refine(|l| l.tree == 0);
        assert_eq!(f.global_count(), 9);
        let n = f.global_count();
        f.partition();
        assert!(f.validate());
        assert_eq!(f.global_count(), n, "leaf count not conserved");
        assert_partition_clean(&f);
        // An even split of 9 over 6 ranks leaves nobody with more than 2.
        assert!(f.local.len() <= 2);
    });
}

/// The already-balanced 24-tree cubed-sphere shell: balance adds
/// nothing, and the partition is a fixed point of an even distribution.
#[test]
fn balanced_24_tree_shell_partition_is_stable() {
    let conn = Arc::new(Connectivity::cubed_sphere(0.55, 1.0));
    spmd::run(8, |c| {
        let mut f = Forest::new_uniform(c, conn.clone(), 1);
        assert_eq!(f.global_count(), 24 * 8);
        let added = f.balance(BalanceKind::Full);
        assert_eq!(added, 0, "uniform shell is already balanced");
        let before = f.local.len();
        let n = f.global_count();
        let plan = f.partition();
        assert!(f.validate());
        assert_eq!(f.global_count(), n, "leaf count not conserved");
        assert_eq!(f.local.len(), before, "even split must be a fixed point");
        assert_eq!(plan.new_len, before);
        // The identity partition sends everything to self.
        let (s, e) = plan.send_ranges[c.rank()];
        assert_eq!(e - s, before);
        assert_partition_clean(&f);
        let v = balance21(&f, BalanceKind::Full);
        assert!(v.is_empty(), "balance checker found: {v:?}");
    });
}

/// Leaves, rank counts, validity and ghost layers (entries, owners and
/// kinds) agree between the two tree types.
fn assert_same(stage: &str, c: &Comm, tree: &DistOctree, forest: &Forest) {
    let octs: Vec<Octant> = forest.local.iter().map(|l| l.oct).collect();
    assert!(forest.local.iter().all(|l| l.tree == 0));
    assert_eq!(
        octs,
        tree.local,
        "{stage}: leaves differ on rank {}",
        c.rank()
    );
    assert_eq!(
        forest.rank_counts(),
        tree.rank_counts(),
        "{stage}: rank counts"
    );
    assert!(tree.validate(), "{stage}: octree invalid");
    assert!(forest.validate(), "{stage}: forest invalid");
    let (tree_ghosts, forest_ghosts) = (tree.ghosts().entries, forest.ghosts().entries);
    let lifted: Vec<_> = (tree_ghosts.iter())
        .map(|e| (e.owner, e.kind, ForestLeaf::new(0, e.leaf)))
        .collect();
    let layer: Vec<_> = (forest_ghosts.iter())
        .map(|e| (e.owner, e.kind, e.leaf))
        .collect();
    assert_eq!(
        layer,
        lifted,
        "{stage}: ghost layers differ on rank {}",
        c.rank()
    );
    let tree_view = LocalGhostView::new(&tree.local, &tree_ghosts);
    let forest_view = LocalGhostView::new(&forest.local, &forest_ghosts);
    let octs: Vec<Octant> = forest_view.leaves.iter().map(|l| l.oct).collect();
    assert_eq!(octs, tree_view.leaves, "{stage}: view leaves differ");
    assert_eq!(
        forest_view.origins, tree_view.origins,
        "{stage}: view origins differ"
    );
}

/// The one stage guard, on both tree types.
fn guard_both(tree: &DistOctree, forest: &Forest) {
    check::guard_tree(tree, BalanceKind::Full, None);
    check::guard_tree(forest, BalanceKind::Full, None);
}

/// `DistOctree` and a one-tree `Forest` over `unit_cube` run the same
/// curve code (`octree::curve`, `octree::ghost`) at two leaf types: one
/// seeded sequence of refine, coarsen, `adapt_to_target`, `balance(Full)`
/// and `partition_with` must leave bitwise-equal leaf arrays, rank
/// counts, ghost layers, local+ghost views and partition plans after
/// every stage, and pass the one stage guard once balanced, at
/// P ∈ {1, 2, 4, 8}. The independent balance check is
/// `forest_balance_matches_naive_oracle`.
#[test]
fn one_tree_forest_matches_octree_stage_by_stage() {
    let conn = Arc::new(Connectivity::unit_cube());
    for p in [1, 2, 4, 8] {
        spmd::run(p, |c| {
            let mut tree = DistOctree::new_uniform(c, 2);
            let mut forest = Forest::new_uniform(c, conn.clone(), 2);
            assert_same("new_uniform", c, &tree, &forest);
            let (seed, mut balance_added) = (17, 0);
            for cycle in 0..3 {
                let refine = |o: &Octant| o.level() < 6 && roll(seed, cycle, 1, o) < 30;
                let n = tree.refine(refine);
                assert_eq!(forest.refine(|l| refine(&l.oct)), n);
                assert_same("refine", c, &tree, &forest);

                // Decided per parent, so whole families agree.
                let coarsen = |o: &Octant| o.level() > 2 && roll(seed, cycle, 2, &o.parent()) < 40;
                let n = tree.coarsen(coarsen);
                assert_eq!(forest.coarsen(|l| coarsen(&l.oct)), n);
                assert_same("coarsen", c, &tree, &forest);

                // A bump at a seeded centre: refines near it, coarsens far
                // from it.
                let centre = Octant::from_uniform_index(3, 97 * cycle + 11).center_unit();
                let ind: Vec<f64> = tree
                    .local
                    .iter()
                    .map(|o| {
                        let x = o.center_unit();
                        let d2: f64 = (0..3).map(|i| (x[i] - centre[i]).powi(2)).sum();
                        (-20.0 * d2).exp()
                    })
                    .collect();
                let params = MarkParams {
                    target_elements: tree.global_count(),
                    max_level: 6,
                    min_level: 1,
                    ..Default::default()
                };
                let counts = tree.adapt_to_target(&ind, &params);
                assert_eq!(forest.adapt_to_target(&ind, &params), counts);
                assert_same("adapt_to_target", c, &tree, &forest);

                let added = tree.balance(BalanceKind::Full);
                assert_eq!(forest.balance(BalanceKind::Full), added);
                assert_same("balance", c, &tree, &forest);
                guard_both(&tree, &forest);
                balance_added += added;

                let (mut a, mut b) = (PartitionPlan::default(), PartitionPlan::default());
                tree.partition_with(&mut a);
                forest.partition_with(&mut b);
                assert_eq!(a, b, "partition plans differ on rank {}", c.rank());
                assert_same("partition_with", c, &tree, &forest);
                guard_both(&tree, &forest);
            }
            assert!(balance_added > 0, "balance never refined: no cross-check");
        });
    }
}

/// Tree 0 of a 2×2×2 brick refined five levels deep at the brick's
/// centre, the corner all eight trees share.
fn brick_centre(c: &Comm) -> Forest<'_> {
    let mut f = Forest::new_uniform(c, Arc::new(Connectivity::brick(2, 2, 2)), 1);
    for _ in 0..5 {
        f.refine(|l| {
            let o = l.oct;
            l.tree == 0
                && [o.x(), o.y(), o.z()]
                    .iter()
                    .all(|&a| a + o.len() == ROOT_LEN)
        });
    }
    f
}

/// The 24-tree shell refined in a seeded pattern, two levels.
fn shell(c: &Comm) -> Forest<'_> {
    let mut f = Forest::new_uniform(c, Arc::new(Connectivity::cubed_sphere(0.55, 1.0)), 1);
    for cycle in 0..2 {
        f.refine(|l| roll(5, cycle, l.tree as u64, &l.oct) < 20);
    }
    f
}

/// `Forest::balance` (seed propagation per tree run, requests across
/// ranks and tree seams) against the serial neighbour fixpoint over the
/// gathered pre-balance union with the composed relation, bitwise at
/// P ∈ {1, 2, 4, 8}. On the brick, the diagonal tree 7 touches tree 0
/// only at the centre corner: the composed relation refines it there
/// deeper than the face-only relation (`Forest::neighbor`) does.
#[test]
fn forest_balance_matches_naive_oracle() {
    for build in [brick_centre, shell] {
        for p in [1, 2, 4, 8] {
            spmd::run(p, |c| {
                let mut f = build(c);
                let mut expected: Vec<ForestLeaf> = c.allgatherv(&f.local);
                let mut face_only = expected.clone();
                let added = forest_balance_naive(&mut expected, BalanceKind::Full, |l, d, out| {
                    adjacent_regions(f.seam(), l, d, out)
                });
                forest_balance_naive(&mut face_only, BalanceKind::Full, |l, d, out| {
                    out.clear();
                    out.extend(f.neighbor(l, d.0, d.1, d.2));
                });
                assert_eq!(f.balance(BalanceKind::Full), added as u64, "P={p}");
                let got: Vec<ForestLeaf> = c.allgatherv(&f.local);
                assert_eq!(got, expected, "P={p}: balance differs from the oracle");
                let v = balance21(&f, BalanceKind::Full);
                assert!(v.is_empty(), "P={p}: {v:?}");
                let deepest = |leaves: &[ForestLeaf], t| {
                    leaves
                        .iter()
                        .filter(|l| l.tree == t)
                        .map(|l| l.oct.level())
                        .max()
                };
                if f.connectivity().num_trees() == 8 {
                    assert!(
                        deepest(&got, 7) > deepest(&face_only, 7),
                        "P={p}: the corner-only tree is not refined beyond the face-only balance"
                    );
                }
            });
        }
    }
}

/// The peninsula of `oracles.rs::many_round_balance_matches_naive`,
/// moved inside tree 0 of the cubed-sphere shell (every tree uniform at
/// level 2): rank 0 owns tree 0 up to A = the first child of
/// C = [¾, 1) × [½, ¾)², with B = [½, ¾)³ its last level-2 leaf, and C's
/// second child, on the next rank, is refined from level 3 to level 7
/// toward its corner on A. Only the later rounds' seeded passes refine B.
/// Beside it, the last tree is refined to level 7 at the middle of a face
/// it shares with another tree, so requests also cross a seam and the
/// partition boundary at once. At least three rounds; bitwise the serial
/// neighbour fixpoint with the composed relation, at P ∈ {2, 4, 8}.
#[test]
fn many_round_forest_balance_matches_naive_oracle() {
    let conn = Arc::new(Connectivity::cubed_sphere(0.55, 1.0));
    let (half, quarter) = (ROOT_LEN / 2, ROOT_LEN / 4);
    let c_cell = ForestLeaf::new(0, Octant::new(half + quarter, half, half, 2));
    let mut all: Vec<ForestLeaf> = Vec::new();
    for tree in 0..conn.num_trees() as u32 {
        for i in 0..64 {
            let leaf = ForestLeaf::new(tree, Octant::from_uniform_index(2, i));
            if leaf == c_cell {
                all.extend(leaf.oct.children().map(|o| ForestLeaf::new(0, o)));
            } else {
                all.push(leaf);
            }
        }
    }
    let a_end = all.partition_point(|l| *l <= ForestLeaf::new(0, c_cell.oct.child(0)));
    let peninsula = Octant::new(half + quarter + quarter / 2, half, half, octree::MAX_LEVEL);
    // The middle of the last tree's x = 0 face, a seam.
    let last = conn.num_trees() as u32 - 1;
    assert!(conn.neighbor_across(last, 0).is_some());
    let seam = Octant::new(0, half - 1, half - 1, octree::MAX_LEVEL);
    for p in [2, 4, 8] {
        spmd::run(p, |c| {
            // Rank 0 ends with A; ranks 1.. share the rest evenly.
            let (r, rest) = (c.rank(), all.len() - a_end);
            let (lo, hi) = match r {
                0 => (0, a_end),
                _ => (a_end + rest * (r - 1) / (p - 1), a_end + rest * r / (p - 1)),
            };
            let mut f = Forest::from_local(c, conn.clone(), all[lo..hi].to_vec());
            for _ in 3..7 {
                f.refine(|l| {
                    (l.tree == 0 && l.oct.contains(&peninsula))
                        || (l.tree == last && l.oct.contains(&seam))
                });
            }
            let mut expected: Vec<ForestLeaf> = c.allgatherv(&f.local);
            let added = forest_balance_naive(&mut expected, BalanceKind::Full, |l, d, out| {
                adjacent_regions(f.seam(), l, d, out)
            });
            assert_eq!(f.balance(BalanceKind::Full), added as u64, "P={p}");
            assert!(
                f.last_balance_rounds() >= 3,
                "P={p}: {}",
                f.last_balance_rounds()
            );
            assert_eq!(c.allgatherv(&f.local), expected, "P={p}");
        });
    }
}
