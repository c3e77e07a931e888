//! Ghost-layer regression tests.
//!
//! The ghost builder's per-leaf destination dedup used to be a
//! fixed-size 32-slot array; a single coarse leaf whose neighbor
//! regions span more ranks than that overran it. These tests pin the
//! exact 4-rank ghost counts of a deterministic adapted fixture
//! (rank-asymmetric mirror lists) and exercise a >32-rank adjacency.

use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use octree::{Octant, ROOT_LEN};
use scomm::spmd;

#[test]
fn ghost_counts_pinned_at_4_ranks() {
    let counts = spmd::run(4, |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| {
            let ctr = o.center_unit();
            ctr[0] + ctr[1] < 0.8
        });
        t.balance(BalanceKind::Full);
        t.partition();
        let g = t.ghosts().entries;
        // Every ghost must be attributed to a foreign rank and be
        // consistent with the ownership metadata.
        for e in &g {
            assert_ne!(e.owner as usize, c.rank());
            assert_eq!(
                t.owner_of(&e.leaf),
                e.owner as usize,
                "recorded owner must be real"
            );
        }
        g.len() as u64
    });
    // Pinned per-rank ghost counts for this fixture. The lists are
    // rank-asymmetric by construction (the refined blob is off-center);
    // any change to the ghost predicate or the partition shows up here.
    assert_eq!(counts, vec![50, 61, 51, 57], "4-rank ghost counts moved");
}

#[test]
fn ghost_layer_handles_more_than_32_adjacent_ranks() {
    // One coarse level-1 leaf next to a level-4-refined sibling whose
    // 512 leaves are spread over ~38 ranks: the coarse leaf's neighbor
    // regions then span far more than 32 destination ranks.
    const P: usize = 40;
    let half = ROOT_LEN / 2;
    let root_children: Vec<Octant> = Octant::new(0, 0, 0, 0).children().to_vec();
    let coarse = root_children[0]; // (0,0,0) level 1
    let refined_parent = root_children[1]; // (half,0,0) level 1
                                           // Build the complete global leaf list in Morton order.
    let mut fine = vec![refined_parent];
    for _ in 0..3 {
        fine = fine.iter().flat_map(|o| o.children()).collect();
    }
    let mut global = vec![coarse];
    global.extend(&fine);
    global.extend(root_children[2..].iter().copied());
    let total = global.len(); // 1 + 512 + 6

    let ghost0 = spmd::run(P, move |c| {
        // Rank 0 owns only the coarse leaf; the fine leaves spread
        // across the remaining ranks.
        let me = c.rank();
        let (lo, hi) = if me == 0 {
            (0, 1)
        } else {
            let rest = total - 1;
            (1 + rest * (me - 1) / (P - 1), 1 + rest * me / (P - 1))
        };
        let t = DistOctree::from_local(c, global[lo..hi].to_vec());
        assert!(t.validate());
        let g = t.ghosts().entries;
        if me == 0 {
            // The coarse leaf faces the refined sibling: at least the
            // 64 face-adjacent fine leaves are ghosts here.
            assert!(g.len() >= 64, "rank 0 sees {} ghosts", g.len());
        } else {
            // Mirror side: any rank owning a fine leaf on the shared
            // face must hold the coarse leaf as a ghost.
            let touches_face = t.local.iter().any(|o| o.x() == half && o.level() > 1);
            if touches_face {
                assert!(
                    g.iter().any(|e| e.owner == 0 && e.leaf == coarse),
                    "rank {me} touches the face but lacks the coarse ghost"
                );
            }
        }
        g.len() as u64
    });
    assert!(ghost0.iter().sum::<u64>() > 0);
}

#[test]
fn ghost_layer_is_exact_across_staging_blocks() {
    // A uniform level-4 tree on two ranks gives each 2048 leaves, which
    // the sender recursion splits into many leaf runs and insulated
    // boxes, and a ghost layer known in closed form: the 16 × 16 leaves
    // of the other rank that touch the plane z = 1/2.
    spmd::run(2, |c| {
        let t = DistOctree::new_uniform(c, 4);
        assert_eq!(t.local.len(), 2048);
        let half = ROOT_LEN / 2;
        let other = 1 - c.rank();
        let mut expect: Vec<(usize, Octant)> = (0..4096)
            .map(|i| Octant::from_uniform_index(4, i))
            .filter(|o| match other {
                1 => o.z() == half,
                _ => o.z() + o.len() == half,
            })
            .map(|o| (other, o))
            .collect();
        expect.sort_by_key(|a| a.1);
        assert_eq!(expect.len(), 256);
        let got: Vec<(usize, Octant)> = t
            .ghosts()
            .entries
            .iter()
            .map(|e| (e.owner as usize, e.leaf))
            .collect();
        assert_eq!(got, expect);
    });
}
