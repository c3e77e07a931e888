//! Property-based tests for the octree invariants.

use octree::balance::{balance_local, is_balanced};
use octree::ops::{coarsen, find_containing, linearize, new_tree, refine};
use octree::{is_complete, is_valid_linear, morton, Octant, MAX_LEVEL, ROOT_LEN};
use proptest::prelude::*;

/// Strategy: an arbitrary valid octant at level ≤ `max_level`.
fn arb_octant(max_level: u8) -> impl Strategy<Value = Octant> {
    (0..=max_level, any::<u64>()).prop_map(|(level, seed)| {
        let n = 1u64 << (3 * level as u64);
        Octant::from_uniform_index(level, seed % n)
    })
}

/// Strategy: a complete linear octree built by a random refinement walk.
fn arb_tree(rounds: usize) -> impl Strategy<Value = Vec<Octant>> {
    proptest::collection::vec(any::<u64>(), rounds).prop_map(|seeds| {
        let mut t = new_tree(1);
        for seed in seeds {
            let mut h = seed;
            refine(&mut t, |o| {
                // Pseudo-random but deterministic per-leaf decision,
                // bounded depth so trees stay small.
                h = h.wrapping_mul(6364136223846793005).wrapping_add(o.key());
                o.level() < 5 && h % 11 == 0
            });
        }
        t
    })
}

proptest! {
    #[test]
    fn morton_key_roundtrips(x in 0u32..ROOT_LEN, y in 0u32..ROOT_LEN, z in 0u32..ROOT_LEN) {
        let k = morton::morton_key(x, y, z);
        prop_assert_eq!(morton::morton_decode(k), (x, y, z));
    }

    #[test]
    fn parent_child_roundtrip(o in arb_octant(MAX_LEVEL - 1), i in 0u8..8) {
        let c = o.child(i);
        prop_assert_eq!(c.parent(), o);
        prop_assert_eq!(c.child_id(), i);
        prop_assert!(o.is_ancestor_of(&c));
    }

    #[test]
    fn order_matches_descendant_ranges(a in arb_octant(8), b in arb_octant(8)) {
        // For non-overlapping octants, Morton order == order of their
        // descendant ranges.
        if !a.contains(&b) && !b.contains(&a) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(lo.last_descendant() < hi.first_descendant());
        }
    }

    #[test]
    fn random_trees_stay_valid(t in arb_tree(3)) {
        prop_assert!(is_valid_linear(&t));
        prop_assert!(is_complete(&t));
    }

    #[test]
    fn balance_idempotent_and_complete(mut t in arb_tree(4)) {
        balance_local(&mut t);
        prop_assert!(is_balanced(&t));
        prop_assert!(is_complete(&t));
        let n = t.len();
        prop_assert_eq!(balance_local(&mut t), 0, "balance must be idempotent");
        prop_assert_eq!(t.len(), n);
    }

    #[test]
    fn coarsen_then_is_complete(mut t in arb_tree(3), seed in any::<u64>()) {
        let mut h = seed;
        coarsen(&mut t, |o| {
            h = h.wrapping_mul(2862933555777941757).wrapping_add(o.key());
            h % 3 != 0
        });
        prop_assert!(is_valid_linear(&t));
        prop_assert!(is_complete(&t));
    }

    #[test]
    fn find_containing_agrees_with_scan(t in arb_tree(3), probe in arb_octant(MAX_LEVEL)) {
        let fast = find_containing(&t, &probe);
        let slow = t.iter().position(|o| o.contains(&probe));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn linearize_removes_all_overlaps(mut v in proptest::collection::vec(arb_octant(5), 1..40)) {
        v.sort();
        linearize(&mut v);
        prop_assert!(is_valid_linear(&v));
    }

    #[test]
    fn neighbor_of_neighbor_is_identity(
        o in arb_octant(MAX_LEVEL),
        dx in -1i32..=1, dy in -1i32..=1, dz in -1i32..=1,
    ) {
        // Same-size neighbors are symmetric: stepping back returns the
        // original octant. (The all-zero direction is the identity and
        // not a neighbor direction; skip it.)
        if (dx, dy, dz) != (0, 0, 0) {
            if let Some(n) = o.neighbor(dx, dy, dz) {
                prop_assert_eq!(n.level(), o.level());
                prop_assert_eq!(n.neighbor(-dx, -dy, -dz), Some(o));
            }
        }
    }

    #[test]
    fn distributed_balance_is_idempotent(seed in any::<u64>()) {
        // BalanceTree at 2 ranks: a second pass must be a global no-op
        // and the result must satisfy the distributed invariants.
        let added = scomm::spmd::run(2, |c| {
            let mut t = octree::parallel::DistOctree::new_uniform(c, 1);
            let mut h = seed;
            for _ in 0..3 {
                t.refine(|o| {
                    h = h.wrapping_mul(6364136223846793005).wrapping_add(o.key());
                    o.level() < 5 && h % 7 == 0
                });
            }
            t.balance(octree::balance::BalanceKind::Full);
            t.partition();
            let second = t.balance(octree::balance::BalanceKind::Full);
            (t.validate(), second)
        });
        for (valid, second) in added {
            prop_assert!(valid, "distributed invariants must hold after balance");
            prop_assert_eq!(second, 0, "second BalanceTree pass must add nothing");
        }
    }
}

// PR 7 satellite: packed-key representation properties.
proptest! {
    #[test]
    fn packed_key_roundtrips_all_levels(o in arb_octant(MAX_LEVEL)) {
        // Raw-key round trip, constructor round trip, and field layout:
        // 5 low level bits, 57 Morton bits, top bit unused.
        let raw = o.raw();
        prop_assert_eq!(Octant::from_raw(raw), o);
        let (x, y, z, l) = (o.x(), o.y(), o.z(), o.level());
        prop_assert_eq!(Octant::new(x, y, z, l), o);
        prop_assert_eq!(Octant::from_key_level(o.key(), l), o);
        prop_assert_eq!(raw & 0x1f, l as u64);
        prop_assert_eq!(raw >> 5, morton::morton_key(x, y, z));
        prop_assert_eq!(raw >> 63, 0);
    }

    #[test]
    fn packed_order_is_morton_level_lexicographic(
        v in proptest::collection::vec(arb_octant(MAX_LEVEL), 1..64),
    ) {
        // Plain u64 order on the packed keys must equal the
        // (morton_key, level) lexicographic order the old struct used.
        let mut by_raw = v.clone();
        by_raw.sort_by_key(|o| o.raw());
        let mut by_lex = v;
        by_lex.sort_by(|a, b| a.key().cmp(&b.key()).then(a.level().cmp(&b.level())));
        prop_assert_eq!(by_raw, by_lex);
    }
}
