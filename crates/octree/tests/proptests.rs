//! Property tests for the octree invariants: each runs `CASES` seeded
//! cases, and every assertion names the case seed, which replays it.

use octree::balance::{balance_local, is_balanced};
use octree::ops::{coarsen, find_containing, new_tree, refine};
use octree::{is_complete, is_valid_linear, morton, Octant, MAX_LEVEL, ROOT_LEN};
use scomm::rng::{mix, SplitMix64};

/// Cases per property.
const CASES: u64 = 48;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// An arbitrary valid octant at level ≤ `max_level`.
fn arb_octant(rng: &mut SplitMix64, max_level: u8) -> Octant {
    let level = rng.below(max_level as u64 + 1) as u8;
    Octant::from_uniform_index(level, rng.below(1 << (3 * level as u64)))
}

/// A complete linear octree built by `rounds` random refinement sweeps,
/// bounded in depth so trees stay small.
fn arb_tree(rng: &mut SplitMix64, rounds: usize) -> Vec<Octant> {
    let mut t = new_tree(1);
    for _ in 0..rounds {
        refine(&mut t, |o| o.level() < 5 && rng.below(11) == 0);
    }
    t
}

#[test]
fn morton_key_roundtrips() {
    for seed in seeds(1) {
        let mut rng = SplitMix64::new(seed);
        let [x, y, z] = [(); 3].map(|_| rng.below(ROOT_LEN as u64) as u32);
        let k = morton::morton_key(x, y, z);
        assert_eq!(morton::morton_decode(k), (x, y, z), "seed {seed:#x}");
    }
}

#[test]
fn parent_child_roundtrip() {
    for seed in seeds(2) {
        let mut rng = SplitMix64::new(seed);
        let o = arb_octant(&mut rng, MAX_LEVEL - 1);
        let i = rng.below(8) as u8;
        let c = o.child(i);
        assert_eq!(c.parent(), o, "seed {seed:#x}");
        assert_eq!(c.child_id(), i, "seed {seed:#x}");
        assert!(o.contains(&c) && !c.contains(&o), "seed {seed:#x}");
    }
}

#[test]
fn order_matches_descendant_ranges() {
    for seed in seeds(3) {
        let mut rng = SplitMix64::new(seed);
        let (a, b) = (arb_octant(&mut rng, 8), arb_octant(&mut rng, 8));
        // For non-overlapping octants, Morton order == order of their
        // descendant ranges.
        if !a.contains(&b) && !b.contains(&a) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            assert!(
                lo.last_descendant() < hi.first_descendant(),
                "seed {seed:#x}"
            );
        }
    }
}

#[test]
fn random_trees_stay_valid() {
    for seed in seeds(4) {
        let t = arb_tree(&mut SplitMix64::new(seed), 3);
        assert!(is_valid_linear(&t), "seed {seed:#x}");
        assert!(is_complete(&t), "seed {seed:#x}");
    }
}

#[test]
fn balance_idempotent_and_complete() {
    for seed in seeds(5) {
        let mut t = arb_tree(&mut SplitMix64::new(seed), 4);
        balance_local(&mut t);
        assert!(is_balanced(&t), "seed {seed:#x}");
        assert!(is_complete(&t), "seed {seed:#x}");
        let n = t.len();
        assert_eq!(balance_local(&mut t), 0, "idempotence, seed {seed:#x}");
        assert_eq!(t.len(), n, "seed {seed:#x}");
    }
}

#[test]
fn coarsen_then_is_complete() {
    for seed in seeds(6) {
        let mut rng = SplitMix64::new(seed);
        let mut t = arb_tree(&mut rng, 3);
        coarsen(&mut t, |_| rng.below(3) != 0);
        assert!(is_valid_linear(&t), "seed {seed:#x}");
        assert!(is_complete(&t), "seed {seed:#x}");
    }
}

#[test]
fn find_containing_agrees_with_scan() {
    for seed in seeds(7) {
        let mut rng = SplitMix64::new(seed);
        let t = arb_tree(&mut rng, 3);
        let probe = arb_octant(&mut rng, MAX_LEVEL);
        let fast = find_containing(&t, &probe);
        let slow = t.iter().position(|o| o.contains(&probe));
        assert_eq!(fast, slow, "seed {seed:#x}");
    }
}

#[test]
fn neighbor_of_neighbor_is_identity() {
    for seed in seeds(9) {
        let mut rng = SplitMix64::new(seed);
        let o = arb_octant(&mut rng, MAX_LEVEL);
        let [dx, dy, dz] = [(); 3].map(|_| rng.below(3) as i32 - 1);
        // Same-size neighbors are symmetric: stepping back returns the
        // original octant. (The all-zero direction is the identity and
        // not a neighbor direction; skip it.)
        if (dx, dy, dz) != (0, 0, 0) {
            if let Some(n) = o.neighbor(dx, dy, dz) {
                assert_eq!(n.level(), o.level(), "seed {seed:#x}");
                assert_eq!(n.neighbor(-dx, -dy, -dz), Some(o), "seed {seed:#x}");
            }
        }
    }
}

#[test]
fn distributed_balance_is_idempotent() {
    for seed in seeds(10) {
        // BalanceTree at 2 ranks: a second pass must be a global no-op
        // and the result must satisfy the distributed invariants. The
        // marks are a pure function of the leaf, so both ranks agree.
        let added = scomm::spmd::run(2, |c| {
            let mut t = octree::parallel::DistOctree::new_uniform(c, 1);
            for round in 0..3u64 {
                t.refine(|o| o.level() < 5 && mix(mix(seed ^ round) ^ o.raw()).is_multiple_of(7));
            }
            t.balance(octree::balance::BalanceKind::Full);
            t.partition();
            let second = t.balance(octree::balance::BalanceKind::Full);
            (t.validate(), second)
        });
        for (valid, second) in added {
            assert!(valid, "invariants after balance, seed {seed:#x}");
            assert_eq!(second, 0, "second BalanceTree pass, seed {seed:#x}");
        }
    }
}

// Packed-key representation properties.

#[test]
fn packed_key_roundtrips_all_levels() {
    for seed in seeds(11) {
        let o = arb_octant(&mut SplitMix64::new(seed), MAX_LEVEL);
        // Raw-key round trip, constructor round trip, and field layout:
        // 5 low level bits, 57 Morton bits, top bit unused.
        let raw = o.raw();
        assert_eq!(Octant::from_raw(raw), o, "seed {seed:#x}");
        let (x, y, z, l) = (o.x(), o.y(), o.z(), o.level());
        assert_eq!(Octant::new(x, y, z, l), o, "seed {seed:#x}");
        assert_eq!(Octant::from_key_level(o.key(), l), o, "seed {seed:#x}");
        assert_eq!(raw & 0x1f, l as u64, "seed {seed:#x}");
        assert_eq!(raw >> 5, morton::morton_key(x, y, z), "seed {seed:#x}");
        assert_eq!(raw >> 63, 0, "seed {seed:#x}");
    }
}

#[test]
fn packed_order_is_morton_level_lexicographic() {
    for seed in seeds(12) {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.below(63);
        let v: Vec<Octant> = (0..n).map(|_| arb_octant(&mut rng, MAX_LEVEL)).collect();
        // Plain u64 order on the packed keys must equal the
        // (morton_key, level) lexicographic order of coordinate structs.
        let mut by_raw = v.clone();
        by_raw.sort_by_key(|o| o.raw());
        let mut by_lex = v;
        by_lex.sort_by(|a, b| a.key().cmp(&b.key()).then(a.level().cmp(&b.level())));
        assert_eq!(by_raw, by_lex, "seed {seed:#x}");
    }
}
