//! Property tests for the forest-of-octrees layer: each runs `CASES`
//! seeded cases, and every assertion names the case seed, which replays
//! it.

use forest::{Connectivity, Forest};
use octree::balance::BalanceKind;
use scomm::rng::{mix, SplitMix64};
use scomm::spmd;
use std::sync::Arc;

/// Cases per property.
const CASES: u64 = 12;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// Brick dimensions in `[1, 4) × [1, 3) × [1, 3)`.
fn arb_brick(rng: &mut SplitMix64) -> (usize, usize, usize) {
    let mut dim = |n: u64| 1 + rng.below(n) as usize;
    (dim(3), dim(2), dim(2))
}

#[test]
fn brick_connectivities_validate() {
    for seed in seeds(1) {
        let (nx, ny, nz) = arb_brick(&mut SplitMix64::new(seed));
        let c = Connectivity::brick(nx, ny, nz);
        assert_eq!(c.num_trees(), nx * ny * nz, "seed {seed:#x}");
        assert!(c.validate(), "seed {seed:#x}");
        // Total face connections = internal faces × 2 sides.
        let internal = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
        let mut count = 0;
        for t in 0..c.num_trees() as u32 {
            for f in 0..6 {
                if c.neighbor_across(t, f).is_some() {
                    count += 1;
                }
            }
        }
        assert_eq!(count, 2 * internal, "seed {seed:#x}");
    }
}

#[test]
fn random_forest_refinement_stays_valid() {
    for seed in seeds(2) {
        let mut rng = SplitMix64::new(seed);
        let (nx, ny, nz) = arb_brick(&mut rng);
        let ranks = 1 + rng.below(3) as usize;
        let conn = Arc::new(Connectivity::brick(nx, ny, nz));
        spmd::run(ranks, move |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            let mut rng = SplitMix64::new(seed ^ c.rank() as u64);
            f.refine(|_| rng.below(5) == 0);
            f.balance(BalanceKind::Full);
            f.partition();
            assert!(f.validate(), "seed {seed:#x}");
            // Neighbor relation is symmetric through transforms: the
            // neighbor's neighbor in the reverse direction contains us.
            for l in f.local.iter().take(20) {
                for (dx, dy, dz) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
                    if let Some(n) = f.neighbor(l, dx, dy, dz) {
                        if let Some(back) = f.neighbor(&n, -dx, -dy, -dz) {
                            assert_eq!(back.tree, l.tree, "round trip tree, seed {seed:#x}");
                            assert_eq!(back.oct, l.oct, "round trip octant, seed {seed:#x}");
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn cubed_sphere_radii_validate() {
    for seed in seeds(3) {
        let mut rng = SplitMix64::new(seed);
        let r0 = 0.2 + 0.6 * rng.unit();
        let dr = 0.1 + 0.9 * rng.unit();
        let c = Connectivity::cubed_sphere(r0, r0 + dr);
        assert_eq!(c.num_trees(), 24, "seed {seed:#x}");
        assert!(c.validate(), "seed {seed:#x}");
    }
}
