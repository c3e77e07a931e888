//! The distributed forest of octrees.
//!
//! Leaves are `(tree, octant)` pairs ordered lexicographically — the
//! space-filling curve traverses tree 0's octree, then tree 1's, and so
//! on, exactly as in P4EST. The forest is the single octree's
//! distributed tree type: markers, ownership, refine/coarsen, mark
//! application, partition, validation, the 2:1 balance and the ghost
//! layer ([`octree::ghost`]) are [`octree::curve::LeafCurve`], the type
//! [`octree::parallel::DistOctree`] names, instantiated with
//! [`ForestLeaf`] and its `u128` `(tree, Morton)` keys. What differs is
//! the [`octree::curve::TreeSeam`] the tree owns, the
//! [`crate::Connectivity`]: a step out of a tree's root cube
//! is chased through *composed* face transforms, one face per hop
//! ([`crate::traverse`]), so balance and ghosts both hold across tree
//! faces, edges and corners. This covers every connectivity in which
//! edge/corner-adjacent trees are linked by a chain of at most three face
//! hops (true for `unit_cube`, `brick`, and `cubed_sphere`; general
//! arbitrary-valence corner tables remain out of scope).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use octree::curve::{CurveLeaf, LeafCurve};
use octree::{Octant, ROOT_LEN};
use scomm::Comm;

use crate::connectivity::Connectivity;

/// A leaf of the forest: an octant within a named tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct ForestLeaf {
    pub tree: u32,
    /// Always zero: fills the four bytes between `tree` and the 8-byte
    /// aligned `oct`, so the wire image has no padding.
    pad: u32,
    pub oct: Octant,
}

const _: () = assert!(
    std::mem::size_of::<ForestLeaf>()
        == 2 * std::mem::size_of::<u32>() + std::mem::size_of::<Octant>()
);

// SAFETY: repr(C) of two u32 and the u64 `Octant`, 16 bytes with no
// padding (asserted above); every field is plain data.
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
    /// The octant `oct` of tree `tree`.
    pub const fn new(tree: u32, oct: Octant) -> Self {
        ForestLeaf { tree, pad: 0, oct }
    }
}

impl CurveLeaf for ForestLeaf {
    /// `(tree, Morton key)` as one integer.
    type Key = u128;
    fn oct(&self) -> Octant {
        self.oct
    }
    fn tree(&self) -> u32 {
        self.tree
    }
    fn with_oct(&self, oct: Octant) -> Self {
        ForestLeaf::new(self.tree, oct)
    }
    fn curve_key(&self) -> u128 {
        ((self.tree as u128) << 64) | self.oct.key() as u128
    }
}

/// Re-export of the partition plan shape shared with the octree crate.
pub use octree::curve::PartitionPlan;

/// A distributed forest of octrees on a simulated communicator. Every
/// tree operation — refine, coarsen, mark, balance, partition, the ghost
/// layer, validation, ownership — is the [`LeafCurve`] it dereferences
/// to; the forest adds only what needs the connectivity: construction,
/// face neighbours and iterate ([`crate::traverse`]). It is a type of its
/// own, not an alias, because those methods are inherent: Rust allows
/// inherent methods only in the crate that defines the type.
pub struct Forest<'c>(LeafCurve<'c, ForestLeaf, Arc<Connectivity>>);

impl<'c> Deref for Forest<'c> {
    type Target = LeafCurve<'c, ForestLeaf, Arc<Connectivity>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Forest<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<'c> Forest<'c> {
    /// Build a forest with every tree uniformly refined to `level`,
    /// leaves divided evenly among ranks along the curve.
    pub fn new_uniform(comm: &'c Comm, conn: Arc<Connectivity>, level: u8) -> Self {
        let per_tree = 1u64 << (3 * level as u64);
        let n = per_tree * conn.num_trees() as u64;
        let p = comm.size() as u64;
        let r = comm.rank() as u64;
        let local = (n * r / p..n * (r + 1) / p)
            .map(|g| {
                let oct = Octant::from_uniform_index(level, g % per_tree);
                ForestLeaf::new((g / per_tree) as u32, oct)
            })
            .collect();
        Self::from_local(comm, conn, local)
    }

    /// Wrap an existing curve-ordered local leaf array into a forest.
    /// `local` must be sorted `(tree, Morton)` with every tree index
    /// below `conn.num_trees()`; the collective marker exchange runs once
    /// so ownership queries work immediately. This is how single-tree
    /// [`octree::parallel::DistOctree`] states are lifted onto the
    /// forest traversal layer (e.g. by `check::fuzz_amr`, which holds the
    /// lifted forest's ghost layer and the tree's own to the flat-scan
    /// oracle every cycle).
    pub fn from_local(comm: &'c Comm, conn: Arc<Connectivity>, local: Vec<ForestLeaf>) -> Self {
        debug_assert!(local.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(local.iter().all(|l| (l.tree as usize) < conn.num_trees()));
        Forest(LeafCurve::new(comm, conn.num_trees(), conn, local))
    }

    /// The connectivity this forest is built on: its tree seam.
    pub fn connectivity(&self) -> &Arc<Connectivity> {
        self.seam()
    }

    /// Same-size neighbor of `(tree, oct)` in direction `(dx,dy,dz)`,
    /// following a face transform when exactly one axis exits the tree.
    /// Returns `None` on the domain boundary and for inter-tree
    /// edge/corner crossings, which the tree seam follows
    /// (`octree::curve::adjacent_regions` over `Forest::seam`).
    pub fn neighbor(&self, leaf: &ForestLeaf, dx: i32, dy: i32, dz: i32) -> Option<ForestLeaf> {
        let o = &leaf.oct;
        let len = o.len() as i64;
        let a = [
            o.x() as i64 + dx as i64 * len,
            o.y() as i64 + dy as i64 * len,
            o.z() as i64 + dz as i64 * len,
        ];
        let lim = ROOT_LEN as i64;
        let mut out = (0..3).filter(|&i| a[i] < 0 || a[i] >= lim);
        match (out.next(), out.next()) {
            (None, _) => Some(ForestLeaf::new(
                leaf.tree,
                Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, o.level()),
            )),
            (Some(axis), None) => {
                let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
                let t = self.connectivity().neighbor_across(leaf.tree, face)?;
                Some(ForestLeaf::new(t.tree, t.apply(a, o.level())))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::balance::BalanceKind;
    use octree::mark::MarkParams;
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
            let l = ForestLeaf::new(0, Octant::new(ROOT_LEN / 2, 0, 0, 1));
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
                        let contains = |x: &&ForestLeaf| x.tree == n.tree && x.oct.contains(&n.oct);
                        if let Some(cont) = all.iter().find(contains) {
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
    fn warm_forest_cycle_adapts_every_cycle() {
        let conn = sphere();
        spmd::run(4, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            let mut plan = PartitionPlan {
                send_ranges: Vec::new(),
                new_len: 0,
            };
            // `adapt_to_target` undoes this cycle's refine and coarsen:
            // its indicator refines the trees `coarsen` coarsened and
            // coarsens the families `refine` created. The tolerance accepts
            // the first threshold iterate, so it marks, coarsens and
            // refines on every warm cycle.
            let params = MarkParams {
                target_elements: 1,
                tolerance: f64::INFINITY,
                max_level: 2,
                min_level: 2,
                ..Default::default()
            };
            let mut ind = Vec::new();
            // Deterministic geometric cycle: reaches a periodic orbit;
            // `tests/allocations.rs` counts what it allocates once warm.
            let mut cycle = |f: &mut Forest, plan: &mut PartitionPlan| {
                f.refine(|l| l.oct.level() < 3 && l.tree < 6 && l.oct.x() < ROOT_LEN / 2);
                f.coarsen(|l| l.oct.level() > 1 && l.tree >= 12);
                ind.clear();
                ind.extend(
                    f.local
                        .iter()
                        .map(|l| if l.tree >= 12 { 1.0 } else { 1e-6 }),
                );
                let (refined, coarsened) = f.adapt_to_target(&ind, &params);
                f.balance(BalanceKind::Full);
                f.partition_with(plan);
                (refined as u64, coarsened as u64)
            };
            for _ in 0..3 {
                cycle(&mut f, &mut plan);
            }
            for _ in 0..4 {
                let (refined, coarsened) = cycle(&mut f, &mut plan);
                let adapted = c.allreduce_sum(&[refined, coarsened]);
                assert!(adapted.iter().all(|&n| n > 0), "adapt idle: {adapted:?}");
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
