//! Forest traversal: the tree seam, and face iteration.
//!
//! * The forest's [`TreeSeam`]: a same-size neighbour region that leaves
//!   the root cube is chased across connected faces through *composed*
//!   face transforms ([`crate::FaceTransform::apply_anchor`]), one face
//!   per hop, each hop strictly reducing the number of out-of-range axes.
//!   This covers every connectivity in which edge/corner-adjacent trees
//!   are linked by chains of at most three face hops — true for
//!   `unit_cube`, `brick`, and `cubed_sphere`. The 2:1 balance and the
//!   recursive ghost layer ([`octree::ghost`], re-exported here: face,
//!   edge and corner ghosts with [`GhostKind`] provenance) run the same
//!   code as the single octree over this seam.
//! * [`Forest::iterate_faces`] — visit every face entity touching a
//!   local leaf exactly once, with full hanging-neighbor information,
//!   over the merged local+ghost leaf view ([`LocalGhostView`], shared
//!   with mesh extraction).

use octree::curve::TreeSeam;
use octree::ghost::LocalGhostView;
pub use octree::ghost::{GhostEntry, GhostKind, GhostWorkspace, LeafOrigin, DIRS};
use octree::{Octant, ROOT_LEN};

use crate::connectivity::Connectivity;
use crate::dist::{Forest, ForestLeaf};

/// The forest's ghost layer: entries sorted by `(leaf, owner)`.
pub type GhostLayer = octree::ghost::GhostLayer<ForestLeaf>;

/// Chase a same-size neighbor region given by extended (possibly
/// out-of-tree) anchor coordinates across connected faces, one
/// out-of-range axis per hop. Each hop strictly reduces the number of
/// out-of-range axes, so the recursion depth is at most 3.
fn collect_extended(
    conn: &Connectivity,
    tree: u32,
    a: [i64; 3],
    level: u8,
    out: &mut Vec<ForestLeaf>,
) {
    let lim = ROOT_LEN as i64;
    if (0..3).all(|i| (0..lim).contains(&a[i])) {
        out.push(ForestLeaf::new(
            tree,
            Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, level),
        ));
        return;
    }
    for axis in 0..3 {
        if (0..lim).contains(&a[axis]) {
            continue;
        }
        let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
        if let Some(tr) = conn.neighbor_across(tree, face) {
            collect_extended(conn, tr.tree, tr.apply_anchor(a, level), level, out);
        }
    }
}

/// Composed crossings: every image of a region that leaves the tree, in
/// all crossing orders.
impl TreeSeam<ForestLeaf> for Connectivity {
    fn across(&self, leaf: &ForestLeaf, d: (i32, i32, i32), out: &mut Vec<ForestLeaf>) {
        out.clear();
        let o = &leaf.oct;
        let len = o.len() as i64;
        let a = [
            o.x() as i64 + d.0 as i64 * len,
            o.y() as i64 + d.1 as i64 * len,
            o.z() as i64 + d.2 as i64 * len,
        ];
        collect_extended(self, leaf.tree, a, o.level(), out);
        out.sort_unstable();
        out.dedup();
    }
}

// ----------------------------------------------------------------------
// Iterate
// ----------------------------------------------------------------------

/// One side of a face entity.
#[derive(Debug, Clone, Copy)]
pub struct FaceSide {
    pub leaf: ForestLeaf,
    pub origin: LeafOrigin,
    /// The face of `leaf` lying on the entity, in `leaf`'s tree frame.
    pub face: u8,
    /// [`crate::FaceTransform::orientation`] of the way from this side's
    /// tree to the opposite side's, seen from `face`: how to lay the
    /// opposite side's face lattice over this one's. 0 inside a tree and
    /// on the domain boundary.
    pub orient: u8,
}

/// A face entity: the big (or equal-size) side, and the opposite
/// side(s) — one for conforming faces, four (in z-order of the face's
/// transverse axes) for hanging faces, none on the domain boundary.
pub struct FaceVisit<'a> {
    pub big: FaceSide,
    pub fine: &'a [FaceSide],
    pub hanging: bool,
}

impl<'c> Forest<'c> {
    /// Visit every face entity with at least one local side exactly
    /// once: conforming faces from the curve-smaller side, hanging
    /// (2:1 nonconforming) faces from the big side with all four fine
    /// sides resolved, domain-boundary faces with no opposite side.
    /// Requires the recursive ghost layer — the four fine sides of a
    /// hanging face seen from a ghost big side are pairwise edge/corner
    /// adjacent, which the flat face-only layer does not provide.
    pub fn iterate_faces<V: FnMut(&FaceVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = LocalGhostView::new(&self.local, &ghosts.entries);
        let mut fine: Vec<FaceSide> = Vec::with_capacity(4);
        for (&x, &xo) in view.leaves.iter().zip(&view.origins) {
            for face in 0u8..6 {
                let (dx, dy, dz) = DIRS[face as usize];
                let Some(n) = self.neighbor(&x, dx, dy, dz) else {
                    if xo.is_local() {
                        let big = FaceSide {
                            leaf: x,
                            origin: xo,
                            face,
                            orient: 0,
                        };
                        visit(&FaceVisit {
                            big,
                            fine: &[],
                            hanging: false,
                        });
                    }
                    continue;
                };
                // The facing face and both sides' orientation codes.
                let (facing, orient, back) = if n.tree == x.tree {
                    (face ^ 1, 0, 0)
                } else {
                    let conn = self.connectivity();
                    let there = conn
                        .neighbor_across(x.tree, face)
                        .expect("neighbor() crossed a connected face");
                    let back = conn
                        .neighbor_across(n.tree, there.face)
                        .expect("face connections are mutual");
                    (
                        there.face,
                        there.orientation(face),
                        back.orientation(there.face),
                    )
                };
                let big = FaceSide {
                    leaf: x,
                    origin: xo,
                    face,
                    orient,
                };
                match view.containing(&n) {
                    Some(yi) => {
                        let (y, yo) = (view.leaves[yi], view.origins[yi]);
                        if y.oct.level() == x.oct.level()
                            && x < y
                            && (xo.is_local() || yo.is_local())
                        {
                            fine.clear();
                            fine.push(FaceSide {
                                leaf: y,
                                origin: yo,
                                face: facing,
                                orient: back,
                            });
                            visit(&FaceVisit {
                                big,
                                fine: &fine,
                                hanging: false,
                            });
                        }
                        // y coarser: the big side emits this face patch.
                    }
                    None => {
                        // x is the big side; resolve the four fine
                        // children of the neighbor region on the shared
                        // face, in z-order of the transverse axes.
                        fine.clear();
                        let axis = facing / 2;
                        let side = facing % 2;
                        let mut missing = false;
                        for k in 0u8..8 {
                            if (k >> axis) & 1 != side {
                                continue;
                            }
                            let kid = ForestLeaf::new(n.tree, n.oct.child(k));
                            match view.containing(&kid) {
                                Some(ki) if view.leaves[ki].oct.level() == kid.oct.level() => {
                                    fine.push(FaceSide {
                                        leaf: view.leaves[ki],
                                        origin: view.origins[ki],
                                        face: facing,
                                        orient: back,
                                    });
                                }
                                _ => missing = true,
                            }
                        }
                        if missing {
                            debug_assert!(
                                !xo.is_local(),
                                "2:1 balance must expose all fine face neighbors of a local leaf"
                            );
                            continue;
                        }
                        if xo.is_local() || fine.iter().any(|s| s.origin.is_local()) {
                            visit(&FaceVisit {
                                big,
                                fine: &fine,
                                hanging: true,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::Connectivity;
    use octree::curve::adjacent_regions;
    use scomm::spmd;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn sphere() -> Arc<Connectivity> {
        Arc::new(Connectivity::cubed_sphere(0.55, 1.0))
    }

    /// Build an adapted, balanced, partitioned forest deterministically.
    fn adapted_forest<'c>(comm: &'c scomm::Comm, conn: Arc<Connectivity>) -> Forest<'c> {
        let mut f = Forest::new_uniform(comm, conn, 1);
        f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
        f.refine(|l| l.oct.level() == 2 && l.oct.key() % 5 == 0);
        f.balance(octree::balance::BalanceKind::Full);
        f.partition();
        assert!(f.validate());
        f
    }

    #[test]
    fn recursive_ghosts_are_sorted_remote_and_owned() {
        // The flat-scan oracle comparison lives in check's
        // `dg_differential`; this pins the layer's own shape.
        let conn = sphere();
        for p in [1usize, 2, 4, 8] {
            spmd::run(p, |c| {
                let f = adapted_forest(c, conn.clone());
                let layer = f.ghosts();
                // Entries are sorted and unique.
                assert!(layer
                    .entries
                    .windows(2)
                    .all(|w| (w[0].leaf, w[0].owner) < (w[1].leaf, w[1].owner)));
                // Owners are correct and never self.
                for e in &layer.entries {
                    assert_eq!(f.owner_of(&e.leaf), e.owner as usize);
                    assert_ne!(e.owner as usize, c.rank());
                }
            });
        }
    }

    #[test]
    fn warm_ghost_rebuild_does_not_allocate() {
        // Rebuilds into a warm workspace reproduce the fresh layer in the
        // same output buffer. The heap allocations of the whole rebuild
        // are counted (none) by the counting allocator of
        // `tests/allocations.rs`, on this forest.
        let conn = sphere();
        spmd::run(4, |c| {
            let f = adapted_forest(c, conn.clone());
            let fresh = f.ghosts().entries;
            assert!(!fresh.is_empty());
            let mut ws = GhostWorkspace::new();
            for _ in 0..3 {
                f.ghost_layer_into(&mut ws);
            }
            let buffer = |l: &GhostLayer| (l.entries.as_ptr(), l.entries.capacity());
            let warm = buffer(f.ghost_layer_into(&mut ws));
            for _ in 0..4 {
                let layer = f.ghost_layer_into(&mut ws);
                assert_eq!(layer.entries, fresh);
                assert_eq!(
                    buffer(layer),
                    warm,
                    "warm ghost rebuild allocated its layer"
                );
            }
        });
    }

    #[test]
    fn adjacent_regions_agree_with_single_transform() {
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let mut out = Vec::new();
            for l in &f.local {
                for (dx, dy, dz) in Octant::neighbor_directions() {
                    adjacent_regions(f.seam(), l, (dx, dy, dz), &mut out);
                    if let Some(n) = f.neighbor(l, dx, dy, dz) {
                        assert!(
                            out.contains(&n),
                            "composed regions must include the single-transform region"
                        );
                    }
                    // Codim-1 directions never fan out.
                    if dx.abs() + dy.abs() + dz.abs() == 1 {
                        assert!(out.len() <= 1);
                    }
                }
            }
        });
    }

    #[test]
    fn brick_corner_regions_reach_all_eight_trees() {
        // 2x2x2 brick of level-0 trees: the center vertex is shared by
        // all 8 trees, reachable only through composed transforms.
        let conn = Arc::new(Connectivity::brick(2, 2, 2));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 0);
            let l = ForestLeaf::new(0, Octant::root());
            let mut out = Vec::new();
            adjacent_regions(f.seam(), &l, (1, 1, 1), &mut out);
            let trees: BTreeSet<u32> = out.iter().map(|n| n.tree).collect();
            assert_eq!(
                trees,
                BTreeSet::from([7]),
                "corner direction reaches tree 7"
            );
            adjacent_regions(f.seam(), &l, (1, 1, 0), &mut out);
            let trees: BTreeSet<u32> = out.iter().map(|n| n.tree).collect();
            assert_eq!(trees, BTreeSet::from([3]), "edge direction reaches tree 3");
        });
    }

    #[test]
    fn iterate_faces_uniform_counts() {
        // P=1 uniform level-1 sphere: every face entity is conforming;
        // count conforming + boundary visits against a flat enumeration.
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let ghosts = f.ghosts();
            assert!(ghosts.is_empty());
            let mut conforming = 0usize;
            let mut boundary = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if v.fine.is_empty() {
                    boundary += 1;
                } else {
                    assert!(!v.hanging);
                    assert_eq!(v.fine.len(), 1);
                    conforming += 1;
                }
            });
            let mut expect_pairs = 0usize;
            let mut expect_boundary = 0usize;
            for l in &f.local {
                for face in 0u8..6 {
                    let (dx, dy, dz) = DIRS[face as usize];
                    if f.neighbor(l, dx, dy, dz).is_some() {
                        expect_pairs += 1;
                    } else {
                        expect_boundary += 1;
                    }
                }
            }
            assert_eq!(conforming, expect_pairs / 2);
            assert_eq!(boundary, expect_boundary);
        });
    }

    #[test]
    fn iterate_faces_hanging_resolution() {
        // Unit cube, one refined child: the three faces between the
        // refined child and its same-level siblings are hanging with
        // four fine sides each.
        let conn = Arc::new(Connectivity::unit_cube());
        spmd::run(1, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            f.refine(|l| l.oct == Octant::root().child(0));
            f.balance(octree::balance::BalanceKind::Full);
            let ghosts = f.ghosts();
            let mut hanging = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if v.hanging {
                    hanging += 1;
                    assert_eq!(v.fine.len(), 4);
                    assert_eq!(v.big.leaf.oct.level() + 1, v.fine[0].leaf.oct.level());
                    for s in v.fine {
                        assert_eq!(s.leaf.oct.level(), v.big.leaf.oct.level() + 1);
                    }
                } else if !v.fine.is_empty() {
                    assert_eq!(v.big.leaf.oct.level(), v.fine[0].leaf.oct.level());
                }
            });
            assert_eq!(hanging, 3, "child 0 exposes 3 hanging interior faces");
        });
    }

    #[test]
    fn iterate_faces_distributed_partition_of_unity() {
        // Each conforming interior face entity is emitted by exactly one
        // rank; summed over ranks the count must match the serial run.
        let conn = sphere();
        let serial = spmd::run(1, |c| {
            let f = adapted_forest(c, conn.clone());
            let ghosts = f.ghosts();
            let mut n = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if !v.fine.is_empty() {
                    n += 1;
                }
            });
            n
        })[0];
        for p in [2usize, 4] {
            let counts = spmd::run(p, |c| {
                let f = adapted_forest(c, conn.clone());
                let ghosts = f.ghosts();
                let mut n = 0usize;
                f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                    if !v.fine.is_empty() {
                        let any_local =
                            v.big.origin.is_local() || v.fine.iter().any(|s| s.origin.is_local());
                        assert!(any_local);
                        // Count only entities this rank canonically owns:
                        // the emitting (big) side is local, or for a
                        // ghost big side, no smaller rank sees it...
                        // ownership = owner of the big leaf.
                        if f.owner_of(&v.big.leaf) == c.rank() {
                            n += 1;
                        }
                    }
                });
                n
            });
            assert_eq!(
                counts.iter().sum::<usize>(),
                serial,
                "P={p}: interior face entities double- or under-counted"
            );
        }
    }
}
