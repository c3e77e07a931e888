//! Forest traversal: the tree seam, and iterate.
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
//! * [`Forest::iterate_faces`] / [`Forest::iterate_edges`] /
//!   [`Forest::iterate_corners`] — visit every face/edge/corner entity
//!   touching a local leaf exactly once, with full hanging-neighbor
//!   information, over the merged local+ghost leaf view
//!   ([`LocalGhostView`], shared with mesh extraction).

use octree::curve::{adjacent_regions, TreeSeam};
use octree::ghost::LocalGhostView;
pub use octree::ghost::{GhostEntry, GhostKind, GhostWorkspace, LeafOrigin, DIRS};
use octree::{Octant, MAX_LEVEL, ROOT_LEN};

use crate::connectivity::{transverse_axes, Connectivity};
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

/// Same, additionally carrying an exact lattice point (doubled
/// coordinates) through each hop — corner/edge entity tracking.
fn collect_extended_pt(
    conn: &Connectivity,
    tree: u32,
    a: [i64; 3],
    p2: [i64; 3],
    level: u8,
    out: &mut Vec<(ForestLeaf, [i64; 3])>,
) {
    let lim = ROOT_LEN as i64;
    if (0..3).all(|i| (0..lim).contains(&a[i])) {
        let region = ForestLeaf::new(
            tree,
            Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, level),
        );
        out.push((region, p2));
        return;
    }
    for axis in 0..3 {
        if (0..lim).contains(&a[axis]) {
            continue;
        }
        let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
        if let Some(tr) = conn.neighbor_across(tree, face) {
            collect_extended_pt(
                conn,
                tr.tree,
                tr.apply_anchor(a, level),
                tr.apply_point_i64(p2),
                level,
                out,
            );
        }
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

/// One leaf incident to a corner or edge entity.
#[derive(Debug, Clone, Copy)]
pub struct Incident {
    pub leaf: ForestLeaf,
    pub origin: LeafOrigin,
    /// The entity is a full own corner (resp. edge) of this leaf; false
    /// marks a hanging incidence — the entity lies interior to a face or
    /// edge of this (coarser) leaf.
    pub conforming: bool,
}

/// A corner entity, identified by its doubled lattice coordinates in the
/// emitting leaf's tree frame.
pub struct CornerVisit<'a> {
    pub tree: u32,
    pub point2: [i64; 3],
    pub sides: &'a [Incident],
    pub hanging: bool,
}

/// An edge entity, identified by its midpoint in doubled lattice
/// coordinates in the emitting leaf's tree frame; `axis` is the edge
/// direction in that frame.
pub struct EdgeVisit<'a> {
    pub tree: u32,
    pub axis: u8,
    pub mid2: [i64; 3],
    pub sides: &'a [Incident],
    pub hanging: bool,
}

/// The MAX_LEVEL probe cell just inside `region` touching the lattice
/// point/midpoint `p2` (doubled coordinates, same tree frame), displaced
/// toward the low (`lo = true`) or high side on axes where `p2` lies
/// interior to the region's extent. Returns `None` if `p2` does not
/// touch the closed region.
fn probe_at(region: &Octant, p2: [i64; 3], lo: bool) -> Option<Octant> {
    let len = region.len() as i64;
    let anchor = [region.x() as i64, region.y() as i64, region.z() as i64];
    let mut px = [0i64; 3];
    for i in 0..3 {
        let a2 = 2 * anchor[i];
        let b2 = 2 * (anchor[i] + len);
        if p2[i] < a2 || p2[i] > b2 {
            return None;
        }
        px[i] = if p2[i] == a2 {
            anchor[i]
        } else if p2[i] == b2 {
            anchor[i] + len - 1
        } else if p2[i] % 2 != 0 {
            (p2[i] - 1) / 2
        } else if lo {
            p2[i] / 2 - 1
        } else {
            p2[i] / 2
        };
    }
    Some(Octant::new(
        px[0] as u32,
        px[1] as u32,
        px[2] as u32,
        MAX_LEVEL,
    ))
}

/// `p2` is one of the eight corner points of `oct` (doubled coords).
fn is_corner_of(oct: &Octant, p2: [i64; 3]) -> bool {
    let len = oct.len() as i64;
    let a = [oct.x() as i64, oct.y() as i64, oct.z() as i64];
    (0..3).all(|i| p2[i] == 2 * a[i] || p2[i] == 2 * (a[i] + len))
}

/// `mid2` is the center of one of the twelve edges of `oct`.
fn is_edge_center_of(oct: &Octant, mid2: [i64; 3]) -> bool {
    let len = oct.len() as i64;
    let a = [oct.x() as i64, oct.y() as i64, oct.z() as i64];
    let mut interior = 0;
    for i in 0..3 {
        if mid2[i] == 2 * a[i] + len {
            interior += 1;
        } else if mid2[i] != 2 * a[i] && mid2[i] != 2 * (a[i] + len) {
            return false;
        }
    }
    interior == 1
}

impl<'c> Forest<'c> {
    /// All same-size neighbor regions of `leaf` in direction
    /// `(dx, dy, dz)`, including inter-tree images reached through
    /// composed face transforms (all crossing orders, deduplicated).
    /// For face directions this is at most one region; edge/corner
    /// directions can fan out across tree seams. `out` is overwritten.
    pub fn neighbors_full(
        &self,
        leaf: &ForestLeaf,
        dx: i32,
        dy: i32,
        dz: i32,
        out: &mut Vec<ForestLeaf>,
    ) {
        adjacent_regions(self.seam(), leaf, (dx, dy, dz), out);
    }

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

    /// Visit every corner entity with at least one local incident leaf
    /// exactly once, emitted from the curve-smallest incident leaf that
    /// has the point as an own vertex. Sides list every incident leaf
    /// (across tree seams via composed transforms) with a hanging flag.
    pub fn iterate_corners<V: FnMut(&CornerVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = LocalGhostView::new(&self.local, &ghosts.entries);
        let conn = self.connectivity().clone();
        let mut regions: Vec<(ForestLeaf, [i64; 3])> = Vec::new();
        let mut sides: Vec<Incident> = Vec::new();
        for &x in &view.leaves {
            let o = &x.oct;
            let len = o.len() as i64;
            let anchor = [o.x() as i64, o.y() as i64, o.z() as i64];
            for c in 0u8..8 {
                let cb = [c & 1, (c >> 1) & 1, (c >> 2) & 1];
                let p2 = [
                    2 * (anchor[0] + cb[0] as i64 * len),
                    2 * (anchor[1] + cb[1] as i64 * len),
                    2 * (anchor[2] + cb[2] as i64 * len),
                ];
                regions.clear();
                regions.push((x, p2));
                for d in 1u8..8 {
                    let db = [d & 1, (d >> 1) & 1, (d >> 2) & 1];
                    let dir: Vec<i64> = (0..3)
                        .map(|i| {
                            if db[i] == 0 {
                                0
                            } else if cb[i] == 0 {
                                -1
                            } else {
                                1
                            }
                        })
                        .collect();
                    let a = [
                        anchor[0] + dir[0] * len,
                        anchor[1] + dir[1] * len,
                        anchor[2] + dir[2] * len,
                    ];
                    collect_extended_pt(conn.as_ref(), x.tree, a, p2, o.level(), &mut regions);
                }
                regions.sort_unstable_by_key(|(r, _)| *r);
                regions.dedup_by_key(|(r, _)| *r);
                if !resolve_incident(&view, &regions, &mut sides, true) {
                    continue;
                }
                let min_conf = sides
                    .iter()
                    .filter(|s| s.conforming)
                    .map(|s| s.leaf)
                    .min()
                    .expect("the emitting leaf is a conforming side");
                if min_conf != x {
                    continue;
                }
                if !sides.iter().any(|s| s.origin.is_local()) {
                    continue;
                }
                let hanging = sides.iter().any(|s| !s.conforming);
                visit(&CornerVisit {
                    tree: x.tree,
                    point2: p2,
                    sides: &sides,
                    hanging,
                });
            }
        }
    }

    /// Visit every edge entity with at least one local incident leaf
    /// exactly once, emitted from the curve-smallest incident leaf that
    /// has the segment as a full own edge. Sides list every leaf
    /// touching the segment (finer half-edge leaves included).
    pub fn iterate_edges<V: FnMut(&EdgeVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = LocalGhostView::new(&self.local, &ghosts.entries);
        let conn = self.connectivity().clone();
        let mut regions: Vec<(ForestLeaf, [i64; 3])> = Vec::new();
        let mut sides: Vec<Incident> = Vec::new();
        for &x in &view.leaves {
            let o = &x.oct;
            let len = o.len() as i64;
            let anchor = [o.x() as i64, o.y() as i64, o.z() as i64];
            for e in 0u8..12 {
                let axis = (e / 4) as usize;
                let [t1, t2] = transverse_axes(2 * axis as u8);
                let s1 = (e % 4) & 1;
                let s2 = (e % 4) >> 1;
                let mut mid2 = [0i64; 3];
                mid2[axis] = 2 * anchor[axis] + len;
                mid2[t1] = 2 * (anchor[t1] + s1 as i64 * len);
                mid2[t2] = 2 * (anchor[t2] + s2 as i64 * len);
                regions.clear();
                regions.push((x, mid2));
                for d in 1u8..4 {
                    let d1 = d & 1;
                    let d2 = d >> 1;
                    let mut dir = [0i64; 3];
                    dir[t1] = if d1 == 0 {
                        0
                    } else if s1 == 0 {
                        -1
                    } else {
                        1
                    };
                    dir[t2] = if d2 == 0 {
                        0
                    } else if s2 == 0 {
                        -1
                    } else {
                        1
                    };
                    let a = [
                        anchor[0] + dir[0] * len,
                        anchor[1] + dir[1] * len,
                        anchor[2] + dir[2] * len,
                    ];
                    collect_extended_pt(conn.as_ref(), x.tree, a, mid2, o.level(), &mut regions);
                }
                regions.sort_unstable_by_key(|(r, _)| *r);
                regions.dedup_by_key(|(r, _)| *r);
                if !resolve_incident(&view, &regions, &mut sides, false) {
                    continue;
                }
                let min_conf = sides
                    .iter()
                    .filter(|s| s.conforming)
                    .map(|s| s.leaf)
                    .min()
                    .expect("the emitting leaf is a conforming side");
                if min_conf != x {
                    continue;
                }
                if !sides.iter().any(|s| s.origin.is_local()) {
                    continue;
                }
                let hanging = sides.iter().any(|s| !s.conforming);
                visit(&EdgeVisit {
                    tree: x.tree,
                    axis: axis as u8,
                    mid2,
                    sides: &sides,
                    hanging,
                });
            }
        }
    }
}

/// Resolve the incident leaves of a corner/edge entity from its
/// surrounding same-size regions via just-inside MAX_LEVEL probes.
/// Returns `false` when the entity's full incidence is not visible
/// from this rank's view (ghost-frame entity not involving us — the
/// emission is skipped; a local emitter always has full visibility
/// through the edge/corner ghost layer).
fn resolve_incident(
    view: &LocalGhostView<ForestLeaf>,
    regions: &[(ForestLeaf, [i64; 3])],
    sides: &mut Vec<Incident>,
    corner: bool,
) -> bool {
    sides.clear();
    for (region, p2) in regions.iter() {
        for lo in [true, false] {
            let Some(probe) = probe_at(&region.oct, *p2, lo) else {
                return false;
            };
            let probe_leaf = ForestLeaf::new(region.tree, probe);
            let Some(vi) = view.containing(&probe_leaf) else {
                return false;
            };
            let (l, origin) = (view.leaves[vi], view.origins[vi]);
            let conforming = if corner {
                is_corner_of(&l.oct, *p2)
            } else {
                is_edge_center_of(&l.oct, *p2)
            };
            sides.push(Incident {
                leaf: l,
                origin,
                conforming,
            });
            if corner {
                break; // one probe per region suffices for corners
            }
        }
    }
    sides.sort_unstable_by_key(|s| s.leaf);
    sides.dedup_by_key(|s| s.leaf);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::Connectivity;
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
    fn neighbors_full_agrees_with_single_transform() {
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let mut out = Vec::new();
            for l in &f.local {
                for (dx, dy, dz) in Octant::neighbor_directions() {
                    f.neighbors_full(l, dx, dy, dz, &mut out);
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
            f.neighbors_full(&l, 1, 1, 1, &mut out);
            let trees: BTreeSet<u32> = out.iter().map(|n| n.tree).collect();
            assert_eq!(
                trees,
                BTreeSet::from([7]),
                "corner direction reaches tree 7"
            );
            f.neighbors_full(&l, 1, 1, 0, &mut out);
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
    fn iterate_corners_and_edges_unit_cube_counts() {
        let conn = Arc::new(Connectivity::unit_cube());
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let ghosts = f.ghosts();
            let mut corners = 0usize;
            f.iterate_corners(&ghosts, &mut |v: &CornerVisit<'_>| {
                corners += 1;
                assert!(!v.hanging);
                assert!(!v.sides.is_empty() && v.sides.len() <= 8);
            });
            // 3^3 lattice points of the 2x2x2 leaf grid.
            assert_eq!(corners, 27);
            let mut edges = 0usize;
            f.iterate_edges(&ghosts, &mut |v: &EdgeVisit<'_>| {
                edges += 1;
                assert!(!v.hanging);
                assert!(!v.sides.is_empty() && v.sides.len() <= 4);
            });
            // Per axis: 2 segments along x 3x3 transverse lines.
            assert_eq!(edges, 54);
        });
    }

    #[test]
    fn iterate_corners_brick_center_valence_eight() {
        let conn = Arc::new(Connectivity::brick(2, 2, 2));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 0);
            let ghosts = f.ghosts();
            let mut total = 0usize;
            let mut max_valence = 0usize;
            f.iterate_corners(&ghosts, &mut |v: &CornerVisit<'_>| {
                total += 1;
                max_valence = max_valence.max(v.sides.len());
                if v.sides.len() == 8 {
                    // The center vertex: all 8 trees meet there.
                    let trees: BTreeSet<u32> = v.sides.iter().map(|s| s.leaf.tree).collect();
                    assert_eq!(trees.len(), 8);
                }
            });
            // 3^3 lattice points of the 2x2x2 tree grid.
            assert_eq!(total, 27);
            assert_eq!(max_valence, 8);
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
