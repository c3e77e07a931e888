//! Pinned inter-tree transform cases at edges and corners of the cubed
//! sphere (satellite of the recursive-traversal PR).
//!
//! Tree numbering (from the builder): cap order `[-x, +x, -y, +y, -z,
//! +z]`, four trees per cap indexed `cap*4 + pj*2 + pi` over the cap's
//! 2×2 split; tree-local `x = u` (cap axis `a`), `y = v` (cap axis `b`),
//! `z` radial. The expectations below are hand-derived from the cap
//! table `[(0,-1,2,1), (0,1,1,2), (1,-1,0,2), (1,1,2,0), (2,-1,1,0),
//! (2,1,0,1)]` and cross-checked geometrically through
//! `Connectivity::map_point`.

use forest::{Connectivity, FaceVisit, Forest, ForestLeaf};
use octree::curve::adjacent_regions;
use octree::{Octant, ROOT_LEN};
use scomm::spmd;
use std::sync::Arc;

fn sphere() -> Arc<Connectivity> {
    Arc::new(Connectivity::cubed_sphere(0.55, 1.0))
}

#[test]
fn within_cap_crossing_is_a_translation() {
    // +z cap, trees 20 (u in [-1,0]) and 21 (u in [0,1]) share the u=0
    // line: crossing tree 20's +x face lands on tree 21's -x face with
    // no rotation.
    let conn = sphere();
    let t = conn.neighbor_across(20, 1).expect("within-cap +x neighbor");
    assert_eq!((t.tree, t.face), (21, 0));
    let h = ROOT_LEN / 2;
    spmd::run(1, |c| {
        let f = Forest::new_uniform(c, conn.clone(), 1);
        let l = ForestLeaf::new(20, Octant::new(h, 0, 0, 1));
        let n = f.neighbor(&l, 1, 0, 0).expect("crosses into tree 21");
        assert_eq!(n.tree, 21);
        assert_eq!(
            (n.oct.x(), n.oct.y(), n.oct.z(), n.oct.level()),
            (0, 0, 0, 1)
        );
    });
}

#[test]
fn cross_cap_edge_orientation_pinned() {
    // +z cap tree 21 (u = x in [0,1], v = y in [-1,0]) crosses the cube
    // edge {x=1, z=1} into +x cap tree 6 (u = y in [-1,0], v = z in
    // [0,1]): the destination face is tree 6's +y_loc (v = z = 1), and
    // along the shared edge both parameterize by global y, so
    // dst_x = src_y, dst_y = high, dst_z = src_z (radial unchanged).
    let conn = sphere();
    let t = conn.neighbor_across(21, 1).expect("cross-cap +x neighbor");
    assert_eq!((t.tree, t.face), (6, 3));
    // The sibling row: tree 23 (v = y in [0,1]) pairs with tree 7.
    let t = conn.neighbor_across(23, 1).expect("cross-cap +x neighbor");
    assert_eq!((t.tree, t.face), (7, 3));
    let h = ROOT_LEN / 2;
    spmd::run(1, |c| {
        let f = Forest::new_uniform(c, conn.clone(), 1);
        let l = ForestLeaf::new(21, Octant::new(h, 0, 0, 1));
        let n = f.neighbor(&l, 1, 0, 0).expect("crosses into tree 6");
        assert_eq!(n.tree, 6);
        assert_eq!(
            (n.oct.x(), n.oct.y(), n.oct.z(), n.oct.level()),
            (0, h, 0, 1)
        );
        // Radial layering is preserved across the seam.
        let l = ForestLeaf::new(21, Octant::new(h, 0, h, 1));
        let n = f.neighbor(&l, 1, 0, 0).expect("crosses into tree 6");
        assert_eq!((n.tree, n.oct.z()), (6, h));
    });
}

#[test]
fn cap_to_cap_pinned_pairs() {
    // Hand-derived seam pairs across three different cap combinations.
    let conn = sphere();
    // +y cap tree 12 (u = z in [-1,0], v = x in [-1,0]) crosses u low
    // (z = -1) into -z cap tree 17 (u = y in [0,1], v = x in [-1,0]),
    // arriving through tree 17's +x_loc face (u = y = 1).
    let t = conn.neighbor_across(12, 0).expect("+y cap into -z cap");
    assert_eq!((t.tree, t.face), (17, 1));
    // -y cap tree 0-row: -x cap tree 0 (u = z in [-1,0], v = y in
    // [-1,0]) crosses v low (y = -1) into the -y cap.
    let t = conn.neighbor_across(0, 2).expect("-x cap into -y cap");
    assert_eq!(t.tree, 8);
    // Every face of every tree either crosses a seam or is a shell
    // boundary; radial faces (4, 5) never cross.
    for tree in 0..24u32 {
        assert!(conn.neighbor_across(tree, 4).is_none());
        assert!(conn.neighbor_across(tree, 5).is_none());
        for face in 0..4u8 {
            assert!(conn.neighbor_across(tree, face).is_some());
        }
    }
}

#[test]
fn level0_entity_counts_match_shell_topology() {
    // 24 hexes, one radial layer: per shell surface F = 24 quadrilaterals
    // with E = 48 edges (Euler V - E + F = 2 with V = 26). Hence 48
    // interior face entities (one per surface edge, extruded radially)
    // and 48 shell-boundary ones (24 per shell).
    let conn = sphere();
    spmd::run(1, |c| {
        let f = Forest::new_uniform(c, conn.clone(), 0);
        let ghosts = f.ghosts();
        let (mut interior, mut boundary) = (0usize, 0usize);
        f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
            if v.fine.is_empty() {
                boundary += 1;
            } else {
                interior += 1;
            }
        });
        assert_eq!((interior, boundary), (48, 48));
    });
}

/// The corners of `leaf` in the unit cube of its tree, in z-order.
fn unit_corners(leaf: &ForestLeaf) -> impl Iterator<Item = [f64; 3]> + '_ {
    let o = &leaf.oct;
    let (a, len) = ([o.x(), o.y(), o.z()], o.len());
    (0..8u32).map(move |c| {
        let at = |i: usize| (a[i] + ((c >> i) & 1) * len) as f64 / ROOT_LEN as f64;
        [at(0), at(1), at(2)]
    })
}

#[test]
fn cross_cap_corner_entities_coincide_geometrically() {
    // For every leaf and every edge or corner direction d, each same-size
    // region the tree seam returns must share the leaf's corners toward
    // d (both ends of the edge, or the one corner) physically — across
    // caps this exercises the composed edge/corner transforms end to end.
    let conn = sphere();
    spmd::run(1, |c| {
        let f = Forest::new_uniform(c, conn.clone(), 1);
        let mut regions = Vec::new();
        let mut cross_tree = 0usize;
        for leaf in &f.local {
            for d in Octant::neighbor_directions() {
                let dv = [d.0, d.1, d.2];
                if dv.iter().filter(|&&x| x != 0).count() < 2 {
                    continue;
                }
                adjacent_regions(f.seam(), leaf, d, &mut regions);
                let toward: Vec<[f64; 3]> = unit_corners(leaf)
                    .enumerate()
                    .filter(|&(cb, _)| {
                        (0..3).all(|i| dv[i] == 0 || ((cb >> i) & 1 == 1) == (dv[i] > 0))
                    })
                    .map(|(_, p)| conn.map_point(leaf.tree, p))
                    .collect();
                for r in &regions {
                    cross_tree += usize::from(r.tree != leaf.tree);
                    for p in &toward {
                        let best = unit_corners(r)
                            .map(|u| {
                                let q = conn.map_point(r.tree, u);
                                (q[0] - p[0]).abs() + (q[1] - p[1]).abs() + (q[2] - p[2]).abs()
                            })
                            .fold(f64::INFINITY, f64::min);
                        assert!(
                            best < 1e-9,
                            "{leaf:?} toward {d:?}: region {r:?} has no corner at {p:?} (dist {best})"
                        );
                    }
                }
            }
        }
        assert!(cross_tree > 0, "no cross-tree edge or corner region seen");
    });
}
