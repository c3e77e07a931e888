//! Tree connectivity: how the octrees of a forest are glued together.
//!
//! A tree is a hexahedron given by eight corner vertex ids in z-order
//! (corner `c` sits at reference coordinates `((c&1), (c>>1)&1, (c>>2)&1)`).
//! Two trees are face-connected when they share the four vertex ids of a
//! face; the inter-tree coordinate transform (a signed axis permutation
//! plus offset on the octree lattice) is derived from the vertex
//! correspondence, never specified by hand.

use octree::{Octant, ROOT_LEN};

/// Faces are numbered `0..6` as −x, +x, −y, +y, −z, +z.
pub const NUM_FACES: usize = 6;

/// Corner indices of each face, ordered by the in-face z-order of the two
/// tangential axes (lower axis index varies fastest).
pub const FACE_CORNERS: [[usize; 4]; 6] = [
    [0, 2, 4, 6], // −x: (y,z)
    [1, 3, 5, 7], // +x
    [0, 1, 4, 5], // −y: (x,z)
    [2, 3, 6, 7], // +y
    [0, 1, 2, 3], // −z: (x,y)
    [4, 5, 6, 7], // +z
];

/// The two axes tangential to `face`, ascending — the order in which
/// face nodes, hanging-face children and [`FACE_CORNERS`] are laid out.
pub fn transverse_axes(face: u8) -> [usize; 2] {
    match face / 2 {
        0 => [1, 2],
        1 => [0, 2],
        _ => [0, 1],
    }
}

/// How tree reference coordinates map to physical space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeGeometry {
    /// Trilinear interpolation of the eight corner vertices.
    Trilinear,
    /// Spherical-shell projection: tangential position interpolates the
    /// corner *directions* (then normalizes), radius is linear in the
    /// reference z between the two radii. Used by the cubed sphere.
    Shell { r_inner: f64, r_outer: f64 },
}

/// Signed axis permutation + offset mapping octant coordinates from one
/// tree's lattice into a face-neighboring tree's lattice. Operates on
/// *doubled* extended coordinates so octant centers stay integral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaceTransform {
    /// Destination tree.
    pub tree: u32,
    /// Destination face (the one shared with the source tree).
    pub face: u8,
    /// `out[i] = sign[i] * in[axis[i]] + off[i]` in doubled lattice units.
    axis: [usize; 3],
    sign: [i64; 3],
    off: [i64; 3],
}

impl FaceTransform {
    /// How the face lattice turns on the way across, seen from source
    /// face `face`: with both faces' transverse axes taken in ascending
    /// order, bit 0 says they swap, and bit `1 + c` that the
    /// destination's `c`-th transverse axis runs against the source axis
    /// it images. Translations (every brick) give 0.
    pub fn orientation(&self, face: u8) -> u8 {
        let src = transverse_axes(face);
        let dst = transverse_axes(self.face);
        let mut o = u8::from(self.axis[dst[0]] != src[0]);
        for c in 0..2 {
            if self.sign[dst[c]] < 0 {
                o |= 2 << c;
            }
        }
        o
    }

    /// Map an octant anchor given in extended (possibly out-of-tree)
    /// source coordinates into destination coordinates that may
    /// themselves still lie outside the destination tree on the axes not
    /// crossed. No in-tree assertion: composed transform chains — the
    /// inter-tree edge/corner paths of the tree seam — step through this
    /// and re-examine which axes remain out of range after each hop.
    pub fn apply_anchor(&self, anchor: [i64; 3], level: u8) -> [i64; 3] {
        let len = (1u32 << (octree::MAX_LEVEL - level)) as i64;
        // Doubled center coordinates stay integral under reflections.
        let c2 = [
            2 * anchor[0] + len,
            2 * anchor[1] + len,
            2 * anchor[2] + len,
        ];
        let mut out2 = [0i64; 3];
        for i in 0..3 {
            out2[i] = self.sign[i] * c2[self.axis[i]] + self.off[i];
        }
        [
            (out2[0] - len) / 2,
            (out2[1] - len) / 2,
            (out2[2] - len) / 2,
        ]
    }

    /// Map an octant given by extended (possibly out-of-tree) anchor
    /// coordinates in the source tree into the destination tree.
    /// The result must land inside the destination tree.
    pub fn apply(&self, anchor: [i64; 3], level: u8) -> Octant {
        let [ax, ay, az] = self.apply_anchor(anchor, level);
        let lim = ROOT_LEN as i64;
        assert!(
            (0..lim).contains(&ax) && (0..lim).contains(&ay) && (0..lim).contains(&az),
            "face transform produced out-of-tree coordinates {ax},{ay},{az}"
        );
        Octant::new(ax as u32, ay as u32, az as u32, level)
    }
}

/// The forest topology: vertices, trees, and derived face connections.
#[derive(Debug, Clone)]
pub struct Connectivity {
    /// Physical corner vertex positions.
    pub vertices: Vec<[f64; 3]>,
    /// Eight corner vertex ids per tree, z-ordered.
    pub trees: Vec<[u32; 8]>,
    /// Geometry map used by [`Connectivity::map_point`].
    pub geometry: TreeGeometry,
    /// Derived: per tree, per face, the transform to the neighbor (or
    /// `None` on the domain boundary).
    face_neighbors: Vec<[Option<FaceTransform>; 6]>,
}

/// Lattice coordinates of tree corner `c` (doubled units not applied).
fn corner_coords(c: usize) -> [i64; 3] {
    let r = ROOT_LEN as i64;
    [
        ((c & 1) as i64) * r,
        (((c >> 1) & 1) as i64) * r,
        (((c >> 2) & 1) as i64) * r,
    ]
}

impl Connectivity {
    /// Build a connectivity from vertices and trees, deriving all face
    /// connections from shared vertex ids.
    pub fn new(vertices: Vec<[f64; 3]>, trees: Vec<[u32; 8]>, geometry: TreeGeometry) -> Self {
        let mut conn = Connectivity {
            face_neighbors: vec![[None; 6]; trees.len()],
            vertices,
            trees,
            geometry,
        };
        conn.derive_face_neighbors();
        conn
    }

    /// Number of trees in the forest.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The face connection of `(tree, face)`, if any.
    pub fn neighbor_across(&self, tree: u32, face: u8) -> Option<&FaceTransform> {
        self.face_neighbors[tree as usize][face as usize].as_ref()
    }

    fn derive_face_neighbors(&mut self) {
        // Index faces by their sorted vertex-id quadruple.
        use std::collections::HashMap;
        let mut by_key: HashMap<[u32; 4], Vec<(u32, u8)>> = HashMap::new();
        for (t, corners) in self.trees.iter().enumerate() {
            for f in 0..NUM_FACES {
                let mut key = [0u32; 4];
                for (i, &fc) in FACE_CORNERS[f].iter().enumerate() {
                    key[i] = corners[fc];
                }
                key.sort_unstable();
                by_key.entry(key).or_default().push((t as u32, f as u8));
            }
        }
        for (key, sides) in &by_key {
            match sides.len() {
                1 => {} // domain boundary
                2 => {
                    let (t0, f0) = sides[0];
                    let (t1, f1) = sides[1];
                    let fwd = self.derive_transform(t0, f0, t1, f1);
                    let bwd = self.derive_transform(t1, f1, t0, f0);
                    self.face_neighbors[t0 as usize][f0 as usize] = Some(fwd);
                    self.face_neighbors[t1 as usize][f1 as usize] = Some(bwd);
                }
                n => panic!("face {key:?} shared by {n} trees; a face joins at most 2"),
            }
        }
    }

    /// Derive the lattice transform carrying octants that exit `t0`
    /// through `f0` into `t1` (entering through `f1`).
    fn derive_transform(&self, t0: u32, f0: u8, t1: u32, f1: u8) -> FaceTransform {
        let c0 = &self.trees[t0 as usize];
        let c1 = &self.trees[t1 as usize];
        // Map each face corner of t0.f0 to the t1 corner with the same id.
        let mut src_pts = [[0i64; 3]; 4];
        let mut dst_pts = [[0i64; 3]; 4];
        for (k, &fc) in FACE_CORNERS[f0 as usize].iter().enumerate() {
            let vid = c0[fc];
            let c1pos = c1
                .iter()
                .position(|&v| v == vid)
                .expect("shared face vertex missing in neighbor tree");
            src_pts[k] = corner_coords(fc);
            dst_pts[k] = corner_coords(c1pos);
        }
        // Columns of A from the two in-face tangent correspondences and
        // the normal-axis rule (outward of t0 maps to inward of t1).
        let mut axis = [usize::MAX; 3];
        let mut sign = [0i64; 3];
        let r = ROOT_LEN as i64;
        for (a, b) in [(1usize, 0usize), (2usize, 0usize)] {
            let d_src: Vec<i64> = (0..3).map(|i| src_pts[a][i] - src_pts[b][i]).collect();
            let d_dst: Vec<i64> = (0..3).map(|i| dst_pts[a][i] - dst_pts[b][i]).collect();
            let sa = d_src.iter().position(|&v| v != 0).unwrap();
            let da = d_dst.iter().position(|&v| v != 0).unwrap();
            // Column `sa` of A is ±e_da.
            axis_set(
                &mut axis,
                &mut sign,
                da,
                sa,
                d_dst[da] / r * d_src[sa].signum(),
            );
        }
        let n0 = (f0 / 2) as usize;
        let n1 = (f1 / 2) as usize;
        let s0: i64 = if f0 % 2 == 1 { 1 } else { -1 };
        let s1: i64 = if f1 % 2 == 1 { 1 } else { -1 };
        // A (s0 e_n0) = −s1 e_n1  ⇒  column n0 of A = −s0·s1 · e_n1.
        axis_set(&mut axis, &mut sign, n1, n0, -s0 * s1);
        debug_assert!(axis.iter().all(|&a| a != usize::MAX));
        // Offset from the first corner correspondence, in doubled units.
        let mut off = [0i64; 3];
        for i in 0..3 {
            off[i] = 2 * (dst_pts[0][i] - sign[i] * src_pts[0][axis[i]]);
        }
        FaceTransform {
            tree: t1,
            face: f1,
            axis,
            sign,
            off,
        }
    }

    /// Map a reference point `(u,v,w) ∈ [0,1]^3` of `tree` to physical
    /// coordinates.
    pub fn map_point(&self, tree: u32, uvw: [f64; 3]) -> [f64; 3] {
        let corners = &self.trees[tree as usize];
        match self.geometry {
            TreeGeometry::Trilinear => {
                let mut p = [0.0; 3];
                for c in 0..8 {
                    let w = weight(uvw, c);
                    let v = self.vertices[corners[c] as usize];
                    for i in 0..3 {
                        p[i] += w * v[i];
                    }
                }
                p
            }
            TreeGeometry::Shell { r_inner, r_outer } => {
                // Bilinear blend of the inner-face corner *directions*,
                // normalized; linear radius in w.
                let mut d = [0.0; 3];
                for c in 0..4 {
                    let w2 = weight([uvw[0], uvw[1], 0.0], c);
                    let v = self.vertices[corners[c] as usize];
                    let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                    for i in 0..3 {
                        d[i] += w2 * v[i] / norm;
                    }
                }
                let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                let r = r_inner + uvw[2] * (r_outer - r_inner);
                [r * d[0] / norm, r * d[1] / norm, r * d[2] / norm]
            }
        }
    }

    /// Physical center of an octant of `tree`.
    pub fn octant_center(&self, tree: u32, o: &Octant) -> [f64; 3] {
        self.map_point(tree, o.center_unit())
    }

    // ----------------------------------------------------------------
    // Builders
    // ----------------------------------------------------------------

    /// A single unit-cube tree (no inter-tree faces).
    pub fn unit_cube() -> Self {
        let vertices = (0..8)
            .map(|c| {
                let p = corner_coords(c);
                [
                    p[0] as f64 / ROOT_LEN as f64,
                    p[1] as f64 / ROOT_LEN as f64,
                    p[2] as f64 / ROOT_LEN as f64,
                ]
            })
            .collect();
        Connectivity::new(
            vertices,
            vec![[0, 1, 2, 3, 4, 5, 6, 7]],
            TreeGeometry::Trilinear,
        )
    }

    /// An `nx × ny × nz` brick of unit-cube trees covering
    /// `[0,nx] × [0,ny] × [0,nz]` (the paper's regional mantle domain is
    /// `brick(8, 4, 1)`, Section VI).
    pub fn brick(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        let vid =
            |i: usize, j: usize, k: usize| -> u32 { (i + (nx + 1) * (j + (ny + 1) * k)) as u32 };
        let mut vertices = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    vertices.push([i as f64, j as f64, k as f64]);
                }
            }
        }
        let mut trees = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    trees.push([
                        vid(i, j, k),
                        vid(i + 1, j, k),
                        vid(i, j + 1, k),
                        vid(i + 1, j + 1, k),
                        vid(i, j, k + 1),
                        vid(i + 1, j, k + 1),
                        vid(i, j + 1, k + 1),
                        vid(i + 1, j + 1, k + 1),
                    ]);
                }
            }
        }
        Connectivity::new(vertices, trees, TreeGeometry::Trilinear)
    }

    /// The paper's spherical-shell decomposition: 6 cube faces ("caps"),
    /// each split 2×2, every patch extruded radially from `r_inner` to
    /// `r_outer` — 24 adaptive octrees (Section VII). Reference z is the
    /// radial direction of every tree.
    pub fn cubed_sphere(r_inner: f64, r_outer: f64) -> Self {
        assert!(0.0 < r_inner && r_inner < r_outer);
        // Vertex dedup by quantized surface position.
        use std::collections::HashMap;
        let mut vertices: Vec<[f64; 3]> = Vec::new();
        let mut index: HashMap<[i64; 4], u32> = HashMap::new();
        let quant = |p: [f64; 3], layer: i64| -> [i64; 4] {
            [
                (p[0] * 1e9).round() as i64,
                (p[1] * 1e9).round() as i64,
                (p[2] * 1e9).round() as i64,
                layer,
            ]
        };
        let mut trees: Vec<[u32; 8]> = Vec::new();

        // The 6 cube faces with outward axes; (a, b) are the two in-face
        // axes chosen so that (a, b, outward) is right-handed.
        // Each entry: (fixed axis, fixed value, axis a, axis b).
        let caps: [(usize, f64, usize, usize); 6] = [
            (0, -1.0, 2, 1), // −x
            (0, 1.0, 1, 2),  // +x
            (1, -1.0, 0, 2), // −y
            (1, 1.0, 2, 0),  // +y
            (2, -1.0, 1, 0), // −z
            (2, 1.0, 0, 1),  // +z
        ];
        let radii = [r_inner, r_outer];
        for &(fix, val, a, b) in &caps {
            for pj in 0..2 {
                for pi in 0..2 {
                    // Patch [pi, pi+1]×[pj, pj+1] of the 2×2 cap split,
                    // in cap coordinates mapped to [−1, 1].
                    let mut corner_ids = [0u32; 8];
                    for c in 0..8 {
                        let du = (c & 1) as f64;
                        let dv = ((c >> 1) & 1) as f64;
                        let layer = (c >> 2) & 1; // reference z = radial
                        let u = -1.0 + (pi as f64 + du); // [−1,1] in steps of 1
                        let v = -1.0 + (pj as f64 + dv);
                        let mut s = [0.0f64; 3];
                        s[fix] = val;
                        s[a] = u;
                        s[b] = v;
                        let n = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt();
                        let dir = [s[0] / n, s[1] / n, s[2] / n];
                        let key = quant(dir, layer as i64);
                        let id = *index.entry(key).or_insert_with(|| {
                            let r = radii[layer];
                            vertices.push([r * dir[0], r * dir[1], r * dir[2]]);
                            (vertices.len() - 1) as u32
                        });
                        corner_ids[c] = id;
                    }
                    trees.push(corner_ids);
                }
            }
        }
        Connectivity::new(vertices, trees, TreeGeometry::Shell { r_inner, r_outer })
    }

    /// Consistency check: every face connection is mutual, and composing
    /// the forward and backward transforms is the identity on octants
    /// crossing the face.
    pub fn validate(&self) -> bool {
        for t in 0..self.num_trees() as u32 {
            for f in 0..NUM_FACES as u8 {
                if let Some(fwd) = self.neighbor_across(t, f) {
                    let Some(bwd) = self.neighbor_across(fwd.tree, fwd.face) else {
                        return false;
                    };
                    if bwd.tree != t || bwd.face != f {
                        return false;
                    }
                    // Round-trip a probe octant crossing the face.
                    let level = 3u8;
                    let len = (1u32 << (octree::MAX_LEVEL - level)) as i64;
                    let r = ROOT_LEN as i64;
                    // Anchor just outside face f of tree t, interior in
                    // the tangential directions.
                    let mut anchor = [r / 2, r / 2, r / 2];
                    let n = (f / 2) as usize;
                    anchor[n] = if f % 2 == 1 { r } else { -len };
                    let img = fwd.apply(anchor, level);
                    // Map the image's *interior* position back: the image
                    // sits just inside tree fwd.tree at face fwd.face;
                    // push it out through that face and apply bwd.
                    let mut back_anchor = [img.x() as i64, img.y() as i64, img.z() as i64];
                    let n1 = (fwd.face / 2) as usize;
                    back_anchor[n1] += if fwd.face % 2 == 1 { len } else { -len };
                    let back = bwd.apply(back_anchor, level);
                    // `back` must be the octant just inside face f of t at
                    // the probe's tangential position.
                    let mut expect = [r / 2, r / 2, r / 2];
                    expect[n] = if f % 2 == 1 { r - len } else { 0 };
                    if [back.x() as i64, back.y() as i64, back.z() as i64] != expect {
                        return false;
                    }
                }
            }
        }
        true
    }
}

fn axis_set(axis: &mut [usize; 3], sign: &mut [i64; 3], out_axis: usize, in_axis: usize, s: i64) {
    axis[out_axis] = in_axis;
    sign[out_axis] = s;
}

/// Trilinear corner weight of corner `c` at reference point `uvw`.
fn weight(uvw: [f64; 3], c: usize) -> f64 {
    let wx = if c & 1 == 1 { uvw[0] } else { 1.0 - uvw[0] };
    let wy = if (c >> 1) & 1 == 1 {
        uvw[1]
    } else {
        1.0 - uvw[1]
    };
    let wz = if (c >> 2) & 1 == 1 {
        uvw[2]
    } else {
        1.0 - uvw[2]
    };
    wx * wy * wz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cube_has_no_neighbors() {
        let c = Connectivity::unit_cube();
        assert_eq!(c.num_trees(), 1);
        for f in 0..6 {
            assert!(c.neighbor_across(0, f).is_none());
        }
        assert!(c.validate());
    }

    #[test]
    fn brick_connectivity_counts() {
        let c = Connectivity::brick(8, 4, 1);
        assert_eq!(c.num_trees(), 32);
        assert_eq!(c.vertices.len(), 9 * 5 * 2);
        assert!(c.validate());
        // Interior tree (1,1,0) = index 1 + 8*1 = 9 has 4 lateral
        // neighbors and no vertical ones (nz = 1).
        let t = 9u32;
        assert!(c.neighbor_across(t, 0).is_some());
        assert!(c.neighbor_across(t, 1).is_some());
        assert!(c.neighbor_across(t, 2).is_some());
        assert!(c.neighbor_across(t, 3).is_some());
        assert!(c.neighbor_across(t, 4).is_none());
        assert!(c.neighbor_across(t, 5).is_none());
    }

    #[test]
    fn brick_transform_is_translation() {
        let c = Connectivity::brick(2, 1, 1);
        let fwd = c.neighbor_across(0, 1).expect("trees 0,1 share +x face");
        assert_eq!(fwd.tree, 1);
        assert_eq!(fwd.face, 0);
        // An octant exiting +x of tree 0 lands at x=0 of tree 1, same y,z.
        let level = 2u8;
        let len = (1u32 << (octree::MAX_LEVEL - level)) as i64;
        let r = ROOT_LEN as i64;
        let img = fwd.apply([r, len, 2 * len], level);
        assert_eq!((img.x(), img.y() as i64, img.z() as i64), (0, len, 2 * len));
        assert_eq!(img.level(), level);
    }

    #[test]
    fn cubed_sphere_topology() {
        let c = Connectivity::cubed_sphere(0.55, 1.0);
        assert_eq!(c.num_trees(), 24, "6 caps × 4 trees (paper, Sec. VII)");
        // Each cap contributes a 3×3 grid of surface points per layer; cap
        // corners and edges are shared. Euler: cube subdivided 2×2 per
        // face has 8 + 12·1 + 6·1 = 26 surface vertices per layer.
        assert_eq!(c.vertices.len(), 52);
        assert!(c.validate(), "all 24-tree face transforms must round-trip");
        // Every tree has exactly 4 lateral connections (z is radial).
        for t in 0..24u32 {
            let lateral = (0..4)
                .filter(|&f| c.neighbor_across(t, f).is_some())
                .count();
            assert_eq!(lateral, 4, "tree {t}");
            // The caps' tangential axes are laid out cyclically: no seam
            // turns or mirrors the face lattice.
            for f in 0..4 {
                assert_eq!(c.neighbor_across(t, f).unwrap().orientation(f), 0);
            }
            assert!(c.neighbor_across(t, 4).is_none(), "inner shell boundary");
            assert!(c.neighbor_across(t, 5).is_none(), "outer shell boundary");
        }
    }

    #[test]
    fn cubed_sphere_geometry_on_sphere() {
        let c = Connectivity::cubed_sphere(0.55, 1.0);
        for t in 0..24u32 {
            for &(u, v) in &[(0.0, 0.0), (0.5, 0.5), (1.0, 0.25)] {
                let inner = c.map_point(t, [u, v, 0.0]);
                let outer = c.map_point(t, [u, v, 1.0]);
                let rn = |p: [f64; 3]| (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
                assert!((rn(inner) - 0.55).abs() < 1e-12);
                assert!((rn(outer) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn brick_geometry_is_affine() {
        let c = Connectivity::brick(8, 4, 1);
        // Tree (i,j,k) maps [0,1]^3 to [i,i+1]×[j,j+1]×[k,k+1].
        let t = 9u32; // (1,1,0)
        assert_eq!(c.map_point(t, [0.0, 0.0, 0.0]), [1.0, 1.0, 0.0]);
        assert_eq!(c.map_point(t, [1.0, 1.0, 1.0]), [2.0, 2.0, 1.0]);
        assert_eq!(c.map_point(t, [0.5, 0.5, 0.5]), [1.5, 1.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "shared by")]
    fn triple_shared_face_rejected() {
        // Three trees claiming the same face is invalid.
        let verts = vec![[0.0; 3]; 12];
        let t0 = [0, 1, 2, 3, 4, 5, 6, 7];
        let t1 = [4, 5, 6, 7, 8, 9, 10, 11];
        let t2 = [4, 5, 6, 7, 8, 9, 10, 11];
        let _ = Connectivity::new(verts, vec![t0, t1, t2], TreeGeometry::Trilinear);
    }
}
