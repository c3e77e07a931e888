//! `InterpolateFields`: transfer nodal fields between meshes related by
//! one adaptation step.
//!
//! As in the paper, the transfer is purely local given ghost values: the
//! new leaves are produced from the old ones by coarsening, refinement
//! and balance *before* repartitioning, so old and new local leaves are
//! two Morton-sorted tilings of the same curve segment and every new
//! leaf equals, lies inside, or covers old local leaves. Refinement
//! injects exactly (a new corner is the trilinear interpolant of the old
//! leaf's resolved corner values); coarsening restricts by sampling the
//! parent's corner positions (which are corners of the old children).
//!
//! [`transfer_corner_values_into`] is the production kernel: one linear
//! merge of the two leaf sequences that needs no mesh on the new leaves.
//! [`interpolate_node_field_into`] answers the same question by point
//! location from the dofs of an extracted new mesh; the stand-alone
//! `mesh.interp_ms` probe times it and the tests use it as the reference.

use crate::extract::{incident_probes, node_coords, Corner, Mesh};
use octree::ops::find_containing;
use octree::{Octant, MAX_LEVEL};

/// Trilinear interpolant of the corner values `c` (z-order) at reference
/// position `r ∈ [0,1]³`.
fn trilinear(c: &[f64; 8], r: [f64; 3]) -> f64 {
    let mut v = 0.0;
    for (ci, &cv) in c.iter().enumerate() {
        let wx = if ci & 1 == 1 { r[0] } else { 1.0 - r[0] };
        let wy = if (ci >> 1) & 1 == 1 { r[1] } else { 1.0 - r[1] };
        let wz = if (ci >> 2) & 1 == 1 { r[2] } else { 1.0 - r[2] };
        v += wx * wy * wz * cv;
    }
    v
}

/// Lattice coordinates of the 8 corners (z-order) of octant `o`.
fn corner_coords(o: &Octant) -> [[u32; 3]; 8] {
    let (anchor, l) = ([o.x(), o.y(), o.z()], o.len());
    std::array::from_fn(|c| std::array::from_fn(|a| anchor[a] + ((c as u32 >> a) & 1) * l))
}

/// Carry a nodal field from `old` (with ghost values current in
/// `old_vals`) onto `new_leaves` as element-corner data: `out` receives 8
/// values per new leaf, in leaf order and z-order within a leaf — the
/// payload `TransferFields` ships along the curve.
///
/// `new_leaves` must tile exactly the curve segment `old.elements` tiles,
/// i.e. be the local leaves after coarsen/refine/balance and **before**
/// repartitioning; anything else panics. One linear merge pairs the two
/// sequences:
///
/// * a new leaf equal to an old leaf copies its resolved corner values;
/// * a new leaf inside an old leaf (any depth) takes the trilinear
///   interpolant of that leaf's resolved corner values at each of its
///   corners;
/// * a new leaf covering old leaves takes corner `c` from the old
///   descendant whose corner `c` coincides with it.
///
/// `out` is cleared first and its capacity reused: warm calls do not
/// allocate.
pub fn transfer_corner_values_into(
    old: &Mesh,
    old_vals: &[f64],
    new_leaves: &[Octant],
    out: &mut Vec<f64>,
) {
    assert_eq!(old_vals.len(), old.n_local());
    // Finest-level cells under an octant: Morton keys advance by this much
    // from one leaf of a tiling to the next.
    let cells = |o: &Octant| 1u64 << (3 * (MAX_LEVEL - o.level()) as u32);
    let no_tiling = |what: &str, at: u64| -> ! {
        panic!(
            "new leaves do not tile the old mesh's curve segment ({what} at Morton key \
             {at:#x}) — was the tree repartitioned before the field transfer?"
        )
    };
    out.clear();
    out.reserve(8 * new_leaves.len());
    let (mut i, mut j) = (0, 0);
    while j < new_leaves.len() {
        // Both tilings stand at the same curve position here.
        let n = new_leaves[j];
        let Some(&o) = old.elements.get(i) else {
            no_tiling("new leaf past the last old leaf", n.key())
        };
        if n.key() != o.key() {
            no_tiling("new leaf off the old leaf boundary", n.key());
        }
        if o.level() <= n.level() {
            // Unchanged or refined: consume the new leaves inside `o`.
            let c = old.corner_values(i, old_vals);
            let (anchor, l) = ([o.x(), o.y(), o.z()], o.len() as f64);
            let end = o.key() + cells(&o);
            let mut pos = o.key();
            while pos < end {
                let n = match new_leaves.get(j) {
                    Some(n) if n.key() == pos => n,
                    _ => no_tiling("old leaf not covered", pos),
                };
                if *n == o {
                    out.extend_from_slice(&c);
                } else {
                    for p in corner_coords(n) {
                        let r = std::array::from_fn(|a| (p[a] - anchor[a]) as f64 / l);
                        out.push(trilinear(&c, r));
                    }
                }
                pos += cells(n);
                j += 1;
            }
            i += 1;
        } else {
            // Coarsened: consume the old leaves inside `n`.
            let at = corner_coords(&n);
            let mut vals = [0.0; 8];
            let mut filled = 0u8;
            let end = n.key() + cells(&n);
            let mut pos = n.key();
            while pos < end {
                let o = match old.elements.get(i) {
                    Some(o) if o.key() == pos => o,
                    _ => no_tiling("new leaf reaches past the old leaves", pos),
                };
                let c = old.corner_values(i, old_vals);
                for (k, p) in corner_coords(o).into_iter().enumerate() {
                    if p == at[k] {
                        vals[k] = c[k];
                        filled |= 1 << k;
                    }
                }
                pos += cells(o);
                i += 1;
            }
            assert_eq!(filled, 0xff, "coarsened leaf {n:?}: corner without a value");
            out.extend_from_slice(&vals);
            j += 1;
        }
    }
    if let Some(o) = old.elements.get(i) {
        no_tiling("old leaf not covered", o.key());
    }
}

/// Unpack element-corner data (8 values per element of `mesh`, as moved
/// by `TransferFields`) onto the owned dofs of `mesh`: every owned dof is
/// a corner of some local element and takes its value from the first
/// such corner in element order. Corners that hang on `mesh` are skipped
/// — their values are implied by the constraints.
pub fn unpack_corner_values(mesh: &Mesh, data: &[f64]) -> Vec<f64> {
    assert_eq!(data.len(), 8 * mesh.elements.len());
    let mut f = vec![0.0; mesh.n_owned];
    let mut filled = vec![false; mesh.n_owned];
    for (ec, &value) in data.iter().enumerate() {
        if let Corner::Dof(d) = mesh.corner(ec / 8, ec % 8) {
            if d < mesh.n_owned && !filled[d] {
                f[d] = value;
                filled[d] = true;
            }
        }
    }
    assert!(filled.iter().all(|&x| x), "owned dof not covered by unpack");
    f
}

/// Evaluate the old field at lattice point `p` using the old mesh.
/// Returns `None` if no old local element covers `p`.
fn eval_at(old: &Mesh, old_vals: &[f64], p: (u32, u32, u32)) -> Option<f64> {
    // Probe the up-to-8 incident unit cells until one lies in an old
    // local element.
    let e = incident_probes(p).find_map(|probe| find_containing(&old.elements, &probe))?;
    let o = &old.elements[e];
    let l = o.len() as f64;
    let r = [
        (p.0 - o.x()) as f64 / l,
        (p.1 - o.y()) as f64 / l,
        (p.2 - o.z()) as f64 / l,
    ];
    Some(trilinear(&old.corner_values(e, old_vals), r))
}

/// Interpolate a nodal field from `old` (with ghost values current in
/// `old_vals`) onto the owned dofs of `new`. The ghost block of the
/// returned vector is zero; call `new.exchange.exchange(...)` afterwards.
///
/// Requires that `new` was extracted from the same octree partition as
/// `old` after at most one adaptation step and **before** repartitioning.
pub fn interpolate_node_field(old: &Mesh, old_vals: &[f64], new: &Mesh) -> Vec<f64> {
    let mut out = Vec::new();
    interpolate_node_field_into(old, old_vals, new, &mut out);
    out
}

/// [`interpolate_node_field`] writing into a caller-provided buffer
/// (cleared first, capacity reused): warm calls do not allocate.
pub fn interpolate_node_field_into(old: &Mesh, old_vals: &[f64], new: &Mesh, out: &mut Vec<f64>) {
    assert_eq!(old_vals.len(), old.n_local());
    out.clear();
    out.resize(new.n_local(), 0.0);
    for d in 0..new.n_owned {
        let p = node_coords(new.dof_keys[d]);
        out[d] = eval_at(old, old_vals, p).unwrap_or_else(|| {
            panic!(
                "new node {:?} not covered by any old local element — \
                 was the mesh repartitioned before the field transfer?",
                p
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_mesh;
    use octree::balance::BalanceKind;
    use octree::parallel::{transfer_fields, DistOctree};
    use octree::ROOT_LEN;
    use scomm::{spmd, Comm};

    /// `v` sampled at the owned dofs of `mesh`, ghost block filled.
    fn sample(c: &Comm, mesh: &Mesh, f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        let mut v = vec![0.0; mesh.n_local()];
        for d in 0..mesh.n_owned {
            v[d] = f(mesh.dof_coords(d));
        }
        mesh.exchange.exchange(c, &mut v, mesh.n_owned);
        v
    }

    /// Physical position of corner `k` of leaf `o` in the unit cube.
    fn corner_unit(o: &Octant, k: usize) -> [f64; 3] {
        corner_coords(o)[k].map(|x| x as f64 / ROOT_LEN as f64)
    }

    /// Linear fields must transfer exactly under refinement and
    /// coarsening (trilinear interpolation is exact on linears).
    #[test]
    fn linear_field_transfers_exactly() {
        spmd::run(2, |c| {
            let f = |p: [f64; 3]| 2.0 * p[0] - p[1] + 3.0 * p[2] + 0.25;
            let mut t = DistOctree::new_uniform(c, 2);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = sample(c, &old_mesh, f);

            // One adaptation step: refine one region, coarsen another.
            t.refine(|o| o.center_unit()[0] < 0.3);
            t.coarsen(|o| o.center_unit()[0] > 0.7);
            t.balance(BalanceKind::Full);
            let new_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let mut w = interpolate_node_field(&old_mesh, &v, &new_mesh);
            new_mesh.exchange.exchange(c, &mut w, new_mesh.n_owned);
            for d in 0..new_mesh.n_owned {
                let expect = f(new_mesh.dof_coords(d));
                assert!(
                    (w[d] - expect).abs() < 1e-11,
                    "dof {d}: {} vs {expect}",
                    w[d]
                );
            }
        });
    }

    /// Refinement must inject nodal values exactly (new nodes coincide
    /// with old nodes or are interpolated, but old nodes keep values).
    #[test]
    fn refinement_injects_old_nodes() {
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 1);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            // An arbitrary nodal field.
            let mut v = vec![0.0; old_mesh.n_local()];
            for d in 0..old_mesh.n_owned {
                let p = old_mesh.dof_coords(d);
                v[d] = (p[0] * 7.0).sin() + p[1] * p[2];
            }
            let old_coords: Vec<[f64; 3]> = (0..old_mesh.n_owned)
                .map(|d| old_mesh.dof_coords(d))
                .collect();
            t.refine(|_| true);
            let new_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let w = interpolate_node_field(&old_mesh, &v, &new_mesh);
            for d in 0..new_mesh.n_owned {
                let p = new_mesh.dof_coords(d);
                if let Some(j) = old_coords.iter().position(|q| {
                    (q[0] - p[0]).abs() + (q[1] - p[1]).abs() + (q[2] - p[2]).abs() < 1e-14
                }) {
                    assert!((w[d] - v[j]).abs() < 1e-13, "old node value changed");
                }
            }
        });
    }

    /// Golden round trip: coarsen one level everywhere, transfer, refine
    /// back, transfer again. Trilinear interpolation reproduces the
    /// discretization-order space span{1,x,y,z,xy,xz,yz,xyz} exactly, so a
    /// field with all eight coefficients nonzero must survive the round
    /// trip to 1e-12, serially and on four ranks.
    #[test]
    fn coarsen_refine_round_trip_exact_trilinear() {
        for p in [1usize, 4] {
            spmd::run(p, |c| {
                let f = |q: [f64; 3]| {
                    1.0 + 2.0 * q[0] - q[1] + 0.5 * q[2] + 3.0 * q[0] * q[1] - 2.0 * q[1] * q[2]
                        + q[0] * q[2]
                        + 4.0 * q[0] * q[1] * q[2]
                };
                let mut t = DistOctree::new_uniform(c, 2);
                let m_fine = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let v = sample(c, &m_fine, f);

                t.coarsen(|_| true);
                let m_coarse = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let mut vc = Vec::new();
                interpolate_node_field_into(&m_fine, &v, &m_coarse, &mut vc);
                m_coarse.exchange.exchange(c, &mut vc, m_coarse.n_owned);

                t.refine(|_| true);
                let m_back = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let mut vb = Vec::new();
                interpolate_node_field_into(&m_coarse, &vc, &m_back, &mut vb);
                for d in 0..m_back.n_owned {
                    let expect = f(m_back.dof_coords(d));
                    assert!(
                        (vb[d] - expect).abs() < 1e-12,
                        "P={p} dof {d}: {} vs {expect}",
                        vb[d]
                    );
                }
            });
        }
    }

    /// Pinned values on one known tree: the root element with corner
    /// values [3,1,4,1,5,9,2,6] (corner index = xbit + 2·ybit + 4·zbit) is
    /// refined once; the midpoint nodes must carry the hand-computed
    /// trilinear averages.
    #[test]
    fn pinned_refinement_values_on_known_tree() {
        spmd::run(1, |c| {
            let vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
            let mut t = DistOctree::new_uniform(c, 0);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            assert_eq!(old_mesh.n_owned, 8);
            let mut v = vec![0.0; old_mesh.n_local()];
            for d in 0..old_mesh.n_owned {
                let q = old_mesh.dof_coords(d);
                let ci = (q[0] > 0.5) as usize
                    | ((q[1] > 0.5) as usize) << 1
                    | ((q[2] > 0.5) as usize) << 2;
                v[d] = vals[ci];
            }
            t.refine(|_| true);
            let new_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let w = interpolate_node_field(&old_mesh, &v, &new_mesh);
            // Hand-computed: cell center = mean of all 8; face centers and
            // edge midpoints = means of their 4 resp. 2 corners.
            let pinned: [([f64; 3], f64); 7] = [
                ([0.5, 0.5, 0.5], 3.875), // (3+1+4+1+5+9+2+6)/8
                ([0.5, 0.0, 0.0], 2.0),   // (3+1)/2
                ([0.5, 0.5, 0.0], 2.25),  // (3+1+4+1)/4
                ([0.0, 0.5, 0.5], 3.5),   // (3+4+5+2)/4
                ([1.0, 0.5, 1.0], 7.5),   // (9+6)/2
                ([0.0, 0.0, 0.0], 3.0),
                ([1.0, 1.0, 1.0], 6.0),
            ];
            for (q, expect) in pinned {
                let d = (0..new_mesh.n_owned)
                    .find(|&d| {
                        let r = new_mesh.dof_coords(d);
                        (r[0] - q[0]).abs() + (r[1] - q[1]).abs() + (r[2] - q[2]).abs() < 1e-14
                    })
                    .unwrap_or_else(|| panic!("no dof at {q:?}"));
                assert_eq!(w[d], expect, "node {q:?}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn transfer_after_partition_is_rejected() {
        // Interpolating across a repartition must fail loudly: rank 1's
        // new elements aren't covered by its old ones.
        let conn_failed = spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = vec![0.0; old_mesh.n_local()];
            if c.rank() == 0 {
                t.refine(|_| true);
            } else {
                t.refine(|_| false);
            }
            t.partition(); // moves elements between ranks
            let new_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let _ = interpolate_node_field(&old_mesh, &v, &new_mesh);
        });
        let _ = conn_failed;
    }

    /// The merge kernel against the point-location path as oracle: carry
    /// a non-polynomial field across refine + coarsen + balance by both,
    /// repartition, unpack onto the final mesh. The independent-node
    /// values must agree to rounding, serially and on four ranks.
    #[test]
    fn merge_kernel_matches_point_location_oracle() {
        for p in [1usize, 4] {
            spmd::run(p, |c| {
                let domain = [1.0, 1.0, 1.0];
                // An old mesh that already has hanging nodes.
                let mut t = DistOctree::new_uniform(c, 3);
                t.refine(|o| o.center_unit()[1] > 0.6);
                t.balance(BalanceKind::Full);
                t.partition();
                let old_mesh = extract_mesh(&t, domain);
                let v = sample(c, &old_mesh, |q| (7.0 * q[0]).sin() + q[1] * q[2]);

                // One adaptation: refine one region, coarsen another.
                t.refine(|o| o.center_unit()[0] < 0.3);
                t.coarsen(|o| o.center_unit()[0] > 0.6);
                t.balance(BalanceKind::Full);
                let (mut same, mut finer, mut coarser) = (0u64, 0u64, 0u64);
                for n in &t.local {
                    match find_containing(&old_mesh.elements, n) {
                        Some(e) if old_mesh.elements[e] == *n => same += 1,
                        Some(_) => finer += 1,
                        None => coarser += 1,
                    }
                }
                let mix = c.allreduce_sum(&[same, finer, coarser]);
                assert!(mix.iter().all(|&k| k > 0), "fixture lacks a case: {mix:?}");

                let mut kernel = Vec::new();
                transfer_corner_values_into(&old_mesh, &v, &t.local, &mut kernel);

                let mid = extract_mesh(&t, domain);
                let mut w = interpolate_node_field(&old_mesh, &v, &mid);
                mid.exchange.exchange(c, &mut w, mid.n_owned);
                let oracle: Vec<f64> = (0..mid.elements.len())
                    .flat_map(|e| mid.corner_values(e, &w))
                    .collect();

                let plan = t.partition();
                let new_mesh = extract_mesh(&t, domain);
                let [got, want] = [&kernel, &oracle].map(|data| {
                    let moved = transfer_fields(c, &plan, data, 8);
                    unpack_corner_values(&new_mesh, &moved)
                });
                for d in 0..new_mesh.n_owned {
                    assert!(
                        (got[d] - want[d]).abs() <= 1e-13,
                        "P={p} dof {d} at {:?}: kernel {} vs oracle {}",
                        new_mesh.dof_coords(d),
                        got[d],
                        want[d]
                    );
                }
            });
        }
    }

    /// Balance may refine an old leaf by more than one level. Level-1
    /// tree, refined three levels deep toward the domain centre inside
    /// leaf 0 only: full balance then splits the other seven old leaves
    /// twice. Within one old leaf the interpolant reproduces
    /// span{1,x,y,z,xy,xz,yz,xyz}, so every new corner — at reference
    /// positions in quarters and eighths — must carry the field exactly.
    #[test]
    fn pinned_two_level_refinement_by_balance() {
        spmd::run(1, |c| {
            let f = |q: [f64; 3]| {
                1.0 + 2.0 * q[0] - q[1] + 0.5 * q[2] + 3.0 * q[0] * q[1] - 2.0 * q[1] * q[2]
                    + q[0] * q[2]
                    + 4.0 * q[0] * q[1] * q[2]
            };
            let mut t = DistOctree::new_uniform(c, 1);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = sample(c, &old_mesh, f);
            let half = ROOT_LEN / 2;
            for _ in 0..3 {
                t.refine(|o| [o.x(), o.y(), o.z()].iter().all(|&a| a + o.len() == half));
            }
            t.balance(BalanceKind::Full);
            let far = old_mesh.elements[7];
            assert!(
                t.local.iter().any(|n| far.contains(n) && n.level() == 3),
                "balance must split an unmarked old leaf twice"
            );
            let mut out = Vec::new();
            transfer_corner_values_into(&old_mesh, &v, &t.local, &mut out);
            assert_eq!(out.len(), 8 * t.local.len());
            for (j, n) in t.local.iter().enumerate() {
                for k in 0..8 {
                    let expect = f(corner_unit(n, k));
                    assert!(
                        (out[8 * j + k] - expect).abs() < 1e-14,
                        "{n:?} corner {k}: {} vs {expect}",
                        out[8 * j + k]
                    );
                }
            }
        });
    }

    /// A coarsened family: the parent's corner `c` is corner `c` of old
    /// child `c`, taken bit for bit whatever the field.
    #[test]
    fn pinned_coarsened_family_samples_child_corners() {
        spmd::run(1, |c| {
            let g = |q: [f64; 3]| (7.0 * q[0]).sin() + q[1] * q[2];
            let mut t = DistOctree::new_uniform(c, 2);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = sample(c, &old_mesh, g);
            t.coarsen(|o| o.parent() == Octant::root().child(5));
            assert_eq!(t.local.len(), 64 - 7);
            let mut out = Vec::new();
            transfer_corner_values_into(&old_mesh, &v, &t.local, &mut out);
            let j = t
                .local
                .iter()
                .position(|n| n.level() == 1)
                .expect("one coarsened family");
            for k in 0..8 {
                assert_eq!(out[8 * j + k], g(corner_unit(&t.local[j], k)), "corner {k}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn merge_after_partition_is_rejected() {
        // The twin of `transfer_after_partition_is_rejected` for the merge
        // kernel: after a repartition the local leaves no longer tile the
        // old mesh's curve segment.
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = vec![0.0; old_mesh.n_local()];
            if c.rank() == 0 {
                t.refine(|_| true);
            } else {
                t.refine(|_| false);
            }
            t.partition(); // moves elements between ranks
            transfer_corner_values_into(&old_mesh, &v, &t.local, &mut Vec::new());
        });
    }

    /// Leaf slices that are not a tiling of the old segment — a hole, a
    /// short end, a leaf too many, a refined leaf missing a sibling, a
    /// coarse leaf reaching past the segment — each panic with the tiling
    /// message instead of indexing out of bounds.
    #[test]
    fn merge_rejects_leaves_that_do_not_tile() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            let old_mesh = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let v = vec![0.0; old_mesh.n_local()];
            t.refine(|o| o.x() == 0);
            let good = t.local.clone();
            transfer_corner_values_into(&old_mesh, &v, &good, &mut Vec::new());

            let hole = [&good[..40], &good[41..]].concat();
            let short = good[..good.len() - 1].to_vec();
            let long = [&good[..], &good[good.len() - 1..]].concat();
            let orphan = good[1..].to_vec(); // good[0] is a refined child
            let past = vec![Octant::root()];
            for leaves in [hole, short, long, orphan, past] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    transfer_corner_values_into(&old_mesh, &v, &leaves, &mut Vec::new())
                }))
                .expect_err("a non-tiling must be rejected");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("do not tile"), "{msg}");
            }
        });
    }
}
