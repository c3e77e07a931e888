//! Assembly of the rank-local *owned block* of a distributed FEM matrix.
//!
//! The block-Jacobi AMG preconditioner (DESIGN.md substitution #2) needs,
//! on each rank, the exact restriction of the global matrix to its owned
//! dofs: `A_rr = R_r A R_rᵀ`. Every rank assembles all contributions of
//! its own elements — including those landing in rows owned by neighbors
//! — and ships foreign-row triplets `(row gid, col gid, value)` to their
//! owners in a single `alltoallv`. Received triplets whose column is also
//! locally owned are added; couplings to other ranks' dofs are dropped
//! (that is precisely the block-Jacobi approximation).

use crate::op::DofMap;
use la::Csr;
use mesh::extract::Corner;

/// Source of element matrices for assembly.
pub type ElementMatrixSource<'a> = dyn Fn(usize, &mut [f64]) + 'a;

/// Wire triplet.
#[derive(Clone, Copy)]
#[repr(C)]
struct WireTriplet {
    row: u64,
    col: u64,
    val: f64,
}
unsafe impl scomm::Pod for WireTriplet {}

/// Assemble the owned-block CSR (`n_owned·ncomp` square) of the operator
/// given by `elem_matrix`, with symmetric Dirichlet elimination for
/// `bc_mask` (identity rows/columns). Collective.
pub fn assemble_owned_block(
    map: &DofMap,
    elem_matrix: &ElementMatrixSource,
    bc_mask: Option<&[bool]>,
) -> Csr {
    let mesh = map.mesh;
    let comm = map.comm;
    let nc = map.ncomp;
    let dim = 8 * nc;
    let n_owned = mesh.n_owned;
    let offset = mesh.global_offset;

    // Expand each element corner into (local dof, weight) terms once.
    let mut mat = vec![0.0; dim * dim];
    let mut local_trips: Vec<(usize, usize, f64)> = Vec::new();
    let mut remote: Vec<Vec<WireTriplet>> = vec![Vec::new(); comm.size()];
    // gid of a local dof index (owned or ghost).
    let gid_of = |d: usize| -> u64 {
        if d < n_owned {
            offset + d as u64
        } else {
            mesh.ghost_gids[d - n_owned]
        }
    };
    // Owner rank of a gid (via gathered offsets).
    let offsets = comm.allgatherv(&[offset]);
    let owner_of_gid = |g: u64| -> usize { offsets.partition_point(|&o| o <= g) - 1 };

    for e in 0..mesh.elements.len() {
        elem_matrix(e, &mut mat);
        // Corner expansions: a plain dof is one unit-weight term in a
        // stack slot, a hanging corner its constraint row in place.
        let corners: [Corner; 8] = std::array::from_fn(|c| mesh.corner(e, c));
        let plain: [(usize, f64); 8] = std::array::from_fn(|c| match corners[c] {
            Corner::Dof(d) => (d, 1.0),
            Corner::Hanging(_) => (usize::MAX, 0.0),
        });
        let expansions: [&[(usize, f64)]; 8] = std::array::from_fn(|c| match corners[c] {
            Corner::Dof(_) => std::slice::from_ref(&plain[c]),
            Corner::Hanging(r) => mesh.constraint_row(r),
        });
        for ci in 0..8 {
            for cj in 0..8 {
                for a in 0..nc {
                    for b in 0..nc {
                        let v = mat[(ci * nc + a) * dim + cj * nc + b];
                        if v == 0.0 {
                            continue;
                        }
                        for &(di, wi) in expansions[ci] {
                            for &(dj, wj) in expansions[cj] {
                                let val = wi * wj * v;
                                let ri = di * nc + a;
                                let cj2 = dj * nc + b;
                                if di < n_owned {
                                    if dj < n_owned {
                                        local_trips.push((ri, cj2, val));
                                    }
                                    // column ghost → dropped (block-Jacobi)
                                } else {
                                    // Foreign row: ship to its owner.
                                    let rg = gid_of(di) * nc as u64 + a as u64;
                                    let cg = gid_of(dj) * nc as u64 + b as u64;
                                    remote[owner_of_gid(gid_of(di))].push(WireTriplet {
                                        row: rg,
                                        col: cg,
                                        val,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let incoming = comm.alltoallv(&remote);
    for part in incoming {
        for t in part {
            let rg_node = t.row / nc as u64;
            let a = (t.row % nc as u64) as usize;
            debug_assert!(rg_node >= offset && rg_node < offset + n_owned as u64);
            let di = (rg_node - offset) as usize;
            let cg_node = t.col / nc as u64;
            if cg_node >= offset && cg_node < offset + n_owned as u64 {
                let dj = (cg_node - offset) as usize;
                let b = (t.col % nc as u64) as usize;
                local_trips.push((di * nc + a, dj * nc + b, t.val));
            }
        }
    }

    // Dirichlet elimination: identity rows/cols for masked dofs.
    if let Some(mask) = bc_mask {
        debug_assert_eq!(mask.len(), n_owned * nc);
        local_trips.retain(|&(r, c, _)| !mask[r] && !mask[c]);
        for (i, &m) in mask.iter().enumerate() {
            if m {
                local_trips.push((i, i, 1.0));
            }
        }
    }
    // Ensure a full diagonal exists (AMG smoothers divide by it).
    let mut csr = Csr::from_triplets(n_owned * nc, n_owned * nc, &local_trips);
    let diag = csr.diagonal();
    let mut fixups = Vec::new();
    for (i, &d) in diag.iter().enumerate() {
        if d == 0.0 {
            fixups.push((i, i, 1.0));
        }
    }
    if !fixups.is_empty() {
        local_trips.extend(fixups);
        csr = Csr::from_triplets(n_owned * nc, n_owned * nc, &local_trips);
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::stiffness_source;
    use crate::op::{DistOp, DofMap};
    use mesh::extract::extract_mesh;
    use octree::balance::BalanceKind;
    use octree::parallel::DistOctree;
    use scomm::spmd;

    /// On one rank, the assembled owned block must agree exactly with the
    /// matrix-free operator.
    #[test]
    fn serial_assembly_matches_matrix_free() {
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[1] < 0.3);
            t.balance(BalanceKind::Full);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let src = stiffness_source(&m, |_| 2.0);
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let a = assemble_owned_block(&map, &src, Some(&bc));
            let op = DistOp::new(&map, Box::new(src), Some(&bc));
            // Compare A·eᵢ on a few basis vectors.
            let n = m.n_owned;
            for d in (0..n).step_by((n / 17).max(1)) {
                let mut x = vec![0.0; n];
                x[d] = 1.0;
                let mut y1 = vec![0.0; n];
                let mut y2 = vec![0.0; n];
                a.matvec(&x, &mut y1);
                op.apply_owned(&x, &mut y2);
                for i in 0..n {
                    assert!(
                        (y1[i] - y2[i]).abs() < 1e-12,
                        "col {d}, row {i}: {} vs {}",
                        y1[i],
                        y2[i]
                    );
                }
            }
        });
    }

    /// In parallel, the assembled blocks must contain all contributions:
    /// the block-diagonal quadratic form Σᵣ xᵣᵀ A_rr xᵣ must equal the
    /// matrix-free quadratic form xᵀ A x whenever x is supported so that
    /// no inter-rank coupling is exercised... instead we verify the
    /// diagonal: diag(A_rr) must equal the true global diagonal.
    #[test]
    fn parallel_block_diagonal_is_exact() {
        spmd::run(3, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] > 0.6);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let src = stiffness_source(&m, |_| 1.0);
            let a = assemble_owned_block(&map, &src, None);
            let block_diag = a.diagonal();
            // True diagonal via matrix-free: diag_i = eᵢᵀ A eᵢ... cheaper:
            // apply A to the all-ones-per-dof probe is wrong; use the
            // standard trick of assembling the diagonal by element loops:
            let op = DistOp::new(&map, Box::new(src), None);
            // For a handful of owned dofs, compare eᵢᵀ A eᵢ.
            let n = m.n_owned;
            for d in (0..n).step_by((n / 11).max(1)) {
                let mut x = vec![0.0; n];
                x[d] = 1.0;
                let mut y = vec![0.0; n];
                op.apply_owned(&x, &mut y);
                assert!(
                    (y[d] - block_diag[d]).abs() < 1e-12,
                    "dof {d}: matrix-free {} vs assembled {}",
                    y[d],
                    block_diag[d]
                );
            }
        });
    }

    /// Dirichlet rows become identity and the matrix stays square/SPD-ish.
    #[test]
    fn dirichlet_rows_are_identity() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 2);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let src = stiffness_source(&m, |_| 1.0);
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let a = assemble_owned_block(&map, &src, Some(&bc));
            for (d, &isbc) in bc.iter().enumerate() {
                if isbc {
                    let row: Vec<(usize, f64)> = (a.row_ptr[d]..a.row_ptr[d + 1])
                        .map(|i| (a.col_idx[i], a.values[i]))
                        .collect();
                    assert_eq!(row, vec![(d, 1.0)], "row {d}");
                }
            }
        });
    }
}
