//! Assembly of the rank-local *owned rows* of a distributed FEM matrix.
//!
//! The AMG preconditioner (DESIGN.md substitution #2) needs, on each rank,
//! the exact rows of the global matrix it owns, with every column they
//! couple to: `R_r A`, numbered as [`la::DistCsr`] numbers it. Every rank
//! assembles all contributions of its own elements — including those
//! landing in rows owned by neighbors — and [`la::OwnedRows`] ships the
//! foreign-row triplets `(row gid, col gid, value)` to their owners in a
//! single `alltoallv`, as it does for every Galerkin level of the AMG.
//! A column another rank owns becomes a ghost column; that may be a dof
//! no local element touches, when the coupling came from a neighbour's
//! element.
//!
//! Summation order (DESIGN.md §7): entry `(r, c)` is the sum of its
//! contributions from the local elements in element order — within an
//! element in `(ci, cj, a, b, row term, column term)` order — and then of
//! the received foreign-row terms in delivery (rank) order. Masked rows
//! and columns are eliminated after summation ([`Csr::eliminate`]), so
//! `assemble_owned_block(map, src, Some(m))` equals the owned columns of
//! `assemble_owned_sum(map, src)`, eliminated by `m`, bit for bit, and an
//! operator that needs several masks ([`la::Amg::coupled`]) assembles
//! once.

use crate::op::DofMap;
use la::{Csr, DistCsr, OwnedRows};
use mesh::extract::{Corner, Mesh};

/// Source of element matrices for assembly.
pub type ElementMatrixSource<'a> = dyn Fn(usize, &mut [f64]) + 'a;

/// `f` on the corner expansions of element `e`: per corner, its
/// `(local dof, weight)` terms — a plain dof is one unit-weight term in a
/// stack slot, a hanging corner its constraint row in place.
#[inline]
fn with_expansions<R>(mesh: &Mesh, e: usize, f: impl FnOnce(&[&[(usize, f64)]; 8]) -> R) -> R {
    let corners: [Corner; 8] = std::array::from_fn(|c| mesh.corner(e, c));
    let plain: [(usize, f64); 8] = std::array::from_fn(|c| match corners[c] {
        Corner::Dof(d) => (d, 1.0),
        Corner::Hanging(_) => (usize::MAX, 0.0),
    });
    let expansions: [&[(usize, f64)]; 8] = std::array::from_fn(|c| match corners[c] {
        Corner::Dof(_) => std::slice::from_ref(&plain[c]),
        Corner::Hanging(r) => mesh.constraint_row(r),
    });
    f(&expansions)
}

/// Visit every nonzero raw term of element `e`'s matrix `mat` (row-major,
/// `8·nc` square) in assembly order: `(ci, cj, a, b)`, then the row
/// corner's constraint terms, then the column corner's. Each call gets
/// the local dofs `(di, dj)`, the components `(a, b)` and the weighted
/// value.
#[inline]
fn for_each_term(
    mesh: &Mesh,
    e: usize,
    nc: usize,
    mat: &[f64],
    mut f: impl FnMut(usize, usize, usize, usize, f64),
) {
    let dim = 8 * nc;
    with_expansions(mesh, e, |expansions| {
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
                                f(di, dj, a, b, wi * wj * v);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Assemble the owned-block CSR (`n_owned·ncomp` square: the owned rows
/// of [`assemble_owned_sum`] restricted to their owned columns) of the
/// operator given by `elem_matrix`, with symmetric Dirichlet elimination
/// for `bc_mask` (identity rows/columns). An absent or zero diagonal
/// becomes `1.0`. Collective.
pub fn assemble_owned_block(
    map: &DofMap,
    elem_matrix: &ElementMatrixSource,
    bc_mask: Option<&[bool]>,
) -> Csr {
    let rows = assemble_owned_sum(map, elem_matrix).a;
    let block = if rows.ncols == rows.nrows {
        rows
    } else {
        let n = rows.nrows;
        let kept =
            |r: usize| (rows.row_ptr[r]..rows.row_ptr[r + 1]).filter(|&k| rows.col_idx[k] < n);
        let terms = (0..n).map(|r| kept(r).count()).sum();
        let owned = |r: usize| kept(r).map(|k| (rows.col_idx[k] as u32, rows.values[k]));
        Csr::from_row_terms(n, n, terms, owned)
    };
    match bc_mask {
        Some(mask) => block.eliminate(mask),
        None => block.eliminate(&vec![false; block.nrows]),
    }
}

/// The owned rows before any elimination, with every column they couple
/// to (owned, then ghost, as [`DistCsr`] numbers them): each entry the
/// sum of its terms in the order of the module documentation, a zero or
/// absent diagonal as it comes. Collective.
///
/// No global triplet list, and each element matrix is evaluated once. A
/// first pass bounds each owned row's raw terms from the corner
/// expansions alone (it counts the zero element entries the second pass
/// skips). The second evaluates every element, places its owned-row
/// terms in element order into one arena with that much room per row,
/// columns by local dof, and lists the foreign-row ones for their owners
/// (the mesh's rank offsets name them). [`OwnedRows::sum`] ships those
/// and sums each row; the ghost columns are every ghost dof of an element
/// with an owned dof and the received terms' other columns, so a ghost
/// column may hold no entry.
pub fn assemble_owned_sum(map: &DofMap, elem_matrix: &ElementMatrixSource) -> DistCsr {
    let mesh = map.mesh;
    let comm = map.comm;
    let nc = map.ncomp;
    let n_owned = mesh.n_owned;
    let n = n_owned * nc;
    let offset = mesh.global_offset;
    assert!(
        mesh.n_local() * nc <= u32::MAX as usize,
        "local columns must fit in u32"
    );

    // gid of a local dof index (owned or ghost), and its owner rank.
    let gid_of = |d: usize| -> u64 {
        if d < n_owned {
            offset + d as u64
        } else {
            mesh.ghost_gids[d - n_owned]
        }
    };
    let owner_of_gid = |g: u64| -> usize { mesh.offsets.partition_point(|&o| o <= g) - 1 };

    // Pass one: room for each owned row's terms, and the foreign terms
    // bound for each rank. Row `(di, a)` gets `nc` terms per dof of every
    // corner's expansion. A ghost dof of an element that has an owned one
    // is a ghost column.
    let mut row_ptr = vec![0usize; n + 1];
    let mut foreign = vec![0usize; comm.size()];
    let mut reached = vec![false; mesh.n_ghost];
    for e in 0..mesh.elements.len() {
        with_expansions(mesh, e, |expansions| {
            let all: usize = expansions.iter().map(|x| x.len()).sum();
            let mut owns = false;
            for &(di, _) in expansions.iter().copied().flatten() {
                if di < n_owned {
                    owns = true;
                    for a in 0..nc {
                        row_ptr[di * nc + a + 1] += nc * all;
                    }
                } else {
                    foreign[owner_of_gid(gid_of(di))] += nc * nc * all;
                }
            }
            if owns && !reached.is_empty() {
                for &(dj, _) in expansions.iter().copied().flatten() {
                    if dj >= n_owned {
                        reached[dj - n_owned] = true;
                    }
                }
            }
        });
    }
    for r in 0..n {
        row_ptr[r + 1] += row_ptr[r];
    }

    // Pass two: place the owned-row terms, columns by local dof; list the
    // foreign ones for their owners.
    let mut rows = OwnedRows::default();
    rows.ship = foreign.iter().map(|&k| Vec::with_capacity(k)).collect();
    let mut mat = vec![0.0; 64 * nc * nc];
    let mut cols = vec![0u32; row_ptr[n]];
    let mut vals = vec![0.0; row_ptr[n]];
    let mut end = row_ptr[..n].to_vec();
    for e in 0..mesh.elements.len() {
        elem_matrix(e, &mut mat);
        for_each_term(mesh, e, nc, &mat, |di, dj, a, b, val| {
            if di < n_owned {
                let (row, at) = (di * nc + a, &mut end[di * nc + a]);
                debug_assert!(*at < row_ptr[row + 1]);
                cols[*at] = (dj * nc + b) as u32;
                vals[*at] = val;
                *at += 1;
            } else {
                rows.ship[owner_of_gid(gid_of(di))].push((
                    gid_of(di) * nc as u64 + a as u64,
                    gid_of(dj) * nc as u64 + b as u64,
                    val,
                ));
            }
        });
    }
    let local_gid = |col: u32| {
        let (d, b) = (col as usize / nc, col as usize % nc);
        gid_of(d) * nc as u64 + b as u64
    };
    let reached = (0..reached.len()).filter(|&k| reached[k]);
    let reached = reached.flat_map(|k| (0..nc).map(move |b| ((n_owned + k) * nc + b) as u32));
    let local = |r: usize| {
        let k = row_ptr[r]..end[r];
        cols[k.clone()].iter().copied().zip(vals[k].iter().copied())
    };
    let terms = (0..n).map(|r| end[r] - row_ptr[r]).sum();
    let first = offset * nc as u64;
    let owned = (first, n, terms);
    let (a, ghosts) = rows.assemble(Some(comm), owned, local, local_gid, reached.map(local_gid));
    DistCsr {
        a,
        first_row: first,
        offsets: mesh.offsets.iter().map(|&o| o * nc as u64).collect(),
        ghosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{stiffness_source, LevelBlocks};
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
            let blocks = LevelBlocks::new(&m);
            let src = stiffness_source(&m, &blocks, |_| 2.0);
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
            let blocks = LevelBlocks::new(&m);
            let src = stiffness_source(&m, &blocks, |_| 1.0);
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

    /// The owned block against a dense `n × n` accumulation of the same
    /// contributions — local elements in element order, each element's
    /// nonzero entries in `(ci, cj, a, b)` order expanded through the
    /// hanging corners' constraint rows — bit for bit, unmasked and masked,
    /// for a scalar and a three-component operator on an adapted mesh with
    /// hanging nodes at P = 1.
    #[test]
    fn owned_block_matches_dense_element_order_accumulation() {
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
            t.balance(BalanceKind::Full);
            let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
            assert!(m.n_hanging() > 0);
            let eta = |e: usize| 1.0 + (e * 7919 % 13) as f64 / 3.0;
            let blocks = LevelBlocks::new(&m);
            let scalar = stiffness_source(&m, &blocks, eta);
            let vector = |e: usize, out: &mut [f64]| {
                let k = &blocks.of(&m, e).viscous;
                for (row, k) in out.chunks_exact_mut(24).zip(k) {
                    for (o, v) in row.iter_mut().zip(k) {
                        *o = eta(e) * v;
                    }
                }
            };
            let sources: [(usize, &ElementMatrixSource); 2] = [(1, &scalar), (3, &vector)];
            for (nc, src) in sources {
                let map = DofMap::new(&m, c, nc);
                let n = m.n_owned * nc;
                let dim = 8 * nc;
                // `None` until the first contribution lands.
                let mut dense: Vec<Option<f64>> = vec![None; n * n];
                let mut mat = vec![0.0; dim * dim];
                for e in 0..m.elements.len() {
                    src(e, &mut mat);
                    let terms = |k: usize| -> Vec<(usize, f64)> {
                        match m.corner(e, k) {
                            Corner::Dof(d) => vec![(d, 1.0)],
                            Corner::Hanging(r) => m.constraint_row(r).to_vec(),
                        }
                    };
                    for ci in 0..8 {
                        for cj in 0..8 {
                            for a in 0..nc {
                                for b in 0..nc {
                                    let v = mat[(ci * nc + a) * dim + cj * nc + b];
                                    if v == 0.0 {
                                        continue;
                                    }
                                    for (di, wi) in terms(ci) {
                                        for (dj, wj) in terms(cj) {
                                            let cell = &mut dense[(di * nc + a) * n + dj * nc + b];
                                            let x = wi * wj * v;
                                            *cell = Some(cell.map_or(x, |s| s + x));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                let mask: Vec<bool> = (0..n).map(|i| m.dof_on_boundary(i / nc)).collect();
                for bc in [None, Some(&mask[..])] {
                    let masked = |i: usize| bc.is_some_and(|bc| bc[i]);
                    let a = assemble_owned_block(&map, src, bc);
                    assert_eq!((a.nrows, a.ncols), (n, n));
                    for r in 0..n {
                        let mut want: Vec<(usize, u64)> = Vec::new();
                        for col in 0..n {
                            let entry = if masked(r) {
                                (col == r).then_some(1.0)
                            } else if masked(col) {
                                None
                            } else if col == r {
                                Some(dense[r * n + col].filter(|&v| v != 0.0).unwrap_or(1.0))
                            } else {
                                dense[r * n + col]
                            };
                            if let Some(v) = entry {
                                want.push((col, v.to_bits()));
                            }
                        }
                        let got: Vec<(usize, u64)> = (a.row_ptr[r]..a.row_ptr[r + 1])
                            .map(|k| (a.col_idx[k], a.values[k].to_bits()))
                            .collect();
                        assert_eq!(got, want, "nc = {nc}, mask = {}, row {r}", bc.is_some());
                    }
                }
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
            let blocks = LevelBlocks::new(&m);
            let src = stiffness_source(&m, &blocks, |_| 1.0);
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

    #[test]
    fn owned_sum_gathers_nothing() {
        // The owners of foreign rows come from the mesh's rank offsets:
        // the assembly's one collective is the all-to-all that ships
        // them, and a rank alone runs none.
        for p in [1, 2, 4] {
            spmd::run(p, move |c| {
                let mut t = DistOctree::new_uniform(c, 2);
                t.refine(|o| o.center_unit()[2] > 0.6);
                t.balance(BalanceKind::Full);
                t.partition();
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let blocks = LevelBlocks::new(&m);
                let src = stiffness_source(&m, &blocks, |_| 1.0);
                let map = DofMap::new(&m, c, 1);
                let s0 = c.stats();
                let rows = assemble_owned_sum(&map, &src);
                let s1 = c.stats();
                let want = u64::from(p > 1);
                assert_eq!(s1.collectives() - s0.collectives(), want, "P = {p}");
                assert_eq!(s1.alltoalls - s0.alltoalls, want, "P = {p}");
                assert_eq!(rows.offsets, m.offsets);
            });
        }
    }
}
