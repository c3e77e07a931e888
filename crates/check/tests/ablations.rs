//! The two design ablations of DESIGN.md §4 as asserted, deterministic
//! counts: what the Morton curve buys the partition, and what the AMG
//! V-cycle buys the Krylov solver under a viscosity jump.

use la::{cg, Amg, AmgOptions};
use mesh::extract::extract_mesh;
use octree::balance::{balance_local, BalanceKind};
use octree::ops::{find_containing, new_tree, refine};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};
use scomm::spmd;

/// Pairs of adjacent leaves (full face/edge/corner neighborhood, the
/// nodal ghost layer) placed in different parts — the communication
/// surface a partition induces.
fn adjacency_cut(leaves: &[Octant], part_of: impl Fn(usize) -> usize) -> usize {
    let mut cut = 0;
    for (i, o) in leaves.iter().enumerate() {
        for (dx, dy, dz) in Octant::neighbor_directions() {
            if let Some(n) = o.neighbor(dx, dy, dz) {
                if let Some(j) = find_containing(leaves, &n) {
                    if part_of(i) != part_of(j) {
                        cut += 1;
                    }
                }
            }
        }
    }
    cut / 2
}

#[test]
fn morton_partition_cuts_fewer_faces_than_random_blocks() {
    // A balanced tree refined five levels toward the domain center.
    let target = Octant::new(
        ROOT_LEN / 2 - 1,
        ROOT_LEN / 2 - 1,
        ROOT_LEN / 2 - 1,
        MAX_LEVEL,
    );
    let mut leaves = new_tree(1);
    for _ in 1..5 {
        refine(&mut leaves, |o| o.contains(&target));
    }
    balance_local(&mut leaves);
    let n = leaves.len();
    let parts = 8;

    // Morton partition: contiguous segments of the (sorted) curve.
    let morton_cut = adjacency_cut(&leaves, |i| i * parts / n);

    // Locality-blind partition: equal blocks of a seeded shuffle.
    let mut shuffled: Vec<usize> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut block_of = vec![0; n];
    for (pos, &leaf) in shuffled.iter().enumerate() {
        block_of[leaf] = pos * parts / n;
    }
    let random_cut = adjacency_cut(&leaves, |i| block_of[i]);

    assert_eq!(
        (n, morton_cut, random_cut),
        (183, 895, 1634),
        "leaves, Morton cut, random-block cut"
    );
    // EXPERIMENTS.md quotes 1.8× more communication surface.
    assert!(random_cut as f64 / morton_cut as f64 > 1.8);
}

#[test]
fn amg_beats_jacobi_on_viscosity_jump() {
    // FE-assembled η-weighted Poisson block on a level-3 adapted mesh
    // with a 10⁴ viscosity jump across z = 0.5.
    let a = spmd::run(1, |comm| {
        let mut t = DistOctree::new_uniform(comm, 3);
        t.refine(|o| o.center_unit()[0] < 0.4);
        t.balance(BalanceKind::Full);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = fem::op::DofMap::new(&m, comm, 1);
        let mref = &m;
        let src = move |e: usize, out: &mut [f64]| {
            let eta = if mref.elements[e].center_unit()[2] > 0.5 {
                1e4
            } else {
                1.0
            };
            let k = fem::element::stiffness_matrix(mref.element_size(e), eta);
            for i in 0..8 {
                for j in 0..8 {
                    out[i * 8 + j] = k[i][j];
                }
            }
        };
        let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
        fem::assembly::assemble_owned_block(&map, &src, Some(&bc))
    })
    .remove(0);
    let n = a.nrows;
    let d = a.diagonal();
    let jacobi = (n, move |x: &[f64], y: &mut [f64]| {
        for i in 0..x.len() {
            y[i] = x[i] / d[i];
        }
    });
    let b = vec![1.0; n];
    let dot = la::krylov::euclidean_dot;

    let amg = Amg::new(a.clone(), AmgOptions::default());

    let mut x = vec![0.0; n];
    let with_amg = cg(&a, Some(&amg), &b, &mut x, 1e-8, 2000, dot);
    x.fill(0.0);
    let with_jacobi = cg(&a, Some(&jacobi), &b, &mut x, 1e-8, 2000, dot);

    assert!(with_amg.converged && with_jacobi.converged);
    assert_eq!(
        (n, with_amg.iterations, with_jacobi.iterations),
        (2220, 5, 30),
        "unknowns, CG+AMG iterations, CG+Jacobi iterations"
    );
}
