//! The two design ablations of DESIGN.md §10 as asserted, deterministic
//! counts: what the Morton curve buys the partition, and what the AMG
//! V-cycle buys the Krylov solver under a viscosity jump.

use la::{cg, Amg, AmgOptions, Csr};
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

/// FE-assembled η-weighted Poisson block on a level-3 adapted mesh with
/// a 10⁴ viscosity jump across z = 0.5 and Dirichlet rows on the whole
/// boundary — the matrix the Stokes preconditioner hands to AMG.
fn viscosity_jump_block() -> Csr {
    spmd::run(1, |comm| {
        let mut t = DistOctree::new_uniform(comm, 3);
        t.refine(|o| o.center_unit()[0] < 0.4);
        t.balance(BalanceKind::Full);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = fem::op::DofMap::new(&m, comm, 1);
        let eta = |e: usize| {
            if m.elements[e].center_unit()[2] > 0.5 {
                1e4
            } else {
                1.0
            }
        };
        let blocks = fem::element::LevelBlocks::new(&m);
        let src = fem::element::stiffness_source(&m, &blocks, eta);
        let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
        fem::assembly::assemble_owned_block(&map, &src, Some(&bc))
    })
    .remove(0)
}

#[test]
fn amg_beats_jacobi_on_viscosity_jump() {
    let a = viscosity_jump_block();
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
        (2220, 8, 30),
        "unknowns, CG+AMG iterations, CG+Jacobi iterations (AMG was 5 when the \
         hierarchy kept two thirds of the rows on level 1 at operator complexity \
         > 7; one more iteration is the price of a hierarchy that coarsens; two \
         more, 6 -> 8, that of one forward Gauss-Seidel pass before the coarse \
         correction and one backward pass after, instead of a symmetric sweep on \
         each side, which costs 3 fine-level passes per V-cycle instead of 5)"
    );
}

#[test]
fn amg_coarsens_the_trilinear_stencil() {
    // On a uniform patch the assembled trilinear stencil has 0 on the
    // axis neighbours and 1/16, 1/32 of the diagonal on the edge and
    // corner neighbours; the boundary rows are identities.
    let a = viscosity_jump_block();
    let n = a.nrows;
    let options = AmgOptions::default();
    let amg = Amg::new(a, options);
    let sizes = amg.level_sizes();
    let oc = amg.operator_complexity();
    assert!(oc < 1.5, "operator complexity {oc}, levels {sizes:?}");
    let &(coarsest_rows, _) = sizes.last().unwrap();
    assert!(coarsest_rows <= options.max_coarse, "levels {sizes:?}");
    let per_row = |&(rows, nnz): &(usize, usize)| nnz as f64 / rows as f64;
    for level in &sizes {
        assert!(
            per_row(level) <= 3.0 * per_row(&sizes[0]),
            "levels {sizes:?}"
        );
    }

    // ⟨Bu, v⟩ = ⟨u, Bv⟩: MINRES and CG need a symmetric preconditioner.
    let u: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let v: Vec<f64> = (0..n)
        .map(|i| ((i * 40503) % 997) as f64 / 997.0 - 0.3)
        .collect();
    let (mut bu, mut bv) = (vec![0.0; n], vec![0.0; n]);
    amg.vcycle(&u, &mut bu);
    amg.vcycle(&v, &mut bv);
    let dot = la::krylov::euclidean_dot;
    let (lhs, rhs) = (dot(&bu, &v), dot(&u, &bv));
    assert!(
        (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
        "V-cycle not symmetric: {lhs} vs {rhs}"
    );
}

#[test]
fn amg_on_identity_rows_only_is_one_exact_level() {
    // Every row isolated: no aggregate forms, so set-up must stop at the
    // fine level (not loop), and above `max_coarse` rows that level is
    // solved by sweeps, which are exact on a diagonal matrix.
    let n = 4 * AmgOptions::default().max_coarse;
    let diag: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0 + i as f64)).collect();
    let amg = Amg::new(Csr::from_triplets(n, n, &diag), AmgOptions::default());
    assert_eq!(amg.num_levels(), 1);
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut x = vec![0.0; n];
    amg.vcycle(&b, &mut x);
    for i in 0..n {
        assert_eq!(x[i], b[i] / (1.0 + i as f64), "row {i}");
    }
}
