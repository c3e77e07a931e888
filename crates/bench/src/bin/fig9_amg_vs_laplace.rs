//! Fig. 9 — AMG preconditioner scaling: variable-viscosity FEM Poisson
//! on an adapted octree mesh vs. a 7-point Laplacian on a regular grid.
//!
//! Paper: one AMG setup + 160 V-cycles per data point, ~50K
//! elements/core; the simple Laplace stencil runs faster in absolute
//! terms but shows the *same* scaling behaviour as the harder
//! variable-viscosity adapted-mesh Poisson — hence AMG itself, not the
//! FEM/adaptivity machinery, sets the scaling limit.
//!
//! Here: both operators are assembled for real at a ladder of sizes and
//! setup + 160 V-cycles are timed on the host, serially. The paper's
//! weak-scaling curves to 16,384 cores are not reproduced.

use la::{Amg, AmgOptions, Csr};
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use rhea_bench::{banner, human, Table};
use scomm::spmd;

/// 7-point Laplacian on an n³ regular grid.
fn laplace_7pt(n: usize) -> Csr {
    let id = |i: usize, j: usize, k: usize| i + n * (j + n * k);
    let mut t = Vec::new();
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let c = id(i, j, k);
                let mut diag = 6.0;
                let mut nb = |ii: i64, jj: i64, kk: i64| {
                    if ii >= 0
                        && jj >= 0
                        && kk >= 0
                        && ii < n as i64
                        && jj < n as i64
                        && kk < n as i64
                    {
                        t.push((c, id(ii as usize, jj as usize, kk as usize), -1.0));
                    } else {
                        diag += 0.0; // Dirichlet truncation keeps diag 6
                    }
                };
                nb(i as i64 - 1, j as i64, k as i64);
                nb(i as i64 + 1, j as i64, k as i64);
                nb(i as i64, j as i64 - 1, k as i64);
                nb(i as i64, j as i64 + 1, k as i64);
                nb(i as i64, j as i64, k as i64 - 1);
                nb(i as i64, j as i64, k as i64 + 1);
                t.push((c, c, diag));
            }
        }
    }
    Csr::from_triplets(n * n * n, n * n * n, &t)
}

/// Variable-viscosity FEM Poisson owned block on an adapted mesh.
fn adapted_poisson(level: u8) -> Csr {
    let out = spmd::run(1, move |c| {
        let mut t = DistOctree::new_uniform(c, level);
        t.refine(|o| o.center_unit()[0] < 0.4);
        t.balance(BalanceKind::Full);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = fem::op::DofMap::new(&m, c, 1);
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
    });
    out.into_iter().next().unwrap()
}

fn time_amg(a: Csr) -> (usize, f64, f64, usize) {
    let n = a.nrows;
    let t0 = std::time::Instant::now();
    let amg = Amg::new(a, AmgOptions::default());
    let setup = t0.elapsed().as_secs_f64();
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    let t1 = std::time::Instant::now();
    for _ in 0..160 {
        amg.vcycle(&b, &mut x);
    }
    let cycles = t1.elapsed().as_secs_f64();
    (n, setup, cycles, amg.num_levels())
}

fn main() {
    banner(
        "Figure 9",
        "AMG setup + 160 V-cycles: variable-viscosity FEM Poisson vs 7-point Laplace",
    );
    let mut table = Table::new(&[
        "operator",
        "n (dofs)",
        "levels",
        "setup s",
        "160 V-cycles s",
        "total s",
    ]);
    for level in [2u8, 3] {
        let (n, s, v, l) = time_amg(adapted_poisson(level));
        table.row(&[
            "adapted FEM Poisson".into(),
            human(n as u64),
            l.to_string(),
            format!("{s:.3}"),
            format!("{v:.3}"),
            format!("{:.3}", s + v),
        ]);
    }
    for n1 in [12usize, 20] {
        let (n, s, v, l) = time_amg(laplace_7pt(n1));
        table.row(&[
            "7-point Laplace".into(),
            human(n as u64),
            l.to_string(),
            format!("{s:.3}"),
            format!("{v:.3}"),
            format!("{:.3}", s + v),
        ]);
    }
    table.print();

    println!();
    println!(
        "paper, not reproduced at this scale: from 1 to 16,384 cores the Laplace curve\n\
         sits below the variable-viscosity FEM curve by a roughly constant factor and\n\
         both grow together — AMG communication, not the operator, limits scaling.\n\
         The rows above are serial; no multi-rank AMG run was timed."
    );
}
