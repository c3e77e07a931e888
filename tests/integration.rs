//! Cross-crate integration tests: each exercises a full vertical slice
//! of the system (octree → mesh → discretization → solver → physics).

use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::mark::MarkParams;
use octree::parallel::DistOctree;
use rhea::adapt::{adapt_mesh_ws, AdaptWorkspace};
use scomm::spmd;

/// The complete Fig. 4 adaptation cycle repeated several times with a
/// moving feature, checking mesh validity and field integrity throughout.
#[test]
fn repeated_adaptation_cycles_stay_valid() {
    spmd::run(3, |c| {
        let mut tree = DistOctree::new_uniform(c, 3);
        let mut mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
        // A linear field must survive arbitrarily many transfers exactly.
        let f = |p: [f64; 3]| 2.0 * p[0] - p[1] + 0.5 * p[2];
        let mut field: Vec<f64> = (0..mesh.n_owned).map(|d| f(mesh.dof_coords(d))).collect();
        let rec = obs::Recorder::new(c.rank());
        for cycle in 0..4 {
            // Feature moves along x over the cycles.
            let x0 = 0.2 + 0.2 * cycle as f64;
            let ind: Vec<f64> = mesh
                .elements
                .iter()
                .map(|o| {
                    let ctr = o.center_unit();
                    (-(ctr[0] - x0).powi(2) * 60.0).exp()
                })
                .collect();
            let params = rhea::adapt::AdaptParams {
                target_elements: 900,
                max_level: 6,
                min_level: 1,
                ..Default::default()
            };
            let mut ws = AdaptWorkspace::new();
            let (nm, mut nf, _) =
                adapt_mesh_ws(&mut tree, &mesh, &[field], &ind, &params, &rec, &mut ws);
            mesh = nm;
            field = nf.remove(0);
            assert!(tree.validate(), "cycle {cycle}");
            for d in 0..mesh.n_owned {
                let expect = f(mesh.dof_coords(d));
                assert!(
                    (field[d] - expect).abs() < 1e-9,
                    "cycle {cycle}, dof {d}: {} vs {expect}",
                    field[d]
                );
            }
        }
    });
}

/// Stokes + transport coupling on an adapted mesh: a full convection
/// step sequence conserves temperature bounds and produces flow.
#[test]
fn coupled_convection_on_adapted_mesh() {
    spmd::run(2, |c| {
        let params = rhea::convection::ConvectionParams {
            rayleigh: 1e5,
            adapt_every: 2,
            adapt: rhea::adapt::AdaptParams {
                target_elements: 700,
                max_level: 4,
                min_level: 1,
                ..Default::default()
            },
            stokes: stokes::StokesOptions {
                tol: 1e-5,
                max_iter: 250,
                ..Default::default()
            },
            picard_steps: 1,
            ..Default::default()
        };
        let mut sim = rhea::convection::ConvectionSim::new(c, 2, params);
        let law = rhea::rheology::ArrheniusLaw::default();
        let mut v_rms_last = 0.0;
        for _ in 0..4 {
            let rep = sim.step(&law);
            assert!(rep.t_min > -0.1 && rep.t_max < 1.1, "{rep:?}");
            v_rms_last = rep.v_rms;
        }
        assert!(v_rms_last > 0.0, "convection must drive flow");
    });
}

/// MarkElements keeps a global target across rank counts, and the
/// adapted tree re-partitions to an even load.
#[test]
fn mark_balance_partition_interplay() {
    for ranks in [1usize, 2, 4] {
        spmd::run(ranks, move |c| {
            let mut tree = DistOctree::new_uniform(c, 3);
            let ind: Vec<f64> = tree
                .local
                .iter()
                .map(|o| {
                    let ctr = o.center_unit();
                    ((ctr[0] - 0.5).powi(2) + (ctr[1] - 0.5).powi(2)).sqrt()
                })
                .collect();
            let params = MarkParams {
                target_elements: 1200,
                ..Default::default()
            };
            tree.adapt_to_target(&ind, &params);
            tree.balance(BalanceKind::Full);
            tree.partition();
            assert!(tree.validate());
            let n = tree.global_count();
            assert!(
                (n as f64 - 1200.0).abs() / 1200.0 < 0.4,
                "ranks={ranks}: {n} vs target 1200"
            );
            let share = n / ranks as u64;
            let local = tree.local.len() as u64;
            assert!(
                local >= share.saturating_sub(1) && local <= share + 1,
                "ranks={ranks}: local {local}, share {share}"
            );
        });
    }
}

/// The Stokes solver on a mesh with hanging nodes converges and its
/// iteration count stays in the same band as on a uniform mesh
/// (the essence of the paper's Fig. 2 claim under adaptivity).
#[test]
fn stokes_iterations_stable_under_adaptivity() {
    let iters: Vec<usize> = [false, true]
        .iter()
        .map(|&adapt| {
            let out = spmd::run(2, move |c| {
                let mut t = DistOctree::new_uniform(c, 2);
                if adapt {
                    t.refine(|o| o.center_unit()[2] > 0.6);
                    t.balance(BalanceKind::Full);
                    t.partition();
                }
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let n = m.n_owned;
                let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
                let visc: Vec<f64> = m
                    .elements
                    .iter()
                    .map(|o| if o.center_unit()[2] > 0.5 { 1e3 } else { 1.0 })
                    .collect();
                let mut s = stokes::StokesSolver::new(
                    &m,
                    c,
                    visc,
                    bc,
                    stokes::StokesOptions {
                        tol: 1e-7,
                        max_iter: 400,
                        ..Default::default()
                    },
                );
                let (rhs, mut x) = s.build_rhs(|p| [0.0, 0.0, (2.0 * p[0]).sin()], |_| [0.0; 3]);
                let info = s.solve(&rhs, &mut x);
                assert!(info.converged);
                info.iterations
            });
            out[0]
        })
        .collect();
    assert!(
        iters[1] <= 3 * iters[0] + 20,
        "hanging nodes must not blow up the solver: uniform {} vs adapted {}",
        iters[0],
        iters[1]
    );
}

/// DG on a forest coexists with the FEM stack: advect on a brick forest
/// while the same octree logic drives a Cartesian FEM mesh.
#[test]
fn dg_and_fem_share_octree_infrastructure() {
    use forest::{Connectivity, Forest};
    use std::sync::Arc;
    let conn = Arc::new(Connectivity::brick(2, 1, 1));
    spmd::run(2, |c| {
        let forest = Forest::new_uniform(c, conn.clone(), 2);
        let mut dg = mangll::advection::DgAdvection::new(
            &forest,
            mangll::advection::DgParams {
                order: 2,
                cfl: 0.3,
                ..Default::default()
            },
            |p| (-((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2)) / 0.02).exp(),
            |_| [1.0, 0.0, 0.0],
        );
        let dt = dg.stable_dt();
        for _ in 0..5 {
            dg.step(dt);
        }
        let mass = dg.total_mass();
        assert!(mass.is_finite() && mass > 0.0);

        // FEM side on a plain octree: level-2 uniform = 4³ elements,
        // (4+1)³ = 125 global nodes (domain scaling changes geometry,
        // not connectivity).
        let t = DistOctree::new_uniform(c, 2);
        let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
        assert_eq!(m.n_global, 125);
    });
}

/// Differential P-vs-1 run of one full rhea AMR + Stokes-solve cycle:
/// the refined tree must be bitwise identical at P=1 and P=4, and the
/// MINRES residual history must match under the band contract that an
/// AMG aggregating within ranks actually guarantees (same initial
/// residual to the percent level, convergence at both rank counts,
/// iteration counts in a narrow band — the paper's Fig. 2 claim).
#[test]
fn rhea_amr_solve_cycle_is_rank_count_independent() {
    // (refined, elements_after, packed global leaves, residual series)
    type RunResult = (u64, u64, Vec<u64>, Vec<f64>);
    let run_at = |p: usize| -> RunResult {
        let mut out = spmd::run(p, |c| {
            let rec = obs::Recorder::new(c.rank());
            c.set_recorder(rec.clone());
            let mut tree = DistOctree::new_uniform(c, 2);
            let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            // Seeded, rank-independent indicator: a Gaussian blob.
            let ind: Vec<f64> = mesh
                .elements
                .iter()
                .map(|o| {
                    let ctr = o.center_unit();
                    (-((ctr[0] - 0.3).powi(2) + (ctr[1] - 0.6).powi(2)) * 40.0).exp()
                })
                .collect();
            let t: Vec<f64> = (0..mesh.n_owned).map(|d| mesh.dof_coords(d)[0]).collect();
            let params = rhea::adapt::AdaptParams {
                target_elements: 400,
                max_level: 4,
                // Pin the floor at the seed level and disable coarsening:
                // family coarsening is partition-local, hence legitimately
                // P-dependent; everything else in the cycle is not.
                min_level: 2,
                coarsen_ratio: 0.0,
                ..Default::default()
            };
            let mut ws = AdaptWorkspace::new();
            let (new_mesh, _fields, report) =
                adapt_mesh_ws(&mut tree, &mesh, &[t], &ind, &params, &rec, &mut ws);
            let n = new_mesh.n_owned;
            let bc: Vec<bool> = (0..3 * n)
                .map(|i| new_mesh.dof_on_boundary(i / 3))
                .collect();
            let visc: Vec<f64> = new_mesh
                .elements
                .iter()
                .map(|o| if o.center_unit()[2] > 0.5 { 1e2 } else { 1.0 })
                .collect();
            let mut s = stokes::StokesSolver::new(
                &new_mesh,
                c,
                visc,
                bc,
                stokes::StokesOptions {
                    tol: 1e-6,
                    max_iter: 300,
                    ..Default::default()
                },
            );
            let (rhs, mut x) = s.build_rhs(|q| [0.0, 0.0, (2.0 * q[0]).sin()], |_| [0.0; 3]);
            let info = s.solve(&rhs, &mut x);
            assert!(info.converged, "P={}: solve must converge", c.size());
            // Pack the global leaf set (key, level) in rank order.
            let mut packed = Vec::with_capacity(2 * tree.local.len());
            for o in &tree.local {
                packed.push(o.key());
                packed.push(o.level() as u64);
            }
            let leaves = c.allgatherv(&packed);
            let series = rec
                .profile()
                .series
                .get("minres.residual")
                .cloned()
                .unwrap_or_default();
            (report.refined, report.elements_after, leaves, series)
        });
        out.swap_remove(0) // globals agree on every rank; take rank 0's
    };
    let (ref1, after1, leaves1, series1) = run_at(1);
    let (ref4, after4, leaves4, series4) = run_at(4);
    assert!(ref1 > 0, "fixture must actually refine");
    assert_eq!(ref1, ref4, "refined leaf counts must match");
    assert_eq!(after1, after4, "global element counts must match");
    assert_eq!(leaves1, leaves4, "global leaf sets must be identical");
    assert!(!series1.is_empty() && !series4.is_empty());
    let (i1, i4) = (series1.len() as f64, series4.len() as f64);
    assert!(
        i1.max(i4) <= 1.5 * i1.min(i4) + 5.0,
        "MINRES iteration counts must stay in a band: {i1} vs {i4}"
    );
    assert!(
        (series1[0] - series4[0]).abs() <= 0.05 * series1[0].abs(),
        "initial residuals must agree to the percent level: {} vs {}",
        series1[0],
        series4[0]
    );
}

/// The Fig. 4 loop through the layer crates' public API: mark → adapt →
/// balance → interpolate → partition → transfer → extract → unpack.
#[test]
fn facade_pipeline_end_to_end() {
    use mesh::interp::{transfer_corner_values_into, unpack_corner_values};
    use octree::parallel::transfer_fields;
    spmd::run(2, |comm| {
        let mut tree = DistOctree::new_uniform(comm, 2);
        let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
        let field: Vec<f64> = (0..mesh.n_owned).map(|d| mesh.dof_coords(d)[0]).collect();
        let ind: Vec<f64> = tree
            .local
            .iter()
            .map(|o| (1.0 - o.center_unit()[0]).max(0.0))
            .collect();
        let params = MarkParams {
            target_elements: 200,
            ..Default::default()
        };
        tree.adapt_to_target(&ind, &params);
        tree.balance(BalanceKind::Full);
        let mut old_local = vec![0.0; mesh.n_local()];
        old_local[..mesh.n_owned].copy_from_slice(&field);
        mesh.exchange.exchange(comm, &mut old_local, mesh.n_owned);
        let mut corners = Vec::new();
        transfer_corner_values_into(&mesh, &old_local, &tree.local, &mut corners);
        assert_eq!(corners.len(), 8 * tree.local.len());
        let plan = tree.partition();
        let moved = transfer_fields(comm, &plan, &corners, 8);
        assert!(tree.validate());
        let fin = extract_mesh(&tree, [1.0, 1.0, 1.0]);
        let carried = unpack_corner_values(&fin, &moved);
        for d in 0..fin.n_owned {
            assert!((carried[d] - fin.dof_coords(d)[0]).abs() < 1e-12);
        }
    });
}
