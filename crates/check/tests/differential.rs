//! P-vs-1 differential tests: the same seeded problem run at several
//! rank counts must produce the identical global leaf set and node-key
//! set, and solver residual series matching to tolerance. Plus one
//! P = 64 solve that must reproduce itself bitwise.

use check::{run_differential, DiffOptions, Fingerprint};
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::{spmd, Comm};

/// The seeded AMR pipeline: uniform → graded refine → balance →
/// partition → mesh extraction. Entirely deterministic, no RNG.
fn amr_pipeline(c: &Comm) -> (Vec<(u32, u64, u8)>, Vec<u64>, Vec<(String, u64)>) {
    let mut t = DistOctree::new_uniform(c, 2);
    t.refine(|o| {
        let ctr = o.center_unit();
        (ctr[0] - 0.3).powi(2) + (ctr[1] - 0.4).powi(2) + (ctr[2] - 0.5).powi(2) < 0.1
    });
    t.balance(BalanceKind::Full);
    t.partition();
    let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
    let leaves = t.local.iter().map(|o| (0u32, o.key(), o.level())).collect();
    let node_keys = m.dof_keys[..m.n_owned].to_vec();
    let counts = vec![
        ("elements".to_string(), t.global_count()),
        ("dofs".to_string(), m.n_global),
    ];
    (leaves, node_keys, counts)
}

#[test]
fn amr_pipeline_is_rank_count_independent() {
    let result = run_differential(&[1, 2, 4, 8], &DiffOptions::default(), |c| {
        let (leaves, node_keys, counts) = amr_pipeline(c);
        Fingerprint {
            leaves,
            node_keys,
            counts,
            series: Vec::new(),
        }
    });
    result.unwrap_or_else(|errs| panic!("differential mismatches:\n{}", errs.join("\n")));
}

/// Solver-level differential. Two contracts, matching what the
/// algorithms guarantee:
///
/// * The assembled *operator* is rank-count independent: a normalized
///   power-iteration series through the full constrained matvec
///   (hanging-node resolution + ghost exchange + boundary masking)
///   matches to tight tolerance — FP drift only comes from the
///   reduction order of global dot products.
/// * The preconditioned MINRES *trajectory* is not: the AMG hierarchy
///   is built on the rank-local owned block (as BoomerAMG is in the
///   paper), so the series is legitimately P-dependent. What must hold
///   is the Fig.-2-style band contract: convergence at every P with
///   iteration counts in a narrow band, and initial residuals agreeing
///   to the percent level.
#[test]
fn stokes_residual_series_match_across_rank_counts() {
    use std::sync::Mutex;
    let minres: Mutex<Vec<(usize, usize, f64)>> = Mutex::new(Vec::new());
    let opts = DiffOptions {
        series_rel_tol: 1e-6,
        series_len_slack: 0,
    };
    let result = run_differential(&[1, 2, 4], &opts, |c| {
        let rec = obs::Recorder::new(c.rank());
        c.set_recorder(rec.clone());
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| {
            let ctr = o.center_unit();
            (ctr[0] - 0.3).powi(2) + (ctr[1] - 0.4).powi(2) + (ctr[2] - 0.5).powi(2) < 0.1
        });
        t.balance(BalanceKind::Full);
        t.partition();
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let leaves = t.local.iter().map(|o| (0u32, o.key(), o.level())).collect();
        let node_keys = m.dof_keys[..m.n_owned].to_vec();
        let counts = vec![
            ("elements".to_string(), t.global_count()),
            ("dofs".to_string(), m.n_global),
        ];
        let n = m.n_owned;
        let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
        let visc: Vec<f64> = m
            .elements
            .iter()
            .map(|o| if o.center_unit()[2] > 0.5 { 1e2 } else { 1.0 })
            .collect();
        let mut s = stokes::StokesSolver::new(
            &m,
            c,
            visc,
            bc,
            stokes::StokesOptions {
                tol: 1e-6,
                max_iter: 300,
                ..Default::default()
            },
        );
        let (rhs, mut x) = s.build_rhs(|p| [0.0, 0.0, (2.0 * p[0]).sin()], |_| [0.0; 3]);
        // Operator fingerprint: normalized power iteration through the
        // full distributed matvec.
        let mut y = rhs.clone();
        let mut power = Vec::new();
        for _ in 0..10 {
            let mut ay = vec![0.0; y.len()];
            s.apply(&y, &mut ay);
            let nrm = s.dot(&ay, &ay).sqrt();
            power.push(nrm);
            for v in &mut ay {
                *v /= nrm;
            }
            y = ay;
        }
        let info = s.solve(&rhs, &mut x);
        assert!(info.converged, "fixture solve must converge");
        let series = rec
            .profile()
            .series
            .get("minres.residual")
            .cloned()
            .unwrap_or_default();
        assert!(!series.is_empty(), "solver must report a residual series");
        if c.rank() == 0 {
            minres
                .lock()
                .unwrap()
                .push((c.size(), series.len(), series[0]));
        }
        Fingerprint {
            leaves,
            node_keys,
            counts,
            series: vec![("operator.power".to_string(), power)],
        }
    });
    result.unwrap_or_else(|errs| panic!("differential mismatches:\n{}", errs.join("\n")));

    let minres = minres.into_inner().unwrap();
    assert_eq!(minres.len(), 3, "one MINRES record per rank count");
    let iters: Vec<usize> = minres.iter().map(|&(_, n, _)| n).collect();
    let (lo, hi) = (
        *iters.iter().min().unwrap() as f64,
        *iters.iter().max().unwrap() as f64,
    );
    // One AMG hierarchy across the ranks: 51 / 51 / 52 iterations at
    // P = 1 / 2 / 4. The band allows two more than the fewest.
    assert!(
        hi <= lo + 2.0,
        "MINRES iteration counts must stay in a band across P: {minres:?}"
    );
    let r0: Vec<f64> = minres.iter().map(|&(_, _, r)| r).collect();
    for r in &r0[1..] {
        assert!(
            (r - r0[0]).abs() <= 0.05 * r0[0].abs(),
            "initial residuals must agree to percent level: {r0:?}"
        );
    }
}

#[test]
fn differential_harness_reports_rank_dependence() {
    // A deliberately P-dependent "problem": refine only on rank 0. The
    // harness must reject it, proving it can actually see differences.
    let result = run_differential(&[1, 2], &DiffOptions::default(), |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        if c.rank() == 0 {
            t.refine(|o| o.center_unit()[0] < 0.3);
        } else {
            t.refine(|_| false);
        }
        Fingerprint {
            leaves: t.local.iter().map(|o| (0u32, o.key(), o.level())).collect(),
            node_keys: Vec::new(),
            counts: Vec::new(),
            series: Vec::new(),
        }
    });
    let errs = result.expect_err("rank-dependent refinement must be flagged");
    assert!(
        errs.iter().any(|e| e.contains("leaf sets differ")),
        "{errs:?}"
    );
}

/// The regression the deleted virtual-rank executor found at P = 64
/// (DESIGN.md §4): ranks that own no Dirichlet dof exist there, and a
/// branch around communicating code decided on such a rank alone — the
/// AMG hierarchy dedup, the `build_rhs` Dirichlet lift — skips exchange
/// rounds and wedges the solve. The fixture must keep such a rank, the
/// solve must converge, and two runs must agree bitwise.
#[test]
fn minres_at_p64_has_interior_only_ranks_and_is_reproducible() {
    let program = |c: &Comm| {
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| o.center_unit()[2] > 0.6);
        t.balance(BalanceKind::Full);
        t.partition();
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let bc: Vec<bool> = (0..3 * m.n_owned)
            .map(|i| m.dof_on_boundary(i / 3))
            .collect();
        let owns_dirichlet = bc.contains(&true);
        let visc: Vec<f64> = m
            .elements
            .iter()
            .map(|o| if o.center_unit()[2] > 0.5 { 50.0 } else { 1.0 })
            .collect();
        let mut solver =
            stokes::StokesSolver::new(&m, c, visc, bc, stokes::StokesOptions::default());
        let (rhs, mut x) = solver.build_rhs(|q| [0.0, 0.0, (4.0 * q[0]).sin()], |_| [0.0; 3]);
        let info = solver.solve(&rhs, &mut x);
        let x_bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        (owns_dirichlet, info.converged, info.iterations, x_bits)
    };
    let first = spmd::run(64, program);
    let interior_only = first.iter().filter(|r| !r.0).count();
    assert!(
        interior_only > 0,
        "every rank owns a Dirichlet dof: the fixture no longer exercises rank-local branches"
    );
    assert!(
        first.iter().all(|r| r.1),
        "P = 64 MINRES must converge ({} iterations)",
        first[0].2
    );
    let second = spmd::run(64, program);
    assert!(
        first == second,
        "two P = 64 runs differ in x or in the iteration count"
    );
}
