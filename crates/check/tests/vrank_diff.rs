//! Executor-equivalence differential suite (PR 6): the virtual-rank
//! executor must be a *drop-in* for the threaded one — not approximately,
//! but bitwise. The same seeded problem is run threaded (`spmd::run`) and
//! virtual (`spmd::run_virtual`) at P ∈ {8, 64, 256} over W ∈ {1, 4, 8}
//! workers, and every per-rank result — ghost-exchanged vectors, operator
//! applications, full MINRES solves — must agree bit for bit. W = 1 is
//! the strictest schedule (total serialization), W = 8 the most
//! interleaved; neither may perturb a single ulp.

use fem::element::stiffness_matrix;
use fem::op::{DistOp, DofMap};
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::fault::FaultPlan;
use scomm::spmd;

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Rank counts for the cheap (exchange / single-apply) differentials.
const RANK_COUNTS: [usize; 3] = [8, 64, 256];

/// Adapted fixture: uniform at a level deep enough to feed every rank
/// (512 leaves at P = 256), refined above z = 0.6, fully balanced and
/// repartitioned — hanging constraints and ghost traffic on every rank.
fn fixture(c: &scomm::Comm) -> DistOctree<'_> {
    let level = if c.size() > 64 { 3 } else { 2 };
    let mut t = DistOctree::new_uniform(c, level);
    t.refine(|o| o.center_unit()[2] > 0.6);
    t.balance(BalanceKind::Full);
    t.partition();
    t
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Deterministic per-dof test vector, identical at every P.
fn seeded(global: u64) -> f64 {
    ((global.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 9973) as f64 / 9973.0 - 0.5
}

#[test]
fn ghost_exchange_virtual_matches_threaded_bitwise() {
    for p in RANK_COUNTS {
        let program = |c: &scomm::Comm| {
            let t = fixture(c);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let owned: Vec<f64> = (0..m.n_owned)
                .map(|d| seeded(m.global_offset + d as u64))
                .collect();
            // Full owned+ghost vector after the exchange: the ghost
            // block is exactly what crossed the wire.
            bits(&map.to_local(&owned))
        };
        let threaded = spmd::run(p, program);
        for w in WORKER_COUNTS {
            let virt = spmd::run_virtual(p, w, program);
            assert_eq!(threaded, virt, "ghost exchange diverges at P={p} W={w}");
        }
    }
}

#[test]
fn dist_op_apply_virtual_matches_threaded_bitwise() {
    for p in RANK_COUNTS {
        let program = |c: &scomm::Comm| {
            let t = fixture(c);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let mesh_ref = &m;
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let op = DistOp::new(
                &map,
                Box::new(move |e, out: &mut [f64]| {
                    let k = stiffness_matrix(mesh_ref.element_size(e), 1.0);
                    for i in 0..8 {
                        for j in 0..8 {
                            out[i * 8 + j] = k[i][j];
                        }
                    }
                }),
                Some(&bc),
            );
            let x: Vec<f64> = (0..m.n_owned)
                .map(|d| seeded(m.global_offset + d as u64))
                .collect();
            // Split-phase path (the default): under the virtual executor
            // the in-flight window parks and resumes the coroutine.
            let mut y = vec![0.0; m.n_owned];
            op.apply_owned(&x, &mut y);
            bits(&y)
        };
        let threaded = spmd::run(p, program);
        for w in WORKER_COUNTS {
            let virt = spmd::run_virtual(p, w, program);
            assert_eq!(threaded, virt, "DistOp::apply diverges at P={p} W={w}");
        }
    }
}

/// The deepest differential: the full preconditioned MINRES solve —
/// hundreds of collectives, ghost exchanges and split-phase windows per
/// run — threaded vs virtual at every worker count.
fn minres_differential(rank_counts: &[usize]) {
    for &p in rank_counts {
        let program = |c: &scomm::Comm| {
            let t = fixture(c);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let visc: Vec<f64> = m
                .elements
                .iter()
                .map(|o| if o.center_unit()[2] > 0.5 { 50.0 } else { 1.0 })
                .collect();
            let mut solver = stokes::solver::StokesSolver::new(
                &m,
                c,
                visc,
                bc,
                stokes::solver::StokesOptions::default(),
            );
            let (rhs, mut x) = solver.build_rhs(|q| [0.0, 0.0, (4.0 * q[0]).sin()], |_| [0.0; 3]);
            let info = solver.solve(&rhs, &mut x);
            assert!(info.converged, "P={}: {info:?}", c.size());
            (bits(&x), info.iterations)
        };
        let threaded = spmd::run(p, program);
        for w in WORKER_COUNTS {
            let virt = spmd::run_virtual(p, w, program);
            assert_eq!(threaded, virt, "MINRES solve diverges at P={p} W={w}");
        }
    }
}

#[test]
fn minres_solve_virtual_matches_threaded_bitwise() {
    minres_differential(&[8, 64]);
}

/// P = 256 exercises the executor far beyond the thread counts the rest
/// of the suite uses, and is most of this file's debug run time:
/// `scripts/ci.sh` runs it once, in release, with `--ignored`.
#[test]
#[ignore = "minutes in debug; scripts/ci.sh runs it in release"]
fn minres_solve_virtual_matches_threaded_bitwise_p256() {
    minres_differential(&[256]);
}

#[test]
fn fault_replay_bitwise_identical_under_virtual_scheduling() {
    // A seeded adversarial message schedule (delays + duplicate-delivery
    // probes) over the real ghost-exchange fixture: the fault clock is
    // driven by admission order, so the delivered ghost values AND the
    // per-rank fault counters must replay identically on both executors
    // and at every worker count. The exchange must go through the
    // *split-phase* path — delays act on point-to-point pulls at
    // completion time; the blocking `to_local` is a staging-matrix
    // collective the jitter buffer never sees.
    let p = 64;
    let program = |c: &scomm::Comm| {
        c.set_fault_plan(Some(FaultPlan::delays(0x5eed_cafe)));
        let t = fixture(c);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = DofMap::new(&m, c, 1);
        let mut buf = mesh::extract::ExchangeBuffers::new();
        let mut acc: Vec<u64> = Vec::new();
        for round in 0..3u64 {
            let mut v = vec![0.0; map.n_local()];
            for d in 0..m.n_owned {
                v[d] = seeded(m.global_offset + d as u64 + round);
            }
            map.exchange_begin(&v, &mut buf);
            map.exchange_end(&mut v, &mut buf);
            acc.extend(bits(&v));
        }
        let counters = c.fault_counters().unwrap();
        c.set_fault_plan(None);
        (acc, counters)
    };
    let threaded = spmd::run(p, program);
    assert!(
        threaded.iter().map(|(_, f)| f.delayed).sum::<u64>() > 0,
        "the plan must actually perturb the schedule"
    );
    for w in WORKER_COUNTS {
        let virt = spmd::run_virtual(p, w, program);
        assert_eq!(threaded, virt, "fault replay diverges at W={w}");
    }
}
