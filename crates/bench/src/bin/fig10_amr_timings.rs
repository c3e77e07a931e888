//! Fig. 10 — Breakdown of AMR function timings for the full mantle
//! convection solve (the table companion to Fig. 8).
//!
//! Paper: per mesh-adaptation step (= per 16 time steps), every AMR
//! function costs at most a few seconds while the solver costs hundreds;
//! the AMR/solve ratio stays below 1% from 1 to 16,384 cores.
//!
//! Here, two parts:
//!
//! 1. A measured adapt cycle at P = 4 (refine → coarsen → balance →
//!    partition → transfer on reusable buffers): median wall time per
//!    cycle, with a warm-cycle zero-allocation check.
//! 2. The modeled paper table: the measured host AMR phase profile of
//!    the real RHEA run plus the machine model's communication terms,
//!    printed in the paper's format.

use octree::balance::BalanceKind;
use octree::parallel::{transfer_fields_into, DistOctree, PartitionPlan};
use octree::Octant;
use rhea_bench::{
    banner, convection_workload_traced, paper_core_counts, phase_comm_seconds, Table,
};
use scomm::{spmd, MachineModel};
use std::time::Instant;

/// The deterministic geometric cycle predicates: the cycle map reaches a
/// periodic orbit, so warm-path buffer capacities stop growing.
fn should_refine(o: &Octant, max_level: u8) -> bool {
    let ctr = o.center_unit();
    let d2 = (ctr[0] - 0.3).powi(2) + (ctr[1] - 0.4).powi(2) + (ctr[2] - 0.5).powi(2);
    o.level() < max_level && d2 < 0.09
}

fn should_coarsen(o: &Octant, min_level: u8) -> bool {
    o.level() > min_level && o.center_unit()[0] > 0.5
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Measured adapt cycle at P = 4; panics if a warm cycle allocates.
fn measure_adapt_cycle() {
    let (level, samples, warmups) = (3u8, 15usize, 8usize);
    let max_level = level + 2;
    let min_level = level;
    let out = spmd::run(4, move |c| {
        let mut tree = DistOctree::new_uniform(c, level);
        let mut plan = PartitionPlan::default();
        let mut data: Vec<f64> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut recv_counts: Vec<usize> = Vec::new();
        let mut moved: Vec<f64> = Vec::new();

        let mut cycle_ns = Vec::new();
        let mut alloc_delta = 0u64;
        for cycle in 0..warmups + samples {
            c.barrier();
            let cap0 = tree.alloc_bytes()
                + ((data.capacity() + moved.capacity()) * 8) as u64
                + ((counts.capacity() + recv_counts.capacity()) * 8) as u64;
            let t0 = Instant::now();
            tree.refine(|o| should_refine(o, max_level));
            tree.coarsen(|o| should_coarsen(o, min_level));
            tree.balance(BalanceKind::Full);
            data.clear();
            data.resize(8 * tree.local.len(), 1.0);
            tree.partition_with(&mut plan);
            transfer_fields_into(
                c,
                &plan,
                &data,
                8,
                &mut counts,
                &mut recv_counts,
                &mut moved,
            );
            c.barrier();
            let dt = t0.elapsed().as_nanos() as f64;
            if cycle >= warmups {
                cycle_ns.push(dt);
                let cap1 = tree.alloc_bytes()
                    + ((data.capacity() + moved.capacity()) * 8) as u64
                    + ((counts.capacity() + recv_counts.capacity()) * 8) as u64;
                alloc_delta += cap1 - cap0;
            }
        }
        assert_eq!(alloc_delta, 0, "warm adapt cycle allocated");
        (
            median(cycle_ns),
            tree.global_count(),
            tree.last_balance_rounds(),
        )
    });
    let (med, elements, rounds) = out[0];
    println!(
        "adapt cycle (P=4, {elements} elements, {rounds} balance rounds): {:.2} ms\n",
        med / 1e6
    );
}

fn modeled_paper_table() {
    let steps = 6;
    let adapt_every = 3;
    let (profiles, n_elem, _) = convection_workload_traced(1, 4, steps, adapt_every);
    let serial = &profiles[0].summary;
    let machine = MachineModel::ranger();
    let adapt_count = (steps / adapt_every) as f64;
    println!(
        "measured serial run: {n_elem} elements, {steps} steps, {} adaptations\n",
        adapt_count
    );

    let host_to_model =
        |sec: f64| machine.t_fem_flops(sec * machine.fem_efficiency * machine.peak_flops_per_core);
    let surface_bytes = 8.0 * 6.0 * (n_elem as f64).powf(2.0 / 3.0) * 8.0;

    let mut table = Table::new(&[
        "#cores",
        "NewTree",
        "Coarsen+Refine",
        "BalanceT",
        "PartitionT",
        "ExtractM",
        "Interp+Transfer",
        "MarkE",
        "solve time",
        "AMR/solve %",
    ]);
    for &p in &paper_core_counts(16384) {
        let a2a = machine.t_alltoallv(surface_bytes, 26);
        let ar = machine.t_allreduce(8.0, p);
        // Per adaptation step (the paper's unit).
        let per_adapt = |name: &str| {
            host_to_model(serial.incl_seconds(name)) / adapt_count
                + phase_comm_seconds(name, p, &machine, surface_bytes)
        };
        let newtree = host_to_model(serial.incl_seconds("NewTree")); // once per run
        let cr = per_adapt("CoarsenTree") + per_adapt("RefineTree");
        let bal = per_adapt("BalanceTree");
        let part = per_adapt("PartitionTree");
        let ext = per_adapt("ExtractMesh");
        let it = per_adapt("InterpolateFields") + per_adapt("TransferFields");
        let mark = per_adapt("MarkElements");
        // Solve time per adaptation step: all PDE phases + their comm.
        // (The MINRES span already contains its AMGSolve V-cycles.)
        let iters_comm = if p == 1 {
            0.0
        } else {
            200.0 * (a2a + 2.0 * ar) // MINRES iterations across 16 steps
        };
        let solve = (host_to_model(serial.incl_seconds("MINRES"))
            + host_to_model(serial.incl_seconds("AMGSetup"))
            + host_to_model(serial.incl_seconds("TimeIntegration")))
            / adapt_count
            + iters_comm;
        let amr = cr + bal + part + ext + it + mark;
        table.row(&[
            p.to_string(),
            format!("{newtree:.2}"),
            format!("{cr:.2}"),
            format!("{bal:.2}"),
            format!("{part:.2}"),
            format!("{ext:.2}"),
            format!("{it:.2}"),
            format!("{mark:.2}"),
            format!("{solve:.2}"),
            format!("{:.2}", 100.0 * amr / solve),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper shape anchors (seconds per adaptation step at 16,384 cores):\n\
         NewTree 1.61 once; BalanceTree 1.23; PartitionTree 1.22; ExtractMesh 2.85;\n\
         Interp+Transfer 0.20; MarkElements 0.32; solve 1134.30 — AMR/solve ≈ 0.5–0.6%."
    );
}

fn main() {
    banner(
        "Figure 10",
        "AMR function timings vs. solve time (full convection)",
    );
    measure_adapt_cycle();
    modeled_paper_table();
}
