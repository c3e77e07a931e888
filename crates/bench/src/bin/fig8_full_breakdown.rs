//! Fig. 8 — Per-time-step runtime breakdown of the *full* mantle
//! convection code under isogranular (weak) scaling.
//!
//! Paper: ~50K elements/core, 1 → 16,384 cores, mesh adapted every 16
//! steps. The Stokes solve dominates (>95%); AMR, explicit transport and
//! the MINRES element kernels scale nearly ideally, while AMG setup and
//! V-cycle times grow with scale.
//!
//! Here: the full RHEA loop (Stokes + transport + AMR) runs for real at
//! host scale under the `obs` tracing subsystem; the per-phase profile,
//! solver telemetry (MINRES residual history, V-cycle counts) and the
//! Chrome trace / run manifest under `results/obs/` all come from the
//! recorded spans. The machine model adds per-phase communication at
//! each paper core count. AMG's modeled growth reflects its extra
//! coarse-level collectives (log²P), the paper's observed trend.

use obs::{ObsSession, Reduce, Summary, Value};
use rhea_bench::{
    banner, convection_workload_traced, paper_core_counts, phase_comm_seconds, Table, PAPER_PHASES,
};
use scomm::MachineModel;

fn main() {
    banner(
        "Figure 8",
        "Full mantle convection: per-time-step runtime breakdown",
    );
    let steps = 6;
    let adapt_every = 3; // paper: 16; scaled to the short run
    let (serial_profiles, n_elem, minres_iters) =
        convection_workload_traced(1, 4, steps, adapt_every);
    let serial = &serial_profiles[0].summary;
    let machine = MachineModel::ranger();
    println!(
        "measured serial run: {n_elem} elements, {steps} steps, {minres_iters} MINRES iterations\n"
    );

    let host_to_flops = |sec: f64| sec * machine.fem_efficiency * machine.peak_flops_per_core;
    let elem_per_core = n_elem as f64;
    let surface_bytes = 8.0 * 6.0 * elem_per_core.powf(2.0 / 3.0) * 8.0;

    // Per-step communication of the three Stokes rows, modeled here where
    // the iteration count is known: every MINRES iteration needs 1 ghost
    // exchange + 2 allreduces; every V-cycle crosses ~L levels with an
    // allreduce each (block-Jacobi AMG keeps V-cycles local; the setup
    // allgathers grow with log P). The AMR rows and `TimeIntegration`
    // come from the shared per-phase table.
    let iters_per_step = minres_iters as f64 / steps as f64;
    let stokes_comm_per_step = |name: &str, p: usize| -> f64 {
        if p == 1 {
            return 0.0;
        }
        let a2a = machine.t_alltoallv(surface_bytes, 26);
        let ar = machine.t_allreduce(8.0, p);
        let lg = (p as f64).log2().ceil();
        match name {
            "MINRES" => iters_per_step * (a2a + 2.0 * ar),
            "AMGSolve" => iters_per_step * 3.0 * lg * ar, // level sweep barriers
            "AMGSetup" => (1.0 / adapt_every as f64) * lg * lg * (ar + a2a),
            _ => 0.0,
        }
    };
    let local_per_step =
        |host_sec: f64| machine.t_fem_flops(host_to_flops(host_sec)) / steps as f64;
    // The MINRES span wraps the V-cycles it triggers; the paper's MINRES
    // column excludes them.
    let minres_sec = (serial.incl_seconds("MINRES") - serial.incl_seconds("AMGSolve")).max(0.0);

    let mut table = Table::new(&[
        "#cores",
        "AMR s/step",
        "TimeInt s/step",
        "MINRES s/step",
        "AMGSetup s/step",
        "AMGSolve s/step",
        "total s/step",
        "Stokes %",
    ]);
    for &p in &paper_core_counts(16384) {
        let table_comm = |name: &str| phase_comm_seconds(name, p, &machine, surface_bytes);
        let amr: f64 = PAPER_PHASES
            .iter()
            .filter(|(_, cat)| *cat == "amr")
            .map(|(name, _)| {
                local_per_step(serial.incl_seconds(name)) + table_comm(name) / adapt_every as f64
            })
            .sum();
        let ti =
            local_per_step(serial.incl_seconds("TimeIntegration")) + table_comm("TimeIntegration");
        let mr = local_per_step(minres_sec) + stokes_comm_per_step("MINRES", p);
        let ags =
            local_per_step(serial.incl_seconds("AMGSetup")) + stokes_comm_per_step("AMGSetup", p);
        let agv =
            local_per_step(serial.incl_seconds("AMGSolve")) + stokes_comm_per_step("AMGSolve", p);
        let total = amr + ti + mr + ags + agv;
        let stokes_pct = 100.0 * (mr + ags + agv) / total;
        table.row(&[
            p.to_string(),
            format!("{amr:.3}"),
            format!("{ti:.3}"),
            format!("{mr:.3}"),
            format!("{ags:.3}"),
            format!("{agv:.3}"),
            format!("{total:.3}"),
            format!("{stokes_pct:.1}"),
        ]);
    }
    table.print();
    println!();
    println!("measured serial span profile:");
    println!(
        "  {:<18} {:>6} {:>10} {:>12}",
        "phase", "count", "incl s", "incl s/step"
    );
    for (name, _) in PAPER_PHASES {
        if let Some(st) = serial.phases.get(name) {
            println!(
                "  {:<18} {:>6} {:>10.3} {:>12.4}",
                name,
                st.count,
                st.incl_seconds(),
                st.incl_seconds() / steps as f64
            );
        }
    }
    println!();
    println!("solver telemetry (from obs counters/series):");
    println!(
        "  minres.iterations  {}",
        serial.counter("minres.iterations")
    );
    println!("  amg.vcycles        {}", serial.counter("amg.vcycles"));
    if let Some(res) = serial_profiles[0].series.get("minres.residual") {
        if let (Some(first), Some(last)) = (res.first(), res.last()) {
            println!(
                "  minres.residual    {} samples, {first:.3e} → {last:.3e}",
                res.len()
            );
        }
    }

    // Four simulated ranks: the same convection loop, traced, with the
    // figure's observability artifacts written under results/obs/.
    let ranks = 4;
    let (profiles, n4, iters4) = convection_workload_traced(ranks, 3, 4, 2);
    let merged = Summary::reduce_all(profiles.iter().map(|p| &p.summary));
    println!();
    println!(
        "{ranks}-rank traced run: {n4} elements, {iters4} MINRES iterations, \
         comm time {:.4} s (merged incl)",
        merged.cat_incl_seconds("comm")
    );
    let extra = Value::object([
        ("figure", Value::from("fig8")),
        ("ranks", Value::from(ranks as u64)),
        ("elements", Value::from(n4)),
        ("minres_iterations", Value::from(iters4 as u64)),
        ("serial_elements", Value::from(n_elem)),
        ("steps", Value::from(steps as u64)),
    ]);
    match ObsSession::new("fig8_full_breakdown").write(&profiles, extra) {
        Ok(w) => {
            println!("obs artifacts:");
            println!("  manifest     {}", w.manifest.display());
            println!(
                "  chrome trace {}  (load in chrome://tracing)",
                w.trace.display()
            );
            println!("  event log    {}", w.events.display());
        }
        Err(e) => eprintln!("warning: could not write obs artifacts: {e}"),
    }
    println!();
    println!(
        "paper shape anchors: Stokes (MINRES + AMG) > 95% of runtime at every\n\
         scale; AMR and explicit transport negligible and flat; AMG setup and\n\
         V-cycle grow with core count."
    );
}
