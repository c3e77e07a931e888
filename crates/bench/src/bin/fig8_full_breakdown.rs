//! Fig. 8 — Per-time-step runtime breakdown of the *full* mantle
//! convection code under isogranular (weak) scaling.
//!
//! Paper: ~50K elements/core, 1 → 16,384 cores, mesh adapted every 16
//! steps. The Stokes solve dominates (>95%); AMR, explicit transport and
//! the MINRES element kernels scale nearly ideally, while AMG setup and
//! V-cycle times grow with scale.
//!
//! Here: the full RHEA loop (Stokes + transport + AMR) at a fixed element
//! count per rank, once per rank count in `RANK_COUNTS`, under the `obs`
//! tracing subsystem. Every row carries the busiest rank's on-CPU
//! seconds, the MINRES iterations and the communication per rank and
//! step; the per-step phase seconds are span seconds on the slowest rank,
//! printed only where every rank had a core to itself. The largest such
//! run leaves its solver telemetry below and its Chrome trace / run
//! manifest under `results/obs/`.

use rhea_bench::{
    banner, convection_workload_traced, scaling_headers, single_run_note, Run, Table, RANK_COUNTS,
};

fn main() {
    banner(
        "Figure 8",
        "Full mantle convection: per-time-step runtime breakdown",
    );
    let (level, steps) = (4u8, 6);
    let adapt_every = 3; // paper: 16; scaled to the short run
    println!(
        "{steps} steps, adapted toward {} elements per rank twice before the first step and \
         every {adapt_every} steps\n",
        8u64.pow(level as u32)
    );
    let mut scaling = Table::new(&scaling_headers(&["elem/rank", "efficiency", "MINRES its"]));
    let mut breakdown = Table::new(&[
        "#ranks",
        "AMR s/step",
        "TimeInt s/step",
        "MINRES s/step",
        "AMGSetup s/step",
        "AMGSolve s/step",
        "total s/step",
        "Stokes %",
    ]);
    let mut base = 0.0;
    let mut traced: Option<Run> = None;
    for p in RANK_COUNTS {
        let run = convection_workload_traced(p, level, steps, adapt_every);
        if p == 1 {
            base = run.max_cpu_s();
        }
        scaling.row(&run.scaling_row(vec![
            (run.elements / p as u64).to_string(),
            format!("{:.2}", base / run.max_cpu_s()),
            run.minres_iters.to_string(),
        ]));

        let stokes = run.minres_s() + run.phase_s("AMGSetup") + run.phase_s("AMGSolve");
        let total = run.amr_s() + run.phase_s("TimeIntegration") + stokes;
        let per_step =
            |seconds: f64| run.phase_cell(seconds, |s| format!("{:.3}", s / steps as f64));
        breakdown.row(&[
            p.to_string(),
            per_step(run.amr_s()),
            per_step(run.phase_s("TimeIntegration")),
            per_step(run.minres_s()),
            per_step(run.phase_s("AMGSetup")),
            per_step(run.phase_s("AMGSolve")),
            per_step(total),
            run.phase_cell(stokes, |s| format!("{:.1}", 100.0 * s / total)),
        ]);
        if run.spans_are_measured() {
            traced = Some(run);
        }
    }
    scaling.print();
    single_run_note();
    println!();
    println!("span seconds per step (slowest rank; `-`: more ranks than cores):");
    breakdown.print();

    let run = traced.expect("one rank always has a core");
    run.report("fig8_full_breakdown");
    let rank0 = &run.profiles[0];
    println!();
    println!("solver telemetry (rank 0, from obs counters/series):");
    println!(
        "  minres.iterations  {}",
        rank0.summary.counter("minres.iterations")
    );
    println!(
        "  amg.vcycles        {}",
        rank0.summary.counter("amg.vcycles")
    );
    if let Some(res) = rank0.series.get("minres.residual") {
        if let (Some(first), Some(last)) = (res.first(), res.last()) {
            println!(
                "  minres.residual    {} samples, {first:.3e} → {last:.3e}",
                res.len()
            );
        }
    }
    println!();
    println!(
        "paper, not reproduced at this scale: Stokes (MINRES + AMG) > 95% of runtime from\n\
         1 to 16,384 cores at ~50K elements/core; AMR and explicit transport flat; AMG\n\
         setup and V-cycle seconds growing with core count — wall-clock on Ranger.\n\
         Nothing above 8 ranks was run here."
    );
}
