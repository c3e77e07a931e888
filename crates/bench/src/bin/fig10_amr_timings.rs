//! Fig. 10 — Breakdown of AMR function timings for the full mantle
//! convection solve (the table companion to Fig. 8).
//!
//! Paper: per mesh-adaptation step (= per 16 time steps), every AMR
//! function costs at most a few seconds while the solver costs hundreds;
//! the AMR/solve ratio stays below 1% from 1 to 16,384 cores.
//!
//! Here: the real RHEA run at every rank count in `RANK_COUNTS`:
//! milliseconds per adaptation of each AMR function, read from its own
//! span on the slowest rank, against the solve seconds of the same run —
//! printed only where every rank had a core to itself.

use rhea_bench::{banner, convection_workload_traced, single_run_note, Table, RANK_COUNTS};

fn main() {
    banner(
        "Figure 10",
        "AMR function timings vs. solve time (full convection)",
    );
    let (level, steps, adapt_every) = (3u8, 6, 3);
    println!(
        "{steps} steps, adapted toward {} elements per rank twice before the first step and \
         every {adapt_every} steps;\nms per adaptation on the slowest rank \
         (`-`: more ranks than cores; ExtractM includes the initial mesh's extraction)\n",
        8u64.pow(level as u32)
    );
    let mut table = Table::new(&[
        "#ranks",
        "elements",
        "adapts",
        "NewTree",
        "Coarsen+Refine",
        "BalanceT",
        "PartitionT",
        "ExtractM",
        "Interp+Transfer",
        "MarkE",
        "AMR s",
        "solve s",
        "AMR/solve %",
    ]);
    for p in RANK_COUNTS {
        let run = convection_workload_traced(p, level, steps, adapt_every);
        let adapts = run.profiles[0].summary.phases["MarkElements"].count;
        let ms = |seconds: f64| run.phase_cell(seconds, |s| format!("{:.3}", 1e3 * s));
        let per_adapt =
            |names: &[&str]| ms(names.iter().map(|n| run.phase_s(n)).sum::<f64>() / adapts as f64);
        // The MINRES span already contains its AMGSolve V-cycles.
        let solve =
            run.phase_s("MINRES") + run.phase_s("AMGSetup") + run.phase_s("TimeIntegration");
        table.row(&[
            p.to_string(),
            run.elements.to_string(),
            adapts.to_string(),
            ms(run.phase_s("NewTree")), // once per run
            per_adapt(&["CoarsenTree", "RefineTree"]),
            per_adapt(&["BalanceTree"]),
            per_adapt(&["PartitionTree"]),
            per_adapt(&["ExtractMesh"]),
            per_adapt(&["InterpolateFields", "TransferFields"]),
            per_adapt(&["MarkElements"]),
            run.phase_cell(run.amr_s(), |s| format!("{s:.3}")),
            run.phase_cell(solve, |s| format!("{s:.3}")),
            run.phase_cell(run.amr_s(), |s| format!("{:.2}", 100.0 * s / solve)),
        ]);
    }
    table.print();
    single_run_note();
    println!();
    println!(
        "paper, not reproduced at this scale (seconds per adaptation step at 16,384 cores):\n\
         NewTree 1.61 once; BalanceTree 1.23; PartitionTree 1.22; ExtractMesh 2.85;\n\
         Interp+Transfer 0.20; MarkElements 0.32; solve 1134.30 — AMR/solve ≈ 0.5–0.6%\n\
         from 1 to 16,384 cores. Nothing above 8 ranks was run here; AMR s and solve s\n\
         are the run's totals ({steps} steps), not one adaptation interval of 16 steps."
    );
}
