//! Fig. 7 — Weak scalability of adaptive advection–diffusion: runtime
//! breakdown by AMR function (top) and parallel efficiency (bottom).
//!
//! Paper: 131K elements/core from 1 to 62,464 cores (7.9B elements).
//! Time integration dominates; the most expensive AMR function is
//! `ExtractMesh` (≤6%); all AMR together stays ≤11%; parallel efficiency
//! stays above 50% over the 62K-fold scale-up.
//!
//! Here: the real AMR transport loop at a fixed element count per rank,
//! once per rank count in `RANK_COUNTS`, under the `obs` tracing
//! subsystem. Efficiency is the busiest rank's on-CPU seconds at P = 1
//! over those at P. The per-function percentages are shares of the
//! thirteen paper-phase spans on their slowest rank, printed only where
//! every rank had a core to itself; the largest such run also leaves its
//! Chrome trace / run manifest under `results/obs/`.

use rhea_bench::{
    banner, scaling_headers, single_run_note, transport_workload_traced, Run, Table, PAPER_PHASES,
    RANK_COUNTS,
};

fn main() {
    banner(
        "Figure 7",
        "Weak scaling: % runtime per AMR function + parallel efficiency",
    );
    // One adaptation per 32 steps is the paper's cadence.
    let (level, steps, adapt_every) = (4u8, 32, 32);
    let per_rank = 8u64.pow(level as u32);
    println!(
        "{steps} steps, adapted toward {per_rank} elements per rank twice before the first \
         step and every {adapt_every} steps\n"
    );
    let mut scaling = Table::new(&scaling_headers(&["elem/rank", "efficiency"]));
    let mut breakdown = Table::new(&[
        "#ranks",
        "TimeInt%",
        "Balance%",
        "Partition%",
        "Extract%",
        "Interp%",
        "Transfer%",
        "Mark%",
        "AMR total%",
    ]);
    let mut base = 0.0;
    let mut traced: Option<Run> = None;
    for p in RANK_COUNTS {
        let (run, _) = transport_workload_traced(p, level, p as u64 * per_rank, steps, adapt_every);
        if p == 1 {
            base = run.max_cpu_s();
        }
        scaling.row(&run.scaling_row(vec![
            (run.elements / p as u64).to_string(),
            format!("{:.2}", base / run.max_cpu_s()),
        ]));

        let total: f64 = PAPER_PHASES.iter().map(|(name, _)| run.phase_s(name)).sum();
        let pct = |seconds: f64| run.phase_cell(seconds, |s| format!("{:.1}", 100.0 * s / total));
        breakdown.row(&[
            p.to_string(),
            pct(run.phase_s("TimeIntegration")),
            pct(run.phase_s("BalanceTree")),
            pct(run.phase_s("PartitionTree")),
            pct(run.phase_s("ExtractMesh")),
            pct(run.phase_s("InterpolateFields")),
            pct(run.phase_s("TransferFields")),
            pct(run.phase_s("MarkElements")),
            pct(run.amr_s() + run.phase_s("NewTree")),
        ]);
        if run.spans_are_measured() {
            traced = Some(run);
        }
    }
    scaling.print();
    single_run_note();
    println!();
    println!("share of the paper-phase span seconds (slowest rank; `-`: more ranks than cores):");
    breakdown.print();

    traced
        .expect("one rank always has a core")
        .report("fig7_weak_breakdown");
    println!();
    println!(
        "paper, not reproduced at this scale: AMR total ≤ 11% at 62,464 cores (ExtractMesh\n\
         largest at ≤ 6%), parallel efficiency ≥ 0.50 from 1 → 62,464 cores at 131K\n\
         elements/core — wall-clock on Ranger. Nothing above 8 ranks was run here."
    );
}
