//! Fig. 5 — Extent of mesh adaptation in an advection-dominated
//! transport run.
//!
//! Paper (4096 cores, ~131K elem/core): per adaptation step, roughly
//! half the elements are coarsened or refined while `MarkElements` holds
//! the total element count about constant; by the 8th adaptation step the
//! octree spans ~10 levels.
//!
//! Here: the advecting front of Figs. 6 and 7 (`transport_workload_traced`)
//! at host scale, adapted toward a fixed global element target before the
//! first step and every `ADAPT_EVERY` steps, printing both panels of the
//! figure, the field bounds after the run and the AMR share of its runtime.

use rhea_bench::{banner, transport_workload_traced, Table};

/// A core per rank on a two-core host: the AMR share's spans are measured.
const RANKS: usize = 2;
const LEVEL: u8 = 4;
/// The paper's Fig. 5 shows 17 adaptation steps: here the two before the
/// first time step, then one per `ADAPT_EVERY` steps.
const ADAPT_STEPS: usize = 17;
const ADAPT_EVERY: usize = 8; // paper uses 32; scaled with the run length
const TARGET: u64 = 6000;

fn main() {
    banner(
        "Figure 5",
        "Elements coarsened/refined/balanced/unchanged per adaptation step",
    );
    let steps = (ADAPT_STEPS - 2) * ADAPT_EVERY;
    println!(
        "{RANKS} ranks, {steps} steps from a uniform level-{LEVEL} mesh, adapted toward {TARGET} \
         elements twice before the first step and every {ADAPT_EVERY} steps\n"
    );
    let (run, front) = transport_workload_traced(RANKS, LEVEL, TARGET, steps, ADAPT_EVERY);
    let reports = &front.adapts;
    assert_eq!(reports.len(), ADAPT_STEPS);

    let mut table = Table::new(&[
        "step",
        "refined",
        "coarsened(fam)",
        "balance-added",
        "unchanged",
        "total after",
    ]);
    for (step, rep) in reports.iter().enumerate() {
        table.row(&[
            (step + 1).to_string(),
            rep.refined.to_string(),
            rep.coarsened_families.to_string(),
            rep.balance_added.to_string(),
            rep.unchanged.to_string(),
            rep.elements_after.to_string(),
        ]);
    }
    table.print();

    println!();
    println!("Elements per level (Fig. 5 right), selected adaptation steps:");
    let mut ltab = Table::new(&["level", "step 2", "step 4", "step 8", "step 17"]);
    let pick = [1usize, 3, 7, 16];
    let max_level = reports
        .iter()
        .filter_map(|r| r.level_histogram.iter().rposition(|&n| n > 0))
        .max()
        .unwrap_or(0);
    for level in 0..=max_level {
        let mut cells = vec![level.to_string()];
        for &s in &pick {
            let n = reports[s].level_histogram.get(level).copied().unwrap_or(0);
            cells.push(n.to_string());
        }
        ltab.row(&cells);
    }
    ltab.print();
    println!();
    let last = reports.last().unwrap();
    let churn = last.refined + 8 * last.coarsened_families;
    println!(
        "Shape check (paper): ~half the mesh churns per adaptation step\n\
         (here: {churn} of {} elements touched in the final step) while the\n\
         total stays near the target of {TARGET}.",
        last.elements_after
    );
    let (lo, hi) = front.bounds;
    println!(
        "\nfield bounds after {steps} steps: [{lo:.4}, {hi:.4}] (SUPG keeps it near monotone)"
    );
    let amr = run.amr_s();
    let share = run.phase_cell(amr / (amr + run.phase_s("TimeIntegration")), |f| {
        format!("{:.1}%", 100.0 * f)
    });
    println!(
        "AMR share of runtime (AMR and TimeIntegration span seconds, slowest rank): {share}.\n\
         This run adapts every {ADAPT_EVERY} steps on ~{}K elements; the paper adapts every 32\n\
         steps at 131K elements/core, which amortizes AMR to ≤ 11% (fig7_weak_breakdown runs\n\
         the paper's cadence).",
        TARGET / 1000
    );
}
