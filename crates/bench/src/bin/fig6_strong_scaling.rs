//! Fig. 6 — Fixed-size (strong) scalability of adaptive
//! advection–diffusion.
//!
//! Paper: near-ideal speedups over wide ranges — 366× at 512 cores for
//! the small (1.99M-element) problem, 52× from 16→1024 cores (medium,
//! 32.7M), 101× from 256→32,768 (large, 531M), 11.5× from 4096→61,440
//! (very large, 2.24B).
//!
//! Here: one problem size, the real AMR transport loop at every rank
//! count in `RANK_COUNTS`. Speedup is the ratio of the busiest rank's
//! on-CPU seconds at P = 1 to those at P — the time the run would take
//! with a core per rank — and each row carries the communication the
//! ranks actually did.

use rhea_bench::{
    banner, scaling_headers, single_run_note, transport_workload_traced, Table, RANK_COUNTS,
};

fn main() {
    banner(
        "Figure 6",
        "Fixed-size scalability: speedup vs. ranks at one problem size",
    );
    let (level, steps, adapt_every) = (5u8, 8, 4);
    let target = 8u64.pow(level as u32);
    println!(
        "{steps} steps, adapted toward {target} elements twice before the first step and \
         every {adapt_every} steps\n"
    );
    let mut table = Table::new(&scaling_headers(&["speedup", "efficiency"]));
    let mut base = 0.0;
    for p in RANK_COUNTS {
        let (run, _) = transport_workload_traced(p, level, target, steps, adapt_every);
        if p == 1 {
            base = run.max_cpu_s();
        }
        let speedup = base / run.max_cpu_s();
        table.row(&run.scaling_row(vec![
            format!("{speedup:.2}"),
            format!("{:.2}", speedup / p as f64),
        ]));
    }
    table.print();
    single_run_note();
    println!();
    println!(
        "paper, not reproduced at this scale: 366× at 512 cores (1.99M elements), 52× over\n\
         16→1024 (32.7M), 101× over 256→32,768 (531M), 11.5× over 4096→61,440 (2.24B) —\n\
         wall-clock speedups on Ranger. Nothing above 8 ranks was run here, and no row is\n\
         a wall-clock time: 8 threads share this host's cores."
    );
}
