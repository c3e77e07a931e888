//! Rank-virtualization benchmarks (PR 6): the fig7/fig8 story re-driven
//! at *measured* virtual world sizes instead of extrapolated ones.
//!
//! Two sections, both impossible under the thread-per-rank launcher:
//!
//! * **Weak-scaling AMR pipeline at P ∈ {256, 1024}** over 8 worker OS
//!   threads: uniform tree → graded refine → balance → partition →
//!   mesh extraction → ghost-exchange/allreduce sweeps, traced through
//!   the bounded profile collector (merged summary for every rank, full
//!   traces for a sample — memory independent of P).
//! * **Measured collective trees**: binomial `allreduce_tree` timed at
//!   each virtual P. The `2·⌈log₂ P⌉` message rounds are *real* — every
//!   hop parks and resumes a coroutine — and the measured (rounds,
//!   bytes, seconds) samples feed `fit_alpha_beta`, recovering the
//!   host's effective α–β postal parameters and validating the log₂(P)
//!   depth scaling the paper's collective model assumes. The Ranger
//!   `t_allreduce` column shows what the old extrapolation would have
//!   claimed for the same operation.
//!
//! Usage: `pr6_vrank [--smoke] [--out PATH]`. `--smoke` shrinks world
//! sizes and repetition counts for CI; the committed `BENCH_pr6.json`
//! comes from a full `--release` run
//! (`cargo run --release -p rhea-bench --bin pr6_vrank`).

use fem::op::DofMap;
use mesh::extract::extract_mesh;
use obs::json::Value;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use rhea_bench::{banner, human, measure_tree_collectives, Table};
use scomm::machine::fit_alpha_beta;
use scomm::{spmd, MachineModel};
use std::time::Instant;

const WORKERS: usize = 8;

/// One weak-scaling pipeline run at virtual world size `p`: returns the
/// JSON row and prints the measured breakdown.
fn weak_scaling_row(p: usize, level: u8, sweeps: usize) -> Value {
    let t0 = Instant::now();
    let (out, world) = spmd::run_virtual_traced_bounded(p, WORKERS, 4, move |c, rec| {
        let mut t = rec.with_cat("NewTree", "amr", || DistOctree::new_uniform(c, level));
        rec.with_cat("RefineTree", "amr", || {
            t.refine(|o| o.center_unit()[2] > 0.5);
        });
        rec.with_cat("BalanceTree", "amr", || t.balance(BalanceKind::Full));
        rec.with_cat("PartitionTree", "amr", || t.partition());
        let m = rec.with_cat("ExtractMesh", "amr", || extract_mesh(&t, [1.0, 1.0, 1.0]));
        // Solver-shaped communication: ghost exchange + global reduction
        // per sweep, the inner-loop pattern of every Krylov iteration.
        let map = DofMap::new(&m, c, 1);
        let mut x: Vec<f64> = (0..m.n_owned)
            .map(|d| (m.global_offset + d as u64) as f64)
            .collect();
        let mut norm = 0.0;
        rec.with_cat("TimeIntegration", "solve", || {
            for _ in 0..sweeps {
                let local = map.to_local(&x);
                let s: f64 = local.iter().sum();
                norm = map.dot(&x, &x).sqrt();
                for v in &mut x {
                    *v = (*v + s / (norm + 1.0)) * 0.5;
                }
            }
        });
        (t.global_count(), m.n_global, norm.to_bits())
    });
    let wall = t0.elapsed().as_secs_f64();
    let (elements, dofs, norm_bits) = out[0];
    assert!(
        out.iter().all(|&v| v == (elements, dofs, norm_bits)),
        "global results must agree on every rank"
    );
    assert_eq!(world.nranks, p);
    println!(
        "P={p:>5} over {WORKERS} workers: {} elements ({:.1}/rank), {} dofs, \
         wall {wall:.2} s, {} full profiles kept / {} elided",
        human(elements),
        elements as f64 / p as f64,
        human(dofs),
        world.sample.len(),
        world.elided
    );
    let phase_row = |name: &str| {
        world
            .merged
            .phases
            .get(name)
            .map(|s| s.incl_seconds())
            .unwrap_or(0.0)
    };
    Value::object([
        ("ranks", Value::from(p as u64)),
        ("workers", Value::from(WORKERS as u64)),
        ("elements", Value::from(elements)),
        ("dofs", Value::from(dofs)),
        ("wall_seconds", Value::from(wall)),
        ("profiles_kept", Value::from(world.sample.len() as u64)),
        ("profiles_elided", Value::from(world.elided as u64)),
        ("balance_incl_s", Value::from(phase_row("BalanceTree"))),
        ("extract_incl_s", Value::from(phase_row("ExtractMesh"))),
        ("sweep_incl_s", Value::from(phase_row("TimeIntegration"))),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr6.json".to_string());

    banner(
        "PR 6",
        "Rank virtualization: measured weak scaling and collective trees at virtual P",
    );

    // ---- Weak-scaling AMR pipeline at virtual P ------------------------
    let (world_sizes, level, sweeps): (&[usize], _, _) = if smoke {
        (&[64, 256], 3, 2)
    } else {
        (&[256, 1024], 4, 4)
    };
    println!("weak-scaling AMR pipeline (virtual executor):");
    let weak_rows: Vec<Value> = world_sizes
        .iter()
        .map(|&p| weak_scaling_row(p, level, sweeps))
        .collect();

    // ---- Measured collective trees + alpha-beta fit --------------------
    let (payloads, reps): (&[usize], _) = if smoke {
        (&[1, 128], 3)
    } else {
        (&[1, 512], 9)
    };
    println!();
    println!("measured binomial collective trees (allreduce = reduce + bcast):");
    let samples = measure_tree_collectives(world_sizes, WORKERS, payloads, reps);
    let machine = MachineModel::ranger();
    let fit = fit_alpha_beta(&samples).expect("tree samples must admit an alpha-beta fit");
    let mut table = Table::new(&[
        "P",
        "rounds",
        "bytes",
        "measured us",
        "fit us",
        "ranger model us",
    ]);
    for s in &samples {
        table.row(&[
            s.p.to_string(),
            s.rounds.to_string(),
            format!("{:.0}", s.bytes),
            format!("{:.1}", s.seconds * 1e6),
            format!("{:.1}", fit.predict(s.rounds, s.bytes) * 1e6),
            format!("{:.1}", machine.t_allreduce(s.bytes, s.p) * 1e6),
        ]);
    }
    table.print();
    println!(
        "fitted host parameters: alpha = {:.2} us/round, beta = {}, rel RMS misfit {:.1}%",
        fit.alpha * 1e6,
        if fit.beta.is_finite() {
            format!("{:.1} MB/s", fit.beta / 1e6)
        } else {
            "inf".to_string()
        },
        fit.rel_rms_error(&samples) * 100.0
    );
    println!(
        "depth check: measured rounds follow 2*ceil(log2 P) by construction; the fit \
         residual above is the validation that times do too."
    );
    assert!(
        fit.alpha.is_finite() && fit.alpha > 0.0,
        "fitted latency must be positive: {fit:?}"
    );

    // ---- Artifact ------------------------------------------------------
    let sample_rows: Vec<Value> = samples
        .iter()
        .map(|s| {
            Value::object([
                ("ranks", Value::from(s.p as u64)),
                ("rounds", Value::from(s.rounds as u64)),
                ("bytes", Value::from(s.bytes)),
                ("measured_seconds", Value::from(s.seconds)),
                ("fit_seconds", Value::from(fit.predict(s.rounds, s.bytes))),
                (
                    "ranger_model_seconds",
                    Value::from(machine.t_allreduce(s.bytes, s.p)),
                ),
            ])
        })
        .collect();
    let doc = Value::object([
        ("schema", Value::from("bench.pr6.v1")),
        ("mode", Value::from(if smoke { "smoke" } else { "full" })),
        ("workers", Value::from(WORKERS as u64)),
        ("weak_scaling", Value::Arr(weak_rows)),
        ("collective_trees", Value::Arr(sample_rows)),
        (
            "alpha_beta_fit",
            Value::object([
                ("alpha_seconds", Value::from(fit.alpha)),
                (
                    "beta_bytes_per_second",
                    if fit.beta.is_finite() {
                        Value::from(fit.beta)
                    } else {
                        Value::Null
                    },
                ),
                ("rel_rms_error", Value::from(fit.rel_rms_error(&samples))),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json() + "\n").expect("write BENCH_pr6.json");
    println!("\nwrote {out_path}");
}
