//! Fig. 7 — Weak scalability of adaptive advection–diffusion: runtime
//! breakdown by AMR function (top) and parallel efficiency (bottom).
//!
//! Paper: 131K elements/core from 1 to 62,464 cores (7.9B elements).
//! Time integration dominates; the most expensive AMR function is
//! `ExtractMesh` (≤6%); all AMR together stays ≤11%; parallel efficiency
//! stays above 50% over the 62K-fold scale-up.
//!
//! Here: the real AMR transport loop runs under the `obs` tracing
//! subsystem, serially (to measure per-phase local work) and on 4
//! simulated ranks (to record the per-rank communication profile and
//! emit the Chrome trace / run manifest under `results/obs/`); the
//! machine model then produces the per-phase times at every paper core
//! count. All printed breakdowns are derived from obs span data.

use mesh::extract::extract_mesh;
use obs::{ObsSession, RankProfile, Reduce, Summary, Value};
use octree::parallel::DistOctree;
use rhea::adapt::{adapt_mesh, gradient_indicator, AdaptParams};
use rhea::transport::{TransportParams, TransportSolver};
use rhea_bench::{banner, paper_core_counts, phase_comm_seconds, Table, PAPER_PHASES};
use scomm::{spmd, CommStats, MachineModel};

/// Run the adaptive transport loop with tracing on and return the
/// per-rank telemetry profiles, the global element count, and each
/// rank's measured communication counters.
fn run_traced(
    ranks: usize,
    level: u8,
    steps: usize,
    adapt_every: usize,
) -> (Vec<RankProfile>, u64, Vec<CommStats>) {
    let (counts, profiles) = spmd::run_traced(ranks, move |c, rec| {
        let mut tree = DistOctree::new_uniform(c, level);
        let mut mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
        let mut temp: Vec<f64> = (0..mesh.n_owned)
            .map(|d| {
                let p = mesh.dof_coords(d);
                let r = ((p[0] - 0.6).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt();
                0.5 * (1.0 - ((r - 0.25) * 30.0).tanh())
            })
            .collect();
        let target = tree.global_count();
        for s in 0..steps {
            rec.with_cat("TimeIntegration", "solve", || {
                let params = TransportParams {
                    kappa: 1e-6,
                    source: 0.0,
                    cfl: 0.4,
                };
                let mut ts = TransportSolver::new(&mesh, c, params);
                ts.set_velocity_fn(|p| [0.5 - p[1], p[0] - 0.5, 0.0]);
                let dt = ts.stable_dt().min(0.01);
                ts.step(&mut temp, dt);
            });
            if adapt_every > 0 && s % adapt_every == adapt_every - 1 {
                let ind = gradient_indicator(&mesh, c, &temp);
                let fields = [temp.clone()];
                let aparams = AdaptParams {
                    target_elements: target,
                    max_level: level + 2,
                    min_level: 1,
                    ..Default::default()
                };
                let (nm, mut nf, _) = adapt_mesh(&mut tree, &mesh, &fields, &ind, &aparams, rec);
                mesh = nm;
                temp = nf.remove(0);
            }
        }
        (tree.global_count(), c.stats())
    });
    let n_global = counts[0].0;
    let stats = counts.into_iter().map(|(_, s)| s).collect();
    (profiles, n_global, stats)
}

fn main() {
    banner(
        "Figure 7",
        "Weak scaling: % runtime per AMR function + parallel efficiency",
    );
    // Measure the per-phase serial profile on this host (1 rank = pure
    // local work, no contention).
    let steps = 32; // one adaptation per 32 steps, the paper's cadence
    let (serial_profiles, n_elem, _) = run_traced(1, 4, steps, 32);
    let serial = &serial_profiles[0].summary;
    let machine = MachineModel::ranger();
    let elem_per_core = n_elem as f64;

    // Convert each phase's measured local seconds into model flops; add
    // the modeled per-phase communication at scale (one adaptation per
    // run, `steps` time steps).
    let host_to_flops = |sec: f64| sec * machine.fem_efficiency * machine.peak_flops_per_core;
    let surface_bytes = 8.0 * 6.0 * (elem_per_core).powf(2.0 / 3.0) * 8.0; // 8B/node, 6 faces

    let cores = paper_core_counts(62464);
    let mut table = Table::new(&[
        "#cores",
        "TimeInt%",
        "Balance%",
        "Partition%",
        "Extract%",
        "Interp%",
        "Transfer%",
        "Mark%",
        "AMR total%",
        "efficiency",
    ]);
    let mut base_total = 0.0;
    for &p in &cores {
        let modeled = |name: &str| -> f64 {
            let occurrences = if name == "TimeIntegration" {
                steps as f64
            } else {
                1.0
            };
            machine.t_fem_flops(host_to_flops(serial.incl_seconds(name)))
                + occurrences * phase_comm_seconds(name, p, &machine, surface_bytes)
        };
        let total: f64 = PAPER_PHASES.iter().map(|(name, _)| modeled(name)).sum();
        if p == 1 {
            base_total = total;
        }
        let pct = |name: &str| -> f64 { 100.0 * modeled(name) / total };
        let amr_pct: f64 = PAPER_PHASES
            .iter()
            .filter(|(_, cat)| *cat == "amr")
            .map(|(name, _)| pct(name))
            .sum();
        // Weak-scaling efficiency: same elements/core ⇒ ideal keeps total
        // constant.
        let eff = base_total / total;
        table.row(&[
            p.to_string(),
            format!("{:.1}", pct("TimeIntegration")),
            format!("{:.1}", pct("BalanceTree")),
            format!("{:.1}", pct("PartitionTree")),
            format!("{:.1}", pct("ExtractMesh")),
            format!("{:.1}", pct("InterpolateFields")),
            format!("{:.1}", pct("TransferFields")),
            format!("{:.1}", pct("MarkElements")),
            format!("{:.1}", amr_pct),
            format!("{:.2}", eff),
        ]);
    }
    table.print();
    println!();
    println!(
        "measured serial span profile ({} elements, {} steps, adapt every 32):",
        n_elem, steps
    );
    println!(
        "  {:<18} {:>6} {:>10} {:>10}",
        "phase", "count", "incl s", "excl s"
    );
    for (name, _) in PAPER_PHASES {
        if let Some(st) = serial.phases.get(name) {
            println!(
                "  {:<18} {:>6} {:>10.3} {:>10.3}",
                name,
                st.count,
                st.incl_seconds(),
                st.excl_seconds()
            );
        }
    }

    // Four simulated ranks: record the real communication profile and
    // emit the observability artifacts for this figure.
    let ranks = 4;
    let (profiles, n4, comm_stats) = run_traced(ranks, 3, 8, 4);
    let merged = Summary::reduce_all(profiles.iter().map(|p| &p.summary));
    println!();
    println!("{ranks}-rank communication profile ({n4} elements, merged across ranks):");
    println!("  {:<18} {:>8} {:>10}", "op", "calls", "incl s");
    for (name, st) in merged.phases.iter().filter(|(_, st)| st.cat == "comm") {
        println!("  {:<18} {:>8} {:>10.4}", name, st.count, st.incl_seconds());
    }
    if let Some(h) = merged.hists.get("comm.bytes") {
        println!(
            "  bytes on the wire: {} messages, {} B total",
            h.count, h.sum
        );
    }

    // Ranger-scale extrapolation from the *measured* counters: feed each
    // rank's recorded CommStats through the α–β–γ machine model at every
    // paper core count, take the critical-path rank, and compose with the
    // measured time-integration compute two ways — blocking (comp + comm)
    // versus split-phase overlapped (max(comp, comm)). The gain column is
    // the modeled payoff of overlapping the ghost exchange (PR 5).
    let comp_host = merged
        .phases
        .get("TimeIntegration")
        .map(|st| st.incl_seconds())
        .unwrap_or(0.0)
        / ranks as f64;
    let t_comp = machine.t_fem_flops(host_to_flops(comp_host));
    println!();
    println!(
        "Ranger extrapolation from measured CommStats \
         (per-step phase, {ranks}-rank counters):"
    );
    let mut ab = Table::new(&[
        "#cores",
        "t_comp s",
        "t_comm s",
        "blocking s",
        "overlapped s",
        "overlap gain",
    ]);
    for &p in &cores {
        let t_comm = comm_stats
            .iter()
            .map(|s| machine.t_comm(s, p))
            .fold(0.0, f64::max);
        let blocking = machine.t_phase_blocking(t_comp, t_comm);
        let overlapped = machine.t_phase_overlapped(t_comp, t_comm);
        ab.row(&[
            p.to_string(),
            format!("{t_comp:.3}"),
            format!("{t_comm:.3}"),
            format!("{blocking:.3}"),
            format!("{overlapped:.3}"),
            format!("{:.2}x", blocking / overlapped),
        ]);
    }
    ab.print();

    let extra = Value::object([
        ("figure", Value::from("fig7")),
        ("ranks", Value::from(ranks as u64)),
        ("elements", Value::from(n4)),
        ("serial_elements", Value::from(n_elem)),
        ("steps", Value::from(steps as u64)),
    ]);
    match ObsSession::new("fig7_weak_breakdown").write(&profiles, extra) {
        Ok(w) => {
            println!();
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
        "paper shape anchors: AMR total ≤ 11% at 62K cores (ExtractMesh largest at ≤6%),\n\
         parallel efficiency ≥ 0.50 from 1 → 62,464 cores."
    );
}
