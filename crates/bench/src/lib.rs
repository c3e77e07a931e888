//! Shared harness utilities for the paper-figure reproductions.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (EXPERIMENTS.md has the index). The scaling figures run the
//! *real* distributed algorithms at the rank counts in [`RANK_COUNTS`],
//! one thread per rank, and print one row per run: what a row shows was
//! read from a clock or a counter during that run. The paper's numbers at
//! 1…62,464 cores are quoted beside them as not reproduced.

use obs::{RankProfile, Recorder};
use rhea::adapt::AdaptReport;
use scomm::{spmd, Comm, CommStats};

/// Print a figure/table banner.
pub fn banner(id: &str, paper: &str) {
    println!("==================================================================");
    println!("{id} — {paper}");
    println!("==================================================================");
}

/// Human-readable element/dof counts (paper style: 67.2K, 2.06M, 1.07B).
pub fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// The paper's thirteen runtime phases (Figs. 7, 8, 10) in legend order:
/// `(obs span name, category)`. The figure harnesses read each phase's
/// time as `Summary::incl_seconds(name)`; "AMR time" is the sum over the
/// `amr` rows. The `MINRES` span wraps the `AMGSolve` V-cycles it
/// triggers, so the paper's "MINRES" column is
/// `incl("MINRES") − incl("AMGSolve")`.
pub const PAPER_PHASES: [(&str, &str); 13] = [
    ("NewTree", "amr"),
    ("CoarsenTree", "amr"),
    ("RefineTree", "amr"),
    ("BalanceTree", "amr"),
    ("PartitionTree", "amr"),
    ("ExtractMesh", "amr"),
    ("InterpolateFields", "amr"),
    ("TransferFields", "amr"),
    ("MarkElements", "amr"),
    ("TimeIntegration", "solve"),
    ("MINRES", "solve"),
    ("AMGSetup", "solve"),
    ("AMGSolve", "solve"),
];

/// The rank counts every scaling figure runs, one OS thread per rank.
pub const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One traced run of a figure workload at one rank count — one table row.
pub struct Run {
    pub profiles: Vec<RankProfile>,
    /// Global element count when the workload returned.
    pub elements: u64,
    pub minres_iters: usize,
    /// Time steps taken: the divisor of the per-step columns.
    pub steps: usize,
    /// Per-rank on-CPU seconds of the workload closure.
    pub cpu_s: Vec<f64>,
    /// Per-rank communication counters of the workload closure.
    pub stats: Vec<CommStats>,
}

/// Run `workload` on `ranks` traced ranks; it returns `(elements, MINRES
/// iterations, output)` and is clocked per rank with [`obs::thread_cpu_ns`].
/// The outputs come back beside the [`Run`], in rank order.
pub fn measure<T, F>(ranks: usize, steps: usize, workload: F) -> (Run, Vec<T>)
where
    T: Send,
    F: Fn(&Comm, &Recorder) -> (u64, usize, T) + Sync,
{
    let (out, profiles) = spmd::run_traced(ranks, |c, rec| {
        let cpu0 = obs::thread_cpu_ns();
        let (elements, iters, own) = workload(c, rec);
        let cpu_s = (obs::thread_cpu_ns() - cpu0) as f64 * 1e-9;
        (elements, iters, cpu_s, c.stats(), own)
    });
    let run = Run {
        profiles,
        elements: out[0].0,
        minres_iters: out[0].1,
        steps,
        cpu_s: out.iter().map(|o| o.2).collect(),
        stats: out.iter().map(|o| o.3.clone()).collect(),
    };
    (run, out.into_iter().map(|o| o.4).collect())
}

impl Run {
    pub fn ranks(&self) -> usize {
        self.profiles.len()
    }

    /// On-CPU seconds of the busiest rank: the run's critical path when
    /// every rank has a core, and still a rank's own work when not.
    pub fn max_cpu_s(&self) -> f64 {
        self.cpu_s.iter().cloned().fold(0.0, f64::max)
    }

    /// Span seconds are wall time, which measures a rank only while it
    /// has a core to itself: phase columns are printed for such runs only.
    pub fn spans_are_measured(&self) -> bool {
        self.ranks() <= std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Inclusive seconds of a [`PAPER_PHASES`] span on its slowest rank.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.summary.incl_seconds(name))
            .fold(0.0, f64::max)
    }

    /// Seconds over all `amr` rows of [`PAPER_PHASES`] but `NewTree`
    /// (built once, not per adaptation).
    pub fn amr_s(&self) -> f64 {
        PAPER_PHASES
            .iter()
            .filter(|&&(name, cat)| cat == "amr" && name != "NewTree")
            .map(|(name, _)| self.phase_s(name))
            .sum()
    }

    /// The paper's MINRES column: the `MINRES` span wraps the `AMGSolve`
    /// V-cycles it triggers, the column excludes them.
    pub fn minres_s(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.summary.incl_seconds("MINRES") - p.summary.incl_seconds("AMGSolve"))
            .fold(0.0, f64::max)
    }

    /// `cell(seconds)` where spans are measured, `-` where they are not.
    pub fn phase_cell(&self, seconds: f64, cell: impl Fn(f64) -> String) -> String {
        if self.spans_are_measured() {
            cell(seconds)
        } else {
            "-".into()
        }
    }

    /// One row under [`scaling_headers`]: ranks, elements, max and mean
    /// per-rank on-CPU seconds, the figure's own `middle` cells, then
    /// point-to-point messages, KB and collectives per rank per step.
    pub fn scaling_row(&self, middle: Vec<String>) -> Vec<String> {
        let mean = self.cpu_s.iter().sum::<f64>() / self.ranks() as f64;
        let mut total = CommStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        let per = (self.ranks() * self.steps) as f64;
        let mut cells = vec![
            self.ranks().to_string(),
            self.elements.to_string(),
            format!("{:.3}", self.max_cpu_s()),
            format!("{mean:.3}"),
        ];
        cells.extend(middle);
        cells.extend([
            format!("{:.1}", total.p2p_messages as f64 / per),
            format!("{:.1}", total.p2p_bytes as f64 / 1024.0 / per),
            format!("{:.1}", total.collectives() as f64 / per),
        ]);
        cells
    }

    /// Print the [`PAPER_PHASES`] spans of this run (count on rank 0,
    /// seconds on the slowest rank) and write its Chrome trace, event log
    /// and run manifest as `results/obs/<name>.*`.
    pub fn report(&self, name: &str) {
        println!();
        println!(
            "span profile of the {}-rank run (slowest rank per phase):",
            self.ranks()
        );
        println!(
            "  {:<18} {:>6} {:>10} {:>12}",
            "phase", "count", "incl ms", "incl ms/step"
        );
        for (phase, _) in PAPER_PHASES {
            if let Some(st) = self.profiles[0].summary.phases.get(phase) {
                let ms = 1e3 * self.phase_s(phase);
                let per_step = ms / self.steps as f64;
                println!("  {phase:<18} {:>6} {ms:>10.3} {per_step:>12.3}", st.count);
            }
        }
        let extra = obs::Value::object([
            ("ranks", obs::Value::from(self.ranks() as u64)),
            ("elements", obs::Value::from(self.elements)),
            (
                "minres_iterations",
                obs::Value::from(self.minres_iters as u64),
            ),
            ("steps", obs::Value::from(self.steps as u64)),
        ]);
        match obs::ObsSession::new(name).write(&self.profiles, extra) {
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
    }
}

/// The caveat under every scaling table: rows are not repeated.
pub fn single_run_note() {
    println!(
        "(every row is a single run; this host's speed drifts by tens of percent between\n\
         runs, and ratios between rows carry that noise)"
    );
}

/// Headers of [`Run::scaling_row`] around the figure's own `middle`.
pub fn scaling_headers(middle: &[&'static str]) -> Vec<&'static str> {
    let mut headers = vec!["#ranks", "elements", "max CPU s", "mean CPU s"];
    headers.extend(middle);
    headers.extend(["msgs/rank/step", "KB/rank/step", "coll/rank/step"]);
    headers
}

/// A simple aligned table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// What the advecting front leaves besides its [`Run`].
pub struct Front {
    /// Every adaptation's report: the two before the first step, then one
    /// per `adapt_every` steps.
    pub adapts: Vec<AdaptReport>,
    /// Global minimum and maximum of the temperature after the last step.
    pub bounds: (f64, f64),
}

/// The adaptive advection–diffusion workload of Figs. 5–7: a spherical
/// front in a rotating flow, the mesh adapted toward `target_elements`
/// twice before the first step (as the paper adapts its initial mesh) and
/// then every `adapt_every` steps, refining along the front and
/// coarsening in its wake.
pub fn transport_workload_traced(
    ranks: usize,
    level: u8,
    target_elements: u64,
    steps: usize,
    adapt_every: usize,
) -> (Run, Front) {
    use mesh::extract::extract_mesh;
    use octree::parallel::DistOctree;
    use rhea::adapt::{adapt_mesh_ws, gradient_indicator, AdaptParams, AdaptWorkspace};
    use rhea::transport::{TransportParams, TransportSolver};
    let (run, out) = measure(ranks, steps, move |c, rec| {
        let mut tree = rec.with_cat("NewTree", "amr", || DistOctree::new_uniform(c, level));
        let mut mesh = rec.with_cat("ExtractMesh", "amr", || {
            extract_mesh(&tree, [1.0, 1.0, 1.0])
        });
        rhea::adapt::count_extraction(rec, &mesh);
        let mut temp: Vec<f64> = (0..mesh.n_owned)
            .map(|d| {
                let p = mesh.dof_coords(d);
                let r = ((p[0] - 0.6).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt();
                0.5 * (1.0 - ((r - 0.25) * 30.0).tanh())
            })
            .collect();
        let aparams = AdaptParams {
            target_elements,
            // Tighter than the default 0.1: the weak-scaling rows compare
            // runs by their element count per rank.
            tolerance: 0.02,
            max_level: level + 2,
            min_level: 1,
            ..Default::default()
        };
        let mut ws = AdaptWorkspace::new();
        let mut adapts = Vec::new();
        let mut adapt = |mesh: &mut mesh::extract::Mesh, temp: &mut Vec<f64>| {
            let ind = gradient_indicator(mesh, c, temp);
            let fields = [std::mem::take(temp)];
            let (nm, mut nf, report) =
                adapt_mesh_ws(&mut tree, mesh, &fields, &ind, &aparams, rec, &mut ws);
            *mesh = nm;
            *temp = nf.remove(0);
            adapts.push(report);
        };
        adapt(&mut mesh, &mut temp);
        adapt(&mut mesh, &mut temp);
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
            if s % adapt_every == adapt_every - 1 {
                adapt(&mut mesh, &mut temp);
            }
        }
        // Folded over ranks below: a collective would count in the rows.
        let lo = temp.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = temp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (tree.global_count(), 0, (adapts, lo, hi))
    });
    let bounds = (
        out.iter().map(|o| o.1).fold(f64::INFINITY, f64::min),
        out.iter().map(|o| o.2).fold(f64::NEG_INFINITY, f64::max),
    );
    let adapts = out.into_iter().next().expect("one rank").0;
    (run, Front { adapts, bounds })
}

/// The full-convection workload of the Fig. 8 and Fig. 10 harnesses:
/// RHEA (Stokes + transport + AMR every `adapt_every` steps) at a fixed
/// `8^level` elements per rank. Two adaptations before the first step
/// take the uniform level-`level` start to that size, as the paper adapts
/// its initial mesh before time stepping.
pub fn convection_workload_traced(
    ranks: usize,
    level: u8,
    steps: usize,
    adapt_every: usize,
) -> Run {
    use rhea::convection::{ConvectionParams, ConvectionSim};
    use rhea::rheology::ArrheniusLaw;
    let (run, _) = measure(ranks, steps, move |c, _rec| {
        let params = ConvectionParams {
            rayleigh: 1e5,
            adapt_every,
            adapt: rhea::adapt::AdaptParams {
                target_elements: ranks as u64 * 8u64.pow(level as u32),
                max_level: level + 2,
                min_level: 1,
                ..Default::default()
            },
            stokes: stokes::StokesOptions {
                tol: 1e-6,
                max_iter: 500,
                ..Default::default()
            },
            picard_steps: 1,
            ..Default::default()
        };
        let mut sim = ConvectionSim::new(c, level, params);
        sim.adapt();
        sim.adapt();
        let law = ArrheniusLaw::default();
        let mut iters = 0;
        for _ in 0..steps {
            iters += sim.step(&law).minres_iterations;
        }
        (sim.tree.global_count(), iters, ())
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_formats() {
        assert_eq!(human(532), "532");
        assert_eq!(human(67_200), "67.2K");
        assert_eq!(human(2_060_000), "2.06M");
        assert_eq!(human(1_070_000_000), "1.07B");
    }

    /// The advecting front reports every adaptation it makes, the two
    /// before the first step included, and its last report describes the
    /// mesh the run ends on.
    #[test]
    fn front_reports_every_adaptation() {
        let (steps, adapt_every) = (4, 2);
        for ranks in [1, 2] {
            let (run, front) = transport_workload_traced(ranks, 2, 200, steps, adapt_every);
            assert_eq!(front.adapts.len(), 2 + steps / adapt_every, "P = {ranks}");
            let last = front.adapts.last().unwrap();
            assert_eq!(last.elements_after, run.elements, "P = {ranks}");
            let (lo, hi) = front.bounds;
            assert!(lo <= hi && lo.is_finite() && hi.is_finite(), "P = {ranks}");
        }
    }

    /// Every [`PAPER_PHASES`] row names a span the convection loop
    /// really records, under the listed category: a renamed span fails
    /// here instead of silently zeroing a figure column.
    #[test]
    fn paper_phases_are_recorded_by_the_convection_loop() {
        let profiles = convection_workload_traced(1, 2, 3, 2).profiles;
        let summary = &profiles[0].summary;
        for (name, cat) in PAPER_PHASES {
            let st = summary
                .phases
                .get(name)
                .unwrap_or_else(|| panic!("{name} not recorded"));
            assert_eq!(st.cat, cat, "{name}");
            assert!(st.incl_ns > 0, "{name}");
        }
    }

    /// The figure harnesses' acceptance path: a 4-rank traced run must
    /// produce a valid Chrome trace with one track per rank and a
    /// run manifest.
    #[test]
    fn traced_workload_writes_figure_artifacts() {
        let dir = std::env::temp_dir().join(format!("rhea-bench-obs-{}", std::process::id()));
        let run = convection_workload_traced(4, 2, 2, 2);
        let profiles = run.profiles;
        assert_eq!(profiles.len(), 4);
        assert!(run.elements > 0 && run.minres_iters > 0);
        let extra = obs::Value::object([("ranks", obs::Value::from(4u64))]);
        let written = obs::ObsSession::with_dir("fig_acceptance", &dir)
            .write(&profiles, extra)
            .expect("write obs artifacts");

        let trace = obs::json::parse(&std::fs::read_to_string(&written.trace).unwrap())
            .expect("trace is valid JSON");
        let events = trace.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let mut track_tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .map(|e| e.get("tid").and_then(|t| t.as_u64()).unwrap())
            .collect();
        track_tids.sort_unstable();
        assert_eq!(track_tids, vec![0, 1, 2, 3], "one track per simulated rank");
        // Real span events exist on every rank's track.
        for tid in 0..4u64 {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
                }),
                "rank {tid} has complete events"
            );
        }

        let manifest = obs::json::parse(&std::fs::read_to_string(&written.manifest).unwrap())
            .expect("manifest is valid JSON");
        assert_eq!(
            manifest.get("schema").and_then(|v| v.as_str()),
            Some("obs.run.v1")
        );
        assert_eq!(manifest.get("nranks").and_then(|v| v.as_u64()), Some(4));
        let merged = manifest.get("merged").unwrap();
        assert!(merged.get("phases").unwrap().get("MINRES").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
