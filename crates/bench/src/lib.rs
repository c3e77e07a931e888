//! Shared harness utilities for the paper-figure reproductions.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index). The harnesses run the *real*
//! distributed algorithms on simulated ranks at host scale, then use the
//! calibrated Ranger [`scomm::MachineModel`] to extend the series to the
//! paper's core counts (DESIGN.md substitution #1). Measured rows are
//! tagged `measured`; extrapolated rows are tagged `modeled`.

use scomm::MachineModel;

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

/// The core counts the paper sweeps (Figs. 6–8): powers of two plus the
/// odd-sized full-machine runs.
pub fn paper_core_counts(max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..=16)
        .map(|k| 1usize << k)
        .take_while(|&c| c <= max)
        .collect();
    if max >= 62464 && !v.contains(&62464) {
        v.push(62464);
    }
    v
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

/// Modeled communication seconds of one occurrence of a paper phase on
/// `p` cores — one mesh adaptation for the `amr` rows, one time step for
/// `TimeIntegration` — from the collective structure of the algorithm:
///
/// * `BalanceTree`: ~6 rounds of neighbor alltoallv + allreduce;
/// * `PartitionTree`: bulk element movement (4 alltoallv) + the marker
///   allgather (`update_markers` is an `allgatherv_into`);
/// * `ExtractMesh`: ghost alltoallv + gid lookups (5) + 4 allgathers;
/// * `MarkElements`: ~40 allreduce bisection iterations;
/// * `TransferFields`: 2 alltoallv (volume = fields);
/// * `NewTree`: the marker allgather;
/// * `TimeIntegration`: 4 surface-volume ghost exchanges per step;
/// * `CoarsenTree`, `RefineTree`, `InterpolateFields`: local only.
///
/// The three Stokes rows depend on the measured iteration count and are
/// modeled where it is known (`fig8_full_breakdown`); they return 0 here.
/// `surface_bytes` is the per-rank ghost-surface volume of one exchange.
pub fn phase_comm_seconds(span: &str, p: usize, machine: &MachineModel, surface_bytes: f64) -> f64 {
    if p == 1 {
        return 0.0;
    }
    let a2a = machine.t_alltoallv(surface_bytes, 26); // neighbor exchange
    let ar = machine.t_allreduce(8.0, p);
    let ag = machine.t_allgather(8.0, p);
    match span {
        "BalanceTree" => 6.0 * (a2a + ar),
        "PartitionTree" => 4.0 * a2a + ag,
        "ExtractMesh" => 5.0 * a2a + 4.0 * ag,
        "MarkElements" => 40.0 * ar,
        "TransferFields" => 2.0 * a2a,
        "NewTree" => ag,
        "TimeIntegration" => 4.0 * a2a,
        _ => 0.0,
    }
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

/// Shared full-convection workload used by the Fig. 8 and Fig. 10
/// harnesses: runs RHEA (Stokes + transport + AMR every `adapt_every`
/// steps) on `ranks` simulated ranks with tracing on, and returns the
/// per-rank telemetry profiles, the element count, and total MINRES
/// iterations. The profiles carry the full span/series/histogram record —
/// write them with [`obs::ObsSession`] or read phase times from each
/// profile's [`obs::Summary`] by [`PAPER_PHASES`] span name.
pub fn convection_workload_traced(
    ranks: usize,
    level: u8,
    steps: usize,
    adapt_every: usize,
) -> (Vec<obs::RankProfile>, u64, usize) {
    use rhea::convection::{ConvectionParams, ConvectionSim};
    use rhea::rheology::ArrheniusLaw;
    let (out, profiles) = scomm::spmd::run_traced(ranks, move |c, _rec| {
        let params = ConvectionParams {
            rayleigh: 1e5,
            adapt_every,
            adapt: rhea::adapt::AdaptParams {
                target_elements: 8 * 8u64.pow(level as u32 - 1),
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
        let law = ArrheniusLaw::default();
        let mut iters = 0;
        for _ in 0..steps {
            let rep = sim.step(&law);
            iters += rep.minres_iterations;
        }
        (sim.tree.global_count(), iters)
    });
    let (n_elem, iters) = out[0];
    (profiles, n_elem, iters)
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

    #[test]
    fn core_counts_include_full_machine() {
        let v = paper_core_counts(62464);
        assert!(v.contains(&1) && v.contains(&16384) && v.contains(&62464));
        let w = paper_core_counts(8);
        assert_eq!(w, vec![1, 2, 4, 8]);
    }

    /// Every [`PAPER_PHASES`] row names a span the convection loop
    /// really records, under the listed category: a renamed span fails
    /// here instead of silently zeroing a figure column.
    #[test]
    fn paper_phases_are_recorded_by_the_convection_loop() {
        let (profiles, _, _) = convection_workload_traced(1, 2, 3, 2);
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

    /// The communication table matches spans by name, so a misspelt arm
    /// would silently model zero: pin which rows communicate.
    #[test]
    fn comm_model_rows_are_paper_phases() {
        let machine = MachineModel::ranger();
        let communicating: Vec<&str> = PAPER_PHASES
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| phase_comm_seconds(name, 1024, &machine, 1e4) > 0.0)
            .collect();
        assert_eq!(
            communicating,
            [
                "NewTree",
                "BalanceTree",
                "PartitionTree",
                "ExtractMesh",
                "TransferFields",
                "MarkElements",
                "TimeIntegration"
            ]
        );
        for (name, _) in PAPER_PHASES {
            assert_eq!(phase_comm_seconds(name, 1, &machine, 1e4), 0.0);
        }
    }

    /// The figure harnesses' acceptance path: a 4-rank traced run must
    /// produce a valid Chrome trace with one track per rank and a
    /// run manifest.
    #[test]
    fn traced_workload_writes_figure_artifacts() {
        let dir = std::env::temp_dir().join(format!("rhea-bench-obs-{}", std::process::id()));
        let (profiles, n_elem, iters) = convection_workload_traced(4, 2, 2, 2);
        assert_eq!(profiles.len(), 4);
        assert!(n_elem > 0 && iters > 0);
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
