//! `bench once`: one measured run of one workload in this process — what
//! `BENCHMARK.json`'s command invokes and what `bench run` spawns per
//! repeat, so `setup_s` and `peak_rss_mb` belong to exactly one run.

use std::path::PathBuf;

use obs::{ObsSession, Value};
use scomm::spmd;

use crate::harness::{drive, RankOut, RepOut, RunCfg, SetUp, StepTime};
use crate::metrics::{median, Bag, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::{amr, conv, dg, host};

/// A named workload (the why of each is in `README.md` and
/// `BENCHMARK.json`): which problem, on how many ranks, and how many timed
/// steps or cycles one repetition runs at `--seconds 15`: about five seconds
/// on the reference host (2 × Xeon 2.1 GHz, release build), three
/// repetitions to a run. Freezing the step count — not the duration — keeps
/// `wall_s` a time to a fixed solution and the counts exact.
pub struct Workload {
    pub name: &'static str,
    pub ranks: usize,
    pub steps: usize,
    pub set_up: SetUp,
    /// Whether `set_up` honours `RunCfg::inject_fault`.
    pub has_fault: bool,
}

impl Workload {
    /// The workload of that name, refused where the host has fewer CPUs than
    /// it has ranks: more rank threads than CPUs would report scheduler
    /// noise as wall time.
    pub fn find(name: &str) -> Result<&'static Workload, String> {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let cpus = host::nproc();
        if workload.ranks > cpus {
            return Err(format!(
                "{name} needs {} CPUs, this host has {cpus}",
                workload.ranks
            ));
        }
        Ok(workload)
    }
}

/// The `--seconds` at which a repetition runs `Workload::steps` steps;
/// `run_seconds` of `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 15;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "conv_cube_p1",
        ranks: 1,
        steps: 2,
        set_up: conv::set_up,
        has_fault: true,
    },
    Workload {
        name: "conv_cube_p2",
        ranks: 2,
        steps: 2,
        set_up: conv::set_up,
        has_fault: true,
    },
    Workload {
        name: "amr_front_p2",
        ranks: 2,
        steps: amr::CYCLES_PER_ORBIT,
        set_up: amr::set_up,
        has_fault: false,
    },
    Workload {
        name: "dg_shell_p2",
        ranks: 2,
        steps: 12,
        set_up: dg::set_up,
        has_fault: false,
    },
];

/// Timed steps or cycles at smoke size.
const SMOKE_STEPS: usize = 2;

/// Command-line options of `bench once`.
#[derive(Debug, Clone)]
pub struct OnceArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub inject_fault: bool,
    pub trace_dir: PathBuf,
}

/// Run once and print every metric by name with its unit, a `counts` line,
/// and the result object as the last line. `Ok(correct)`; `Err` before any
/// measurement (unknown workload, too few CPUs, misplaced option).
pub fn run(args: &OnceArgs) -> Result<bool, String> {
    let workload = Workload::find(&args.workload)?;
    if args.inject_fault && !workload.has_fault {
        return Err(format!("{} has no fault to inject", workload.name));
    }
    let steps = if args.smoke {
        SMOKE_STEPS
    } else {
        let scaled = workload.steps as u64 * args.seconds + NOMINAL_SECONDS / 2;
        (scaled / NOMINAL_SECONDS).max(1) as usize
    };
    let cfg = RunCfg {
        seed: args.seed,
        steps,
        trace: args.trace,
        smoke: args.smoke,
        inject_fault: args.inject_fault,
    };

    let ranks: Vec<RankOut> = spmd::run(workload.ranks, |comm| drive(comm, &cfg, workload.set_up));
    println!(
        "workload {} seed {} steps {} trace {}",
        workload.name,
        args.seed,
        steps,
        u8::from(args.trace)
    );
    let rank0 = &ranks[0];
    for rep in &rank0.reps {
        let walls = rep.steps.iter().map(|s| Value::from(s.wall_s));
        let line = Value::object([
            ("traced", Value::from(rep.traced)),
            ("setup_s", Value::from(rep.setup_s)),
            ("step_wall_s", Value::array(walls)),
        ]);
        println!("repetition {}", line.to_json());
    }

    let (bag, table): (Bag, &[(&str, &str)]) = if args.trace {
        (per_layer(&ranks), &PER_LAYER)
    } else {
        (end_to_end(&ranks), &END_TO_END)
    };
    for &(name, unit) in table {
        println!("{name} {} {unit}", bag.get(name));
    }
    let last = rank0.reps.last().expect("at least one repetition");
    let mut counts = Value::object(EXACT_COUNTS.map(|n| (n, Value::from(last.counts.get(n)))));
    counts.insert("checksum", Value::from(format!("{:016x}", last.checksum)));
    println!("counts {}", counts.to_json());

    for e in &rank0.errors {
        println!("error: {e}");
    }
    if args.trace {
        let profiles: Vec<_> = ranks.iter().filter_map(|r| r.profile.clone()).collect();
        let extra = Value::object([
            ("workload", Value::from(workload.name)),
            ("seed", Value::from(args.seed)),
            ("steps", Value::from(steps)),
        ]);
        match ObsSession::with_dir(workload.name, &args.trace_dir).write(&profiles, extra) {
            Ok(w) => println!("trace {}", w.trace.display()),
            Err(e) => println!("warning: trace files not written: {e}"),
        }
    }

    let attempted = (rank0.reps.len() * steps) as u64;
    let failed: u64 = rank0.reps.iter().map(|r| r.failed_ops).sum();
    let correct = failed == 0 && rank0.errors.is_empty();
    let result = Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", bag.to_json(table)),
    ]);
    println!("{}", result.to_json());
    Ok(correct)
}

/// Wall and on-CPU seconds of one pass over the loop, from the repetitions
/// of one kind: rank 0's wall, and every rank's cpu.
struct LoopTime {
    wall_s: f64,
    rank_cpu_s: Vec<f64>,
}

impl LoopTime {
    fn of(ranks: &[RankOut], traced: bool) -> LoopTime {
        LoopTime {
            wall_s: fastest(&ranks[0], traced, |s| s.wall_s),
            rank_cpu_s: (ranks.iter())
                .map(|rank| fastest(rank, traced, |s| s.cpu_s))
                .collect(),
        }
    }

    fn cpu_s(&self) -> f64 {
        self.rank_cpu_s.iter().sum()
    }

    fn rank_cpu_max_s(&self) -> f64 {
        self.rank_cpu_s.iter().copied().fold(0.0, f64::max)
    }
}

/// The six end-to-end metrics of an untraced run.
fn end_to_end(ranks: &[RankOut]) -> Bag {
    let time = LoopTime::of(ranks, false);
    let reps = &ranks[0].reps;
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut bag = Bag::default();
    bag.set("wall_s", time.wall_s);
    bag.set("setup_s", median(&mut setups));
    bag.set("cpu_s", time.cpu_s());
    bag.set("rank_cpu_max_s", time.rank_cpu_max_s());
    bag.set("elem_steps_per_s", reps[0].elem_steps as f64 / time.wall_s);
    bag.set("peak_rss_mb", host::peak_rss_mb());
    bag
}

/// The per-layer metrics of a traced run: spans and counts of the last
/// traced repetition, the probes on its end state, and what follows from
/// the clocks of the traced repetitions against the untraced ones.
fn per_layer(ranks: &[RankOut]) -> Bag {
    let rank0 = &ranks[0];
    let last = rank0.reps.last().expect("at least one repetition");
    let mut bag = last.spans.clone();
    bag.extend(&last.counts);
    bag.extend(&rank0.probes);
    bag.set("host.alloc_count", last.allocs as f64);
    bag.set("host.alloc_bytes", last.alloc_bytes as f64);

    let (traced, untraced) = (LoopTime::of(ranks, true), LoopTime::of(ranks, false));
    let n_ranks = ranks.len() as f64;
    let busy_share = traced.cpu_s() / (n_ranks * traced.wall_s);
    bag.set("scomm.wait_share", 1.0 - busy_share);
    bag.set(
        "host.rank_imbalance",
        traced.rank_cpu_max_s() / (traced.cpu_s() / n_ranks),
    );
    bag.set(
        "bench.trace_overhead",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    let iters = bag.get("la.minres_iters");
    if iters > 0.0 {
        bag.set("stokes.iter_us", 1e6 * bag.get("rhea.solve_flow_s") / iters);
    }
    bag
}

/// Time of one pass over the loop on one rank's clock, with the bursts of a
/// shared host taken out: every step was timed once per repetition (here:
/// the traced ones, or the untraced ones), doing the same work each time,
/// and its fastest time is the one least disturbed.
fn fastest(rank: &RankOut, traced: bool, clock: fn(&StepTime) -> f64) -> f64 {
    let reps: Vec<&RepOut> = rank.reps.iter().filter(|r| r.traced == traced).collect();
    let steps = reps.first().map_or(0, |r| r.steps.len());
    (0..steps)
        .map(|i| {
            let times = reps.iter().map(|r| clock(&r.steps[i]));
            times.fold(f64::INFINITY, f64::min)
        })
        .sum()
}
