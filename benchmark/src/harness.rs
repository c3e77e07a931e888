//! What every workload shares: the repeated set-up and timed loop, the
//! private tracer, the probe loop, and the per-rank driver that strings
//! them together.

use std::time::Instant;

use obs::{RankProfile, Recorder, SpanGuard, Summary};
use scomm::{Comm, CommStats};

use crate::host;
use crate::metrics::{median, Bag};

/// Repetitions of (fresh set-up, timed loop) in an untraced run. The host
/// slows down in bursts of seconds (other tenants of the machine), so one
/// pass over the loop measures the neighbours as much as the program; each
/// step is therefore timed `REPS` times and its fastest time kept.
const REPS: usize = 3;
/// A traced run alternates this many untraced and traced repetitions.
const TRACE_REPS: usize = 2;

/// Limit on |Σ layer self time − traced wall| ÷ traced wall.
pub const SELF_TIME_TOLERANCE: f64 = 0.02;

/// One run's knobs, as parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Timed steps or cycles per repetition, already scaled from `--seconds`.
    pub steps: usize,
    pub trace: bool,
    /// Tiny meshes and a single repetition, for the debug-build smoke test.
    pub smoke: bool,
    /// Violate an output check on purpose (the failing-path test).
    pub inject_fault: bool,
}

/// The benchmark's own recorder. It is never attached to a `Comm`, so no
/// span from inside the program can nest in it: every span here is opened
/// by benchmark code around a call into one layer.
pub struct Tracer {
    rec: Recorder,
}

impl Tracer {
    pub fn new(rank: usize) -> Tracer {
        Tracer {
            rec: Recorder::new(rank),
        }
    }

    /// Open `layer.what`; the layer (text before the dot) is the category,
    /// so self time can be summed per layer.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let layer = name.split('.').next().unwrap_or(name);
        self.rec.span_cat(name, layer)
    }
}

/// Run `f` under span `name` when tracing, bare otherwise.
pub fn in_span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = tr.map(|t| t.span(name));
    f()
}

/// What one timed step or cycle reports back to the driver.
pub struct StepOut {
    /// Global element count the step worked on.
    pub elements: u64,
    /// Every output check of the step held.
    pub ok: bool,
}

/// One rank's share of a workload, after set-up.
pub trait Sim {
    /// One timed step or cycle. With a tracer the same work runs through
    /// the public functions of each layer, one span around each call.
    fn step(&mut self, tr: Option<&Tracer>) -> StepOut;

    /// Bitwise digest of the state, identical on every rank. Collective.
    fn checksum(&self) -> u64;

    /// Counts accumulated by `step` since set-up, already global.
    fn counts(&self, bag: &mut Bag);

    /// Layer probes on the end state. Collective.
    fn probes(&mut self, bag: &mut Bag);
}

/// A workload's set-up: builds one rank's state on its own stack, then hands
/// it to the body — a `Sim` may borrow what set-up built (the DG solver
/// borrows its forest). The tracer, when given, receives set-up spans.
pub type SetUp = fn(&Comm, &RunCfg, Option<&Tracer>, &mut dyn FnMut(&mut dyn Sim));

/// This rank's clocks over one timed step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTime {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One repetition on one rank: a fresh set-up and the timed loop after it.
/// Everything but the clocks is global, identical on every rank.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    pub traced: bool,
    pub setup_s: f64,
    pub steps: Vec<StepTime>,
    pub failed_ops: u64,
    pub elem_steps: u64,
    pub checksum: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// What the loop did, in whole numbers: the workload's own counts and
    /// the `Comm::stats()` deltas summed over ranks.
    pub counts: Bag,
    /// Span-derived values of a traced repetition, from this rank's tracer.
    pub spans: Bag,
}

impl RepOut {
    /// What equal inputs must reproduce exactly, traced or not.
    fn fingerprint(&self) -> (u64, &Bag, u64) {
        (self.checksum, &self.counts, self.elem_steps)
    }
}

/// What a rank hands back through `spmd::run`.
#[derive(Debug, Clone, Default)]
pub struct RankOut {
    pub reps: Vec<RepOut>,
    /// Probe results on the end state of the last (traced) repetition.
    pub probes: Bag,
    /// The last traced repetition's spans, for the trace files.
    pub profile: Option<RankProfile>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

/// FNV-1a over 64-bit words, then over the per-rank digests in rank order.
pub fn digest(comm: &Comm, words: impl Iterator<Item = u64>) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0100_0000_01b3);
    let local = words.fold(BASIS, fnv);
    comm.allgather(&[local]).into_iter().fold(BASIS, fnv)
}

fn timed_loop(comm: &Comm, sim: &mut dyn Sim, steps: usize, tr: Option<&Tracer>) -> RepOut {
    let mut out = RepOut {
        traced: tr.is_some(),
        ..Default::default()
    };
    comm.barrier();
    let stats0 = comm.stats();
    let (allocs0, bytes0) = host::alloc_counts();
    for _ in 0..steps {
        let cpu0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let step = in_span(tr, "bench.step", || sim.step(tr));
        out.steps.push(StepTime {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: (host::thread_cpu_ns() - cpu0) as f64 * 1e-9,
        });
        out.failed_ops += u64::from(!step.ok);
        out.elem_steps += step.elements;
    }
    let (allocs1, bytes1) = host::alloc_counts();
    let stats1 = comm.stats();
    comm.barrier();

    let delta = |f: fn(&CommStats) -> u64| f(&stats1) - f(&stats0);
    let sums = comm.allreduce_sum(&[
        allocs1 - allocs0,
        bytes1 - bytes0,
        delta(|s| s.p2p_messages),
        delta(|s| s.p2p_bytes),
        delta(CommStats::collectives),
        delta(|s| s.collective_bytes),
    ]);
    (out.allocs, out.alloc_bytes) = (sums[0], sums[1]);
    let comm_counts = [
        "scomm.p2p_msgs",
        "scomm.p2p_bytes",
        "scomm.collectives",
        "scomm.collective_bytes",
    ];
    for (name, &v) in comm_counts.into_iter().zip(&sums[2..]) {
        out.counts.set(name, v as f64);
    }
    out.failed_ops = comm.allreduce_max(&[out.failed_ops])[0];
    out.checksum = sim.checksum();
    sim.counts(&mut out.counts);
    out
}

/// Median seconds per call over `reps` barrier-fenced samples of `batch`
/// calls each, after one warm call.
pub fn probe(comm: &Comm, reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            comm.barrier();
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&mut samples)
}

/// Span-derived values of one traced loop: self seconds by phase, the
/// driver's own share, how far the self times miss the loop's wall, and
/// the spans that are metrics by themselves.
fn span_metrics(tr: &Tracer, before: &Summary, loop_wall_s: f64) -> Bag {
    let mut bag = Bag::default();
    let mut self_total = 0.0;
    for (name, stats) in &tr.rec.summary().phases {
        let earlier = before.phases.get(name).map_or(0, |p| p.excl_ns);
        let self_s = (stats.excl_ns - earlier) as f64 * 1e-9;
        self_total += self_s;
        match name.as_str() {
            "rhea.indicator" => bag.add("rhea.indicator_s", self_s),
            "rhea.adapt" => bag.add("rhea.adapt_s", self_s),
            "rhea.solve_flow" => bag.add("rhea.solve_flow_s", self_s),
            "rhea.transport" => bag.add("rhea.transport_s", self_s),
            n if n.starts_with("bench.") => bag.add("bench.other_s", self_s),
            _ => {}
        }
    }
    bag.set(
        "bench.self_time_gap",
        (self_total - loop_wall_s).abs() / loop_wall_s,
    );
    let amr_s = bag.get("rhea.indicator_s") + bag.get("rhea.adapt_s");
    bag.set("rhea.amr_share", amr_s / loop_wall_s);
    bag.set("forest.build_ms", 1e3 * before.incl_seconds("forest.build"));
    let mut dg_steps: Vec<f64> = (tr.rec.profile().spans.iter())
        .filter(|s| s.name == "mangll.step")
        .map(|s| s.dur_ns as f64 * 1e-6)
        .collect();
    if !dg_steps.is_empty() {
        bag.set("mangll.step_ms", median(&mut dg_steps));
    }
    bag
}

/// Probes that belong to no workload: one allreduce, one recorder span.
fn common_probes(comm: &Comm, bag: &mut Bag) {
    let one = [1.0f64];
    let allreduce_s = probe(comm, 20, 50, || {
        std::hint::black_box(comm.allreduce_sum(std::hint::black_box(&one)));
    });
    bag.set("scomm.allreduce_us", 1e6 * allreduce_s);
    // What every span the program records (always on inside
    // `ConvectionSim`) costs it. A recorder keeps its first 2^18 spans as
    // events and only counts the rest; 40 000 stays on the recording path.
    let rec = Recorder::new(comm.rank());
    let span_s = probe(comm, 20, 2000, || drop(rec.span_cat("probe", "obs")));
    bag.set("obs.span_ns", 1e9 * span_s);
}

/// One rank's whole run. Collective: every rank of the world calls it.
pub fn drive(comm: &Comm, cfg: &RunCfg, set_up: SetUp) -> RankOut {
    let mut out = RankOut::default();
    // Which repetitions are traced; a traced run ends on a traced one,
    // whose end state the probes then use.
    let plan: Vec<bool> = match (cfg.trace, cfg.smoke) {
        (false, false) => vec![false; REPS],
        (false, true) => vec![false],
        (true, false) => [false, true].repeat(TRACE_REPS),
        (true, true) => vec![false, true],
    };
    for (k, &traced) in plan.iter().enumerate() {
        let tr = traced.then(|| Tracer::new(comm.rank()));
        comm.barrier();
        let t0 = Instant::now();
        set_up(comm, cfg, tr.as_ref(), &mut |sim| {
            comm.barrier();
            let setup_s = t0.elapsed().as_secs_f64();
            let before = tr.as_ref().map(|t| t.rec.summary());
            let mut rep = timed_loop(comm, sim, cfg.steps, tr.as_ref());
            rep.setup_s = setup_s;
            if let (Some(tr), Some(before)) = (&tr, &before) {
                let loop_wall_s = rep.steps.iter().map(|s| s.wall_s).sum();
                rep.spans = span_metrics(tr, before, loop_wall_s);
            }
            out.reps.push(rep);
            if cfg.trace && k + 1 == plan.len() {
                common_probes(comm, &mut out.probes);
                sim.probes(&mut out.probes);
            }
        });
        if let Some(tr) = tr {
            out.profile = Some(tr.rec.profile());
        }
    }

    let first = out.reps[0].fingerprint();
    if out.reps.iter().any(|r| r.fingerprint() != first) {
        out.errors
            .push("repetitions of one input ended in different states or counts".to_string());
    }
    // Rank 0's spans tile rank 0's loop, so only rank 0's gap means anything.
    let gaps = out.reps.iter().filter(|r| r.traced);
    let gap = gaps
        .map(|r| r.spans.get("bench.self_time_gap"))
        .fold(0.0, f64::max);
    let gap = comm.bcast(0, &[gap])[0];
    if gap > SELF_TIME_TOLERANCE {
        out.errors.push(format!(
            "layer self times miss the traced wall by {:.1} %",
            100.0 * gap
        ));
    }
    out
}
