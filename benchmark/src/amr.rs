//! `amr_front_p2`: the Fig. 4 adaptation pipeline with no solver, chasing a
//! moving shell front — and the pipeline-stage probes the convection
//! workloads share.

use std::time::Instant;

use mesh::extract::{extract_mesh, extract_mesh_with_ghosts, Mesh};
use mesh::interp::interpolate_node_field_into;
use obs::Recorder;
use octree::balance::BalanceKind;
use octree::mark::MarkParams;
use octree::parallel::{transfer_fields_into, DistOctree, GhostScratch, PartitionPlan};
use rhea::adapt::{adapt_mesh_ws, gradient_indicator, AdaptParams, AdaptWorkspace};
use scomm::Comm;

use crate::harness::{digest, in_span, RunCfg, Sim, StepOut, Tracer};
use crate::metrics::{median, Bag};
use crate::rng::SplitMix64;

const DOMAIN: [f64; 3] = [1.0, 1.0, 1.0];
/// The front is the shell `|x − c| = SHELL_RADIUS`, `1/STEEPNESS` wide.
const SHELL_RADIUS: f64 = 0.18;
const STEEPNESS: f64 = 50.0;
/// Cycles per revolution of the shell centre on its circle (0.157 rad each).
pub const CYCLES_PER_ORBIT: usize = 40;
const ORBIT_RADIUS: f64 = 0.25;
/// The circle the shell centre moves on: two orthonormal axes, oblique to
/// the grid so that no cycle sees an axis-aligned front.
const ORBIT: [[f64; 3]; 2] = [[0.36, 0.48, 0.8], [0.8, -0.6, 0.0]];
const WARMUP_CYCLES: usize = 3;

fn linear(p: [f64; 3]) -> f64 {
    p[0] + 2.0 * p[1] + 3.0 * p[2]
}

struct AmrSim<'c> {
    comm: &'c Comm,
    tree: DistOctree<'c>,
    mesh: Mesh,
    /// Carried alongside the front; trilinear interpolation keeps it exact.
    linear: Vec<f64>,
    adapt: AdaptParams,
    ws: AdaptWorkspace,
    /// Receives the spans `adapt_mesh_ws` records; never read.
    program_rec: Recorder,
    phase: f64,
    cycle: usize,
    probe_reps: usize,
    counts: Bag,
}

impl AmrSim<'_> {
    fn centre(&self) -> [f64; 3] {
        let advance = std::f64::consts::TAU / CYCLES_PER_ORBIT as f64;
        let theta = self.phase + advance * self.cycle as f64;
        let (s, c) = theta.sin_cos();
        std::array::from_fn(|d| 0.5 + ORBIT_RADIUS * (c * ORBIT[0][d] + s * ORBIT[1][d]))
    }

    fn front(&self) -> Vec<f64> {
        let c = self.centre();
        (0..self.mesh.n_owned)
            .map(|d| {
                let p = self.mesh.dof_coords(d);
                let r =
                    ((p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2)).sqrt();
                0.5 * (1.0 - (STEEPNESS * (r - SHELL_RADIUS)).tanh())
            })
            .collect()
    }

    fn cycle(&mut self, tr: Option<&Tracer>) -> StepOut {
        let front = self.front();
        let ind = in_span(tr, "rhea.indicator", || {
            gradient_indicator(&self.mesh, self.comm, &front)
        });
        let fields = [front, std::mem::take(&mut self.linear)];
        let (mesh, mut fields, report) = in_span(tr, "rhea.adapt", || {
            adapt_mesh_ws(
                &mut self.tree,
                &self.mesh,
                &fields,
                &ind,
                &self.adapt,
                &self.program_rec,
                &mut self.ws,
            )
        });
        self.mesh = mesh;
        self.linear = fields.swap_remove(1);
        self.cycle += 1;

        let _check = tr.map(|t| t.span("bench.check"));
        let exact = (0..self.mesh.n_owned)
            .all(|d| (self.linear[d] - linear(self.mesh.dof_coords(d))).abs() <= 1e-12);
        let valid = self.tree.validate();
        let elements = self.tree.global_count();
        let target = self.adapt.target_elements as f64;
        let on_target = (0.8 * target..=1.25 * target).contains(&(elements as f64));
        self.counts.add("octree.refined", report.refined as f64);
        self.counts
            .add("octree.coarsened", report.coarsened_families as f64);
        self.counts
            .add("octree.balance_added", report.balance_added as f64);
        StepOut {
            elements,
            ok: exact && valid && on_target,
        }
    }
}

impl Sim for AmrSim<'_> {
    fn step(&mut self, tr: Option<&Tracer>) -> StepOut {
        self.cycle(tr)
    }

    fn checksum(&self) -> u64 {
        digest(self.comm, self.tree.local.iter().map(|o| o.key()))
    }

    fn counts(&self, bag: &mut Bag) {
        bag.extend(&self.counts);
        bag.set("octree.leaves", self.tree.global_count() as f64);
    }

    fn probes(&mut self, bag: &mut Bag) {
        let front = self.front();
        pipeline_probes(
            self.comm,
            &self.tree,
            &self.mesh,
            &front,
            &self.adapt,
            self.probe_reps,
            bag,
        );
    }
}

/// Build one rank's state and hand it to `body`.
pub fn set_up(comm: &Comm, cfg: &RunCfg, _tr: Option<&Tracer>, body: &mut dyn FnMut(&mut dyn Sim)) {
    let (level, adapt, warmup, probe_reps) = if cfg.smoke {
        let adapt = AdaptParams {
            target_elements: 600,
            max_level: 4,
            min_level: 1,
            ..Default::default()
        };
        (2, adapt, 1, 3)
    } else {
        let adapt = AdaptParams {
            target_elements: 30_000,
            max_level: 7,
            min_level: 2,
            ..Default::default()
        };
        (4, adapt, WARMUP_CYCLES, 20)
    };
    // The seed picks where on its circle the front starts. A timed loop of
    // whole revolutions then meets the same fronts whatever the seed:
    // different inputs, equal work. (Mirror images of the circle were tried
    // and are not equal work on two ranks — one cost 20 % more: the
    // space-filling-curve partition is not symmetric.)
    let phase = SplitMix64::new(cfg.seed).angle();
    let tree = DistOctree::new_uniform(comm, level);
    let mesh = extract_mesh(&tree, DOMAIN);
    let linear = (0..mesh.n_owned)
        .map(|d| linear(mesh.dof_coords(d)))
        .collect();
    let mut sim = AmrSim {
        comm,
        tree,
        mesh,
        linear,
        adapt,
        ws: AdaptWorkspace::new(),
        program_rec: Recorder::new(comm.rank()),
        phase,
        cycle: 0,
        probe_reps,
        counts: Bag::default(),
    };
    for _ in 0..warmup {
        sim.cycle(None);
    }
    // Counts cover the timed cycles only.
    sim.counts = Bag::default();
    body(&mut sim);
}

/// Time `f` from a barrier to a barrier.
fn stage<R>(comm: &Comm, samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    comm.barrier();
    let t0 = Instant::now();
    let r = f();
    comm.barrier();
    samples.push(t0.elapsed().as_secs_f64());
    r
}

/// Probe every stage of the Fig. 4 pipeline on clones of `tree`, driven by
/// the gradient indicator of `field`: one pass runs the stages in pipeline
/// order (interpolation needs the adapted, not yet repartitioned mesh), and
/// each stage reports its median over `reps` passes after one warm pass.
pub fn pipeline_probes(
    comm: &Comm,
    tree: &DistOctree,
    mesh: &Mesh,
    field: &[f64],
    adapt: &AdaptParams,
    reps: usize,
    bag: &mut Bag,
) {
    let ind = gradient_indicator(mesh, comm, field);
    let mark = MarkParams {
        target_elements: adapt.target_elements,
        tolerance: adapt.tolerance,
        max_level: adapt.max_level,
        min_level: adapt.min_level,
        coarsen_ratio: adapt.coarsen_ratio,
        ..Default::default()
    };
    let mut old_vals = vec![0.0; mesh.n_local()];
    old_vals[..mesh.n_owned].copy_from_slice(field);
    mesh.exchange.exchange(comm, &mut old_vals, mesh.n_owned);

    let mut ghost = GhostScratch::new();
    let mut plan = PartitionPlan::default();
    let (mut mid_vals, mut corners, mut moved) = (Vec::new(), Vec::new(), Vec::new());
    let (mut counts, mut recv_counts) = (Vec::new(), Vec::new());
    let mut times: [Vec<f64>; 6] = Default::default();
    let [t_mark, t_balance, t_ghost, t_extract, t_interp, t_partition] = &mut times;
    for _ in 0..reps + 1 {
        let mut clone = DistOctree::from_local(comm, tree.local.clone());
        stage(comm, t_mark, || clone.adapt_to_target(&ind, &mark));
        stage(comm, t_balance, || clone.balance(BalanceKind::Full));
        stage(comm, t_ghost, || {
            clone.ghost_layer_into(&mut ghost);
        });
        let mid = stage(comm, t_extract, || {
            extract_mesh_with_ghosts(&clone, mesh.domain, ghost.ghosts())
        });
        stage(comm, t_interp, || {
            interpolate_node_field_into(mesh, &old_vals, &mid, &mut mid_vals)
        });
        mid.exchange.exchange(comm, &mut mid_vals, mid.n_owned);
        corners.clear();
        for e in 0..mid.elements.len() {
            corners.extend_from_slice(&mid.corner_values(e, &mid_vals));
        }
        stage(comm, t_partition, || {
            clone.partition_with(&mut plan);
            transfer_fields_into(
                comm,
                &plan,
                &corners,
                8,
                &mut counts,
                &mut recv_counts,
                &mut moved,
            );
        });
    }
    let names = [
        "octree.mark_ms",
        "octree.balance_ms",
        "octree.ghost_ms",
        "mesh.extract_ms",
        "mesh.interp_ms",
        "octree.partition_ms",
    ];
    for (name, samples) in names.into_iter().zip(&mut times) {
        bag.set(name, 1e3 * median(&mut samples[1..]));
    }

    tree.ghost_layer_into(&mut ghost);
    let sum = |v: usize| comm.allreduce_sum(&[v as u64])[0] as f64;
    bag.set("octree.ghosts", sum(ghost.ghosts().len()));
    bag.set("mesh.dofs", mesh.n_global as f64);
    bag.set("mesh.ghost_dofs", sum(mesh.n_local() - mesh.n_owned));
}
