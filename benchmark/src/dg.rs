//! `dg_shell_p2`: high-order DG advection of a Gaussian front by solid-body
//! rotation on the 24-tree cubed sphere, refined around the front into a
//! 2:1 nonconforming forest.

use std::sync::Arc;

use forest::{Connectivity, Forest, GhostWorkspace};
use mangll::{tensor_derivative_flops, DgAdvection, DgParams, ElementDerivative};
use octree::balance::BalanceKind;
use scomm::Comm;

use crate::harness::{digest, in_span, probe, RunCfg, Sim, StepOut, Tracer};
use crate::metrics::Bag;
use crate::rng::SplitMix64;

const ORDER: usize = 3;
const R_INNER: f64 = 0.55;
const R_OUTER: f64 = 1.0;
/// Elements whose centre is this close to the front centre are refined.
const BALL_RADIUS: f64 = 0.2;
/// Unit direction of the front centre: inside one cap, off its tree edges.
const FRONT_DIRECTION: [f64; 3] = [0.36, 0.48, 0.8];
/// Gaussian front `exp(−|x − c|² / FRONT_WIDTH2)`.
const FRONT_WIDTH2: f64 = 0.02;
/// Relative mass drift allowed per run. The faceted-geometry mortars do not
/// conserve exactly; the first full-size runs drifted below 1 %.
const MASS_DRIFT_LIMIT: f64 = 0.05;

/// Where the front starts, how high it is, and the axis it turns about.
#[derive(Clone, Copy)]
struct Front {
    centre: [f64; 3],
    height: f64,
    axis: [f64; 3],
}

struct DgSim<'f, 'c> {
    dg: DgAdvection<'f, 'c>,
    front: Front,
    dt: f64,
    mass0: f64,
    probe_reps: usize,
}

fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    (0..3).map(|d| (a[d] - b[d]).powi(2)).sum()
}

fn new_solver<'f, 'c>(forest: &'f Forest<'c>, front: Front) -> DgAdvection<'f, 'c> {
    let Front {
        centre,
        height,
        axis: w,
    } = front;
    DgAdvection::new(
        forest,
        DgParams {
            order: ORDER,
            ..Default::default()
        },
        move |q| height * (-dist2(q, centre) / FRONT_WIDTH2).exp(),
        // Solid-body rotation w × q.
        move |q| {
            [
                w[1] * q[2] - w[2] * q[1],
                w[2] * q[0] - w[0] * q[2],
                w[0] * q[1] - w[1] * q[0],
            ]
        },
    )
}

impl Sim for DgSim<'_, '_> {
    fn step(&mut self, tr: Option<&Tracer>) -> StepOut {
        in_span(tr, "mangll.step", || self.dg.step(self.dt));

        let _check = tr.map(|t| t.span("bench.check"));
        let comm = self.dg.forest.comm();
        let local_max = self.dg.u.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        // NaN compares false, so a non-finite state fails the bound too.
        let bounded =
            comm.allreduce_max(&[local_max])[0] <= 1.05 && self.dg.u.iter().all(|x| x.is_finite());
        let drift = (self.dg.total_mass() - self.mass0).abs() / self.mass0.abs();
        StepOut {
            elements: self.dg.forest.global_count(),
            ok: bounded && drift <= MASS_DRIFT_LIMIT,
        }
    }

    fn checksum(&self) -> u64 {
        digest(self.dg.forest.comm(), self.dg.u.iter().map(|x| x.to_bits()))
    }

    fn counts(&self, bag: &mut Bag) {
        bag.set("forest.leaves", self.dg.forest.global_count() as f64);
    }

    fn probes(&mut self, bag: &mut Bag) {
        let forest = self.dg.forest;
        let (comm, reps) = (forest.comm(), self.probe_reps);

        let mut ws = GhostWorkspace::new();
        let ghost_s = probe(comm, reps, 1, || {
            forest.ghost_layer_into(&mut ws);
        });
        bag.set("forest.ghost_ms", 1e3 * ghost_s);
        let entries = comm.allreduce_sum(&[ws.layer().len() as u64])[0];
        bag.set("forest.ghost_entries", entries as f64);
        let mut faces = 0u64;
        let iterate_s = probe(comm, reps, 1, || {
            forest.iterate_faces(ws.layer(), &mut |_| faces += 1);
        });
        std::hint::black_box(faces);
        bag.set("forest.iterate_faces_ms", 1e3 * iterate_s);

        let front = self.front;
        let new_s = probe(comm, reps, 1, || {
            std::hint::black_box(new_solver(forest, front));
        });
        bag.set("mangll.new_ms", 1e3 * new_s);
        let refresh_s = probe(comm, reps, 4, || self.dg.refresh_ghosts());
        bag.set("mangll.refresh_ghosts_us", 1e6 * refresh_s);

        let ed = ElementDerivative::new(ORDER);
        let nelem = forest.local.len();
        let mut grad = vec![0.0; 3 * ed.n3() * nelem];
        let deriv_s = probe(comm, reps, 4, || {
            ed.apply_tensor_batch(&self.dg.u, &mut grad, nelem);
        });
        bag.set("mangll.deriv_ns_per_elem", 1e9 * deriv_s / nelem as f64);
        bag.set(
            "mangll.deriv_flops_per_elem",
            tensor_derivative_flops(ORDER) as f64,
        );
    }
}

/// Build one rank's state and hand it to `body`. With a tracer, the forest
/// passes are recorded as `forest.build`.
pub fn set_up(comm: &Comm, cfg: &RunCfg, tr: Option<&Tracer>, body: &mut dyn FnMut(&mut dyn Sim)) {
    let (level, max_level, probe_reps) = if cfg.smoke { (1, 2, 3) } else { (2, 5, 20) };
    // The seed picks the axis the front turns about and its height: the
    // solution differs with every seed, the mesh and the cost of a step do
    // not. (A seeded front centre changes the element count, and even a
    // rotation of the cube that maps the shell onto itself costs up to 8 %
    // more on two ranks: the space-filling-curve partition is not
    // symmetric.)
    let mut rng = SplitMix64::new(cfg.seed);
    let front = Front {
        centre: FRONT_DIRECTION.map(|x| 0.5 * (R_INNER + R_OUTER) * x),
        height: 0.5 + 0.5 * rng.unit(),
        axis: rng.direction(),
    };

    let conn = Arc::new(Connectivity::cubed_sphere(R_INNER, R_OUTER));
    let mut forest = Forest::new_uniform(comm, conn.clone(), level);
    in_span(tr, "forest.build", || {
        for _ in level..max_level {
            forest.refine(|l| {
                l.oct.level() < max_level
                    && dist2(conn.octant_center(l.tree, &l.oct), front.centre) < BALL_RADIUS.powi(2)
            });
            forest.balance(BalanceKind::Full);
            forest.partition();
        }
    });
    let dg = new_solver(&forest, front);
    let (dt, mass0) = (dg.stable_dt(), dg.total_mass());
    body(&mut DgSim {
        dg,
        front,
        dt,
        mass0,
        probe_reps,
    });
}
