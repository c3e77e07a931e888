//! The full mantle convection simulation loop (paper eqs. (1)–(3),
//! Sections III and VI): split time stepping — an explicit SUPG
//! advection–diffusion update of temperature, followed by a
//! variable-viscosity (Picard-linearized) Stokes solve for the flow —
//! with dynamic AMR every `adapt_every` steps.

use crate::adapt::{
    adapt_mesh_ws, count_extraction, gradient_indicator, AdaptParams, AdaptReport, AdaptWorkspace,
};
use crate::rheology::ViscosityLaw;
use crate::transport::{TransportParams, TransportSolver};
use mesh::extract::{extract_mesh, Mesh};
use obs::Recorder;
use octree::parallel::DistOctree;
use scomm::Comm;
use stokes::{StokesOptions, StokesSolver};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConvectionParams {
    /// Rayleigh number (buoyancy strength `Ra·T·e_z`).
    pub rayleigh: f64,
    /// Non-dimensional domain (the paper's Section VI runs use 8×4×1).
    pub domain: [f64; 3],
    /// Adapt the mesh every this many time steps (paper: 16 for the full
    /// convection code, 32 for transport-only studies).
    pub adapt_every: usize,
    pub adapt: AdaptParams,
    pub transport: TransportParams,
    pub stokes: StokesOptions,
    /// Picard iterations per flow solve (frozen-viscosity re-evaluation).
    pub picard_steps: usize,
}

impl Default for ConvectionParams {
    fn default() -> Self {
        ConvectionParams {
            rayleigh: 1e5,
            domain: [1.0, 1.0, 1.0],
            adapt_every: 16,
            adapt: AdaptParams::default(),
            transport: TransportParams {
                kappa: 1.0,
                source: 0.0,
                cfl: 0.5,
            },
            stokes: StokesOptions::default(),
            picard_steps: 2,
        }
    }
}

/// Per-step diagnostics.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    pub step: usize,
    pub time: f64,
    pub dt: f64,
    pub n_elements: u64,
    pub minres_iterations: usize,
    /// Every MINRES solve of the step's flow solve converged.
    pub flow_converged: bool,
    /// Largest relative η change of the flow solve's last Picard
    /// re-evaluation (`None` with one Picard step).
    pub eta_change: Option<f64>,
    pub adapt: Option<AdaptReport>,
    pub t_min: f64,
    pub t_max: f64,
    /// Root-mean-square velocity (the standard convection diagnostic).
    pub v_rms: f64,
}

/// The simulation state: octree, mesh, temperature, and flow.
pub struct ConvectionSim<'c> {
    pub comm: &'c Comm,
    pub params: ConvectionParams,
    pub tree: DistOctree<'c>,
    pub mesh: Mesh,
    /// Temperature on owned dofs.
    pub temperature: Vec<f64>,
    /// Last flow solution (velocity|pressure, owned layout); invalidated
    /// by adaptation.
    pub flow: Option<Vec<f64>>,
    /// Per-element viscosity of the last flow solve.
    pub viscosity: Vec<f64>,
    /// Per-rank telemetry recorder; shared with the communicator (so comm
    /// ops emit spans) and with the solvers below.
    pub rec: Recorder,
    pub step_count: usize,
    pub time: f64,
    /// Adaptation scratch, kept warm across the adaptations of `step`.
    adapt_ws: AdaptWorkspace,
}

impl<'c> ConvectionSim<'c> {
    /// Initialize on a uniform level-`level` mesh with the conductive
    /// profile plus a perturbation: `T = (1−z') + amp·cos(kπ x/Lx)·…`.
    pub fn new(comm: &'c Comm, level: u8, params: ConvectionParams) -> Self {
        // Share one recorder per rank: reuse the communicator's if a traced
        // launcher already attached one, otherwise create it and attach it
        // so comm ops and the solvers report through it too.
        let rec = comm.recorder().unwrap_or_else(|| {
            let r = Recorder::new(comm.rank());
            comm.set_recorder(r.clone());
            r
        });
        let tree = rec.with_cat("NewTree", "amr", || DistOctree::new_uniform(comm, level));
        let mesh = rec.with_cat("ExtractMesh", "amr", || extract_mesh(&tree, params.domain));
        count_extraction(&rec, &mesh);
        let lz = params.domain[2];
        let lx = params.domain[0];
        let ly = params.domain[1];
        let temperature: Vec<f64> = (0..mesh.n_owned)
            .map(|d| {
                let p = mesh.dof_coords(d);
                let zp = p[2] / lz;
                let pert = 0.05
                    * (std::f64::consts::PI * p[0] / lx).cos()
                    * (std::f64::consts::PI * p[1] / ly).cos()
                    * (std::f64::consts::PI * zp).sin();
                ((1.0 - zp) + pert).clamp(0.0, 1.0)
            })
            .collect();
        let n_elem = mesh.elements.len();
        ConvectionSim {
            comm,
            params,
            tree,
            mesh,
            temperature,
            flow: None,
            viscosity: vec![1.0; n_elem],
            rec,
            step_count: 0,
            time: 0.0,
            adapt_ws: AdaptWorkspace::new(),
        }
    }

    /// Velocity boundary mask: free-slip on all walls (zero normal
    /// component only), the standard regional mantle convection choice.
    fn velocity_bc(&self) -> Vec<bool> {
        // Component `c` is pinned on the two faces normal to axis `c`.
        (0..3 * self.mesh.n_owned)
            .map(|i| self.mesh.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
            .collect()
    }

    /// Solve the (nonlinear) Stokes flow for the current temperature.
    /// Returns total MINRES iterations. Collective.
    pub fn solve_flow(&mut self, law: &impl ViscosityLaw) -> usize {
        self.flow_solve(law).total_minres_iterations
    }

    /// [`ConvectionSim::solve_flow`], reporting what the Picard loop did.
    fn flow_solve(&mut self, law: &impl ViscosityLaw) -> stokes::PicardResult {
        // Element-mean temperature: with the element's non-dimensional
        // height, all the viscosity law reads besides the strain rate.
        let map = fem::op::DofMap::new(&self.mesh, self.comm, 1);
        let tl = map.to_local(&self.temperature);
        let mut te = [0.0; 8];
        let t_mean: Vec<f64> = (0..self.mesh.elements.len())
            .map(|e| {
                map.gather_element(e, &tl, &mut te);
                te.iter().sum::<f64>() / 8.0
            })
            .collect();
        let elements = &self.mesh.elements;
        let rheology =
            |e: usize, edot: f64| law.eta_clamped(t_mean[e], elements[e].center_unit()[2], edot);

        // Buoyancy f = Ra · T · e_z with the *discrete* T: the load is
        // M·f for the nodal vector, not for a sampled function.
        let mut buoyancy = vec![0.0; 3 * self.mesh.n_owned];
        for (d, &t) in self.temperature.iter().enumerate() {
            buoyancy[3 * d + 2] = self.params.rayleigh * t;
        }
        // The solver reports AMGSetup/MINRES/AMGSolve spans and the
        // residual series itself, through the communicator's recorder.
        let mut solver = StokesSolver::new(
            &self.mesh,
            self.comm,
            (0..elements.len()).map(|e| rheology(e, 0.0)).collect(),
            self.velocity_bc(),
            self.params.stokes,
        );
        let mut x = self
            .flow
            .take()
            .unwrap_or_else(|| vec![0.0; 4 * self.mesh.n_owned]);
        let steps = self.params.picard_steps.max(1);
        let result = stokes::picard_solve(&mut solver, &buoyancy, &mut x, rheology, steps);
        self.viscosity = std::mem::take(&mut solver.viscosity);
        self.flow = Some(x);
        result
    }

    /// Surface Nusselt number: mean conductive heat flux `−∂T/∂z` through
    /// the top boundary, normalized by the conductive reference `1/Lz` —
    /// the standard convection vigor diagnostic (Nu = 1 for pure
    /// conduction, > 1 once convection transports heat). Evaluated from
    /// the one-sided gradient of the top layer of elements. Collective.
    pub fn nusselt_number(&self) -> f64 {
        let map = fem::op::DofMap::new(&self.mesh, self.comm, 1);
        let tl = map.to_local(&self.temperature);
        let lz = self.params.domain[2];
        let mut flux_area = 0.0;
        let mut area = 0.0;
        let mut te = [0.0; 8];
        for e in 0..self.mesh.elements.len() {
            let o = &self.mesh.elements[e];
            // Top-layer elements touch z = ROOT_LEN.
            if o.z() + o.len() != octree::ROOT_LEN {
                continue;
            }
            let h = self.mesh.element_size(e);
            map.gather_element(e, &tl, &mut te);
            // One-sided dT/dz on the top face: average over the 4 top
            // corners minus the 4 bottom corners, divided by hz.
            let top: f64 = (4..8).map(|c| te[c]).sum::<f64>() / 4.0;
            let bot: f64 = (0..4).map(|c| te[c]).sum::<f64>() / 4.0;
            let dtdz = (top - bot) / h[2];
            let face_area = h[0] * h[1];
            flux_area += -dtdz * face_area;
            area += face_area;
        }
        let sums = self.comm.allreduce_sum(&[flux_area, area]);
        let mean_flux = sums[0] / sums[1].max(1e-300);
        // Conductive reference flux for ΔT = 1 across depth Lz.
        mean_flux / (1.0 / lz)
    }

    /// One Fig. 4 adaptation of mesh and temperature toward
    /// `params.adapt`; `step` calls it every `adapt_every` steps.
    /// Collective.
    pub fn adapt(&mut self) -> AdaptReport {
        let ind = gradient_indicator(&self.mesh, self.comm, &self.temperature);
        let fields = [std::mem::take(&mut self.temperature)];
        let (new_mesh, mut new_fields, report) = adapt_mesh_ws(
            &mut self.tree,
            &self.mesh,
            &fields,
            &ind,
            &self.params.adapt,
            &self.rec,
            &mut self.adapt_ws,
        );
        self.mesh = new_mesh;
        self.temperature = new_fields.remove(0);
        self.flow = None; // mesh changed: warm start invalid
        self.viscosity = vec![1.0; self.mesh.elements.len()];
        report
    }

    /// One full time step: (adapt every k steps) → flow solve →
    /// transport step. Collective.
    pub fn step(&mut self, law: &impl ViscosityLaw) -> StepReport {
        let mut report = StepReport {
            step: self.step_count,
            ..Default::default()
        };

        if self.params.adapt_every > 0
            && self.step_count > 0
            && self.step_count.is_multiple_of(self.params.adapt_every)
        {
            report.adapt = Some(self.adapt());
        }

        // Flow solve.
        let flow = self.flow_solve(law);
        report.minres_iterations = flow.total_minres_iterations;
        report.flow_converged = flow.minres_converged;
        report.eta_change = flow.last_eta_change;

        // Transport step.
        let transport_span = self.rec.span_cat("TimeIntegration", "solve");
        let mut ts = TransportSolver::new(&self.mesh, self.comm, self.params.transport);
        ts.set_velocity_from_nodal(&self.flow.as_ref().unwrap()[..3 * self.mesh.n_owned]);
        // T = 1 at the bottom (z = 0), T = 0 at the surface (z = Lz).
        ts.set_dirichlet(0b010000, |_| 1.0);
        ts.set_dirichlet(0b100000, |_| 0.0);
        ts.apply_bc(&mut self.temperature);
        let dt = ts.stable_dt();
        ts.step(&mut self.temperature, dt);
        drop(transport_span);

        // Diagnostics.
        let (tmin, tmax) = ts.min_max(&self.temperature);
        report.t_min = tmin;
        report.t_max = tmax;
        let flow = self.flow.as_ref().unwrap();
        let n = self.mesh.n_owned;
        let vmap = fem::op::DofMap::new(&self.mesh, self.comm, 3);
        let v2 = vmap.dot(&flow[..3 * n], &flow[..3 * n]);
        let nglob = self.comm.allreduce_sum(&[n as f64])[0];
        report.v_rms = (v2 / (3.0 * nglob)).sqrt();
        report.dt = dt;
        self.rec.add_count("steps", 1);
        self.rec.push_series("step.v_rms", report.v_rms);
        self.rec.push_series("step.dt", dt);
        self.time += dt;
        self.step_count += 1;
        report.time = self.time;
        report.n_elements = self.tree.global_count();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rheology::{ArrheniusLaw, ConstantLaw};
    use scomm::spmd;

    #[test]
    fn convection_cell_develops() {
        spmd::run(1, |c| {
            let params = ConvectionParams {
                rayleigh: 1e4,
                adapt_every: 0, // fixed mesh for this test
                stokes: StokesOptions {
                    tol: 1e-6,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut sim = ConvectionSim::new(c, 2, params);
            let law = ConstantLaw(1.0);
            let mut last = StepReport::default();
            for _ in 0..3 {
                last = sim.step(&law);
            }
            assert!(last.v_rms > 0.0, "buoyancy must drive flow");
            assert!(last.t_min > -0.05 && last.t_max < 1.05, "{last:?}");
            assert!(last.minres_iterations > 0);
            assert!(last.flow_converged, "{last:?}");
        });
    }

    #[test]
    fn loose_solves_track_tight_ones_over_four_steps() {
        // Each flow solve stops at tol·‖b‖_{M⁻¹}, warm or cold, so four
        // steps at 1e-6 stay close to the same steps at 1e-10.
        let run = |tol: f64| {
            spmd::run(2, move |c| {
                let params = ConvectionParams {
                    adapt_every: 0,
                    stokes: StokesOptions {
                        tol,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let mut sim = ConvectionSim::new(c, 2, params);
                let law = ArrheniusLaw::default();
                let v_rms: Vec<f64> = (0..4)
                    .map(|_| {
                        let report = sim.step(&law);
                        assert!(report.flow_converged, "tol {tol}: {report:?}");
                        report.v_rms
                    })
                    .collect();
                (sim.temperature, v_rms)
            })
        };
        // Measured: under 6.3e-6 in T and 6.3e-7 in v_rms; allowed: 1e-4
        // and 1e-5.
        let (loose, tight) = (run(1e-6), run(1e-10));
        let max_abs = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0f64, |m, x| m.max(x.abs()));
        let t_scale = max_abs(&mut tight.iter().flat_map(|(t, _)| t.iter().copied()));
        let t_dist = max_abs(
            &mut loose
                .iter()
                .zip(&tight)
                .flat_map(|((a, _), (b, _))| a.iter().zip(b).map(|(x, y)| x - y)),
        ) / t_scale;
        assert!(
            t_dist <= 1e-4,
            "temperature moved by {t_dist:e} of its scale"
        );
        let (v_loose, v_tight) = (&loose[0].1, &tight[0].1);
        for (step, (a, b)) in v_loose.iter().zip(v_tight).enumerate() {
            let v_dist = (a - b).abs() / b;
            assert!(v_dist <= 1e-5, "step {step}: v_rms {a} vs {b}");
        }
    }

    #[test]
    fn converged_solves_meet_the_stop_in_the_lumped_preconditioner_norm() {
        // Every flow solve of four smooth-η steps, one of them after an
        // adaptation, stops at tol·‖b‖ in its own preconditioner's norm;
        // its true residual meets the same stop in the norm of the
        // preconditioner with the lumped S̃ alone. Arrhenius η does not
        // depend on the strain rate, so each step is one solve, and a
        // solver rebuilt on the step's mesh and η reproduces it.
        // Measured: 0.48–0.91 × tol·‖b‖.
        let tol = 1e-6;
        for nranks in [1, 2] {
            spmd::run(nranks, |c| {
                let params = ConvectionParams {
                    adapt_every: 0,
                    adapt: AdaptParams {
                        target_elements: 300,
                        max_level: 3,
                        min_level: 1,
                        ..Default::default()
                    },
                    stokes: StokesOptions {
                        tol,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let mut sim = ConvectionSim::new(c, 2, params);
                let law = ArrheniusLaw::default();
                for step in 0..4 {
                    if step == 2 {
                        sim.adapt();
                    }
                    let mut force = vec![0.0; 3 * sim.mesh.n_owned];
                    for (d, &t) in sim.temperature.iter().enumerate() {
                        force[3 * d + 2] = params.rayleigh * t;
                    }
                    let report = sim.step(&law);
                    assert!(report.flow_converged, "step {step}: {report:?}");
                    let solver = StokesSolver::new(
                        &sim.mesh,
                        c,
                        sim.viscosity.clone(),
                        sim.velocity_bc(),
                        params.stokes,
                    );
                    let rhs = solver.homogeneous_rhs(&force);
                    let x = sim.flow.as_ref().expect("a step leaves a flow");
                    let mut r = vec![0.0; x.len()];
                    solver.apply(x, &mut r);
                    for (ri, bi) in r.iter_mut().zip(&rhs) {
                        *ri = bi - *ri;
                    }
                    let lumped_norm = |v: &[f64]| {
                        let mut z = vec![0.0; v.len()];
                        solver.apply_preconditioner(v, &mut z);
                        let nu = 3 * sim.mesh.n_owned;
                        for ((zi, vi), di) in z[nu..]
                            .iter_mut()
                            .zip(&v[nu..])
                            .zip(solver.schur_diag_inv())
                        {
                            *zi = vi * di;
                        }
                        solver.dot(&z, v).sqrt()
                    };
                    let ratio = lumped_norm(&r) / (tol * lumped_norm(&rhs));
                    assert!(ratio <= 1.0, "P = {nranks}, step {step}: {ratio} × tol·‖b‖");
                }
            });
        }
    }

    #[test]
    fn unconverged_minres_is_reported() {
        // One MINRES iteration cannot reach the tolerance: the step, the
        // Picard result and the recorder all say so.
        spmd::run(1, |c| {
            let params = ConvectionParams {
                adapt_every: 0,
                stokes: StokesOptions {
                    max_iter: 1,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut sim = ConvectionSim::new(c, 2, params);
            let law = ConstantLaw(1.0);
            let report = sim.step(&law);
            assert!(!report.flow_converged, "{report:?}");
            let unconverged = sim.rec.summary().counter("minres.unconverged");
            assert!(unconverged > 0);
            let result = sim.flow_solve(&law);
            assert!(!result.minres_converged);
            let more = sim.rec.summary().counter("minres.unconverged");
            assert!(more > unconverged, "{more} after {unconverged}");
        });
    }

    #[test]
    fn nusselt_number_is_conductive_at_rest() {
        spmd::run(1, |c| {
            let params = ConvectionParams {
                adapt_every: 0,
                ..Default::default()
            };
            let mut sim = ConvectionSim::new(c, 2, params);
            // Pure conductive profile: T = 1 − z ⇒ Nu = 1 exactly.
            for d in 0..sim.mesh.n_owned {
                sim.temperature[d] = 1.0 - sim.mesh.dof_coords(d)[2];
            }
            let nu = sim.nusselt_number();
            assert!((nu - 1.0).abs() < 1e-12, "Nu = {nu}");
            // A steeper boundary-layer profile transports more heat.
            for d in 0..sim.mesh.n_owned {
                let z = sim.mesh.dof_coords(d)[2];
                sim.temperature[d] = 1.0 - z.powf(4.0);
            }
            let nu_convective = sim.nusselt_number();
            assert!(nu_convective > 2.0, "Nu = {nu_convective}");
        });
    }

    #[test]
    fn adaptive_convection_keeps_element_target() {
        spmd::run(2, |c| {
            let params = ConvectionParams {
                rayleigh: 1e5,
                adapt_every: 2,
                adapt: AdaptParams {
                    target_elements: 600,
                    max_level: 4,
                    min_level: 1,
                    ..Default::default()
                },
                stokes: StokesOptions {
                    tol: 1e-5,
                    max_iter: 300,
                    ..Default::default()
                },
                picard_steps: 1,
                ..Default::default()
            };
            let mut sim = ConvectionSim::new(c, 2, params);
            let law = ArrheniusLaw::default();
            let mut adapted = false;
            for _ in 0..5 {
                let rep = sim.step(&law);
                if let Some(a) = &rep.adapt {
                    adapted = true;
                    assert!(a.elements_after > 0);
                }
                assert!(rep.t_max < 1.1 && rep.t_min > -0.1, "{rep:?}");
                assert!(rep.flow_converged, "{rep:?}");
            }
            assert!(adapted, "adaptation must have run");
            assert!(sim.tree.validate());
            // Element count near the target.
            let n = sim.tree.global_count() as f64;
            assert!(
                (n - 600.0).abs() / 600.0 < 0.5,
                "element count {n} vs target 600"
            );
            // All thirteen paper phases, AMR and solver, are recorded
            // under the span names the figure harnesses read.
            let summary = sim.rec.summary();
            for phase in [
                "NewTree",
                "CoarsenTree",
                "RefineTree",
                "BalanceTree",
                "PartitionTree",
                "ExtractMesh",
                "InterpolateFields",
                "TransferFields",
                "MarkElements",
                "TimeIntegration",
                "MINRES",
                "AMGSetup",
                "AMGSolve",
            ] {
                assert!(summary.incl_seconds(phase) > 0.0, "{phase} not recorded");
            }
            // And the raw telemetry has the solver detail.
            assert!(summary.counter("minres.iterations") > 0);
            assert!(summary.counter("amg.vcycles") > 0);
            assert_eq!(summary.counter("steps"), 5);
            let profile = sim.rec.profile();
            assert!(!profile.series["minres.residual"].is_empty());
        });
    }
}
