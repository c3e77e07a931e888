//! The energy equation (paper eq. (3)): SUPG-stabilized
//! advection–diffusion of temperature with an explicit
//! predictor–corrector time integrator (paper references [8], [9]).
//!
//! Semi-discrete SUPG form, per element with streamline parameter τ:
//!
//! ```text
//! (M_L + S_m) Ṫ = −(A + K + S_a) T + b(γ)
//! ```
//!
//! with `A` the Galerkin advection, `K` the diffusion, `S_m/S_a` the SUPG
//! mass/streamline-diffusion couplings and `b` the (SUPG-weighted) heat
//! source. The rate is evaluated with a two-pass predictor–corrector on
//! the SUPG mass (lumped-mass solve, then one consistency correction) and
//! advanced with Heun's method under a CFL-limited step.

use std::cell::RefCell;

use fem::element::{supg_tau, LevelBlocks};
use fem::op::{DofMap, ElementKernel, Workspace};
use mesh::extract::Mesh;
use scomm::Comm;

/// Transport parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransportParams {
    /// Thermal diffusivity κ (non-dimensional; 1/√Ra-scaled problems use
    /// κ = 1 with Ra in the buoyancy term).
    pub kappa: f64,
    /// Internal heat generation γ.
    pub source: f64,
    /// CFL number for the explicit step.
    pub cfl: f64,
}

impl Default for TransportParams {
    fn default() -> Self {
        TransportParams {
            kappa: 1e-6,
            source: 0.0,
            cfl: 0.5,
        }
    }
}

/// Grow-only scratch for [`TransportSolver::step`]: after the first step
/// every buffer has its final capacity.
#[derive(Default)]
struct Scratch {
    /// The rate sweeps' buffers: `T` with ghosts in, the weak rate out.
    op: Workspace,
    /// The predictor rate `v₀` with ghosts.
    v0l: Vec<f64>,
    /// `[T v₀]` interleaved with ghosts: the corrector's input.
    tv: Vec<f64>,
    /// Heun stages on owned dofs.
    k1: Vec<f64>,
    k2: Vec<f64>,
    t1: Vec<f64>,
}

/// SUPG transport solver bound to a mesh and a per-element velocity.
pub struct TransportSolver<'a> {
    pub mesh: &'a Mesh,
    pub comm: &'a Comm,
    params: TransportParams,
    map: DofMap<'a>,
    /// The unit-coefficient element blocks every operator is formed from.
    blocks: LevelBlocks,
    /// Per-element advection velocity (constant per element).
    velocity: Vec<[f64; 3]>,
    /// Dirichlet mask and values over owned dofs.
    pub bc_mask: Vec<bool>,
    pub bc_values: Vec<f64>,
    /// Assembled global lumped mass over local dofs (constraint-folded).
    lumped: Vec<f64>,
    scratch: RefCell<Scratch>,
}

impl<'a> TransportSolver<'a> {
    /// Create a solver with zero velocity and no Dirichlet constraints.
    pub fn new(mesh: &'a Mesh, comm: &'a Comm, params: TransportParams) -> Self {
        let map = DofMap::new(mesh, comm, 1);
        let blocks = LevelBlocks::new(mesh);
        let mut lumped = vec![0.0; map.n_local()];
        for e in 0..mesh.elements.len() {
            map.scatter_element(e, &blocks.of(mesh, e).lumped_mass, &mut lumped);
        }
        // Owned entries are now complete; ghosts zeroed by accumulate.
        map.reverse_accumulate(&mut lumped);
        TransportSolver {
            mesh,
            comm,
            params,
            map,
            blocks,
            velocity: vec![[0.0; 3]; mesh.elements.len()],
            bc_mask: vec![false; mesh.n_owned],
            bc_values: vec![0.0; mesh.n_owned],
            lumped,
            scratch: RefCell::default(),
        }
    }

    /// Set the advection velocity from a nodal (owned, 3-component)
    /// velocity vector: element velocity = average of corner velocities.
    pub fn set_velocity_from_nodal(&mut self, u_owned: &[f64]) {
        let vmap = DofMap::new(self.mesh, self.comm, 3);
        let ul = vmap.to_local(u_owned);
        let mut ue = [0.0; 24];
        for e in 0..self.mesh.elements.len() {
            vmap.gather_element(e, &ul, &mut ue);
            let mut a = [0.0; 3];
            for c in 0..8 {
                for d in 0..3 {
                    a[d] += ue[3 * c + d] / 8.0;
                }
            }
            self.velocity[e] = a;
        }
    }

    /// Set the velocity analytically at element centers.
    pub fn set_velocity_fn(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
        for e in 0..self.mesh.elements.len() {
            let c = self.mesh.elements[e].center_unit();
            let p = [
                c[0] * self.mesh.domain[0],
                c[1] * self.mesh.domain[1],
                c[2] * self.mesh.domain[2],
            ];
            self.velocity[e] = f(p);
        }
    }

    /// Impose Dirichlet data where `faces_mask` matches a dof's boundary
    /// faces (bit `f` = face `f` as in `Mesh::dof_boundary_faces`), with
    /// values from `g`.
    pub fn set_dirichlet(&mut self, faces_mask: u8, g: impl Fn([f64; 3]) -> f64) {
        for d in 0..self.mesh.n_owned {
            if self.mesh.dof_boundary_faces(d) & faces_mask != 0 {
                self.bc_mask[d] = true;
                self.bc_values[d] = g(self.mesh.dof_coords(d));
            }
        }
    }

    /// Apply the Dirichlet values directly to a temperature vector.
    pub fn apply_bc(&self, t: &mut [f64]) {
        for d in 0..self.mesh.n_owned {
            if self.bc_mask[d] {
                t[d] = self.bc_values[d];
            }
        }
    }

    /// Globally CFL-limited time step for the current velocity field
    /// (advective and diffusive limits). Collective.
    pub fn stable_dt(&self) -> f64 {
        let mut local = f64::INFINITY;
        for e in 0..self.mesh.elements.len() {
            let h = self.mesh.element_size(e);
            let a = self.velocity[e];
            for d in 0..3 {
                if a[d].abs() > 1e-300 {
                    local = local.min(h[d] / a[d].abs());
                }
                if self.params.kappa > 0.0 {
                    local = local.min(h[d] * h[d] / (6.0 * self.params.kappa));
                }
            }
        }
        let global = self.comm.allreduce_min(&[local])[0];
        self.params.cfl * global
    }

    /// Temperature rate `Ṫ` on owned dofs into `out`, via lumped-mass
    /// solve with one SUPG-mass corrector pass (the "predictor–corrector"
    /// of the paper's reference [9]): two sweeps of [`WeakRate`], the
    /// second reading `T` and the predictor `v₀` as one two-component
    /// field built from the two exchanged vectors.
    fn rate(
        &self,
        t_owned: &[f64],
        out: &mut Vec<f64>,
        op: &mut Workspace,
        v0l: &mut Vec<f64>,
        tv: &mut Vec<f64>,
    ) {
        let n = self.mesh.n_owned;
        let lumped_solve = |r: &[f64], d: usize| {
            if self.bc_mask[d] {
                0.0
            } else {
                r[d] / self.lumped[d]
            }
        };
        // Predictor, written straight into the owned block of `v0l`.
        let r = self
            .map
            .apply_kernel(&mut WeakRate(self), op, |tl| tl.copy_from_slice(t_owned));
        v0l.clear();
        v0l.extend((0..n).map(|d| lumped_solve(r, d)));
        v0l.resize(self.map.n_local(), 0.0);
        self.map.exchange_in(v0l, op);
        // Corrector: v₁ = M_L⁻¹ (r(T) − S_m v₀).
        tv.clear();
        tv.extend(op.input().iter().zip(&*v0l).flat_map(|(&t, &v)| [t, v]));
        let r = self
            .map
            .accumulate_kernel::<2, 1>(&mut WeakRate(self), tv, op);
        out.clear();
        out.extend((0..n).map(|d| lumped_solve(r, d)));
    }

    /// Advance `t` by `dt` with Heun's method (RK2). Collective.
    pub fn step(&self, t: &mut [f64], dt: f64) {
        let mut ws = self.scratch.borrow_mut();
        let Scratch {
            op,
            v0l,
            tv,
            k1,
            k2,
            t1,
        } = &mut *ws;
        self.rate(t, k1, op, v0l, tv);
        t1.clear();
        t1.extend(t.iter().zip(k1.iter()).map(|(&x, &k)| x + dt * k));
        self.apply_bc(t1);
        self.rate(t1, k2, op, v0l, tv);
        for d in 0..t.len() {
            t[d] += 0.5 * dt * (k1[d] + k2[d]);
        }
        self.apply_bc(t);
    }

    /// Global extrema of an owned field (diagnostics / oscillation
    /// checks), in one reduction: the maximum of `−min` is `−` the
    /// minimum, bit for bit. Collective.
    pub fn min_max(&self, t: &[f64]) -> (f64, f64) {
        let lmin = t.iter().cloned().fold(f64::INFINITY, f64::min);
        let lmax = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let [neg_min, max] = self.comm.allreduce_max(&[-lmin, lmax]);
        (-neg_min, max)
    }

    /// Global L² norm weighted by the lumped mass (≈ ∫T² ).
    pub fn mass_weighted_norm(&self, t: &[f64]) -> f64 {
        let local: f64 = (0..self.mesh.n_owned)
            .map(|d| self.lumped[d] * t[d] * t[d])
            .sum();
        self.comm.allreduce_sum(&[local])[0].sqrt()
    }

    /// Integral ∫ T dΩ (tracks conservation under pure advection).
    pub fn total_mass(&self, t: &[f64]) -> f64 {
        let local: f64 = (0..self.mesh.n_owned).map(|d| self.lumped[d] * t[d]).sum();
        self.comm.allreduce_sum(&[local])[0]
    }
}

/// The SUPG weak rate `r(T) = −(A+K+S_a)T + b` of one element, formed
/// from the level's blocks. On one component (`T`) it is the predictor;
/// on two (`[T v₀]`) it is the corrector, which also subtracts the SUPG
/// mass coupling of the predictor rate, `S_m v₀`.
struct WeakRate<'s, 'a>(&'s TransportSolver<'a>);

impl<const NI: usize> ElementKernel<NI, 1> for WeakRate<'_, '_> {
    #[inline(always)]
    fn apply(&mut self, e: usize, x: &[[f64; NI]; 8], y: &mut [[f64; 1]; 8]) {
        let ts = self.0;
        let (a, kappa) = (ts.velocity[e], ts.params.kappa);
        // k = A + κK₁ + S_a and S_m, formed from the level's blocks.
        let blocks = ts.blocks.of(ts.mesh, e);
        let adv = blocks.advection(a);
        let (sm, sa) = blocks.supg(a, supg_tau(ts.mesh.element_size(e), a, kappa));
        let k = &blocks.stiffness;
        for i in 0..8 {
            let mut acc = 0.0;
            for j in 0..8 {
                acc -= (adv[i][j] + kappa * k[i][j] + sa[i][j]) * x[j][0];
                if NI == 2 {
                    acc -= sm[i][j] * x[j][NI - 1];
                }
            }
            // Source: γ ∫ (N_i + τ a·∇N_i); the row sum of S_m is
            // τ ∫ (a·∇N_i) because Σ_j N_j = 1.
            if ts.params.source != 0.0 {
                let si: f64 = sm[i].iter().sum();
                acc += ts.params.source * (blocks.lumped_mass[i] + si);
            }
            y[i] = [acc];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::extract::extract_mesh;
    use octree::parallel::DistOctree;
    use scomm::spmd;

    #[test]
    fn pure_diffusion_decays_at_analytic_rate() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 3);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let params = TransportParams {
                kappa: 1.0,
                source: 0.0,
                cfl: 0.25,
            };
            let mut ts = TransportSolver::new(&m, c, params);
            ts.set_dirichlet(0b111111, |_| 0.0);
            let pi = std::f64::consts::PI;
            let mode = |p: [f64; 3]| (pi * p[0]).sin() * (pi * p[1]).sin() * (pi * p[2]).sin();
            let mut temp: Vec<f64> = (0..m.n_owned).map(|d| mode(m.dof_coords(d))).collect();
            ts.apply_bc(&mut temp);
            let n0 = ts.mass_weighted_norm(&temp);
            let dt = ts.stable_dt();
            let nsteps = 20;
            for _ in 0..nsteps {
                ts.step(&mut temp, dt);
            }
            let n1 = ts.mass_weighted_norm(&temp);
            let decay = (n0 / n1).ln() / (nsteps as f64 * dt);
            let exact = 3.0 * pi * pi;
            assert!(
                (decay - exact).abs() / exact < 0.1,
                "decay rate {decay} vs {exact}"
            );
        });
    }

    #[test]
    fn pure_advection_translates_front() {
        spmd::run(2, |c| {
            let t = DistOctree::new_uniform(c, 4);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            // Nearly hyperbolic: tiny κ so SUPG carries stabilization.
            let params = TransportParams {
                kappa: 1e-9,
                source: 0.0,
                cfl: 0.4,
            };
            let mut ts = TransportSolver::new(&m, c, params);
            ts.set_velocity_fn(|_| [1.0, 0.0, 0.0]);
            ts.set_dirichlet(0b000001, |_| 0.0); // inflow face x=0
            let gauss = |p: [f64; 3], x0: f64| {
                let r2 = (p[0] - x0).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2);
                (-r2 / 0.01).exp()
            };
            let mut temp: Vec<f64> = (0..m.n_owned)
                .map(|d| gauss(m.dof_coords(d), 0.25))
                .collect();
            let dt = ts.stable_dt();
            let t_final = 0.3;
            let nsteps = (t_final / dt).ceil() as usize;
            let dt = t_final / nsteps as f64;
            for _ in 0..nsteps {
                ts.step(&mut temp, dt);
            }
            // The peak must now sit near x = 0.55.
            let mut best = (0.0f64, [0.0; 3]);
            for d in 0..m.n_owned {
                if temp[d] > best.0 {
                    best = (temp[d], m.dof_coords(d));
                }
            }
            // Gather global argmax.
            let vals = c.allgatherv(&[best.0, best.1[0]]);
            let (mut gv, mut gx) = (0.0, 0.0);
            for pair in vals.chunks(2) {
                if pair[0] > gv {
                    gv = pair[0];
                    gx = pair[1];
                }
            }
            assert!((gx - 0.55).abs() < 0.1, "peak at x = {gx}");
            // SUPG keeps the solution essentially monotone.
            let (mn, mx) = ts.min_max(&temp);
            assert!(mn > -0.1, "undershoot {mn}");
            assert!(mx < 1.1, "overshoot {mx}");
            assert!(gv > 0.4, "peak amplitude retained: {gv}");
        });
    }

    #[test]
    fn source_term_heats_uniformly() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 2);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let params = TransportParams {
                kappa: 0.0,
                source: 2.0,
                cfl: 0.5,
            };
            let ts = TransportSolver::new(&m, c, params);
            let mut temp = vec![0.0; m.n_owned];
            // With κ = 0 and u = 0, Ṫ = γ exactly.
            let dt = 0.01;
            ts.step(&mut temp, dt);
            for d in 0..m.n_owned {
                assert!((temp[d] - 2.0 * dt).abs() < 1e-12, "dof {d}: {}", temp[d]);
            }
        });
    }

    /// A solver carries no state between steps but the velocity: three
    /// steps of one solver equal, bit for bit, three steps each taken by a
    /// fresh solver with the same velocity and BCs, and a new velocity
    /// set after a step reaches the next step.
    #[test]
    fn kept_solver_steps_like_fresh_ones_and_follows_the_velocity() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
            t.balance(octree::balance::BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
            let params = TransportParams {
                kappa: 1e-3,
                source: 0.5,
                cfl: 0.3,
            };
            let swirl = |p: [f64; 3]| [0.5 - p[1], p[0] - 1.0, 0.25 * p[2]];
            let solver = |f: &dyn Fn([f64; 3]) -> [f64; 3]| {
                let mut ts = TransportSolver::new(&m, c, params);
                ts.set_velocity_fn(f);
                ts.set_dirichlet(0b010000, |_| 1.0);
                ts.set_dirichlet(0b100000, |_| 0.0);
                ts
            };
            let t0: Vec<f64> = (0..m.n_owned)
                .map(|d| {
                    let p = m.dof_coords(d);
                    (-((p[0] - 0.7).powi(2) + (p[1] - 0.5).powi(2)) / 0.05).exp()
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let kept = solver(&swirl);
            let dt = kept.stable_dt();
            let (mut a, mut b) = (t0.clone(), t0);
            for k in 0..3 {
                kept.step(&mut a, dt);
                solver(&swirl).step(&mut b, dt);
                assert_eq!(bits(&a), bits(&b), "step {k}");
            }
            // A second velocity, set on the stepped solver.
            let shear = |p: [f64; 3]| [p[2], 0.0, -0.5 * p[0]];
            let mut kept = kept;
            let before = a.clone();
            kept.set_velocity_fn(shear);
            kept.step(&mut a, dt);
            solver(&shear).step(&mut b, dt);
            assert_eq!(bits(&a), bits(&b), "after the new velocity");
            let mut stale = before;
            solver(&swirl).step(&mut stale, dt);
            assert_ne!(bits(&a), bits(&stale));
        });
    }

    #[test]
    fn sweep_builds_agree_bitwise() {
        // The dispatching sweep (AVX2 on an AVX2 host) against the plain
        // build, with the predictor and the corrector kernel.
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
            t.balance(octree::balance::BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
            assert!(m.n_hanging() > 0);
            let params = TransportParams {
                kappa: 1e-3,
                source: 0.5,
                cfl: 0.3,
            };
            let mut ts = TransportSolver::new(&m, c, params);
            ts.set_velocity_fn(|p| [0.5 - p[1], p[0] - 1.0, 0.25 * p[2]]);
            let mut rng = scomm::rng::SplitMix64::new(c.rank() as u64);
            let x: Vec<f64> = (0..2 * m.n_local()).map(|_| rng.unit() - 0.5).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut dispatched, mut plain) = (vec![0.0; m.n_local()], vec![0.0; m.n_local()]);
            fem::op::sweep::<1, 1>(&m, &mut WeakRate(&ts), &x[..m.n_local()], &mut dispatched);
            fem::op::sweep_plain::<1, 1>(&m, &mut WeakRate(&ts), &x[..m.n_local()], &mut plain);
            assert_eq!(bits(&dispatched), bits(&plain), "predictor");
            let (mut dispatched, mut plain) = (vec![0.0; m.n_local()], vec![0.0; m.n_local()]);
            fem::op::sweep::<2, 1>(&m, &mut WeakRate(&ts), &x, &mut dispatched);
            fem::op::sweep_plain::<2, 1>(&m, &mut WeakRate(&ts), &x, &mut plain);
            assert_eq!(bits(&dispatched), bits(&plain), "corrector");
        });
    }

    #[test]
    fn parallel_matches_serial_transport() {
        let run = |nranks: usize| -> Vec<(u64, f64)> {
            spmd::run(nranks, |c| {
                let t = DistOctree::new_uniform(c, 3);
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let params = TransportParams {
                    kappa: 1e-4,
                    source: 0.0,
                    cfl: 0.3,
                };
                let mut ts = TransportSolver::new(&m, c, params);
                ts.set_velocity_fn(|p| [0.5 - p[1], p[0] - 0.5, 0.0]); // rotation
                let mut temp: Vec<f64> = (0..m.n_owned)
                    .map(|d| {
                        let p = m.dof_coords(d);
                        (-((p[0] - 0.7).powi(2) + (p[1] - 0.5).powi(2)) / 0.02).exp()
                    })
                    .collect();
                for _ in 0..5 {
                    let dt = 0.01;
                    ts.step(&mut temp, dt);
                }
                // (lattice key, value): the key names the node whatever
                // the partition.
                (0..m.n_owned)
                    .map(|d| (m.dof_keys[d], temp[d]))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let mut serial = run(1);
        let mut par = run(3);
        serial.sort_by_key(|p| p.0);
        par.sort_by_key(|p| p.0);
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.0, p.0, "the same nodes at both rank counts");
            assert!(
                (s.1 - p.1).abs() < 1e-9,
                "node {:?}: {} vs {}",
                s.0,
                s.1,
                p.1
            );
        }
    }
}
