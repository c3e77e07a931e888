//! Picard fixed-point iteration for strain-rate-dependent viscosity
//! (paper Section III: "The nonlinearity imposed by strain-rate-dependent
//! viscosity is addressed with a Picard-type fixed point iteration").
//!
//! Each Picard step freezes the viscosity field η(T, ė) at the current
//! iterate, solves the linearized Stokes system with MINRES, recomputes
//! the strain-rate invariant, and re-evaluates the rheology. The AMG
//! setup is re-run whenever the viscosity changes (as the paper reuses
//! the preconditioner only while the mesh and coefficients stand still).

use crate::solver::StokesSolver;

/// Relative viscosity change below which the fixed point has converged.
const RHEOLOGY_TOL: f64 = 1e-3;

/// What a nonlinear solve did. The iterate and the final viscosity stay
/// where the caller can see them: `x` and `solver.viscosity`.
#[derive(Debug, Clone, Copy)]
pub struct PicardResult {
    pub picard_iterations: usize,
    pub total_minres_iterations: usize,
    /// Every MINRES solve of the call converged; `false` when one ended
    /// at its iteration cap or broke down first.
    pub minres_converged: bool,
    /// The last viscosity re-evaluation moved η by less than the
    /// tolerance; `false` when the step cap ended the loop first.
    pub converged: bool,
    /// Largest relative η change of the last viscosity re-evaluation;
    /// `None` when the step cap allowed no re-evaluation.
    pub last_eta_change: Option<f64>,
}

/// Solve the nonlinear Stokes problem `−∇·[η(ė)(∇u+∇uᵀ)] + ∇p = f`,
/// `∇·u = 0` with homogeneous velocity conditions on `solver.vel_bc`.
/// `solver` arrives set up on `rheology(element, 0)`; `force` is the
/// nodal body force (three components per owned dof); `x` is the warm
/// start and returns the iterate; `rheology(element, strain_rate_invariant)`
/// evaluates the viscosity law. The strain rate is swept only when
/// `max_steps` allows another solve to use it. A call that the step cap
/// ends after a re-evaluation moved η by at least the tolerance adds 1
/// to the recorder's `picard.unconverged` count. Collective.
pub fn picard_solve(
    solver: &mut StokesSolver,
    force: &[f64],
    x: &mut [f64],
    rheology: impl Fn(usize, f64) -> f64,
    max_steps: usize,
) -> PicardResult {
    let mut result = PicardResult {
        picard_iterations: 0,
        total_minres_iterations: 0,
        minres_converged: true,
        converged: false,
        last_eta_change: None,
    };
    loop {
        let rhs = solver.homogeneous_rhs(force);
        let info = solver.solve(&rhs, x);
        result.total_minres_iterations += info.iterations;
        result.minres_converged &= info.converged;
        result.picard_iterations += 1;
        if result.picard_iterations >= max_steps {
            if let (Some(rec), Some(_)) = (solver.comm.recorder(), result.last_eta_change) {
                rec.add_count("picard.unconverged", 1);
            }
            return result;
        }
        let edot = solver.strain_rate_invariant(x);
        let mut max_rel = 0.0f64;
        for (e, &ed) in edot.iter().enumerate() {
            let eta_new = rheology(e, ed);
            let eta_old = solver.viscosity[e];
            max_rel = max_rel.max((eta_new - eta_old).abs() / eta_old.abs().max(1e-300));
            solver.viscosity[e] = eta_new;
        }
        let max_rel = solver.comm.allreduce_max(&[max_rel])[0];
        result.last_eta_change = Some(max_rel);
        if max_rel < RHEOLOGY_TOL {
            result.converged = true;
            return result;
        }
        // Viscosity changed: rebuild the AMG hierarchy and Schur diagonal.
        solver.setup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::extract::{extract_mesh, Mesh};
    use octree::parallel::DistOctree;
    use scomm::{spmd, Comm};

    /// A unit-viscosity solver on `m` and the nodal force `(0, 0, fz)`.
    fn problem<'a>(
        m: &'a Mesh,
        c: &'a Comm,
        bc: Vec<bool>,
        fz: impl Fn([f64; 3]) -> f64,
    ) -> (StokesSolver<'a>, Vec<f64>) {
        let solver = StokesSolver::new(m, c, vec![1.0; m.elements.len()], bc, Default::default());
        let mut force = vec![0.0; 3 * m.n_owned];
        for d in 0..m.n_owned {
            force[3 * d + 2] = fz(m.dof_coords(d));
        }
        (solver, force)
    }

    #[test]
    fn linear_rheology_converges_in_one_or_two_steps() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 2);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let (mut solver, force) = problem(&m, c, bc, |p| (p[0] * 5.0).sin());
            let mut x = vec![0.0; 4 * n];
            let res = picard_solve(&mut solver, &force, &mut x, |_, _| 1.0, 30);
            assert!(res.converged);
            assert!(res.picard_iterations <= 2, "{}", res.picard_iterations);
            assert_eq!(res.last_eta_change, Some(0.0));
        });
    }

    #[test]
    fn yielding_rheology_reduces_viscosity_under_stress() {
        spmd::run(2, |c| {
            let t = DistOctree::new_uniform(c, 2);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let sigma_y = 0.05; // low yield stress: forcing will exceed it
            let (mut solver, force) =
                problem(&m, c, bc, |p| 10.0 * (std::f64::consts::PI * p[0]).sin());
            let mut x = vec![0.0; 4 * n];
            let yielding = move |_, edot: f64| {
                let eta0 = 1.0f64;
                if edot > 0.0 {
                    eta0.min(sigma_y / (2.0 * edot)).max(1e-4)
                } else {
                    eta0
                }
            };
            // Capped early, the loop ends unconverged, and says so only
            // once a re-evaluation has measured η moving.
            let rec = obs::Recorder::new(c.rank());
            c.set_recorder(rec.clone());
            let once = picard_solve(&mut solver, &force, &mut x, yielding, 1);
            assert!(!once.converged && once.last_eta_change.is_none());
            assert_eq!(rec.summary().counter("picard.unconverged"), 0);
            let capped = picard_solve(&mut solver, &force, &mut x, yielding, 2);
            assert!(capped.last_eta_change.is_some_and(|d| d > RHEOLOGY_TOL));
            assert_eq!(rec.summary().counter("picard.unconverged"), 1);
            x.fill(0.0);
            solver.viscosity.fill(1.0);
            solver.setup();
            let res = picard_solve(&mut solver, &force, &mut x, yielding, 40);
            assert!(res.converged, "picard did not converge");
            let min_eta = (solver.viscosity.iter().cloned()).fold(f64::INFINITY, f64::min);
            let g = c.allreduce_min(&[min_eta])[0];
            assert!(
                g < 1.0,
                "yielding must lower viscosity somewhere: min η = {g}"
            );
            assert!(res.picard_iterations > 1, "nonlinearity must engage");
            assert!(res.last_eta_change.is_some_and(|d| d < RHEOLOGY_TOL));
        });
    }
}
