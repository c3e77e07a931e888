//! The stabilized Stokes operator, its block preconditioner, and the
//! MINRES driver.

use fem::element::{stiffness_source, ElementBlocks, LevelBlocks};
use fem::op::{DofMap, ElementKernel, Workspace};
use la::krylov::{minres, SolveInfo};
use la::{Amg, AmgOptions};
use mesh::extract::Mesh;
use obs::Recorder;
use scomm::Comm;
use std::cell::RefCell;

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct StokesOptions {
    /// MINRES stops when its preconditioned residual norm falls to
    /// `tol · ‖b‖_{M⁻¹}`, relative to the right-hand side, not to the
    /// initial guess's residual: a warm start saves iterations.
    pub tol: f64,
    pub max_iter: usize,
    pub amg: AmgOptions,
}

impl Default for StokesOptions {
    fn default() -> Self {
        StokesOptions {
            tol: 1e-8,
            max_iter: 500,
            amg: AmgOptions::default(),
        }
    }
}

/// A variable-viscosity Stokes solver bound to a mesh.
///
/// Unknown layout: `[u₀x u₀y u₀z u₁x … | p₀ p₁ …]` — velocity block of
/// length `3·n_owned` followed by the pressure block of length `n_owned`.
/// The operator application alone sees the unknown as one
/// four-component field `[u_x u_y u_z p]` per node.
pub struct StokesSolver<'a> {
    pub mesh: &'a Mesh,
    pub comm: &'a Comm,
    /// Per-element viscosity.
    pub viscosity: Vec<f64>,
    /// Velocity Dirichlet mask, length `3·n_owned` (componentwise; both
    /// no-slip walls and free-slip normal components are expressible).
    pub vel_bc: Vec<bool>,
    /// The four-component field the operator is applied on.
    map: DofMap<'a>,
    /// Unit-viscosity element blocks, one per octree level present; every
    /// element matrix the solver uses is one of these scaled by η.
    blocks: LevelBlocks,
    /// AMG on the η-weighted scalar Poisson operator, one hierarchy
    /// across the ranks per *distinct* velocity-component Dirichlet mask
    /// (the masks differ under free-slip conditions), applied to the three
    /// interleaved components at once. `None` until `setup` runs.
    amg: Option<Amg<'a, 3>>,
    /// `D⁻¹`, the inverse of the η⁻¹-weighted lumped pressure mass
    /// `D = Σ_e m_e/η_e` (the paper's whole `S̃`): the scaling of the
    /// Chebyshev polynomial in [`StokesSolver::apply_preconditioner`].
    schur_diag_inv: Vec<f64>,
    /// The operators' owned+ghost buffers and the Chebyshev vectors,
    /// grow-only: after the first application every apply reuses them
    /// (`tests/allocations.rs` counts what a warm apply allocates).
    ws: RefCell<Scratch>,
    options: StokesOptions,
}

impl<'a> StokesSolver<'a> {
    /// Create the solver and run the preconditioner setup phase (AMG
    /// setup + Schur diagonal). Collective.
    pub fn new(
        mesh: &'a Mesh,
        comm: &'a Comm,
        viscosity: Vec<f64>,
        vel_bc: Vec<bool>,
        options: StokesOptions,
    ) -> Self {
        assert_eq!(viscosity.len(), mesh.elements.len());
        assert_eq!(vel_bc.len(), 3 * mesh.n_owned);
        let mut solver = StokesSolver {
            mesh,
            comm,
            viscosity,
            vel_bc,
            map: DofMap::new(mesh, comm, 4),
            blocks: LevelBlocks::new(mesh),
            amg: None,
            schur_diag_inv: Vec::new(),
            ws: RefCell::default(),
            options,
        };
        solver.setup();
        solver
    }

    /// The recorder attached to this solver's communicator, if any: the
    /// solver reports its telemetry (`AMGSetup`/`MINRES`/`AMGSolve` spans,
    /// residual series) through the same per-rank recorder the
    /// communication layer uses, so callers don't have to thread one in.
    fn recorder(&self) -> Option<Recorder> {
        self.comm.recorder()
    }

    /// (Re-)run the preconditioner setup: assemble the owned rows of the
    /// η-weighted scalar Poisson operator, build AMG, and the Schur
    /// diagonal. Collective.
    pub fn setup(&mut self) {
        let _span = self.recorder().map(|r| r.span_cat("AMGSetup", "solve"));
        // One scalar η-weighted Poisson hierarchy per velocity component:
        // under free-slip conditions the components carry different
        // Dirichlet masks, and using a shared all-boundary mask degrades
        // MINRES badly (tangential boundary rows would be preconditioned
        // as identities). Components whose masks agree on every rank
        // share one hierarchy (`Amg::coupled` decides). One collective
        // assembly, unmasked; each distinct mask is one lane elimination
        // of it, which gives the bits a per-mask assembly would
        // (DESIGN.md §7), with no eliminated copy.
        let (mesh, comm, visc) = (self.mesh, self.comm, &self.viscosity);
        let src = stiffness_source(mesh, &self.blocks, |e| visc[e]);
        let smap = DofMap::new(mesh, comm, 1);
        let a_rows = fem::assembly::assemble_owned_sum(&smap, &src);
        let amg = Amg::coupled(comm, &a_rows, &self.vel_bc, self.options.amg);
        drop(a_rows);
        if let Some(rec) = self.recorder() {
            rec.add_count("amg.setups", amg.hierarchies() as u64);
        }
        self.amg = Some(amg);

        // Schur approximation: lumped pressure mass weighted by 1/η.
        let mut sdiag = vec![0.0; smap.n_local()];
        for e in 0..self.mesh.elements.len() {
            let lm = &self.blocks.of(self.mesh, e).lumped_mass;
            let scaled: [f64; 8] = std::array::from_fn(|i| lm[i] / self.viscosity[e]);
            smap.scatter_element(e, &scaled, &mut sdiag);
        }
        smap.reverse_accumulate_in(&mut sdiag, &mut self.ws.get_mut().op);
        self.schur_diag_inv = sdiag[..self.mesh.n_owned]
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
            .collect();
    }

    /// Exchange rounds the velocity V-cycles of this setup have run and
    /// the messages this rank sent in them ([`Amg::exchanges`]).
    pub fn amg_exchanges(&self) -> (u64, u64) {
        let amg = self.amg.as_ref().expect("setup() must run first");
        amg.exchanges()
    }

    /// `D⁻¹`, the inverse η⁻¹-weighted lumped pressure mass that scales
    /// the pressure polynomial. With the V-cycles alone it makes the
    /// paper's preconditioner, a norm tests measure residuals in.
    pub fn schur_diag_inv(&self) -> &[f64] {
        &self.schur_diag_inv
    }

    /// Total owned unknowns (velocity + pressure).
    pub fn n_owned(&self) -> usize {
        4 * self.mesh.n_owned
    }

    /// Globally consistent inner product on the combined vector.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        self.comm.allreduce_sum(&[local])[0]
    }

    /// Apply the stabilized Stokes operator to a combined vector.
    /// Reuses one [`Workspace`]; a warm apply allocates only its message
    /// payloads.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_masked(x, y, Some(&self.vel_bc));
    }

    /// [`StokesSolver::apply`] with the velocity Dirichlet mask `bc`
    /// eliminated symmetrically, or without elimination (`None`, the
    /// operator of the Dirichlet lift). The combined vector is
    /// interleaved into the four-component field, so one exchange round
    /// each way carries velocity and pressure together.
    fn apply_masked(&self, x: &[f64], y: &mut [f64], bc: Option<&[bool]>) {
        let nu = 3 * self.mesh.n_owned;
        debug_assert_eq!(x.len(), nu + self.mesh.n_owned);
        let (u, p) = x.split_at(nu);
        let mut kernel = StokesKernel {
            mesh: self.mesh,
            blocks: &self.blocks,
            viscosity: &self.viscosity,
        };
        let masked = |i: usize| bc.is_some_and(|bc| bc[i]);
        let ws = &mut self.ws.borrow_mut().op;
        let yl = self.map.apply_kernel(&mut kernel, ws, |xl| {
            for (d, node) in xl.chunks_exact_mut(4).enumerate() {
                for k in 0..3 {
                    node[k] = if masked(3 * d + k) { 0.0 } else { u[3 * d + k] };
                }
                node[3] = p[d];
            }
        });
        // Identity on masked velocity rows.
        for (d, node) in yl.chunks_exact(4).enumerate() {
            for k in 0..3 {
                let i = 3 * d + k;
                y[i] = if masked(i) { x[i] } else { node[k] };
            }
            y[nu + d] = node[3];
        }
    }

    /// Apply the block preconditioner `P⁻¹ = diag(Ã⁻¹, S̃⁻¹)`: one AMG
    /// V-cycle per velocity component, all three in one fused pass, and
    /// on pressure a fixed Chebyshev polynomial in `D⁻¹S̃` with
    /// `S̃ = Σ_e (M_e + C_e)/η_e` (`SCHUR_INTERVAL`, `SCHUR_APPLIES`). A
    /// fixed SPD operator, as MINRES requires.
    /// Allocation-free once warm; at P ≥ 2 each `S̃` apply exchanges
    /// ghosts like the Stokes operator's. Collective.
    pub fn apply_preconditioner(&self, r: &[f64], z: &mut [f64]) {
        let nu = 3 * self.mesh.n_owned;
        let amg = self.amg.as_ref().expect("setup() must run first");
        amg.vcycle(&r[..nu], &mut z[..nu]);
        self.apply_schur_inverse(&r[nu..], &mut z[nu..]);
    }

    /// The pressure half of [`StokesSolver::apply_preconditioner`]:
    /// `z = q(D⁻¹S̃) D⁻¹ r` by the Chebyshev semi-iteration for `S̃ z = r`
    /// from `z = 0` (Saad, *Iterative Methods*, Alg. 12.1) with
    /// `SCHUR_APPLIES` applications of `S̃`, `S̃` matrix-free from the
    /// unit-viscosity `mass` and `stabilization` blocks. Collective.
    fn apply_schur_inverse(&self, r: &[f64], z: &mut [f64]) {
        let (lo, hi) = SCHUR_INTERVAL;
        let (theta, delta) = ((hi + lo) / 2.0, (hi - lo) / 2.0);
        let sigma = theta / delta;
        let dinv = &self.schur_diag_inv;
        let Scratch { op, res, step } = &mut *self.ws.borrow_mut();
        res.clear();
        res.extend_from_slice(r);
        step.clear();
        step.extend(r.iter().zip(dinv).map(|(ri, di)| ri * di / theta));
        z.copy_from_slice(step);
        let map = DofMap::new(self.mesh, self.comm, 1);
        let mut kernel = SchurKernel {
            mesh: self.mesh,
            blocks: &self.blocks,
            viscosity: &self.viscosity,
        };
        let mut rho = 1.0 / sigma;
        for _ in 0..SCHUR_APPLIES {
            let sd = map.apply_kernel(&mut kernel, op, |xl| xl.copy_from_slice(step));
            let rho_next = 1.0 / (2.0 * sigma - rho);
            let (keep, gain) = (rho_next * rho, 2.0 * rho_next / delta);
            for i in 0..z.len() {
                res[i] -= sd[i];
                step[i] = keep * step[i] + gain * (dinv[i] * res[i]);
                z[i] += step[i];
            }
            rho = rho_next;
        }
    }

    /// Solve the Stokes system with MINRES for the given combined RHS,
    /// starting from `x` (initial guess, velocity BC entries = boundary
    /// values that the RHS was lifted with). Collective.
    pub fn solve(&mut self, rhs: &[f64], x: &mut [f64]) -> SolveInfo {
        let rec = self.recorder();
        let _span = rec.as_ref().map(|r| r.span_cat("MINRES", "solve"));
        // Snapshot communication stats: their deltas across the solve
        // become the per-solve telemetry counters (reductions per
        // iteration, exchange messages).
        let stats0 = self.comm.stats();
        let amg = self.amg.as_ref().expect("setup() must run first");
        let vcycle_entries = amg.vcycle_entries() as u64;
        let (rounds0, _) = amg.exchanges();
        let info = {
            let n = self.n_owned();
            let op = (n, |x: &[f64], y: &mut [f64]| self.apply(x, y));
            let pre = (n, |r: &[f64], z: &mut [f64]| {
                let _span = rec.as_ref().map(|rec| {
                    rec.add_count("amg.vcycles", 3); // one per velocity component
                    rec.add_count("amg.vcycle_entries", vcycle_entries);
                    rec.span_cat("AMGSolve", "solve")
                });
                self.apply_preconditioner(r, z);
            });
            let observe = |_iter: usize, res: f64| {
                #[cfg(debug_assertions)]
                if scomm::checks_enabled() {
                    assert!(
                        res.is_finite(),
                        "MINRES residual became non-finite at iteration {_iter} \
                         (corrupt assembly or exchange upstream)"
                    );
                }
                if let Some(r) = rec.as_ref() {
                    r.push_series("minres.residual", res);
                }
            };
            minres(
                &op,
                Some(&pre),
                rhs,
                x,
                self.options.tol,
                self.options.max_iter,
                |a: &[f64], b: &[f64]| self.dot(a, b),
                observe,
            )
        };
        if let Some(r) = rec.as_ref() {
            let stats1 = self.comm.stats();
            r.add_count("minres.iterations", info.iterations as u64);
            if !info.converged {
                r.add_count("minres.unconverged", 1);
            }
            r.add_count("minres.allreduces", stats1.allreduces - stats0.allreduces);
            r.add_count("amg.exchanges", amg.exchanges().0 - rounds0);
            r.add_count(
                "minres.exchange_msgs",
                stats1.p2p_messages - stats0.p2p_messages,
            );
            if info.iterations > 0 {
                r.push_series(
                    "minres.reductions_per_iter",
                    (stats1.allreduces - stats0.allreduces) as f64 / info.iterations as f64,
                );
            }
        }
        info
    }

    /// Build the combined RHS for a body force sampled at dofs
    /// (`f(point) -> [fx, fy, fz]`), with a velocity Dirichlet lift
    /// `g(point) -> [ux, uy, uz]` applied on constrained components.
    /// Returns `(rhs, x0)` ready for [`StokesSolver::solve`].
    pub fn build_rhs<F, G>(&self, f: F, g: G) -> (Vec<f64>, Vec<f64>)
    where
        F: Fn([f64; 3]) -> [f64; 3],
        G: Fn([f64; 3]) -> [f64; 3],
    {
        let n = self.mesh.n_owned;
        let mut fv = vec![0.0; 3 * n];
        for d in 0..n {
            fv[3 * d..3 * d + 3].copy_from_slice(&f(self.mesh.dof_coords(d)));
        }
        let mut rhs = self.nodal_load(&fv);
        let x0 = self.dirichlet_lift(&mut rhs, g);
        (rhs, x0)
    }

    /// Consistent body-force load `M·f` for a nodal force `fv` (three
    /// components per owned dof), as a combined vector with a zero
    /// pressure block. Collective.
    pub fn nodal_load(&self, fv: &[f64]) -> Vec<f64> {
        let nu = 3 * self.mesh.n_owned;
        assert_eq!(fv.len(), nu);
        let vmap = DofMap::new(self.mesh, self.comm, 3);
        let ws = &mut self.ws.borrow_mut().op;
        let mut fl = Vec::new();
        vmap.fill_local(fv, &mut fl);
        vmap.exchange_in(&mut fl, ws);
        let mut rhs_local = vec![0.0; vmap.n_local()];
        let mut fe = [0.0; 24];
        let mut re = [0.0; 24];
        for e in 0..self.mesh.elements.len() {
            let mm = &self.blocks.of(self.mesh, e).mass;
            vmap.gather_element(e, &fl, &mut fe);
            for i in 0..8 {
                for c in 0..3 {
                    re[3 * i + c] = (0..8).map(|j| mm[i][j] * fe[3 * j + c]).sum();
                }
            }
            vmap.scatter_element(e, &re, &mut rhs_local);
        }
        vmap.reverse_accumulate_in(&mut rhs_local, ws);
        let mut rhs = vec![0.0; self.n_owned()];
        rhs[..nu].copy_from_slice(&rhs_local[..nu]);
        rhs
    }

    /// [`StokesSolver::nodal_load`] with every constrained velocity row
    /// set to the homogeneous condition `u = 0`: the right-hand side of a
    /// Picard step. It equals the zero [`StokesSolver::dirichlet_lift`]
    /// bit for bit without that lift's operator apply, whose `A·0` adds
    /// only +0.0 to the other rows. Collective.
    pub fn homogeneous_rhs(&self, fv: &[f64]) -> Vec<f64> {
        let mut rhs = self.nodal_load(fv);
        for (r, &masked) in rhs.iter_mut().zip(&self.vel_bc) {
            if masked {
                *r = 0.0;
            }
        }
        rhs
    }

    /// Dirichlet lift of the combined `rhs` for boundary values
    /// `g(point) -> [ux, uy, uz]` on the constrained components: the
    /// returned `x0` carries `g` there, `A·x0` is subtracted from `rhs`,
    /// and the constrained rows become the identity equation `u = g`.
    /// Collective.
    pub fn dirichlet_lift<G>(&self, rhs: &mut [f64], g: G) -> Vec<f64>
    where
        G: Fn([f64; 3]) -> [f64; 3],
    {
        let mut x0 = vec![0.0; self.n_owned()];
        let mut any_bc = false;
        for d in 0..self.mesh.n_owned {
            let val = g(self.mesh.dof_coords(d));
            for c in 0..3 {
                if self.vel_bc[3 * d + c] {
                    x0[3 * d + c] = val[c];
                    any_bc = true;
                }
            }
        }
        // Whether to apply the lift is a *global* decision: the operator
        // application exchanges ghost rounds with neighbors, so a rank
        // whose subdomain happens to have no boundary dofs (common at
        // high P) must still participate when any other rank lifts.
        if self.comm.allreduce_sum(&[f64::from(any_bc)])[0] > 0.0 {
            // rhs -= A_full · x0 where A_full ignores the BC elimination
            // (we need the coupling of boundary values into the interior).
            let mut ax0 = vec![0.0; self.n_owned()];
            self.apply_masked(&x0, &mut ax0, None);
            for i in 0..self.n_owned() {
                rhs[i] -= ax0[i];
            }
        }
        // BC rows: identity equation u_bc = g.
        for (i, &m) in self.vel_bc.iter().enumerate() {
            if m {
                rhs[i] = x0[i];
            }
        }
        x0
    }

    /// Compute the per-element second invariant of the strain rate
    /// `ė = sqrt(½ ε̇:ε̇)` at the element center from a combined solution
    /// vector. Used by the yielding rheology.
    pub fn strain_rate_invariant(&self, x: &[f64]) -> Vec<f64> {
        let nu = 3 * self.mesh.n_owned;
        let vmap = DofMap::new(self.mesh, self.comm, 3);
        let ul = vmap.to_local(&x[..nu]);
        let mut out = Vec::with_capacity(self.mesh.elements.len());
        let mut ue = [0.0; 24];
        for e in 0..self.mesh.elements.len() {
            let h = self.mesh.element_size(e);
            vmap.gather_element(e, &ul, &mut ue);
            // Velocity gradient at the element center.
            let mut grad = [[0.0f64; 3]; 3]; // grad[a][b] = ∂u_a/∂x_b
            for cnode in 0..8 {
                let g = fem::element::shape_grad(cnode, 0.5, 0.5, 0.5);
                let gphys = [g[0] / h[0], g[1] / h[1], g[2] / h[2]];
                for a in 0..3 {
                    for b in 0..3 {
                        grad[a][b] += ue[3 * cnode + a] * gphys[b];
                    }
                }
            }
            let mut sum = 0.0;
            for a in 0..3 {
                for b in 0..3 {
                    let eab = 0.5 * (grad[a][b] + grad[b][a]);
                    sum += eab * eab;
                }
            }
            out.push((0.5 * sum).sqrt());
        }
        out
    }
}

/// Applications of `S̃` per call of the pressure polynomial (`k` of them
/// make `1 − λq(λ)` the Chebyshev polynomial of degree `k + 1`). One,
/// two, three and four read 101, 66, 72 and 64 MINRES iterations on
/// `conv_cube_p1` at seed 1 (101 with `D` alone, the paper's `S̃`); two
/// costs the fewest seconds per solve.
const SCHUR_APPLIES: usize = 2;

/// The Chebyshev interval `[λ_min, λ_max]` of `D⁻¹S̃`, derived, not
/// tuned. On a box element, with 1D mass `(h/6)[2 1; 1 2]` against the
/// lumped `(h/2)I`, `L_e⁻¹M_e` has the tensor-product eigenvalues 1, 1/3,
/// 1/9, 1/27; `C_e = M_e − m_e m_eᵀ/V` removes the constant's 1 and keeps
/// the rest, so `L_e⁻¹(M_e + C_e)` has eigenvalues exactly 1, 2/3, 2/9
/// and 2/27 for every aspect ratio. Assembly keeps `λ_max ≤ 1` (Wathen
/// 1987, element by element) and so do hanging nodes: their convex
/// interpolation weights give `(P_e x)ᵀL_e(P_e x) ≤ xᵀ diag(P_eᵀm_e) x`.
/// The polynomial is therefore positive on the whole spectrum, and the
/// preconditioner SPD.
const SCHUR_INTERVAL: (f64, f64) = (2.0 / 27.0, 1.0);

/// The solver's grow-only scratch.
#[derive(Default)]
struct Scratch {
    /// Owned+ghost and exchange buffers of every operator application.
    op: Workspace,
    /// Chebyshev residual `r − S̃z` on the owned pressure dofs.
    res: Vec<f64>,
    /// Chebyshev update of `z`.
    step: Vec<f64>,
}

/// The pressure Schur approximation of one element on the scalar
/// pressure field: `(M + C₁)/η` from the level's unit blocks.
struct SchurKernel<'s> {
    mesh: &'s Mesh,
    blocks: &'s LevelBlocks,
    viscosity: &'s [f64],
}

impl ElementKernel<1, 1> for SchurKernel<'_> {
    /// Column by column of the symmetric `M + C₁`, each output an
    /// independent accumulation, so vector lanes change no rounding.
    #[inline(always)]
    fn apply(&mut self, e: usize, x: &[[f64; 1]; 8], y: &mut [[f64; 1]; 8]) {
        let ElementBlocks {
            mass: m,
            stabilization: c,
            ..
        } = self.blocks.of(self.mesh, e);
        let mut s = [0.0; 8];
        for j in 0..8 {
            for i in 0..8 {
                s[i] += (m[j][i] + c[j][i]) * x[j][0];
            }
        }
        let eta = self.viscosity[e];
        for (out, si) in y.iter_mut().zip(s) {
            out[0] = si / eta;
        }
    }
}

/// The stabilized Stokes stencil of one element on the four-component
/// field: the level's unit-viscosity blocks scaled by the element's η.
struct StokesKernel<'s> {
    mesh: &'s Mesh,
    blocks: &'s LevelBlocks,
    viscosity: &'s [f64],
}

impl ElementKernel<4, 4> for StokesKernel<'_> {
    /// Every output is an independent accumulation in a fixed order, so
    /// vector lanes change no rounding.
    #[inline(always)]
    fn apply(&mut self, e: usize, x: &[[f64; 4]; 8], y: &mut [[f64; 4]; 8]) {
        let eta = self.viscosity[e];
        let ElementBlocks {
            viscous: a,
            divergence: b,
            divergence_t: bt,
            stabilization: c,
            ..
        } = self.blocks.of(self.mesh, e);
        let ue: [f64; 24] = std::array::from_fn(|j| x[j / 3][j % 3]);
        let pe: [f64; 8] = x.map(|node| node[3]);
        // ru = η·(A₁ u) + Bᵀ p, accumulated one column of the
        // (symmetric) A₁ and one row of B at a time so the inner
        // loops run over contiguous memory with no reduction.
        let mut ru = [0.0; 24];
        for j in 0..24 {
            for i in 0..24 {
                ru[i] += a[j][i] * ue[j];
            }
        }
        for i in 0..24 {
            ru[i] *= eta;
        }
        for q in 0..8 {
            for i in 0..24 {
                ru[i] += b[q][i] * pe[q];
            }
        }
        // rp = B u − (C₁ p)/η over the eight rows at once, from Bᵀ
        // and the (exactly symmetric) C₁ read as C₁ᵀ. Each row sums
        // in index order from −0.0, the start of `Iterator::sum` for
        // f64.
        let mut bu = [-0.0; 8];
        for j in 0..24 {
            for q in 0..8 {
                bu[q] += bt[j][q] * ue[j];
            }
        }
        let mut cp = [-0.0; 8];
        for r in 0..8 {
            for q in 0..8 {
                cp[q] += c[r][q] * pe[r];
            }
        }
        for (node, out) in y.iter_mut().enumerate() {
            let u = &ru[3 * node..3 * node + 3];
            *out = [u[0], u[1], u[2], bu[node] - cp[node] / eta];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la::krylov::LinearOp;
    use mesh::extract::extract_mesh;
    use octree::balance::BalanceKind;
    use octree::parallel::DistOctree;
    use scomm::spmd;

    /// Manufactured Stokes solution with constant viscosity on the unit
    /// cube: divergence-free velocity field that vanishes on the whole
    /// boundary, with pressure p = cos(πx)·cos(πy).
    ///
    /// ψ-based field: u = curl(0, 0, ψ) with ψ = [x(1−x)y(1−y)]² z(1−z)…
    /// too messy analytically — instead use the classic vanishing-on-
    /// boundary field u = (f'(x) g(y) − …). We choose:
    ///   u₁ =  sin(πx)² sin(2πy) sin(2πz)… (divergence not zero)
    /// Simplest rigorous choice: u = curl Φ with
    ///   Φ = (0, 0, φ), φ = sin²(πx) sin²(πy) z(1−z)
    /// ⇒ u = (∂φ/∂y, −∂φ/∂x, 0), automatically divergence-free, and
    /// u = 0 on all faces (φ has vanishing tangential derivatives there).
    fn mms(p: [f64; 3]) -> ([f64; 3], f64) {
        let pi = std::f64::consts::PI;
        let (x, y, z) = (p[0], p[1], p[2]);
        let sx = (pi * x).sin();
        let sy = (pi * y).sin();
        let cx = (pi * x).cos();
        let cy = (pi * y).cos();
        let w = z * (1.0 - z);
        let u = 2.0 * pi * sx * sx * sy * cy * w;
        let v = -2.0 * pi * sx * cx * sy * sy * w;
        let pr = (pi * x).cos() * (pi * y).cos();
        ([u, v, 0.0], pr)
    }

    /// Body force f = −ηΔu + ∇p for η = 1 (computed by finite differences
    /// of the exact fields — exact enough at 1e-6 step for the tolerances
    /// used here).
    fn mms_force(p: [f64; 3]) -> [f64; 3] {
        let h = 1e-5;
        let lap = |comp: usize, q: [f64; 3]| -> f64 {
            let mut acc = 0.0;
            for d in 0..3 {
                let mut qp = q;
                let mut qm = q;
                qp[d] += h;
                qm[d] -= h;
                acc += (mms(qp).0[comp] - 2.0 * mms(q).0[comp] + mms(qm).0[comp]) / (h * h);
            }
            acc
        };
        let gradp = |d: usize, q: [f64; 3]| -> f64 {
            let mut qp = q;
            let mut qm = q;
            qp[d] += h;
            qm[d] -= h;
            (mms(qp).1 - mms(qm).1) / (2.0 * h)
        };
        [
            -lap(0, p) + gradp(0, p),
            -lap(1, p) + gradp(1, p),
            -lap(2, p) + gradp(2, p),
        ]
    }

    fn solve_mms(nranks: usize, level: u8) -> (f64, usize) {
        let out = spmd::run(nranks, move |c| {
            let t = DistOctree::new_uniform(c, level);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let visc = vec![1.0; m.elements.len()];
            let mut solver = StokesSolver::new(&m, c, visc, bc, StokesOptions::default());
            let (rhs, mut x) = solver.build_rhs(mms_force, |p| mms(p).0);
            let info = solver.solve(&rhs, &mut x);
            assert!(info.converged, "{info:?}");
            // Velocity max error at owned dofs.
            let mut err = 0.0f64;
            for d in 0..n {
                let exact = mms(m.dof_coords(d)).0;
                for comp in 0..3 {
                    err = err.max((x[3 * d + comp] - exact[comp]).abs());
                }
            }
            (c.allreduce_max(&[err])[0], info.iterations)
        });
        out[0]
    }

    #[test]
    fn stokes_mms_converges_with_refinement() {
        let (e2, _) = solve_mms(1, 2);
        let (e3, _) = solve_mms(1, 3);
        let rate = (e2 / e3).log2();
        assert!(rate > 1.5, "rate {rate} (e2 = {e2}, e3 = {e3})");
    }

    #[test]
    fn stokes_parallel_matches_serial() {
        let (es, is) = solve_mms(1, 2);
        let (ep, ip) = solve_mms(2, 2);
        assert!((es - ep).abs() < 1e-6, "errors {es} vs {ep}");
        // The hierarchy spans the ranks but aggregates within each, so
        // iterations may move a little.
        assert!(
            (is as i64 - ip as i64).unsigned_abs() as usize <= is / 10 + 3,
            "iterations {is} vs {ip}"
        );
    }

    #[test]
    fn iterations_insensitive_to_viscosity_contrast() {
        // The paper's headline solver property: MINRES + block
        // preconditioner shrugs at orders-of-magnitude viscosity jumps.
        let iters: Vec<usize> = [1.0f64, 1e2, 1e4]
            .iter()
            .map(|&contrast| {
                let out = spmd::run(1, move |c| {
                    let t = DistOctree::new_uniform(c, 2);
                    let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                    let n = m.n_owned;
                    let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
                    let visc: Vec<f64> = m
                        .elements
                        .iter()
                        .map(|o| {
                            if o.center_unit()[2] > 0.5 {
                                contrast
                            } else {
                                1.0
                            }
                        })
                        .collect();
                    let mut solver = StokesSolver::new(&m, c, visc, bc, StokesOptions::default());
                    let (rhs, mut x) =
                        solver.build_rhs(|p| [0.0, 0.0, (p[0] * 7.0).sin()], |_| [0.0; 3]);
                    let info = solver.solve(&rhs, &mut x);
                    assert!(info.converged, "contrast {contrast}: {info:?}");
                    info.iterations
                });
                out[0]
            })
            .collect();
        // Measured [44, 54, 49] ([50, 57, 50] with the lumped S̃ alone);
        // allowed: 3/2 × the isoviscous count.
        let max = *iters.iter().max().unwrap();
        assert!(
            2 * max <= 3 * iters[0],
            "iterations blow up with viscosity contrast: {iters:?}"
        );
    }

    #[test]
    fn solution_is_discretely_divergence_free() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let bc: Vec<bool> = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let visc = vec![1.0; m.elements.len()];
            let mut solver = StokesSolver::new(&m, c, visc, bc, StokesOptions::default());
            let (rhs, mut x) = solver.build_rhs(|p| [0.0, 0.0, (3.0 * p[0]).sin()], |_| [0.0; 3]);
            let info = solver.solve(&rhs, &mut x);
            assert!(info.converged);
            // Residual of the continuity row: B u − C p must be small
            // relative to the velocity magnitude.
            let mut y = vec![0.0; solver.n_owned()];
            solver.apply(&x, &mut y);
            let nu = 3 * n;
            let div_res: f64 = solver.dot(&y[nu..], &y[nu..]).sqrt();
            let rhs_norm: f64 = solver.dot(&rhs, &rhs).sqrt().max(1e-30);
            assert!(div_res / rhs_norm < 1e-6, "divergence residual {div_res}");
        });
    }

    /// An adapted mesh of an anisotropic box with hanging nodes on every
    /// rank.
    fn adapted_mesh(c: &Comm) -> Mesh {
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
        t.balance(BalanceKind::Full);
        t.partition();
        let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
        assert!(m.n_hanging() > 0, "rank {} sees no hanging node", c.rank());
        m
    }

    /// Uniform draws in [0, 1), seeded per rank so ranks differ.
    fn uniform(c: &Comm) -> impl FnMut() -> f64 {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (c.rank() as u64 + 1);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// η scattered element by element over four decades.
    fn random_viscosity(m: &Mesh, unit: &mut impl FnMut() -> f64) -> Vec<f64> {
        m.elements
            .iter()
            .map(|_| 10f64.powf(4.0 * unit() - 2.0))
            .collect()
    }

    /// Free-slip walls: each wall pins the velocity component normal to it,
    /// so the three component masks differ.
    fn free_slip(m: &Mesh) -> Vec<bool> {
        (0..3 * m.n_owned)
            .map(|i| m.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
            .collect()
    }

    /// The preconditioner as three scalar V-cycles, one per velocity
    /// component, each a hierarchy across the ranks of its own, and the
    /// solver's pressure half.
    struct ScalarVcycles<'s, 'a> {
        solver: &'s StokesSolver<'a>,
        amg: [Amg<'a>; 3],
    }

    /// The η-weighted Poisson source of the solver's velocity block.
    fn poisson_source<'s>(solver: &'s StokesSolver) -> impl Fn(usize, &mut [f64]) + 's {
        stiffness_source(solver.mesh, &solver.blocks, |e| solver.viscosity[e])
    }

    /// Component `comp`'s Dirichlet mask over the owned dofs.
    fn lane_mask(solver: &StokesSolver, comp: usize) -> Vec<bool> {
        let n = solver.mesh.n_owned;
        (0..n).map(|d| solver.vel_bc[3 * d + comp]).collect()
    }

    /// Each velocity component's η-weighted Poisson block, assembled
    /// under that component's mask.
    fn lane_blocks(solver: &StokesSolver) -> [la::Csr; 3] {
        let smap = DofMap::new(solver.mesh, solver.comm, 1);
        let src = poisson_source(solver);
        std::array::from_fn(|comp| {
            let mask = lane_mask(solver, comp);
            fem::assembly::assemble_owned_block(&smap, &src, Some(&mask))
        })
    }

    impl<'s, 'a> ScalarVcycles<'s, 'a> {
        fn new(solver: &'s StokesSolver<'a>) -> Self {
            let smap = DofMap::new(solver.mesh, solver.comm, 1);
            let rows = fem::assembly::assemble_owned_sum(&smap, &poisson_source(solver));
            let amg = std::array::from_fn(|comp| {
                let mask = lane_mask(solver, comp);
                Amg::coupled(solver.comm, &rows, &mask, solver.options.amg)
            });
            ScalarVcycles { solver, amg }
        }
    }

    impl LinearOp for ScalarVcycles<'_, '_> {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let n = self.solver.mesh.n_owned;
            for (c, amg) in self.amg.iter().enumerate() {
                let r_lane: Vec<f64> = (0..n).map(|i| r[3 * i + c]).collect();
                let mut z_lane = vec![0.0; n];
                amg.vcycle(&r_lane, &mut z_lane);
                for i in 0..n {
                    z[3 * i + c] = z_lane[i];
                }
            }
            self.solver
                .apply_schur_inverse(&r[3 * n..], &mut z[3 * n..]);
        }
        fn len(&self) -> usize {
            self.solver.n_owned()
        }
    }

    #[test]
    fn fused_preconditioner_gives_bitwise_minres_iterates() {
        for nranks in [1, 2] {
            spmd::run(nranks, |c| {
                let m = adapted_mesh(c);
                let mut unit = uniform(c);
                let visc = random_viscosity(&m, &mut unit);
                let options = StokesOptions {
                    tol: 1e-6,
                    ..StokesOptions::default()
                };
                let mut solver = StokesSolver::new(&m, c, visc, free_slip(&m), options);
                let (rhs, x0) = solver.build_rhs(
                    |p| [(5.0 * p[1]).cos(), 0.0, (3.0 * p[0]).sin()],
                    |_| [0.0; 3],
                );
                let n = solver.n_owned();
                let op = (n, |x: &[f64], y: &mut [f64]| solver.apply(x, y));
                let fused = (n, |r: &[f64], z: &mut [f64]| {
                    solver.apply_preconditioner(r, z)
                });
                let scalar = ScalarVcycles::new(&solver);
                let run = |pre: &dyn LinearOp| {
                    let (mut x, mut residuals) = (x0.clone(), Vec::new());
                    let info = minres(
                        &op,
                        Some(pre),
                        &rhs,
                        &mut x,
                        options.tol,
                        options.max_iter,
                        |a: &[f64], b: &[f64]| solver.dot(a, b),
                        |_, res: f64| residuals.push(res.to_bits()),
                    );
                    (
                        info,
                        residuals,
                        x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    )
                };
                let (want, got) = (run(&scalar), run(&fused));
                assert!(want.0.converged, "{:?}", want.0);
                assert!(want.0.iterations > 20, "{:?}", want.0);
                assert_eq!(got.0, want.0, "P = {nranks}");
                assert!(got.1 == want.1, "P = {nranks}: residual series differ");
                assert!(got.2 == want.2, "P = {nranks}: solutions differ");
                // The production entry point runs the same iteration.
                let mut x = x0.clone();
                let info = solver.solve(&rhs, &mut x);
                assert_eq!(info, want.0);
                assert!(x.iter().map(|v| v.to_bits()).eq(want.2.iter().copied()));
            });
        }
    }

    #[test]
    fn preconditioner_is_symmetric_positive_definite() {
        // ⟨Pu, v⟩ = ⟨u, Pv⟩ up to rounding, measured against the
        // Cauchy–Schwarz scale √(⟨Pu, u⟩⟨Pv, v⟩), and ⟨Pu, u⟩ > 0, on
        // random vectors (velocity and pressure), at P = 1, 2 and 4.
        for nranks in [1, 2, 4] {
            spmd::run(nranks, |c| {
                let m = adapted_mesh(c);
                let mut unit = uniform(c);
                let visc = random_viscosity(&m, &mut unit);
                let solver = StokesSolver::new(&m, c, visc, free_slip(&m), Default::default());
                let n = solver.n_owned();
                for trial in 0..4 {
                    let u: Vec<f64> = (0..n).map(|_| 2.0 * unit() - 1.0).collect();
                    let v: Vec<f64> = (0..n).map(|_| 2.0 * unit() - 1.0).collect();
                    let (mut pu, mut pv) = (vec![0.0; n], vec![0.0; n]);
                    solver.apply_preconditioner(&u, &mut pu);
                    solver.apply_preconditioner(&v, &mut pv);
                    let (puu, pvv) = (solver.dot(&pu, &u), solver.dot(&pv, &v));
                    assert!(puu > 0.0 && pvv > 0.0, "P = {nranks}, trial {trial}");
                    let (puv, upv) = (solver.dot(&pu, &v), solver.dot(&u, &pv));
                    let gap = (puv - upv).abs() / (puu * pvv).sqrt();
                    assert!(gap <= 1e-12, "P = {nranks}, trial {trial}: {gap:e}");
                }
            });
        }
    }

    #[test]
    fn iterations_stay_flat_in_the_rank_count() {
        // One AMG hierarchy across the ranks: a fixed adapted level-3 box
        // (η over four decades, free slip) takes 59 iterations at P = 1
        // and 60, 63, 64 at P = 2, 4, 8; allowed: 1.15× P = 1's. On the
        // level-2 `adapted_mesh` (≈ 40 elements a rank at P = 8) the same
        // reads 51 → 54, 57, 60 (1.18×): aggregates stop at rank
        // boundaries, which costs most on the smallest subdomains.
        let iterations = |nranks: usize| {
            spmd::run(nranks, |c| {
                let mut t = DistOctree::new_uniform(c, 3);
                t.refine(|o| o.center_unit()[0] < 0.3 && o.center_unit()[2] > 0.6);
                t.balance(BalanceKind::Full);
                t.partition();
                let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
                let eta = |o: &octree::Octant| 10f64.powf(4.0 * o.center_unit()[0] - 2.0);
                let visc = m.elements.iter().map(eta).collect();
                let mut solver = StokesSolver::new(&m, c, visc, free_slip(&m), Default::default());
                let (rhs, mut x) = solver.build_rhs(
                    |p| [(5.0 * p[1]).cos(), 0.0, (3.0 * p[0]).sin()],
                    |_| [0.0; 3],
                );
                let info = solver.solve(&rhs, &mut x);
                assert!(info.converged, "P = {nranks}: {info:?}");
                info.iterations
            })[0]
        };
        let one = iterations(1);
        for nranks in [2, 4, 8] {
            let many = iterations(nranks);
            assert!(
                100 * many <= 115 * one,
                "P = {nranks}: {many} iterations against {one} at P = 1"
            );
        }
    }

    #[test]
    fn setup_and_vcycle_counters_are_exact() {
        // `amg.setups` counts the hierarchies a `setup()` builds, one per
        // distinct velocity mask; `amg.vcycle_entries` adds, per
        // preconditioner apply, the stored entries it sweeps: the fused
        // fine level once (each position some component's eliminated
        // matrix stores) and every component's coarse levels.
        spmd::run(1, |c| {
            let rec = Recorder::new(c.rank());
            c.set_recorder(rec.clone());
            let count = |name: &str| rec.summary().counter(name);
            let m = adapted_mesh(c);
            let visc = random_viscosity(&m, &mut uniform(c));
            let no_slip = (0..3 * m.n_owned)
                .map(|i| m.dof_on_boundary(i / 3))
                .collect();
            for (bc, hierarchies) in [(free_slip(&m), 3), (no_slip, 1)] {
                let setups = count("amg.setups");
                let options = StokesOptions::default();
                let mut solver = StokesSolver::new(&m, c, visc.clone(), bc, options);
                assert_eq!(count("amg.setups") - setups, hierarchies);
                solver.setup();
                assert_eq!(count("amg.setups") - setups, 2 * hierarchies);
                let blocks = lane_blocks(&solver);
                let union: usize = (0..m.n_owned)
                    .map(|i| {
                        let mut cols: Vec<usize> = blocks
                            .iter()
                            .flat_map(|a| a.col_idx[a.row_ptr[i]..a.row_ptr[i + 1]].to_vec())
                            .collect();
                        cols.sort();
                        cols.dedup();
                        cols.len()
                    })
                    .sum();
                let coarse: usize = blocks
                    .map(|a| {
                        let sizes = Amg::new(a, options.amg).level_sizes();
                        sizes[1..].iter().map(|&(_, nnz)| nnz).sum::<usize>()
                    })
                    .iter()
                    .sum();
                let (vcycles, entries) = (count("amg.vcycles"), count("amg.vcycle_entries"));
                let (rhs, mut x) = solver.build_rhs(|p| [0.0, 0.0, p[0].sin()], |_| [0.0; 3]);
                assert!(solver.solve(&rhs, &mut x).converged);
                let applies = (count("amg.vcycles") - vcycles) / 3;
                assert!(applies > 10, "{applies} applies");
                assert_eq!(
                    count("amg.vcycle_entries") - entries,
                    applies * (union + coarse) as u64
                );
            }
        });
    }

    /// The owned block of `Σ_e M_e/η_e`, plus `C_e/η_e` with `with_c`,
    /// assembled under the hanging-node constraints.
    fn assembled_schur(solver: &StokesSolver, with_c: bool) -> la::Csr {
        let m = solver.mesh;
        let src = |e: usize, out: &mut [f64]| {
            let b = solver.blocks.of(m, e);
            for i in 0..8 {
                for j in 0..8 {
                    let cij = if with_c { b.stabilization[i][j] } else { 0.0 };
                    out[i * 8 + j] = (b.mass[i][j] + cij) / solver.viscosity[e];
                }
            }
        };
        fem::assembly::assemble_owned_block(&DofMap::new(m, solver.comm, 1), &src, None)
    }

    #[test]
    fn schur_interval_is_the_box_element_spectrum() {
        // The tensor sign vectors (products of (1, 1) and (1, −1) per
        // axis) are the eigenvectors of L⁻¹(M + C₁) on any box, with
        // eigenvalue 1 for the constant and 2·3⁻ᵏ for k sign changes:
        // the ends 1 and 2/27 are `SCHUR_INTERVAL`.
        for h in [[1.0, 1.0, 1.0], [2.0, 0.5, 0.25], [1e-3, 7.0, 0.3]] {
            let b = ElementBlocks::new(h);
            for signs in 0..8usize {
                let v: [f64; 8] = std::array::from_fn(|i| {
                    let flips = (i & signs).count_ones();
                    if flips % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    }
                });
                let k = signs.count_ones() as i32;
                let lambda = if k == 0 { 1.0 } else { 2.0 / 3f64.powi(k) };
                for i in 0..8 {
                    let sv: f64 = (0..8)
                        .map(|j| (b.mass[i][j] + b.stabilization[i][j]) * v[j])
                        .sum();
                    let want = lambda * b.lumped_mass[i] * v[i];
                    assert!(
                        (sv - want).abs() <= 1e-14 * b.lumped_mass[i],
                        "{h:?} {signs}"
                    );
                }
            }
        }
        assert_eq!(SCHUR_INTERVAL, (2.0 / 27.0, 1.0));
    }

    #[test]
    fn pressure_half_is_the_chebyshev_residual_polynomial() {
        // With A = D⁻¹S̃, B = (θ − A)/δ and x = S̃⁻¹r, the pressure half
        // returns z = x − T_k(B)x / T_k(σ), k = SCHUR_APPLIES + 1: its
        // error is the degree-k Chebyshev polynomial on SCHUR_INTERVAL.
        spmd::run(1, |c| {
            let m = adapted_mesh(c);
            let mut unit = uniform(c);
            let visc = random_viscosity(&m, &mut unit);
            let solver = StokesSolver::new(&m, c, visc, free_slip(&m), Default::default());
            let s = assembled_schur(&solver, true);
            let n = s.nrows;
            let mut dense = vec![0.0; n * n];
            for i in 0..n {
                for k in s.row_ptr[i]..s.row_ptr[i + 1] {
                    dense[i * n + s.col_idx[k]] = s.values[k];
                }
            }
            let chol = la::Cholesky::factor(&dense, n).expect("S̃ is SPD");
            let r: Vec<f64> = (0..n).map(|_| 2.0 * unit() - 1.0).collect();
            let mut z = vec![0.0; n];
            solver.apply_schur_inverse(&r, &mut z);
            let (lo, hi) = SCHUR_INTERVAL;
            let (theta, delta) = ((hi + lo) / 2.0, (hi - lo) / 2.0);
            let b_apply = |v: &[f64]| {
                let mut sv = vec![0.0; n];
                s.matvec(v, &mut sv);
                (0..n)
                    .map(|i| (theta * v[i] - solver.schur_diag_inv[i] * sv[i]) / delta)
                    .collect::<Vec<f64>>()
            };
            let mut x = r;
            chol.solve(&mut x);
            // T_k(B)x and T_k(σ) by the three-term recurrence.
            let sigma = theta / delta;
            let (mut t_prev, mut t) = (x.clone(), b_apply(&x));
            let (mut s_prev, mut s_k) = (1.0, sigma);
            for _ in 1..SCHUR_APPLIES + 1 {
                let bt = b_apply(&t);
                let next: Vec<f64> = (0..n).map(|i| 2.0 * bt[i] - t_prev[i]).collect();
                (t_prev, t) = (t, next);
                (s_prev, s_k) = (s_k, 2.0 * sigma * s_k - s_prev);
            }
            let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let gap: Vec<f64> = (0..n).map(|i| z[i] - (x[i] - t[i] / s_k)).collect();
            assert!(
                norm(&gap) <= 1e-10 * norm(&z),
                "{:e}",
                norm(&gap) / norm(&z)
            );
        });
    }

    /// MINRES iterations to 1e-6 from zero with the solver's V-cycles on
    /// velocity and four Schur approximations on pressure: the lumped
    /// `D` alone, exact `M/η`, exact `(M + C)/η` (dense Cholesky) and the
    /// production polynomial. P = 1, so the owned block is the matrix.
    fn schur_ablation(m: &Mesh, c: &Comm, visc: Vec<f64>) -> [usize; 4] {
        let solver = StokesSolver::new(m, c, visc, free_slip(m), Default::default());
        let exact = |with_c: bool| {
            let s = assembled_schur(&solver, with_c);
            let n = s.nrows;
            let mut dense = vec![0.0; n * n];
            for i in 0..n {
                for k in s.row_ptr[i]..s.row_ptr[i + 1] {
                    dense[i * n + s.col_idx[k]] = s.values[k];
                }
            }
            la::Cholesky::factor(&dense, n).expect("the pressure mass is SPD")
        };
        let (mass, mass_c) = (exact(false), exact(true));
        let (rhs, x0) = solver.build_rhs(
            |p| [(5.0 * p[1]).cos(), 0.0, (3.0 * p[0]).sin()],
            |_| [0.0; 3],
        );
        let n = solver.n_owned();
        let nu = 3 * m.n_owned;
        let op = (n, |x: &[f64], y: &mut [f64]| solver.apply(x, y));
        let count = |schur: &dyn Fn(&[f64], &mut [f64])| {
            let pre = (n, |r: &[f64], z: &mut [f64]| {
                solver.apply_preconditioner(r, z);
                schur(&r[nu..], &mut z[nu..]);
            });
            let info = minres(
                &op,
                Some(&pre),
                &rhs,
                &mut x0.clone(),
                1e-6,
                500,
                |a: &[f64], b: &[f64]| solver.dot(a, b),
                |_, _| {},
            );
            assert!(info.converged, "{info:?}");
            info.iterations
        };
        [
            count(&|r, z| {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(&solver.schur_diag_inv) {
                    *zi = ri * di;
                }
            }),
            count(&|r, z| {
                z.copy_from_slice(r);
                mass.solve(z);
            }),
            count(&|r, z| {
                z.copy_from_slice(r);
                mass_c.solve(z);
            }),
            count(&|_, _| {}),
        ]
    }

    #[test]
    fn schur_approximations_ranked_by_exact_counts() {
        // ROADMAP item 9(a) for S̃, on a level-2 box refined to level 3
        // on one half (hanging nodes). Measured [lumped, M, M + C,
        // production]: smooth [51, 48, 40, 42], jump [61, 54, 40, 45].
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.5);
            t.balance(BalanceKind::Full);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            assert!(m.n_hanging() > 0);
            // An Arrhenius-like η = exp(−6.9 T) of a conductive profile
            // with a plume, and a 10⁴ step across z = 1/2.
            let smooth = m
                .elements
                .iter()
                .map(|o| {
                    let [x, y, z] = o.center_unit();
                    let t = (1.0 - z) + 0.2 * (std::f64::consts::PI * x).cos() * y;
                    (-6.9 * t.clamp(0.0, 1.0)).exp()
                })
                .collect();
            let jump = m
                .elements
                .iter()
                .map(|o| if o.center_unit()[2] > 0.5 { 1e4 } else { 1.0 })
                .collect();
            let [lumped, mass, mass_c, production] = schur_ablation(&m, c, smooth);
            assert!(mass_c < mass && mass < lumped, "{lumped} {mass} {mass_c}");
            assert!(10 * production <= 11 * mass_c, "{production} vs {mass_c}");
            assert!(production < lumped, "{production} vs {lumped}");
            let [lumped, _, mass_c, production] = schur_ablation(&m, c, jump);
            assert!(mass_c <= production && production < lumped);
        });
    }

    /// `‖v‖_{M⁻¹} = √⟨M⁻¹v, v⟩` under the solver's preconditioner.
    fn m_norm(solver: &StokesSolver, v: &[f64]) -> f64 {
        let mut z = vec![0.0; v.len()];
        solver.apply_preconditioner(v, &mut z);
        solver.dot(&z, v).sqrt()
    }

    #[test]
    fn converged_solves_meet_the_stop_in_their_true_residual() {
        // MINRES stops on its recurrence estimate |η| ≤ tol·‖b‖_{M⁻¹}; the
        // true residual ‖b − Ax‖_{M⁻¹}, which |η| equals in exact
        // arithmetic, may exceed it by rounding only. Here the two agree
        // to 5e-11 relative on every solve; allowed: 1e-6.
        const SLACK: f64 = 1e-6;
        let tol = 1e-6;
        for nranks in [1, 2] {
            spmd::run(nranks, |c| {
                let m = adapted_mesh(c);
                let mut unit = uniform(c);
                let visc = random_viscosity(&m, &mut unit);
                let options = StokesOptions {
                    tol,
                    ..StokesOptions::default()
                };
                let mut solver = StokesSolver::new(&m, c, visc, free_slip(&m), options);
                let n = solver.n_owned();
                let mut x = vec![0.0; n];
                let mut iterations = Vec::new();
                // A cold solve; two warm ones on a load that drifts as a
                // time step's buoyancy does; one whose guess is worse than
                // zero (the load reversed), which restarts from zero.
                for (shift, sign) in [(0.0, 1.0), (0.02, 1.0), (0.05, 1.0), (0.05, -1.0)] {
                    let (rhs, _) = solver.build_rhs(
                        |p| [0.0, 0.0, sign * (3.0 * p[0] + shift).sin()],
                        |_| [0.0; 3],
                    );
                    let info = solver.solve(&rhs, &mut x);
                    assert!(info.converged, "P = {nranks}, shift {shift}: {info:?}");
                    let mut r = vec![0.0; n];
                    solver.apply(&x, &mut r);
                    for (ri, bi) in r.iter_mut().zip(&rhs) {
                        *ri = bi - *ri;
                    }
                    let ratio = m_norm(&solver, &r) / (tol * m_norm(&solver, &rhs));
                    assert!(
                        ratio <= 1.0 + SLACK,
                        "P = {nranks}, shift {shift}, sign {sign}: true residual \
                         {ratio} × tol·‖b‖"
                    );
                    iterations.push(info.iterations);
                }
                // A close guess pays: fewer iterations than from zero.
                assert!(iterations[1] < iterations[0], "{iterations:?}");
            });
        }
    }

    #[test]
    fn warm_solves_converge_and_record_iterations() {
        // Repeated solves on one solver converge and feed the recorder;
        // what a warm solve allocates is pinned in `tests/allocations.rs`.
        spmd::run(2, |c| {
            let rec = Recorder::new(c.rank());
            c.set_recorder(rec.clone());
            let m = adapted_mesh(c);
            let mut unit = uniform(c);
            let visc = random_viscosity(&m, &mut unit);
            let options = StokesOptions::default();
            let mut solver = StokesSolver::new(&m, c, visc, free_slip(&m), options);
            let (rhs, x0) = solver.build_rhs(|p| [0.0, 0.0, (3.0 * p[0]).sin()], |_| [0.0; 3]);
            for _ in 0..2 {
                let info = solver.solve(&rhs, &mut x0.clone());
                assert!(info.converged, "{info:?}");
            }
            assert!(rec.summary().counter("minres.iterations") > 0);
        });
    }

    #[test]
    fn sweep_builds_agree_bitwise() {
        // The dispatching sweep (AVX2 on an AVX2 host) against the plain
        // build, with the Stokes and the Schur kernel, so one build covers
        // both.
        fn agree<const NC: usize>(m: &Mesh, kernel: &mut impl ElementKernel<NC, NC>, x: &[f64]) {
            let (mut dispatched, mut plain) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            fem::op::sweep(m, kernel, x, &mut dispatched);
            fem::op::sweep_plain(m, kernel, x, &mut plain);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dispatched), bits(&plain));
        }
        spmd::run(2, |c| {
            let m = adapted_mesh(c);
            let mut unit = uniform(c);
            let visc = random_viscosity(&m, &mut unit);
            let blocks = LevelBlocks::new(&m);
            let (mesh, blocks, viscosity) = (&m, &blocks, &visc[..]);
            let x: Vec<f64> = (0..4 * m.n_local()).map(|_| 2.0 * unit() - 1.0).collect();
            let mut stokes = StokesKernel {
                mesh,
                blocks,
                viscosity,
            };
            agree(&m, &mut stokes, &x);
            let mut schur = SchurKernel {
                mesh,
                blocks,
                viscosity,
            };
            agree(&m, &mut schur, &x[..m.n_local()]);
        });
    }

    #[test]
    fn strain_rate_invariant_of_linear_shear() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 2);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let solver = StokesSolver::new(
                &m,
                c,
                vec![1.0; m.elements.len()],
                vec![false; 3 * n],
                StokesOptions::default(),
            );
            // u = (γ z, 0, 0): ε̇ has e13 = e31 = γ/2 ⇒ ė = γ/2.
            let gamma = 3.0;
            let mut x = vec![0.0; solver.n_owned()];
            for d in 0..n {
                x[3 * d] = gamma * m.dof_coords(d)[2];
            }
            let inv = solver.strain_rate_invariant(&x);
            for v in inv {
                assert!((v - gamma / 2.0).abs() < 1e-12, "ė = {v}");
            }
        });
    }

    #[test]
    fn homogeneous_rhs_equals_the_zero_lift_bitwise() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] + o.center_unit()[1] < 0.7);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let n = m.n_owned;
            let no_slip = (0..3 * n).map(|i| m.dof_on_boundary(i / 3)).collect();
            let free_slip = (0..3 * n)
                .map(|i| m.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
                .collect();
            for bc in [no_slip, free_slip] {
                let visc = (0..m.elements.len())
                    .map(|e| 1.0 + (e % 7) as f64)
                    .collect();
                let solver = StokesSolver::new(&m, c, visc, bc, Default::default());
                let force: Vec<f64> = (0..3 * n)
                    .map(|i| (m.dof_coords(i / 3)[i % 3] * 5.0).sin() - 0.5)
                    .collect();
                let mut lifted = solver.nodal_load(&force);
                solver.dirichlet_lift(&mut lifted, |_| [0.0; 3]);
                let rhs = solver.homogeneous_rhs(&force);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rhs), bits(&lifted), "rank {}", c.rank());
            }
        });
    }
}
