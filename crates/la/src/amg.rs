//! Smoothed-aggregation algebraic multigrid — the BoomerAMG substitute.
//!
//! The paper preconditions each variable-viscosity Poisson block of the
//! Stokes operator with one V-cycle of BoomerAMG (hypre); AMG is chosen
//! over geometric multigrid precisely because it mitigates heterogeneity
//! in mesh size and viscosity (Section III). This module provides the
//! same contract: [`Amg::new`] is the *setup phase* (coarse hierarchy +
//! transfer operators), [`Amg::vcycle`] applies one V-cycle, and the
//! operator is SPD (symmetric Gauss–Seidel smoothing with matching pre-
//! and post-sweeps), making it admissible inside MINRES and CG.
//!
//! Algorithm: Vaněk–Mandel–Brezina smoothed aggregation with the constant
//! near-nullspace — strength graph by `|a_ij| ≥ θ √(a_ii a_jj)` (θ is
//! [`THETA`]), greedy aggregation, tentative piecewise-constant
//! prolongator, one step of weighted-Jacobi prolongator smoothing with
//! the spectral radius estimated by power iteration. Rows with no
//! off-diagonal entry (Dirichlet identity rows) join no aggregate: the
//! smoother solves them exactly and they never reach a coarse level. If
//! aggregation stalls above `max_coarse` rows the coarsest level is
//! solved by smoother sweeps, never by a dense factorization.
//!
//! **Communication.** This hierarchy is deliberately *rank-local*
//! (block-Jacobi across ranks): [`Amg::new`] takes the owned diagonal
//! block and every smoother sweep, restriction, and coarse solve touches
//! only local data — there are no ghost exchanges to overlap, split-phase
//! or otherwise. The split-phase machinery (`fem::DofMap::exchange_begin`
//! / `exchange_end`) therefore lives in the distributed operator
//! applications that wrap these V-cycles (`fem::op::DistOp`,
//! `stokes`), not here; if a distributed smoother is ever added, its
//! halo exchange should adopt the same begin/end pattern. See DESIGN.md
//! §12 for the deviation note versus the paper's distributed BoomerAMG.

use std::cell::RefCell;

use crate::csr::Csr;
use crate::dense::{Cholesky, Lu};
use crate::krylov::LinearOp;

/// Setup options.
#[derive(Debug, Clone, Copy)]
pub struct AmgOptions {
    /// Pre/post symmetric Gauss–Seidel sweeps per level.
    pub smooth_sweeps: usize,
    /// Stop coarsening below this size and solve directly.
    pub max_coarse: usize,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            smooth_sweeps: 1,
            max_coarse: 64,
            max_levels: 20,
        }
    }
}

struct Level {
    a: Csr,
    diag: Vec<f64>,
    /// Prolongator to this (finer) level from the next coarser one.
    p: Csr,
    r: Csr,
}

enum CoarseSolve {
    Cholesky(Cholesky),
    Lu(Lu),
    /// Fallback for a coarsest level that is singular or still larger
    /// than `max_coarse`: symmetric Gauss–Seidel sweeps.
    Sweeps(Csr, Vec<f64>),
}

/// Per-level V-cycle scratch (residual, restricted residual, coarse
/// correction, prolonged correction), sized at setup so steady-state
/// V-cycles are allocation-free.
#[derive(Default)]
struct CycleScratch {
    r: Vec<f64>,
    rc: Vec<f64>,
    ec: Vec<f64>,
    e: Vec<f64>,
}

/// A smoothed-aggregation AMG hierarchy for an SPD (or semi-definite)
/// matrix.
pub struct Amg {
    levels: Vec<Level>,
    coarse_a: Csr,
    coarse: CoarseSolve,
    options: AmgOptions,
    /// One scratch set per non-coarse level; interior mutability because
    /// `LinearOp::apply` takes `&self`. V-cycles never nest, so the
    /// borrow is always uncontended.
    scratch: RefCell<Vec<CycleScratch>>,
}

/// Strength-of-connection threshold θ: `j` is a strong neighbor of `i`
/// when `|a_ij| ≥ θ √(a_ii a_jj)`.
///
/// Chosen for the matrix this module preconditions, the assembled
/// trilinear (27-point) Poisson stencil: relative to the diagonal its
/// axis neighbours are 0 and its edge and corner neighbours 1/16 and
/// 1/32, so 0.02 makes all twenty of those strong on a uniform patch (the
/// classical 0.08, right for a 7-point stencil's 1/6, finds *nothing*
/// strong there and the hierarchy does not coarsen: operator complexity
/// 7.5). θ = 0 measured the same within noise on both `conv_cube`
/// workloads (121 / 217 MINRES iterations at complexity 1.04, against
/// 122 / 217 at 1.07) and on the contrast tests, but it would call the
/// rounding residue left in the axis entries strong and aggregate across
/// any coefficient jump; 0.02 still drops the couplings from an interface
/// node into the weak side of a jump η₂/η₁ ≳ 20 (edge neighbours:
/// 1/16 · √(2η₁/(η₁+η₂)) < 0.02). Not an option: no caller has a second
/// matrix family. EXPERIMENTS.md has the sweep.
const THETA: f64 = 0.02;

/// Marks a row that belongs to no aggregate.
const UNAGG: usize = usize::MAX;

/// Greedy aggregation on the strength graph. Returns (aggregate id per
/// node, number of aggregates). A row with no non-zero off-diagonal gets
/// no aggregate ([`UNAGG`]): nothing couples it to a coarse unknown.
fn aggregate(a: &Csr) -> (Vec<usize>, usize) {
    let n = a.nrows;
    let diag = a.diagonal();
    // Strong neighbor lists.
    let mut strong: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut isolated = vec![true; n];
    for i in 0..n {
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let j = a.col_idx[k];
            if j != i && a.values[k] != 0.0 {
                isolated[i] = false;
                let bound = THETA * (diag[i].abs() * diag[j].abs()).sqrt();
                if a.values[k].abs() >= bound {
                    strong[i].push(j);
                }
            }
        }
    }
    let mut agg = vec![UNAGG; n];
    let mut n_agg = 0;
    // Pass 1: roots whose entire strong neighborhood is unaggregated.
    for i in 0..n {
        if agg[i] != UNAGG || isolated[i] {
            continue;
        }
        if strong[i].iter().all(|&j| agg[j] == UNAGG) {
            agg[i] = n_agg;
            for &j in &strong[i] {
                agg[j] = n_agg;
            }
            n_agg += 1;
        }
    }
    // Pass 2: attach stragglers to a neighboring aggregate.
    for i in 0..n {
        if agg[i] == UNAGG {
            if let Some(&j) = strong[i].iter().find(|&&j| agg[j] != UNAGG) {
                agg[i] = agg[j];
            }
        }
    }
    // Pass 3: leftovers that couple to something become singletons.
    for i in 0..n {
        if agg[i] == UNAGG && !isolated[i] {
            agg[i] = n_agg;
            n_agg += 1;
        }
    }
    (agg, n_agg)
}

/// Estimate ρ(D⁻¹A) by power iteration (deterministic start).
fn spectral_radius_dinv_a(a: &Csr, diag: &[f64], iters: usize) -> f64 {
    let n = a.nrows;
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let mut lambda = 1.0f64;
    for _ in 0..iters {
        a.matvec(&x, &mut y);
        for i in 0..n {
            y[i] /= diag[i].max(1e-300);
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 1.0;
        }
        lambda = norm / x.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for i in 0..n {
            x[i] = y[i] / norm;
        }
    }
    lambda.max(1e-8)
}

/// One symmetric-Gauss–Seidel smoothing sweep (forward then backward).
fn sgs_sweep(a: &Csr, diag: &[f64], b: &[f64], x: &mut [f64]) {
    let n = a.nrows;
    for i in 0..n {
        let mut sigma = b[i];
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let j = a.col_idx[k];
            if j != i {
                sigma -= a.values[k] * x[j];
            }
        }
        x[i] = sigma / diag[i];
    }
    for i in (0..n).rev() {
        let mut sigma = b[i];
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let j = a.col_idx[k];
            if j != i {
                sigma -= a.values[k] * x[j];
            }
        }
        x[i] = sigma / diag[i];
    }
}

/// Dense Cholesky, else LU, factorization of `a`; `None` if singular.
fn dense_factor(a: &Csr) -> Option<CoarseSolve> {
    let n = a.nrows;
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            dense[i * n + a.col_idx[k]] = a.values[k];
        }
    }
    match Cholesky::factor(&dense, n) {
        Some(ch) => Some(CoarseSolve::Cholesky(ch)),
        None => Lu::factor(&dense, n).map(CoarseSolve::Lu),
    }
}

impl Amg {
    /// Setup phase: build the hierarchy for SPD `a`.
    pub fn new(a: Csr, options: AmgOptions) -> Amg {
        let mut levels = Vec::new();
        let mut current = a;
        while current.nrows > options.max_coarse && levels.len() < options.max_levels {
            let diag = current.diagonal();
            let (agg, n_agg) = aggregate(&current);
            if n_agg == 0 || n_agg >= current.nrows {
                break; // nothing to coarsen, or no progress; stop here
            }
            // Tentative prolongator: piecewise constant over aggregates,
            // an empty row for a node in none.
            let triplets: Vec<(usize, usize, f64)> = agg
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g != UNAGG)
                .map(|(i, &g)| (i, g, 1.0))
                .collect();
            let p0 = Csr::from_triplets(current.nrows, n_agg, &triplets);
            // Smooth: P = (I − ω D⁻¹ A) P0 with ω = 4/(3ρ).
            let rho = spectral_radius_dinv_a(&current, &diag, 12);
            let omega = 4.0 / (3.0 * rho);
            let ap0 = current.matmul(&p0);
            // P = P0 − ω D⁻¹ (A P0): subtract scaled rows.
            let mut p_trip: Vec<(usize, usize, f64)> = Vec::with_capacity(ap0.nnz() + p0.nnz());
            for i in 0..p0.nrows {
                for k in p0.row_ptr[i]..p0.row_ptr[i + 1] {
                    p_trip.push((i, p0.col_idx[k], p0.values[k]));
                }
                let scale = omega / diag[i].max(1e-300);
                for k in ap0.row_ptr[i]..ap0.row_ptr[i + 1] {
                    p_trip.push((i, ap0.col_idx[k], -scale * ap0.values[k]));
                }
            }
            let p = Csr::from_triplets(current.nrows, n_agg, &p_trip);
            let r = p.transpose();
            let coarse = r.matmul(&current.matmul(&p));
            levels.push(Level {
                a: current,
                diag,
                p,
                r,
            });
            current = coarse;
        }
        // Direct coarse solve, degrading to smoother sweeps for singular
        // coarse operators (e.g. pure-Neumann problems) and for a level
        // that stalled above `max_coarse` rows, where a dense factor
        // would cost O(n²) per V-cycle.
        let factor = if current.nrows <= options.max_coarse {
            dense_factor(&current)
        } else {
            None
        };
        let coarse = factor.unwrap_or_else(|| {
            let d = current
                .diagonal()
                .iter()
                .map(|&v| if v.abs() < 1e-300 { 1.0 } else { v })
                .collect();
            CoarseSolve::Sweeps(current.clone(), d)
        });
        let scratch = levels
            .iter()
            .map(|l| CycleScratch {
                r: vec![0.0; l.a.nrows],
                rc: vec![0.0; l.p.ncols],
                ec: vec![0.0; l.p.ncols],
                e: vec![0.0; l.a.nrows],
            })
            .collect();
        Amg {
            levels,
            coarse_a: current,
            coarse,
            options,
            scratch: RefCell::new(scratch),
        }
    }

    /// Number of levels including the coarse grid.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// `(rows, non-zeros)` of the operator on every level, finest first.
    pub fn level_sizes(&self) -> Vec<(usize, usize)> {
        self.levels
            .iter()
            .map(|l| &l.a)
            .chain([&self.coarse_a])
            .map(|a| (a.nrows, a.nnz()))
            .collect()
    }

    /// Operator complexity: Σ nnz(Aₗ) / nnz(A₀) — the standard AMG memory
    /// metric (cf. De Sterck–Yang–Heys, the paper's reference [14]).
    pub fn operator_complexity(&self) -> f64 {
        let sizes = self.level_sizes();
        let total: usize = sizes.iter().map(|&(_, nnz)| nnz).sum();
        total as f64 / sizes[0].1 as f64
    }

    fn cycle(&self, level: usize, b: &[f64], x: &mut [f64], scratch: &mut [CycleScratch]) {
        if level == self.levels.len() {
            match &self.coarse {
                CoarseSolve::Cholesky(ch) => {
                    x.copy_from_slice(b);
                    ch.solve(x);
                }
                CoarseSolve::Lu(lu) => {
                    let sol = lu.solve(b);
                    x.copy_from_slice(&sol);
                }
                CoarseSolve::Sweeps(a, d) => {
                    x.fill(0.0);
                    for _ in 0..20 {
                        sgs_sweep(a, d, b, x);
                    }
                }
            }
            return;
        }
        let lvl = &self.levels[level];
        let n = lvl.a.nrows;
        let (s, rest) = scratch
            .split_first_mut()
            .expect("one scratch set per level");
        // Pre-smooth.
        for _ in 0..self.options.smooth_sweeps {
            sgs_sweep(&lvl.a, &lvl.diag, b, x);
        }
        // Residual and restriction (scratch is fully overwritten, so
        // reuse is bitwise-transparent; only `ec` carries state in as the
        // coarse initial guess and is re-zeroed).
        lvl.a.matvec(x, &mut s.r);
        for i in 0..n {
            s.r[i] = b[i] - s.r[i];
        }
        lvl.r.matvec(&s.r, &mut s.rc);
        // Coarse correction.
        s.ec.fill(0.0);
        self.cycle(level + 1, &s.rc, &mut s.ec, rest);
        lvl.p.matvec(&s.ec, &mut s.e);
        for i in 0..n {
            x[i] += s.e[i];
        }
        // Post-smooth.
        for _ in 0..self.options.smooth_sweeps {
            sgs_sweep(&lvl.a, &lvl.diag, b, x);
        }
    }

    /// Apply one V-cycle to `b` with zero initial guess: `x = B b` where
    /// `B ≈ A⁻¹` is SPD. Allocation-free: all per-level scratch was sized
    /// during setup (the rare dense-LU coarse fallback excepted).
    pub fn vcycle(&self, b: &[f64], x: &mut [f64]) {
        x.fill(0.0);
        let mut scratch = self.scratch.borrow_mut();
        self.cycle(0, b, x, &mut scratch);
    }
}

impl LinearOp for Amg {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.vcycle(x, y);
    }
    fn len(&self) -> usize {
        if let Some(l) = self.levels.first() {
            l.a.nrows
        } else {
            self.coarse_a.nrows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{cg, euclidean_dot};

    /// 3D 7-point Poisson with optional variable coefficient field.
    fn poisson3d(n: usize, kappa: impl Fn(usize, usize, usize) -> f64) -> Csr {
        let id = |i: usize, j: usize, k: usize| i + n * (j + n * k);
        let mut t = Vec::new();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let c = id(i, j, k);
                    let mut diag = 0.0;
                    let mut push = |ii: i64, jj: i64, kk: i64| {
                        if ii < 0
                            || jj < 0
                            || kk < 0
                            || ii >= n as i64
                            || jj >= n as i64
                            || kk >= n as i64
                        {
                            // Dirichlet boundary: drop the neighbor but
                            // keep the diagonal contribution.
                            diag += kappa(i, j, k);
                            return;
                        }
                        let o = id(ii as usize, jj as usize, kk as usize);
                        // Harmonic-mean-ish symmetric coefficient.
                        let kc =
                            0.5 * (kappa(i, j, k) + kappa(ii as usize, jj as usize, kk as usize));
                        t.push((c, o, -kc));
                        diag += kc;
                    };
                    push(i as i64 - 1, j as i64, k as i64);
                    push(i as i64 + 1, j as i64, k as i64);
                    push(i as i64, j as i64 - 1, k as i64);
                    push(i as i64, j as i64 + 1, k as i64);
                    push(i as i64, j as i64, k as i64 - 1);
                    push(i as i64, j as i64, k as i64 + 1);
                    t.push((c, c, diag));
                }
            }
        }
        Csr::from_triplets(n * n * n, n * n * n, &t)
    }

    #[test]
    fn vcycle_reduces_error() {
        let a = poisson3d(8, |_, _, _| 1.0);
        let amg = Amg::new(a.clone(), AmgOptions::default());
        assert!(amg.num_levels() >= 2);
        let n = a.nrows;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        amg.vcycle(&b, &mut x);
        let mut r = vec![0.0; n];
        a.matvec(&x, &mut r);
        let res: f64 = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi).powi(2))
            .sum::<f64>()
            .sqrt();
        let b0: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            res < 0.5 * b0,
            "one V-cycle should cut the residual: {res} vs {b0}"
        );
    }

    #[test]
    fn pcg_with_amg_is_mesh_independent() {
        // Iteration counts must stay nearly flat as n grows — the paper's
        // core algorithmic-scalability property (its Fig. 2 analogue at
        // unit viscosity).
        let mut iters = Vec::new();
        for n in [6, 10, 14] {
            let a = poisson3d(n, |_, _, _| 1.0);
            let amg = Amg::new(a.clone(), AmgOptions::default());
            let b = vec![1.0; a.nrows];
            let mut x = vec![0.0; a.nrows];
            let info = cg(&a, Some(&amg), &b, &mut x, 1e-8, 200, euclidean_dot);
            assert!(info.converged);
            iters.push(info.iterations);
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap();
        assert!(
            max <= min + 8,
            "iterations should be nearly size-independent: {iters:?}"
        );
        assert!(max < 40, "AMG-PCG should converge fast: {iters:?}");
    }

    #[test]
    fn handles_severe_coefficient_jumps() {
        // 10^5 viscosity contrast, the regime the paper stresses.
        let a = poisson3d(10, |i, _, _| if i < 5 { 1.0 } else { 1e5 });
        let amg = Amg::new(a.clone(), AmgOptions::default());
        let b = vec![1.0; a.nrows];
        let mut x = vec![0.0; a.nrows];
        let info = cg(&a, Some(&amg), &b, &mut x, 1e-8, 300, euclidean_dot);
        assert!(info.converged, "{info:?}");
        assert!(info.iterations < 60, "{} iterations", info.iterations);
    }

    #[test]
    fn coarse_only_hierarchy_solves_directly() {
        let a = poisson3d(3, |_, _, _| 1.0); // 27 unknowns < max_coarse
        let amg = Amg::new(a.clone(), AmgOptions::default());
        assert_eq!(amg.num_levels(), 1);
        let b = vec![1.0; 27];
        let mut x = vec![0.0; 27];
        amg.vcycle(&b, &mut x);
        let mut r = vec![0.0; 27];
        a.matvec(&x, &mut r);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10, "direct solve must be exact");
        }
    }

    #[test]
    fn operator_complexity_is_bounded() {
        // 7-point stencil only (off-diagonal/diagonal = 1/6, everything
        // strong): this says nothing about the 27-point trilinear stencil
        // the Stokes preconditioner assembles, whose axis neighbours are 0
        // and edge/corner neighbours 1/16 and 1/32 of the diagonal. That
        // one is pinned by `check/tests/ablations.rs`.
        let a = poisson3d(12, |_, _, _| 1.0);
        let amg = Amg::new(a, AmgOptions::default());
        let oc = amg.operator_complexity();
        assert!((1.0..1.5).contains(&oc), "operator complexity {oc}");
    }

    #[test]
    fn amg_preconditioner_is_symmetric() {
        // <B u, v> == <u, B v> for the V-cycle operator (required by
        // MINRES/CG). Check on random-ish vectors.
        let a = poisson3d(6, |i, j, _| 1.0 + (i * j) as f64);
        let n = a.nrows;
        let amg = Amg::new(a, AmgOptions::default());
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 40503) % 997) as f64 / 997.0 - 0.3)
            .collect();
        let mut bu = vec![0.0; n];
        let mut bv = vec![0.0; n];
        amg.vcycle(&u, &mut bu);
        amg.vcycle(&v, &mut bv);
        let lhs = euclidean_dot(&bu, &v);
        let rhs = euclidean_dot(&u, &bv);
        assert!(
            (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
            "V-cycle not symmetric: {lhs} vs {rhs}"
        );
    }
}
