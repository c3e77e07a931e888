//! Krylov solvers: preconditioned MINRES (Paige–Saunders) and CG.
//!
//! MINRES is the paper's outer solver for the stabilized Stokes saddle
//! point system (Section III): each iteration applies the Stokes operator
//! and the preconditioner once, stores a handful of vectors, and takes
//! one batched global reduction. The preconditioner must be symmetric
//! positive definite; the recurrence follows Elman–Silvester–Wathen,
//! *Finite Elements and Fast Iterative Solvers* (the paper's reference
//! [11]), rearranged so both Lanczos scalars come out of one reduction.
//!
//! Both solvers are written against the [`LinearOp`] trait plus a
//! caller-supplied inner product, so the same code runs serially and
//! distributed (where the dot product performs a global reduction and the
//! operator exchanges ghost values).

/// An abstract linear operator `y = A x` on vectors of fixed length.
pub trait LinearOp {
    fn apply(&self, x: &[f64], y: &mut [f64]);
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A `(len, closure)` pair is an operator.
impl<F: Fn(&[f64], &mut [f64])> LinearOp for (usize, F) {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.1)(x, y)
    }
    fn len(&self) -> usize {
        self.0
    }
}

impl LinearOp for crate::csr::Csr {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
    fn len(&self) -> usize {
        self.nrows
    }
}

/// Convergence report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveInfo {
    pub iterations: usize,
    pub converged: bool,
    /// Final residual norm estimate (preconditioned norm for MINRES).
    pub residual: f64,
}

/// Serial Euclidean inner product (the default `dot` hook).
pub fn euclidean_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Inner-product provider for Krylov solvers.
///
/// [`DotBatch::dot`] computes one (possibly global) inner product;
/// [`DotBatch::dots`] computes several in a single communication round.
/// **Batching contract:** `dots` must return values bitwise identical to
/// calling `dot` on each pair separately. Distributed implementations
/// satisfy this by computing per-pair local partial sums with the same
/// summation as `dot` and reducing them in one slice `allreduce`, whose
/// per-entry combination order equals the scalar reduction's.
///
/// Every `Fn(&[f64], &[f64]) -> f64` closure is a `DotBatch` whose
/// `dots` falls back to one call per pair.
pub trait DotBatch {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64;

    /// Compute `out[k] = dot(pairs[k].0, pairs[k].1)` for all pairs.
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        debug_assert_eq!(pairs.len(), out.len());
        for (o, (a, b)) in out.iter_mut().zip(pairs) {
            *o = self.dot(a, b);
        }
    }
}

impl<F: Fn(&[f64], &[f64]) -> f64> DotBatch for F {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self(a, b)
    }
}

/// Preconditioned MINRES for symmetric (possibly indefinite) `A` with SPD
/// preconditioner applied by `m_inv ≈ A⁻¹`. Solves `A x = b`; the initial
/// content of `x` is the starting guess. Converges when the
/// preconditioned residual norm drops below `tol` times its initial
/// value. `observe(iteration, residual_estimate)` runs once per iteration
/// with the preconditioned norm `|η|` the convergence test uses — the
/// hook the telemetry layer records residual histories through (pass
/// `|_, _| {}` for none).
///
/// Algebraically the Paige–Saunders iteration, with **one** batched
/// global reduction per iteration instead of two sequentially dependent
/// ones. The classic iteration needs `δ = <Az₁, z₁>` elementwise before it can
/// form the next residual whose norm is the second reduction — the two
/// cannot be batched transparently. This variant removes the dependency
/// (Chronopoulos/Gear-style recurrence adapted to preconditioned MINRES):
/// with `r₂ = Az₁ − (δ/γ₁)r₁ − (γ₁/γ₀)r₀` and
/// `z₂ = M⁻¹Az₁ − δz₁ − γ₁z₀` (z's normalized, r's unnormalized), the
/// norm `γ₂² = <z₂, r₂>` is a bilinear form in vectors that are all known
/// *before* `δ` is — so one reduction of the nine constituent dots
///
/// ```text
/// <Az₁,z₁>  <M⁻¹Az₁,Az₁>  <Az₁,z₀>
/// <z₁,r₀>   <M⁻¹Az₁,r₁>   <M⁻¹Az₁,r₀>
/// <z₁,r₁>   <z₀,r₁>       <z₀,r₀>
/// ```
///
/// determines `δ` and `γ₂²` simultaneously. The expansion is *exact* —
/// it assumes no Lanczos orthogonality or normalization identities, which
/// is what keeps the recurrence stable: a γ₂ computed from the idealized
/// `d₂ − δ² − γ₁²` drifts from the true norm of the computed vectors and
/// the error compounds geometrically, while the full expansion re-measures
/// the actual vectors every iteration (in exact arithmetic the cross terms
/// collapse and both reduce to `d₂ − δ² − γ₁²`). The next preconditioned
/// vector follows without a second solve by linearity of the
/// preconditioner (`z₂` above) — so the cost per iteration stays one
/// operator and one preconditioner application. Requires `m_inv` to be a
/// *linear* operator (an AMG V-cycle with zero initial guess is).
///
/// Floating-point results differ from the classic two-reduction
/// iteration (`check::oracles::minres_classic`) in the last bits
/// (different evaluation order); with a batched [`DotBatch`] the residual
/// series is bitwise identical to running this same algorithm with
/// per-scalar reductions — that is the batching contract the golden tests
/// pin down.
#[allow(clippy::too_many_arguments)]
pub fn minres<A, M, D, O>(
    a: &A,
    m_inv: Option<&M>,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    dot: D,
    mut observe: O,
) -> SolveInfo
where
    A: LinearOp + ?Sized,
    M: LinearOp + ?Sized,
    D: DotBatch,
    O: FnMut(usize, f64),
{
    let n = b.len();
    let apply_m = |r: &[f64], z: &mut [f64]| match m_inv {
        Some(m) => m.apply(r, z),
        None => z.copy_from_slice(r),
    };

    // r1 = b − A x ; z1 = M⁻¹ r1 ; γ1 = sqrt(<z1, r1>).
    let mut r0 = vec![0.0; n];
    let mut r1 = vec![0.0; n];
    a.apply(x, &mut r1);
    for i in 0..n {
        r1[i] = b[i] - r1[i];
    }
    let mut z1 = vec![0.0; n];
    apply_m(&r1, &mut z1);
    let mut init = [0.0f64; 2];
    dot.dots(&[(&z1, &r1), (&r1, &r1)], &mut init);
    let g2 = init[0];
    assert!(
        g2 >= -1e-12 * init[1].max(1.0),
        "MINRES preconditioner is not positive definite"
    );
    let mut gamma1 = g2.max(0.0).sqrt();
    let gamma_init = gamma1;
    if gamma1 == 0.0 {
        return SolveInfo {
            iterations: 0,
            converged: true,
            residual: 0.0,
        };
    }
    // Normalize z1 once; from here z0/z1 stay normalized.
    let inv_g = 1.0 / gamma1;
    for zi in z1.iter_mut() {
        *zi *= inv_g;
    }
    let mut z0 = vec![0.0; n];
    let mut gamma0 = 1.0f64;

    let mut eta = gamma1;
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut c0, mut c1) = (1.0f64, 1.0f64);
    let mut w0 = vec![0.0; n];
    let mut w1 = vec![0.0; n];
    let mut w2 = vec![0.0; n];
    let mut az = vec![0.0; n];
    let mut maz = vec![0.0; n];
    let mut scalars = [0.0f64; 9];

    for iter in 1..=max_iter {
        a.apply(&z1, &mut az);
        apply_m(&az, &mut maz);
        // The single fused reduction of the iteration. The batch length
        // is fixed at 9 so every rank always reduces the same slice; on
        // the first iteration z0 and r0 are zero vectors and the entries
        // involving them vanish identically.
        dot.dots(
            &[
                (&az, &z1),
                (&maz, &az),
                (&az, &z0),
                (&z1, &r0),
                (&maz, &r1),
                (&maz, &r0),
                (&z1, &r1),
                (&z0, &r1),
                (&z0, &r0),
            ],
            &mut scalars,
        );
        let [delta, d2, e0, c01, mr1, mr0, n11, zr01, n00] = scalars;

        // γ₂² = <z₂, r₂> expanded over the nine dots. With aa = δ/γ₁ and
        // bb = γ₁/γ₀ the r-recurrence coefficients (bb = 0 on the first
        // iteration, where r₀ = z₀ = 0):
        //   <maz − δz₁ − γ₁z₀, az − aa·r₁ − bb·r₀>
        let aa = delta / gamma1;
        let bb = if iter == 1 { 0.0 } else { gamma1 / gamma0 };
        let g2sq = d2 - aa * mr1 - bb * mr0 - delta * delta + aa * delta * n11 + bb * delta * c01
            - gamma1 * e0
            + aa * gamma1 * zr01
            + bb * gamma1 * n00;
        let gamma2 = g2sq.max(0.0).sqrt();

        // Residual recurrence (r's unnormalized, z's normalized):
        // r2 = Az₁ − (δ/γ₁) r1 − (γ₁/γ₀) r0 ; z2 = M⁻¹Az₁ − δ z1 − γ₁ z0.
        // r2 overwrites r0, z2 overwrites z0 — those slots become the
        // new r1/z1 after the shift below.
        if iter == 1 {
            for i in 0..n {
                r0[i] = az[i] - (delta / gamma1) * r1[i];
                z0[i] = maz[i] - delta * z1[i];
            }
        } else {
            for i in 0..n {
                r0[i] = az[i] - (delta / gamma1) * r1[i] - (gamma1 / gamma0) * r0[i];
                z0[i] = maz[i] - delta * z1[i] - gamma1 * z0[i];
            }
        }
        if gamma2 > 0.0 {
            let inv = 1.0 / gamma2;
            for zi in z0.iter_mut() {
                *zi *= inv;
            }
        }

        // Givens rotations.
        let alpha0 = c1 * delta - c0 * s1 * gamma1;
        let alpha1 = (alpha0 * alpha0 + gamma2 * gamma2).sqrt();
        let alpha2 = s1 * delta + c0 * c1 * gamma1;
        let alpha3 = s0 * gamma1;
        c0 = c1;
        s0 = s1;
        c1 = alpha0 / alpha1;
        s1 = gamma2 / alpha1;

        for i in 0..n {
            w2[i] = (z1[i] - alpha3 * w0[i] - alpha2 * w1[i]) / alpha1;
            x[i] += c1 * eta * w2[i];
        }
        eta *= -s1;

        // Shift: (r0, r1) ← (r1, r2) and (z0, z1) ← (z1, z2), where r2/z2
        // currently occupy the r0/z0 slots.
        std::mem::swap(&mut r0, &mut r1);
        std::mem::swap(&mut z0, &mut z1);
        gamma0 = gamma1;
        gamma1 = gamma2;
        std::mem::swap(&mut w0, &mut w1);
        std::mem::swap(&mut w1, &mut w2);

        observe(iter, eta.abs());
        if eta.abs() <= tol * gamma_init || gamma1 == 0.0 {
            return SolveInfo {
                iterations: iter,
                converged: true,
                residual: eta.abs(),
            };
        }
    }
    SolveInfo {
        iterations: max_iter,
        converged: false,
        residual: eta.abs(),
    }
}

/// Conjugate gradients for SPD `A` with optional SPD preconditioner.
pub fn cg<A, M, D>(
    a: &A,
    m_inv: Option<&M>,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    dot: D,
) -> SolveInfo
where
    A: LinearOp + ?Sized,
    M: LinearOp + ?Sized,
    D: DotBatch,
{
    let n = b.len();
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    match m_inv {
        Some(m) => m.apply(&r, &mut z),
        None => z.copy_from_slice(&r),
    }
    let mut init = [0.0f64; 2];
    dot.dots(&[(&r, &z), (b, b)], &mut init);
    let mut rz = init[0];
    let norm_b = init[1].sqrt().max(f64::MIN_POSITIVE);
    let mut ap = vec![0.0; n];
    let mut p = z.clone();
    let mut pair = [0.0f64; 2];
    for iter in 1..=max_iter {
        a.apply(&p, &mut ap);
        let pap = dot.dot(&p, &ap);
        if pap <= 0.0 {
            return SolveInfo {
                iterations: iter,
                converged: false,
                residual: rz.abs().sqrt(),
            };
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        // Apply the preconditioner *before* the convergence test so the
        // residual norm and <r, z> reduce in one batch (values are
        // unchanged — the two scalars are independent; the only cost is
        // one discarded preconditioner application on the final
        // iteration).
        match m_inv {
            Some(m) => m.apply(&r, &mut z),
            None => z.copy_from_slice(&r),
        }
        dot.dots(&[(&r, &r), (&r, &z)], &mut pair);
        let rnorm = pair[0].sqrt();
        if rnorm <= tol * norm_b {
            return SolveInfo {
                iterations: iter,
                converged: true,
                residual: rnorm,
            };
        }
        let rz_new = pair[1];
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let rnorm = dot.dot(&r, &r).sqrt();
    SolveInfo {
        iterations: max_iter,
        converged: rnorm <= tol * norm_b,
        residual: rnorm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    /// SPD tridiagonal test matrix (1D Laplacian).
    fn laplace1d(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    /// A symmetric *indefinite* saddle-point-like matrix.
    fn indefinite(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            let d = if i < n / 2 { 2.0 } else { -1.5 };
            t.push((i, i, d));
            if i > 0 {
                t.push((i, i - 1, 0.3));
                t.push((i - 1, i, 0.3));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.matvec(x, &mut r);
        r.iter()
            .zip(b)
            .map(|(ri, bi)| (ri - bi).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn cg_solves_spd() {
        let a = laplace1d(50);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let info = cg(&a, None::<&Csr>, &b, &mut x, 1e-10, 500, euclidean_dot);
        assert!(info.converged, "{info:?}");
        assert!(residual(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn cg_with_jacobi_preconditioner_converges_faster() {
        let n = 80;
        // Badly scaled SPD diagonal + Laplacian.
        let mut t = Vec::new();
        for i in 0..n {
            let scale = 10f64.powi((i % 5) as i32);
            t.push((i, i, 2.0 * scale));
            if i > 0 {
                t.push((i, i - 1, -0.5));
                t.push((i - 1, i, -0.5));
            }
        }
        let a = Csr::from_triplets(n, n, &t);
        let d = a.diagonal();
        let jacobi = (n, move |x: &[f64], y: &mut [f64]| {
            for i in 0..x.len() {
                y[i] = x[i] / d[i];
            }
        });
        let b = vec![1.0; n];
        let mut x0 = vec![0.0; n];
        let plain = cg(&a, None::<&Csr>, &b, &mut x0, 1e-10, 2000, euclidean_dot);
        let mut x1 = vec![0.0; n];
        let pre = cg(&a, Some(&jacobi), &b, &mut x1, 1e-10, 2000, euclidean_dot);
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "{} !< {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn minres_solves_spd_like_cg() {
        let a = laplace1d(60);
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut x = vec![0.0; 60];
        let info = minres(
            &a,
            None::<&Csr>,
            &b,
            &mut x,
            1e-10,
            1000,
            euclidean_dot,
            |_, _| {},
        );
        assert!(info.converged, "{info:?}");
        assert!(
            residual(&a, &x, &b) < 1e-6,
            "res = {}",
            residual(&a, &x, &b)
        );
    }

    #[test]
    fn minres_solves_indefinite_system() {
        let a = indefinite(40);
        let b = vec![1.0; 40];
        let mut x = vec![0.0; 40];
        let info = minres(
            &a,
            None::<&Csr>,
            &b,
            &mut x,
            1e-12,
            2000,
            euclidean_dot,
            |_, _| {},
        );
        assert!(info.converged, "{info:?}");
        assert!(
            residual(&a, &x, &b) < 1e-8,
            "res = {}",
            residual(&a, &x, &b)
        );
    }

    #[test]
    fn minres_with_spd_preconditioner_on_indefinite_system() {
        let a = indefinite(40);
        // |diag| Jacobi is SPD and admissible for MINRES.
        let d = a.diagonal();
        let m = (40, move |x: &[f64], y: &mut [f64]| {
            for i in 0..x.len() {
                y[i] = x[i] / d[i].abs();
            }
        });
        let b = vec![1.0; 40];
        let mut x = vec![0.0; 40];
        let info = minres(
            &a,
            Some(&m),
            &b,
            &mut x,
            1e-12,
            2000,
            euclidean_dot,
            |_, _| {},
        );
        assert!(info.converged, "{info:?}");
        assert!(residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn observer_sees_monotone_iteration_numbers_and_final_residual() {
        let a = laplace1d(60);
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut x = vec![0.0; 60];
        let mut history: Vec<(usize, f64)> = Vec::new();
        let info = minres(
            &a,
            None::<&Csr>,
            &b,
            &mut x,
            1e-10,
            1000,
            euclidean_dot,
            |it, r| history.push((it, r)),
        );
        assert!(info.converged);
        assert_eq!(history.len(), info.iterations);
        for (k, &(it, r)) in history.iter().enumerate() {
            assert_eq!(it, k + 1, "iterations reported in order");
            assert!(r.is_finite() && r >= 0.0);
        }
        assert_eq!(history.last().unwrap().1, info.residual);
    }

    /// A batch-aware dot provider whose `dots` computes per-pair partial
    /// sums exactly like `dot` and "reduces" them together — the serial
    /// stand-in for the distributed batched reduction. MINRES must
    /// produce a bitwise-identical residual series through either path.
    struct Batched;
    impl DotBatch for Batched {
        fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
            euclidean_dot(a, b)
        }
        fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            for (o, (a, b)) in out.iter_mut().zip(pairs) {
                *o = euclidean_dot(a, b);
            }
        }
    }

    #[test]
    fn batched_and_separate_reductions_are_bitwise_identical() {
        let a = indefinite(50);
        let b: Vec<f64> = (0..50).map(|i| 1.0 + (i as f64 * 0.2).cos()).collect();
        let run = |batched: bool| {
            let mut x = vec![0.0; 50];
            let mut series = Vec::new();
            let info = if batched {
                minres(&a, None::<&Csr>, &b, &mut x, 1e-10, 500, Batched, |_, r| {
                    series.push(r)
                })
            } else {
                minres(
                    &a,
                    None::<&Csr>,
                    &b,
                    &mut x,
                    1e-10,
                    500,
                    euclidean_dot,
                    |_, r| series.push(r),
                )
            };
            (info, x, series)
        };
        let (i0, x0, s0) = run(false);
        let (i1, x1, s1) = run(true);
        assert_eq!(i0, i1);
        assert_eq!(s0, s1, "residual series must be bitwise identical");
        assert_eq!(x0, x1, "solutions must be bitwise identical");
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplace1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let info = minres(
            &a,
            None::<&Csr>,
            &b,
            &mut x,
            1e-10,
            100,
            euclidean_dot,
            |_, _| {},
        );
        assert_eq!(info.iterations, 0);
        assert!(info.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let a = laplace1d(20);
        let b = vec![1.0; 20];
        // Solve once, restart from the solution: 0 extra progress needed.
        let mut x = vec![0.0; 20];
        cg(&a, None::<&Csr>, &b, &mut x, 1e-12, 500, euclidean_dot);
        let mut y = x.clone();
        let mut history = Vec::new();
        let info = minres(
            &a,
            None::<&Csr>,
            &b,
            &mut y,
            1e-8,
            100,
            euclidean_dot,
            |it, r| history.push((it, r)),
        );
        assert!(
            info.iterations <= 2,
            "warm start should converge immediately"
        );
        assert_eq!(history.len(), info.iterations);
        if let Some(&(_, last)) = history.last() {
            assert_eq!(last, info.residual);
        }
    }
}
