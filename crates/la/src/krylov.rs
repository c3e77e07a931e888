//! Krylov solvers: preconditioned MINRES (Paige–Saunders) and CG.
//!
//! MINRES is the paper's outer solver for the stabilized Stokes saddle
//! point system (Section III): each iteration applies the Stokes operator
//! and the preconditioner once, stores a handful of vectors, and takes
//! two global reductions. The preconditioner must be symmetric positive
//! definite; the recurrence follows Elman–Silvester–Wathen, *Finite
//! Elements and Fast Iterative Solvers* (the paper's reference [11]).
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

/// Preconditioned MINRES for symmetric (possibly indefinite) `A` with SPD
/// preconditioner applied by `m_inv ≈ A⁻¹`. Solves `A x = b`; the initial
/// content of `x` is the starting guess. Converges when the
/// preconditioned residual norm `|η|` drops to `tol · ‖b‖_{M⁻¹}`, where
/// `‖b‖_{M⁻¹} = √⟨M⁻¹b, b⟩` — PETSc's default test, so every solve is
/// solved to the same accuracy and a good guess saves iterations. A guess
/// whose residual norm `γ₁` exceeds `‖b‖_{M⁻¹}` is worse than none: the
/// solve restarts from `x = 0` and runs exactly as a cold solve would (so
/// `b = 0` returns `x = 0` unless `A x = 0` already). A guess already
/// within the tolerance is returned untouched after 0 iterations. `dot`
/// is the (possibly global) inner product. `observe(iteration,
/// residual_estimate)` runs once per iteration with the `|η|` the
/// convergence test uses — the hook the telemetry layer records residual
/// histories through (pass `|_, _| {}` for none).
///
/// The classic Paige–Saunders recurrence as in Elman–Silvester–Wathen:
/// two sequentially dependent inner products per iteration, `δ = ⟨Az₁, z₁⟩`
/// and then `γ₂² = ⟨z₂, r₂⟩` of the freshly formed residual. If the
/// Givens step meets `α₁ = 0` (the Lanczos process broke down without
/// reaching the tolerance, e.g. on an inconsistent singular system) the
/// step is skipped and the solve returns `converged: false` with the last
/// finite residual estimate, leaving `x` as it was before that step.
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
    D: Fn(&[f64], &[f64]) -> f64,
    O: FnMut(usize, f64),
{
    let n = b.len();
    let apply_m = |r: &[f64], z: &mut [f64]| match m_inv {
        Some(m) => m.apply(r, z),
        None => z.copy_from_slice(r),
    };
    // ‖v‖_{M⁻¹} = √⟨M⁻¹v, v⟩, leaving M⁻¹v in `z`.
    let m_norm = |v: &[f64], z: &mut [f64]| {
        apply_m(v, z);
        let g2 = dot(z, v);
        assert!(
            g2 >= 0.0 || g2 >= -1e-12 * dot(v, v).max(1.0),
            "MINRES preconditioner is not positive definite"
        );
        g2.max(0.0).sqrt()
    };
    // Every vector lives for the whole solve and rotates through the
    // slots below, so the iteration performs zero heap allocations.
    let mut r0 = vec![0.0; n]; // previous Lanczos residual
    let mut r1 = vec![0.0; n];
    let mut z1 = vec![0.0; n];
    let mut w0 = vec![0.0; n];
    let mut w1 = vec![0.0; n];
    let mut az = vec![0.0; n];
    let mut r2 = vec![0.0; n];
    let mut z2 = vec![0.0; n];
    let mut w2 = vec![0.0; n];

    // The stopping scale, with M⁻¹b in z2 until the loop overwrites it.
    let norm_b = m_norm(b, &mut z2);
    // r1 = b − A x ; z1 = M⁻¹ r1 ; γ1 = ‖r1‖_{M⁻¹}. A zero guess (decided
    // by a global reduction, so every rank takes the same branch) skips
    // the operator and the second preconditioner apply.
    let mut gamma1 = f64::INFINITY;
    if dot(x, x) > 0.0 {
        a.apply(x, &mut r1);
        for i in 0..n {
            r1[i] = b[i] - r1[i];
        }
        gamma1 = m_norm(&r1, &mut z1);
    }
    if gamma1 > norm_b {
        x.fill(0.0);
        r1.copy_from_slice(b);
        z1.copy_from_slice(&z2);
        gamma1 = norm_b;
    }
    let stop = tol * norm_b;
    if gamma1 <= stop {
        return SolveInfo {
            iterations: 0,
            converged: true,
            residual: gamma1,
        };
    }
    let mut gamma0 = 1.0f64; // γ0 (unused weight on the vanishing j=1 term)

    let mut eta = gamma1;
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut c0, mut c1) = (1.0f64, 1.0f64);
    for iter in 1..=max_iter {
        // Lanczos step.
        let inv_g = 1.0 / gamma1;
        for zi in z1.iter_mut() {
            *zi *= inv_g;
        }
        a.apply(&z1, &mut az);
        let delta = dot(&az, &z1);
        for i in 0..n {
            r2[i] = az[i] - (delta / gamma1) * r1[i];
        }
        if iter > 1 {
            for i in 0..n {
                r2[i] -= (gamma1 / gamma0) * r0[i];
            }
        }
        apply_m(&r2, &mut z2);
        let gamma2 = dot(&z2, &r2).max(0.0).sqrt();

        // Givens rotations.
        let alpha0 = c1 * delta - c0 * s1 * gamma1;
        let alpha1 = (alpha0 * alpha0 + gamma2 * gamma2).sqrt();
        if alpha1 == 0.0 {
            // α₀ = γ₂ = 0 short of the tolerance: the Krylov space holds
            // no better iterate, and the rotation below would divide 0/0.
            return SolveInfo {
                iterations: iter - 1,
                converged: false,
                residual: eta.abs(),
            };
        }
        let alpha2 = s1 * delta + c0 * c1 * gamma1;
        let alpha3 = s0 * gamma1;
        c0 = c1;
        s0 = s1;
        c1 = alpha0 / alpha1;
        s1 = gamma2 / alpha1;

        // Solution update: w2 = (z1 − α3 w0 − α2 w1)/α1 ; x += c1 η w2.
        for i in 0..n {
            w2[i] = (z1[i] - alpha3 * w0[i] - alpha2 * w1[i]) / alpha1;
            x[i] += c1 * eta * w2[i];
        }
        eta *= -s1;

        // Shift state (buffer rotation, no allocation: the vector cycled
        // into each scratch slot is fully overwritten next iteration).
        std::mem::swap(&mut r0, &mut r1);
        std::mem::swap(&mut r1, &mut r2);
        std::mem::swap(&mut z1, &mut z2);
        gamma0 = gamma1;
        gamma1 = gamma2;
        std::mem::swap(&mut w0, &mut w1);
        std::mem::swap(&mut w1, &mut w2);

        observe(iter, eta.abs());
        if eta.abs() <= stop || gamma1 == 0.0 {
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
    D: Fn(&[f64], &[f64]) -> f64,
{
    let n = b.len();
    let apply_m = |r: &[f64], z: &mut [f64]| match m_inv {
        Some(m) => m.apply(r, z),
        None => z.copy_from_slice(r),
    };
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    apply_m(&r, &mut z);
    let mut rz = dot(&r, &z);
    let norm_b = dot(b, b).sqrt().max(f64::MIN_POSITIVE);
    let mut ap = vec![0.0; n];
    let mut p = z.clone();
    for iter in 1..=max_iter {
        a.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
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
        let rnorm = dot(&r, &r).sqrt();
        if rnorm <= tol * norm_b {
            return SolveInfo {
                iterations: iter,
                converged: true,
                residual: rnorm,
            };
        }
        apply_m(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let rnorm = dot(&r, &r).sqrt();
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

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplace1d(10);
        let b = vec![0.0; 10];
        // From a zero and from a nonzero guess: x = 0 solves A x = 0.
        for guess in [0.0, 3.5] {
            let mut x = vec![guess; 10];
            let info = minres(
                &a,
                None::<&Csr>,
                &b,
                &mut x,
                1e-10,
                100,
                euclidean_dot,
                |_, _| panic!("no iteration on b = 0"),
            );
            assert_eq!(info.iterations, 0, "guess {guess}");
            assert!(info.converged, "guess {guess}");
            assert!(x.iter().all(|&v| v == 0.0), "guess {guess}: {x:?}");
        }
    }

    /// `(info, residual estimates, x)` of a MINRES solve of the Jacobi-
    /// preconditioned indefinite test system from `x`, all as bits.
    fn jacobi_minres(b: &[f64], mut x: Vec<f64>, tol: f64) -> (SolveInfo, Vec<u64>, Vec<u64>) {
        let a = indefinite(b.len());
        let d = a.diagonal();
        let m = (b.len(), move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / d[i].abs();
            }
        });
        let mut history = Vec::new();
        let info = minres(&a, Some(&m), b, &mut x, tol, 500, euclidean_dot, |_, r| {
            history.push(r.to_bits())
        });
        (info, history, x.iter().map(|v| v.to_bits()).collect())
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.7).sin() + 0.2).collect()
    }

    #[test]
    fn cold_solve_stops_at_the_first_estimate_within_tol_norm_b() {
        let b = rhs(40);
        let tol = 1e-9;
        let (info, history, _) = jacobi_minres(&b, vec![0.0; 40], tol);
        let d = indefinite(40).diagonal();
        let norm_b = b
            .iter()
            .zip(&d)
            .map(|(bi, di)| bi * bi / di.abs())
            .sum::<f64>()
            .sqrt();
        let eta: Vec<f64> = history.iter().map(|&r| f64::from_bits(r)).collect();
        assert!(info.converged && info.iterations == eta.len(), "{info:?}");
        let (last, before) = eta.split_last().unwrap();
        assert!(*last <= tol * norm_b, "{last} vs {}", tol * norm_b);
        assert!(before.iter().all(|&r| r > tol * norm_b), "{eta:?}");
    }

    #[test]
    fn warm_start_worse_than_zero_runs_the_cold_solve() {
        let b = rhs(40);
        let cold = jacobi_minres(&b, vec![0.0; 40], 1e-10);
        assert!(cold.0.converged && cold.0.iterations > 10, "{:?}", cold.0);
        // Its residual is far larger than b's in the M⁻¹ norm.
        let guess: Vec<f64> = (0..40).map(|i| 50.0 * (i as f64 * 1.3).cos()).collect();
        let warm = jacobi_minres(&b, guess, 1e-10);
        assert_eq!(warm.0, cold.0);
        assert!(warm.1 == cold.1, "residual estimates differ");
        assert!(warm.2 == cold.2, "iterates differ");
    }

    #[test]
    fn warm_start_within_tolerance_is_returned_untouched() {
        let b = rhs(40);
        let (_, _, tight) = jacobi_minres(&b, vec![0.0; 40], 1e-13);
        let guess: Vec<f64> = tight.iter().map(|&v| f64::from_bits(v)).collect();
        let (info, history, x) = jacobi_minres(&b, guess, 1e-8);
        assert_eq!(info.iterations, 0, "{info:?}");
        assert!(info.converged, "{info:?}");
        assert!(history.is_empty());
        assert!(x == tight, "x moved");
    }

    fn diag(d: &[f64]) -> Csr {
        let t: Vec<_> = d.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        Csr::from_triplets(d.len(), d.len(), &t)
    }

    #[test]
    fn zero_operator_is_not_reported_converged() {
        // α₁ = 0 on the first step: the Givens rotation would divide 0/0.
        let a = diag(&[0.0; 4]);
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut x = vec![0.0; 4];
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
        assert!(!info.converged, "{info:?}");
        assert_eq!(info.residual, 30f64.sqrt(), "{info:?}");
        assert!(x.iter().all(|&v| v == 0.0), "x = {x:?}");
    }

    #[test]
    fn singular_consistent_system_converges() {
        let a = diag(&[1.0, 1.0, 0.0, 0.0]);
        let b = [1.0, 2.0, 0.0, 0.0];
        let mut x = vec![0.0; 4];
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
        assert!(info.converged, "{info:?}");
        assert!(info.residual.is_finite());
        assert!(residual(&a, &x, &b) < 1e-12, "x = {x:?}");
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
