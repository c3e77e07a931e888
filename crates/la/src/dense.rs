//! Small dense kernels: row-major matrices, Cholesky and LU solves.
//! Cholesky serves the AMG coarse-grid solve, LU `mangll`'s LGL
//! projection operators.

/// Dense Cholesky factorization `A = L Lᵀ` of an SPD matrix given in
/// row-major order (symmetric, so layout is moot).
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Lower triangle, row-major packed full matrix.
    l: Vec<f64>,
}

impl Cholesky {
    /// Factor an SPD matrix (full `n × n`, row-major). Returns `None` if a
    /// non-positive pivot (to machine precision) is encountered.
    pub fn factor(a: &[f64], n: usize) -> Option<Cholesky> {
        assert_eq!(a.len(), n * n);
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(Cholesky { n, l })
    }

    /// Solve `A x = b` in place.
    pub fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward: L y = b.
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * n + k] * b[k];
            }
            b[i] = sum / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in i + 1..n {
                sum -= self.l[k * n + i] * b[k];
            }
            b[i] = sum / self.l[i * n + i];
        }
    }

    /// Dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the factorization is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Dense LU with partial pivoting, for small general square systems
/// (`mangll` forms its LGL projection operators with it).
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    /// Elimination step `k` swapped row `k` with row `swaps[k]`.
    swaps: Vec<usize>,
}

impl Lu {
    /// Factor a full row-major `n × n` matrix. Returns `None` on (near-)
    /// singularity.
    pub fn factor(a: &[f64], n: usize) -> Option<Lu> {
        assert_eq!(a.len(), n * n);
        let mut lu = a.to_vec();
        let mut swaps = Vec::with_capacity(n);
        for k in 0..n {
            // Pivot.
            let mut pmax = k;
            let mut vmax = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > vmax {
                    vmax = v;
                    pmax = i;
                }
            }
            if vmax < 1e-300 {
                return None;
            }
            if pmax != k {
                for j in 0..n {
                    lu.swap(k * n + j, pmax * n + j);
                }
            }
            swaps.push(pmax);
            let pivot = lu[k * n + k];
            for i in k + 1..n {
                let f = lu[i * n + k] / pivot;
                lu[i * n + k] = f;
                for j in k + 1..n {
                    lu[i * n + j] -= f * lu[k * n + j];
                }
            }
        }
        Some(Lu { n, lu, swaps })
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry and the solution
    /// on return.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n);
        for (k, &p) in self.swaps.iter().enumerate() {
            x.swap(k, p);
        }
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[i * n + k] * x[k];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= self.lu[i * n + k] * x[k];
            }
            x[i] = sum / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_spd() {
        // A = [[4,2,0],[2,5,2],[0,2,5]]
        let a = [4.0, 2.0, 0.0, 2.0, 5.0, 2.0, 0.0, 2.0, 5.0];
        let ch = Cholesky::factor(&a, 3).unwrap();
        let mut b = [1.0, 2.0, 3.0];
        ch.solve(&mut b);
        // Verify A x = [1,2,3].
        let r0 = 4.0 * b[0] + 2.0 * b[1];
        let r1 = 2.0 * b[0] + 5.0 * b[1] + 2.0 * b[2];
        let r2 = 2.0 * b[1] + 5.0 * b[2];
        assert!((r0 - 1.0).abs() < 1e-12);
        assert!((r1 - 2.0).abs() < 1e-12);
        assert!((r2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, −1
        assert!(Cholesky::factor(&a, 2).is_none());
    }

    #[test]
    fn lu_solves_general() {
        // Non-symmetric with pivoting needed.
        let a = [0.0, 2.0, 1.0, 3.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let lu = Lu::factor(&a, 3).unwrap();
        let mut x = [5.0, 7.0, 6.0];
        lu.solve_in_place(&mut x);
        // Verify residual.
        let r = [
            2.0 * x[1] + x[2] - 5.0,
            3.0 * x[0] + x[2] - 7.0,
            x[0] + x[1] + x[2] - 6.0,
        ];
        assert!(r.iter().all(|v| v.abs() < 1e-12), "{x:?}");
    }

    #[test]
    fn lu_rejects_singular() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(Lu::factor(&a, 2).is_none());
    }
}
