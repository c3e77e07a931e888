//! Legendre–Gauss–Lobatto nodes, quadrature weights, differentiation and
//! mortar matrices for one dimension; tensor products build the 3D
//! spectral element (Hesthaven–Warburton, the paper's reference [34]).

use la::dense::Lu;

/// LGL data for polynomial order `p` (`n = p + 1` nodes on `[-1, 1]`).
#[derive(Debug, Clone)]
pub struct Lgl {
    pub order: usize,
    /// Nodes in ascending order, `x[0] = −1`, `x[p] = 1`.
    pub nodes: Vec<f64>,
    /// Quadrature weights `w_i = 2 / (p(p+1) P_p(x_i)²)`.
    pub weights: Vec<f64>,
    /// Differentiation matrix `D[i][j] = ℓ'_j(x_i)` (row-major `n×n`).
    pub diff: Vec<f64>,
    /// Interpolation matrices from this interval to its two half
    /// intervals `[−1,0]` and `[0,1]` (each `n×n`, row-major): rows are
    /// the fine-side nodes, columns the coarse basis.
    pub interp_lo: Vec<f64>,
    pub interp_hi: Vec<f64>,
    /// L²-projection matrices from each half interval back to the full
    /// interval (adjoints of the interpolations w.r.t. LGL weights,
    /// scaled by the half-interval Jacobian ½).
    pub project_lo: Vec<f64>,
    pub project_hi: Vec<f64>,
}

/// Evaluate the Legendre polynomial `P_n` and its derivative at `x`.
fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p0, mut p1) = (1.0f64, x);
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // dP_n/dx = n (P_{n-1} − x P_n) / (1 − x²), with the endpoint values
    // ±n(n+1)/2 where that is 0/0.
    let nf = n as f64;
    let dp = if (x * x - 1.0).abs() < 1e-14 {
        x.powi(n as i32 - 1) * nf * (nf + 1.0) / 2.0
    } else {
        nf * (p0 - x * p1) / (1.0 - x * x)
    };
    (p1, dp)
}

/// LGL nodes: roots of `(1 − x²) P'_p(x)`, found by Newton iteration from
/// Chebyshev–Gauss–Lobatto initial guesses.
fn lgl_nodes(p: usize) -> Vec<f64> {
    let n = p + 1;
    let mut x = vec![0.0; n];
    if p == 1 {
        return vec![-1.0, 1.0];
    }
    x[0] = -1.0;
    x[p] = 1.0;
    for i in 1..p {
        // Chebyshev-Lobatto guess.
        let mut xi = -(std::f64::consts::PI * i as f64 / p as f64).cos();
        // Newton on q(x) = P'_p(x): q' via the Legendre ODE,
        // (1−x²) P''_p = 2x P'_p − p(p+1) P_p.
        for _ in 0..60 {
            let (pp, dpp) = legendre(p, xi);
            let ddpp = (2.0 * xi * dpp - (p as f64) * (p as f64 + 1.0) * pp) / (1.0 - xi * xi);
            let step = dpp / ddpp;
            xi -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        x[i] = xi;
    }
    x
}

/// `n`-point Gauss–Legendre nodes and weights on `[-1, 1]`.
fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut x = vec![0.0; n];
    let mut w = vec![0.0; n];
    for i in 0..n {
        // Chebyshev initial guess, Newton on P_n.
        let mut xi = -(std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..60 {
            let (p, dp) = legendre(n, xi);
            let step = p / dp;
            xi -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        let (_, dp) = legendre(n, xi);
        x[i] = xi;
        w[i] = 2.0 / ((1.0 - xi * xi) * dp * dp);
    }
    (x, w)
}

/// Lagrange basis value `ℓ_j(x)` on the given nodes.
fn lagrange(nodes: &[f64], j: usize, x: f64) -> f64 {
    let mut v = 1.0;
    for (k, &xk) in nodes.iter().enumerate() {
        if k != j {
            v *= (x - xk) / (nodes[j] - xk);
        }
    }
    v
}

impl Lgl {
    /// Build all 1D operators for order `p ≥ 1`.
    pub fn new(p: usize) -> Lgl {
        assert!(p >= 1, "DG needs order ≥ 1");
        let n = p + 1;
        let nodes = lgl_nodes(p);
        let weights: Vec<f64> = nodes
            .iter()
            .map(|&x| {
                let (pp, _) = legendre(p, x);
                2.0 / (p as f64 * (p as f64 + 1.0) * pp * pp)
            })
            .collect();
        // Differentiation matrix via barycentric-style formula.
        let mut diff = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let (pi, _) = legendre(p, nodes[i]);
                    let (pj, _) = legendre(p, nodes[j]);
                    diff[i * n + j] = pi / (pj * (nodes[i] - nodes[j]));
                } else if i == 0 {
                    diff[i * n + j] = -(p as f64) * (p as f64 + 1.0) / 4.0;
                } else if i == p {
                    diff[i * n + j] = (p as f64) * (p as f64 + 1.0) / 4.0;
                } else {
                    diff[i * n + j] = 0.0;
                }
            }
        }
        // Interpolations to half intervals: fine node ξ ∈ [−1,1] maps to
        // coarse coordinate (ξ−1)/2 (lo) or (ξ+1)/2 (hi).
        let mut interp_lo = vec![0.0; n * n];
        let mut interp_hi = vec![0.0; n * n];
        for i in 0..n {
            let xlo = 0.5 * (nodes[i] - 1.0);
            let xhi = 0.5 * (nodes[i] + 1.0);
            for j in 0..n {
                interp_lo[i * n + j] = lagrange(&nodes, j, xlo);
                interp_hi[i * n + j] = lagrange(&nodes, j, xhi);
            }
        }
        // L² projections with *exact* integration: the integrands are
        // degree-2p products, beyond LGL's 2p−1 exactness, so use
        // (p+1)-point Gauss–Legendre (exact to 2p+1). Then
        // `P_lo I_lo + P_hi I_hi = Id` holds exactly and the mortar is
        // conservative on polynomials.
        let (gx, gw) = gauss_legendre(n);
        // Exact full-interval mass matrix of the nodal basis.
        let mut mass = vec![0.0; n * n];
        for q in 0..n {
            for i in 0..n {
                let li = lagrange(&nodes, i, gx[q]);
                for j in 0..n {
                    mass[i * n + j] += gw[q] * li * lagrange(&nodes, j, gx[q]);
                }
            }
        }
        // Mixed mass: rows full-interval basis, columns half-interval
        // basis, integrated over the half (Jacobian ½ folded in).
        let mut mixed_lo = vec![0.0; n * n];
        let mut mixed_hi = vec![0.0; n * n];
        for q in 0..n {
            // Gauss point mapped into [−1,0] and [0,1].
            let xlo = 0.5 * (gx[q] - 1.0);
            let xhi = 0.5 * (gx[q] + 1.0);
            for i in 0..n {
                let li_lo = lagrange(&nodes, i, xlo); // coarse basis at lo point
                let li_hi = lagrange(&nodes, i, xhi);
                for j in 0..n {
                    // Fine basis in its own reference coordinate = gx[q].
                    let fj = lagrange(&nodes, j, gx[q]);
                    mixed_lo[i * n + j] += 0.5 * gw[q] * li_lo * fj;
                    mixed_hi[i * n + j] += 0.5 * gw[q] * li_hi * fj;
                }
            }
        }
        // P = M⁻¹ · mixed (dense solve per column). By LU, though M is
        // SPD: a Cholesky solve moves entries of both projections by up
        // to 7e-16 at every order 1–8, and the DG face fluxes with them.
        let lu = Lu::factor(&mass, n).expect("the mass matrix is SPD");
        let mut project_lo = vec![0.0; n * n];
        let mut project_hi = vec![0.0; n * n];
        for j in 0..n {
            let mut slo: Vec<f64> = (0..n).map(|i| mixed_lo[i * n + j]).collect();
            let mut shi: Vec<f64> = (0..n).map(|i| mixed_hi[i * n + j]).collect();
            lu.solve_in_place(&mut slo);
            lu.solve_in_place(&mut shi);
            for i in 0..n {
                project_lo[i * n + j] = slo[i];
                project_hi[i * n + j] = shi[i];
            }
        }
        Lgl {
            order: p,
            nodes,
            weights,
            diff,
            interp_lo,
            interp_hi,
            project_lo,
            project_hi,
        }
    }

    /// Number of 1D nodes.
    pub fn n(&self) -> usize {
        self.order + 1
    }

    /// Interpolation onto the low (`[−1,0]`) or high (`[0,1]`) half.
    pub fn interp(&self, hi: bool) -> &[f64] {
        if hi {
            &self.interp_hi
        } else {
            &self.interp_lo
        }
    }

    /// L² projection back from the low or high half.
    pub fn project(&self, hi: bool) -> &[f64] {
        if hi {
            &self.project_hi
        } else {
            &self.project_lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_and_weights_low_orders() {
        let l1 = Lgl::new(1);
        assert_eq!(l1.nodes, vec![-1.0, 1.0]);
        assert_eq!(l1.weights, vec![1.0, 1.0]);
        let l2 = Lgl::new(2);
        assert!(l2.nodes[1].abs() < 1e-14);
        assert!((l2.weights[0] - 1.0 / 3.0).abs() < 1e-13);
        assert!((l2.weights[1] - 4.0 / 3.0).abs() < 1e-13);
        // p = 3: interior nodes ±1/√5, weights 1/6 and 5/6.
        let l3 = Lgl::new(3);
        assert!((l3.nodes[1] + (0.2f64).sqrt()).abs() < 1e-12);
        assert!((l3.weights[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((l3.weights[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn weights_integrate_polynomials_exactly() {
        // LGL with n = p+1 points is exact to degree 2p−1.
        for p in 1..=8 {
            let l = Lgl::new(p);
            for deg in 0..=(2 * p - 1) {
                let q: f64 = l
                    .nodes
                    .iter()
                    .zip(&l.weights)
                    .map(|(&x, &w)| w * x.powi(deg as i32))
                    .sum();
                let exact = if deg % 2 == 0 {
                    2.0 / (deg as f64 + 1.0)
                } else {
                    0.0
                };
                assert!((q - exact).abs() < 1e-11, "p={p} deg={deg}: {q} vs {exact}");
            }
        }
    }

    #[test]
    fn differentiation_exact_on_polynomials() {
        for p in 1..=8 {
            let l = Lgl::new(p);
            let n = l.n();
            // Differentiate x^k for k ≤ p: must be exact at the nodes.
            for k in 0..=p {
                for i in 0..n {
                    let d: f64 = (0..n)
                        .map(|j| l.diff[i * n + j] * l.nodes[j].powi(k as i32))
                        .sum();
                    let exact = if k == 0 {
                        0.0
                    } else {
                        k as f64 * l.nodes[i].powi(k as i32 - 1)
                    };
                    assert!(
                        (d - exact).abs() < 1e-9,
                        "p={p} k={k} i={i}: {d} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_exact_on_polynomials() {
        for p in 1..=6 {
            let l = Lgl::new(p);
            let n = l.n();
            let f = |x: f64| x.powi(p as i32) - 0.3 * x + 1.0;
            let coarse: Vec<f64> = l.nodes.iter().map(|&x| f(x)).collect();
            for i in 0..n {
                let lo: f64 = (0..n).map(|j| l.interp_lo[i * n + j] * coarse[j]).sum();
                let xlo = 0.5 * (l.nodes[i] - 1.0);
                assert!((lo - f(xlo)).abs() < 1e-10, "p={p} i={i}");
                let hi: f64 = (0..n).map(|j| l.interp_hi[i * n + j] * coarse[j]).sum();
                let xhi = 0.5 * (l.nodes[i] + 1.0);
                assert!((hi - f(xhi)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn projection_is_left_inverse_of_interpolation() {
        // Projecting both half-interval interpolants back and summing
        // recovers the original polynomial: P_lo I_lo + P_hi I_hi = Id.
        for p in 1..=6 {
            let l = Lgl::new(p);
            let n = l.n();
            let mut combined = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += l.project_lo[i * n + k] * l.interp_lo[k * n + j];
                        acc += l.project_hi[i * n + k] * l.interp_hi[k * n + j];
                    }
                    combined[i * n + j] = acc;
                }
            }
            for i in 0..n {
                for j in 0..n {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (combined[i * n + j] - expect).abs() < 1e-10,
                        "p={p} ({i},{j}): {}",
                        combined[i * n + j]
                    );
                }
            }
        }
    }
}
