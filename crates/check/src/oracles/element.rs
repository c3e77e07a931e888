//! Trilinear element matrices integrated directly, one quadrature loop
//! per block with its coefficient inside the integrand: the oracle of
//! `fem::element::ElementBlocks`, which forms every block from three
//! unit-coefficient integrals and scales it per element.

use fem::element::{quad_points, supg_tau};

type Mat8 = [[f64; 8]; 8];

/// Consistent mass matrix `∫ N_i N_j`.
pub fn mass_matrix(h: [f64; 3]) -> Mat8 {
    let mut m = [[0.0; 8]; 8];
    for (w, _, n, _) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                m[i][j] += w * n[i] * n[j];
            }
        }
    }
    m
}

/// Lumped (row-sum) mass vector, `∫ N_i`.
pub fn lumped_mass(h: [f64; 3]) -> [f64; 8] {
    let mut m = [0.0; 8];
    for (w, _, n, _) in quad_points(h) {
        for i in 0..8 {
            m[i] += w * n[i];
        }
    }
    m
}

/// Advection matrix `∫ N_i (a · ∇N_j)` for a constant element velocity.
pub fn advection_matrix(h: [f64; 3], a: [f64; 3]) -> Mat8 {
    let mut m = [[0.0; 8]; 8];
    for (w, _, n, g) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                m[i][j] += w * n[i] * (a[0] * g[j][0] + a[1] * g[j][1] + a[2] * g[j][2]);
            }
        }
    }
    m
}

/// SUPG matrices `(S_m, S_a)` with `S_m[i][j] = τ ∫ (a·∇N_i) N_j` and
/// `S_a[i][j] = τ ∫ (a·∇N_i)(a·∇N_j)`, `τ = supg_tau(h, a, κ)`.
pub fn supg_matrices(h: [f64; 3], a: [f64; 3], kappa: f64) -> (Mat8, Mat8) {
    let tau = supg_tau(h, a, kappa);
    let mut sm = [[0.0; 8]; 8];
    let mut sa = [[0.0; 8]; 8];
    for (w, _, n, g) in quad_points(h) {
        let adotg: [f64; 8] =
            std::array::from_fn(|i| a[0] * g[i][0] + a[1] * g[i][1] + a[2] * g[i][2]);
        for i in 0..8 {
            for j in 0..8 {
                sm[i][j] += w * tau * adotg[i] * n[j];
                sa[i][j] += w * tau * adotg[i] * adotg[j];
            }
        }
    }
    (sm, sa)
}

/// Viscous (strain-rate) block
/// `K[3i+a][3j+b] = ∫ η (δ_ab ∇N_i·∇N_j + ∂N_i/∂x_b ∂N_j/∂x_a)`.
pub fn viscous_matrix(h: [f64; 3], eta: f64) -> [[f64; 24]; 24] {
    let mut k = [[0.0; 24]; 24];
    for (w, _, _, g) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                let gij = g[i][0] * g[j][0] + g[i][1] * g[j][1] + g[i][2] * g[j][2];
                for a in 0..3 {
                    for b in 0..3 {
                        let mut v = g[i][b] * g[j][a];
                        if a == b {
                            v += gij;
                        }
                        k[3 * i + a][3 * j + b] += w * eta * v;
                    }
                }
            }
        }
    }
    k
}

/// Discrete divergence `B[i][3j+d] = ∫ N_i ∂N_j/∂x_d`.
pub fn divergence_matrix(h: [f64; 3]) -> [[f64; 24]; 8] {
    let mut b = [[0.0; 24]; 8];
    for (w, _, n, g) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                for d in 0..3 {
                    b[i][3 * j + d] += w * n[i] * g[j][d];
                }
            }
        }
    }
    b
}

/// Dohrmann–Bochev stabilization `(1/η) ∫ (N_i − Π N_i)(N_j − Π N_j)`,
/// integrated as it is defined: `Π N_i = m_i / V` is the element mean of
/// `N_i`, evaluated first, then the projected-out shapes are multiplied at
/// each Gauss point.
pub fn pressure_stabilization(h: [f64; 3], eta: f64) -> Mat8 {
    let vol = h[0] * h[1] * h[2];
    let mean = lumped_mass(h).map(|m| m / vol);
    let mut c = [[0.0; 8]; 8];
    for (w, _, n, _) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                c[i][j] += w * (n[i] - mean[i]) * (n[j] - mean[j]) / eta;
            }
        }
    }
    c
}
