//! Reference-element machinery and element matrices for axis-aligned
//! trilinear hexahedra.
//!
//! Octree elements are boxes with edge lengths `(hx, hy, hz)`, so the
//! Jacobian is diagonal and all element integrals reduce to tensor-product
//! Gauss quadrature on `[0,1]^3` with scaled gradients. Corners follow the
//! octree z-order: corner `c` at `((c&1), (c>>1)&1, (c>>2)&1)`.

/// 2-point Gauss–Legendre abscissae on `[0,1]` (degree-3 exactness).
pub const GAUSS_2: [(f64, f64); 2] = [
    (0.211_324_865_405_187_1, 0.5), // ( (1 - 1/√3)/2 , weight )
    (0.788_675_134_594_812_9, 0.5),
];

/// Trilinear shape function `N_c` at reference point `(x,y,z) ∈ [0,1]^3`.
#[inline]
pub fn shape(c: usize, x: f64, y: f64, z: f64) -> f64 {
    let wx = if c & 1 == 1 { x } else { 1.0 - x };
    let wy = if (c >> 1) & 1 == 1 { y } else { 1.0 - y };
    let wz = if (c >> 2) & 1 == 1 { z } else { 1.0 - z };
    wx * wy * wz
}

/// Reference gradient `∇̂N_c` at `(x,y,z)`.
#[inline]
pub fn shape_grad(c: usize, x: f64, y: f64, z: f64) -> [f64; 3] {
    let (wx, dx) = if c & 1 == 1 {
        (x, 1.0)
    } else {
        (1.0 - x, -1.0)
    };
    let (wy, dy) = if (c >> 1) & 1 == 1 {
        (y, 1.0)
    } else {
        (1.0 - y, -1.0)
    };
    let (wz, dz) = if (c >> 2) & 1 == 1 {
        (z, 1.0)
    } else {
        (1.0 - z, -1.0)
    };
    [dx * wy * wz, wx * dy * wz, wx * wy * dz]
}

/// Iterate the 8 tensor-product Gauss points: yields
/// `(weight · |J|, [x,y,z], [N_0..N_7], [∇N_0..∇N_7])` with *physical*
/// gradients for a box of size `h`.
pub fn quad_points(h: [f64; 3]) -> [(f64, [f64; 3], [f64; 8], [[f64; 3]; 8]); 8] {
    let jac = h[0] * h[1] * h[2];
    std::array::from_fn(|q| {
        let (gx, wx) = GAUSS_2[q & 1];
        let (gy, wy) = GAUSS_2[(q >> 1) & 1];
        let (gz, wz) = GAUSS_2[(q >> 2) & 1];
        let w = wx * wy * wz * jac;
        let mut n = [0.0; 8];
        let mut g = [[0.0; 3]; 8];
        for c in 0..8 {
            n[c] = shape(c, gx, gy, gz);
            let gr = shape_grad(c, gx, gy, gz);
            g[c] = [gr[0] / h[0], gr[1] / h[1], gr[2] / h[2]];
        }
        (w, [gx, gy, gz], n, g)
    })
}

/// Consistent mass matrix `∫ N_i N_j`.
pub fn mass_matrix(h: [f64; 3]) -> [[f64; 8]; 8] {
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

/// Lumped (row-sum) mass vector.
pub fn lumped_mass(h: [f64; 3]) -> [f64; 8] {
    let m = mass_matrix(h);
    std::array::from_fn(|i| m[i].iter().sum())
}

/// Variable-coefficient stiffness `∫ κ ∇N_i · ∇N_j` with per-element
/// constant `κ`.
pub fn stiffness_matrix(h: [f64; 3], kappa: f64) -> [[f64; 8]; 8] {
    let mut k = [[0.0; 8]; 8];
    for (w, _, _, g) in quad_points(h) {
        for i in 0..8 {
            for j in 0..8 {
                k[i][j] += w * kappa * (g[i][0] * g[j][0] + g[i][1] * g[j][1] + g[i][2] * g[j][2]);
            }
        }
    }
    k
}

/// The stiffness of every element of `mesh`, with `kappa(e)` the
/// coefficient of element `e`, as an element-matrix source: it fills the
/// row-major 8×8 matrix `DistOp` and `assemble_owned_block` take.
pub fn stiffness_source<'a>(
    mesh: &'a mesh::extract::Mesh,
    kappa: impl Fn(usize) -> f64 + 'a,
) -> impl Fn(usize, &mut [f64]) + 'a {
    move |e, out| {
        let k = stiffness_matrix(mesh.element_size(e), kappa(e));
        for (row, k) in out.chunks_exact_mut(8).zip(&k) {
            row.copy_from_slice(k);
        }
    }
}

/// Advection matrix `∫ N_i (a · ∇N_j)` for a constant element velocity.
pub fn advection_matrix(h: [f64; 3], a: [f64; 3]) -> [[f64; 8]; 8] {
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

/// The SUPG stabilization parameter τ (Brooks–Hughes): optimal 1D rule
/// `τ = h ξ(Pe) / (2|a|)` with `ξ(Pe) = coth(Pe) − 1/Pe`, evaluated with
/// the element length along the flow.
pub fn supg_tau(h: [f64; 3], a: [f64; 3], kappa: f64) -> f64 {
    let amag = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
    if amag < 1e-300 {
        return 0.0;
    }
    // Directional element length.
    let he = (h[0] * a[0].abs() + h[1] * a[1].abs() + h[2] * a[2].abs()) / amag;
    if kappa <= 0.0 {
        return he / (2.0 * amag);
    }
    let pe = amag * he / (2.0 * kappa);
    let xi = if pe > 20.0 {
        1.0 - 1.0 / pe
    } else if pe < 1e-8 {
        pe / 3.0
    } else {
        1.0 / pe.tanh() - 1.0 / pe
    };
    he * xi / (2.0 * amag)
}

/// SUPG matrices for the transport equation: returns
/// `(S_mass, S_adv)` where `S_mass[i][j] = τ ∫ (a·∇N_i) N_j` (applies to
/// the time-derivative/reaction terms) and `S_adv[i][j] = τ ∫ (a·∇N_i)
/// (a·∇N_j)` (streamline diffusion).
pub fn supg_matrices(h: [f64; 3], a: [f64; 3], kappa: f64) -> ([[f64; 8]; 8], [[f64; 8]; 8]) {
    let tau = supg_tau(h, a, kappa);
    let mut sm = [[0.0; 8]; 8];
    let mut sa = [[0.0; 8]; 8];
    if tau == 0.0 {
        return (sm, sa);
    }
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

/// Viscous (strain-rate) block for the Stokes momentum operator:
/// `K[3i+a][3j+b] = ∫ η ( δ_ab ∇N_i·∇N_j + ∂N_i/∂x_b ∂N_j/∂x_a )`,
/// i.e. the weak form of `−∇·[η(∇u + ∇uᵀ)]`.
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

/// Discrete divergence coupling: `B[i][3j+d] = ∫ N_i ∂N_j/∂x_d`
/// (pressure test row `i`, velocity trial column `(j,d)`). The Stokes
/// system uses `−B` in the continuity row and `Bᵀ` (pressure gradient) in
/// the momentum rows.
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

/// Dohrmann–Bochev polynomial-pressure-projection stabilization:
/// `C = (1/η) ∫ (N_i − Π N_i)(N_j − Π N_j)` where `Π` is the element-wise
/// `L²` projection onto constants; equals `(M − m mᵀ/V)/η` with the
/// pressure mass matrix `M`, `m_i = ∫ N_i`, and element volume `V`.
pub fn pressure_stabilization(h: [f64; 3], eta: f64) -> [[f64; 8]; 8] {
    let m = mass_matrix(h);
    let vol = h[0] * h[1] * h[2];
    let mvec: [f64; 8] = std::array::from_fn(|i| m[i].iter().sum());
    let mut c = [[0.0; 8]; 8];
    for i in 0..8 {
        for j in 0..8 {
            c[i][j] = (m[i][j] - mvec[i] * mvec[j] / vol) / eta;
        }
    }
    c
}

/// The unit-coefficient element blocks of the stabilized Stokes system
/// on a box of size `h`, integrated once and scaled per element: on an
/// axis-aligned box `viscous_matrix(h, η) = η·viscous`,
/// `stiffness_matrix(h, η) = η·stiffness`,
/// `pressure_stabilization(h, η) = stabilization/η`, and the divergence
/// and mass blocks carry no coefficient. An octree mesh on a box domain
/// has one `h` per refinement level, so callers keep one of these per
/// level; a mapped geometry would keep one per element.
pub struct StokesBlocks {
    /// `viscous_matrix(h, 1)`.
    pub viscous: [[f64; 24]; 24],
    /// `divergence_matrix(h)`.
    pub divergence: [[f64; 24]; 8],
    /// `pressure_stabilization(h, 1)`.
    pub stabilization: [[f64; 8]; 8],
    /// `stiffness_matrix(h, 1)`.
    pub stiffness: [[f64; 8]; 8],
    /// `mass_matrix(h)`.
    pub mass: [[f64; 8]; 8],
    /// `lumped_mass(h)`.
    pub lumped_mass: [f64; 8],
}

impl StokesBlocks {
    pub fn new(h: [f64; 3]) -> Self {
        StokesBlocks {
            viscous: viscous_matrix(h, 1.0),
            divergence: divergence_matrix(h),
            stabilization: pressure_stabilization(h, 1.0),
            stiffness: stiffness_matrix(h, 1.0),
            mass: mass_matrix(h),
            lumped_mass: lumped_mass(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: [f64; 3] = [0.5, 0.25, 1.0];

    /// The identity [`StokesBlocks`] rests on: the coefficient factors out
    /// of every block to rounding, for anisotropic `h` and η over decades.
    #[test]
    fn coefficient_factors_out_of_every_block() {
        fn assert_scaled<const N: usize>(
            what: &str,
            got: &[[f64; N]; N],
            unit: &[[f64; N]; N],
            s: f64,
        ) {
            let largest = got.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..N {
                for j in 0..N {
                    let err = (got[i][j] - s * unit[i][j]).abs();
                    assert!(err <= 1e-13 * largest, "{what}[{i}][{j}] off by {err}");
                }
            }
        }
        for h in [H, [1.0 / 32.0, 1.0 / 16.0, 1.0 / 32.0], [0.3, 0.7, 0.11]] {
            let unit = StokesBlocks::new(h);
            for eta in [1e-3, 0.37, 1.0, 42.0, 1e4] {
                let a = viscous_matrix(h, eta);
                assert_scaled("viscous", &a, &unit.viscous, eta);
                let c = pressure_stabilization(h, eta);
                assert_scaled("stabilization", &c, &unit.stabilization, 1.0 / eta);
                let k = stiffness_matrix(h, eta);
                assert_scaled("stiffness", &k, &unit.stiffness, eta);
            }
        }
    }

    #[test]
    fn shapes_partition_unity() {
        for &(x, y, z) in &[(0.3, 0.7, 0.1), (0.0, 0.0, 0.0), (1.0, 0.5, 0.25)] {
            let s: f64 = (0..8).map(|c| shape(c, x, y, z)).sum();
            assert!((s - 1.0).abs() < 1e-14);
            let mut g = [0.0; 3];
            for c in 0..8 {
                let gr = shape_grad(c, x, y, z);
                for d in 0..3 {
                    g[d] += gr[d];
                }
            }
            assert!(g.iter().all(|v| v.abs() < 1e-14), "gradients sum to zero");
        }
    }

    #[test]
    fn shape_is_kronecker_at_corners() {
        for c in 0..8 {
            for c2 in 0..8 {
                let x = (c2 & 1) as f64;
                let y = ((c2 >> 1) & 1) as f64;
                let z = ((c2 >> 2) & 1) as f64;
                let v = shape(c, x, y, z);
                assert!((v - if c == c2 { 1.0 } else { 0.0 }).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn mass_matrix_totals_volume() {
        let m = mass_matrix(H);
        let total: f64 = m.iter().flatten().sum();
        assert!((total - H[0] * H[1] * H[2]).abs() < 1e-14);
        // Symmetry + positivity of diagonal.
        for i in 0..8 {
            assert!(m[i][i] > 0.0);
            for j in 0..8 {
                assert!((m[i][j] - m[j][i]).abs() < 1e-15);
            }
        }
        let lm = lumped_mass(H);
        assert!((lm.iter().sum::<f64>() - H[0] * H[1] * H[2]).abs() < 1e-14);
    }

    #[test]
    fn stiffness_annihilates_constants_and_is_spd() {
        let k = stiffness_matrix(H, 3.0);
        for i in 0..8 {
            let row: f64 = k[i].iter().sum();
            assert!(row.abs() < 1e-13, "constant in kernel");
            for j in 0..8 {
                assert!((k[i][j] - k[j][i]).abs() < 1e-13);
            }
        }
        // Energy of a linear function x: u_c = x_c ⇒ uᵀKu = κ ∫ |∇x|² = κ·V/hx²·hx²… = κ·V.
        let u: [f64; 8] = std::array::from_fn(|c| (c & 1) as f64 * H[0]);
        let mut e = 0.0;
        for i in 0..8 {
            for j in 0..8 {
                e += u[i] * k[i][j] * u[j];
            }
        }
        assert!((e - 3.0 * H[0] * H[1] * H[2]).abs() < 1e-13, "e = {e}");
    }

    #[test]
    fn advection_is_skew_on_interior_pairing() {
        // ∫ N_i a·∇N_j + ∫ N_j a·∇N_i = boundary term = a·n surface
        // integrals; for the row sums: A·1 = 0 (gradient of constant).
        let a = advection_matrix(H, [1.0, -2.0, 0.5]);
        for i in 0..8 {
            let row: f64 = a[i].iter().sum();
            assert!(row.abs() < 1e-14);
        }
        // Total ∑_ij A_ij = ∫ a·∇(1)… = 0? No: ∑_i N_i = 1 so ∑_ij = ∫ a·∇1 = 0.
        let total: f64 = a.iter().flatten().sum();
        assert!(total.abs() < 1e-13);
    }

    #[test]
    fn supg_tau_limits() {
        // Advection-dominated: τ → h/(2|a|).
        let t = supg_tau([0.1, 0.1, 0.1], [1.0, 0.0, 0.0], 1e-12);
        assert!((t - 0.05).abs() < 1e-6, "t = {t}");
        // Diffusion-dominated: τ → Pe·h/(6|a|) = h²/(12κ).
        let t2 = supg_tau([0.1, 0.1, 0.1], [1e-3, 0.0, 0.0], 1.0);
        assert!((t2 - 0.01 / 12.0).abs() < 1e-6, "t2 = {t2}");
        // No flow: zero.
        assert_eq!(supg_tau(H, [0.0, 0.0, 0.0], 1.0), 0.0);
    }

    #[test]
    fn supg_streamline_matrix_is_psd() {
        let (_, sa) = supg_matrices(H, [1.0, 0.3, -0.2], 1e-3);
        // xᵀ S x ≥ 0 for a few vectors.
        for seed in 0..5u64 {
            let x: [f64; 8] = std::array::from_fn(|i| {
                (((i as u64 + 1) * (seed + 3) * 2654435761) % 1000) as f64 / 500.0 - 1.0
            });
            let mut q = 0.0;
            for i in 0..8 {
                for j in 0..8 {
                    q += x[i] * sa[i][j] * x[j];
                }
            }
            assert!(q >= -1e-12, "quadratic form {q}");
        }
    }

    #[test]
    fn viscous_matrix_annihilates_rigid_motions() {
        let k = viscous_matrix(H, 2.5);
        // Translations.
        for d in 0..3 {
            let u: [f64; 24] = std::array::from_fn(|i| if i % 3 == d { 1.0 } else { 0.0 });
            for i in 0..24 {
                let r: f64 = (0..24).map(|j| k[i][j] * u[j]).sum();
                assert!(r.abs() < 1e-12, "translation {d} not in kernel");
            }
        }
        // Rotation about z: u = (−y, x, 0).
        let mut u = [0.0; 24];
        for c in 0..8 {
            let x = (c & 1) as f64 * H[0];
            let y = ((c >> 1) & 1) as f64 * H[1];
            u[3 * c] = -y;
            u[3 * c + 1] = x;
        }
        let mut e = 0.0;
        for i in 0..24 {
            for j in 0..24 {
                e += u[i] * k[i][j] * u[j];
            }
        }
        assert!(e.abs() < 1e-12, "rigid rotation energy {e}");
        // Symmetry.
        for i in 0..24 {
            for j in 0..24 {
                assert!((k[i][j] - k[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn divergence_exact_on_linear_velocity() {
        // u = (x, 0, 0) has div u = 1; B u against each pressure shape
        // must give ∫ N_i · 1 = m_i.
        let b = divergence_matrix(H);
        let mut u = [0.0; 24];
        for c in 0..8 {
            u[3 * c] = (c & 1) as f64 * H[0];
        }
        let m = mass_matrix(H);
        for i in 0..8 {
            let bi: f64 = (0..24).map(|j| b[i][j] * u[j]).sum();
            let mi: f64 = m[i].iter().sum();
            assert!((bi - mi).abs() < 1e-13);
        }
    }

    #[test]
    fn pressure_stabilization_kills_constants_only() {
        let c = pressure_stabilization(H, 2.0);
        // C·1 = 0 (constants unpenalized).
        for i in 0..8 {
            let r: f64 = c[i].iter().sum();
            assert!(r.abs() < 1e-13);
        }
        // The checkerboard mode is penalized.
        let cb: [f64; 8] =
            std::array::from_fn(|i| if (i.count_ones() & 1) == 0 { 1.0 } else { -1.0 });
        let mut q = 0.0;
        for i in 0..8 {
            for j in 0..8 {
                q += cb[i] * c[i][j] * cb[j];
            }
        }
        assert!(q > 1e-6, "checkerboard energy {q}");
    }
}
