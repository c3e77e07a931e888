//! Reference-element machinery and the element-matrix table for
//! axis-aligned trilinear hexahedra.
//!
//! Octree elements are boxes with edge lengths `(hx, hy, hz)`, so the
//! Jacobian is diagonal and all element integrals reduce to tensor-product
//! Gauss quadrature on `[0,1]^3` with scaled gradients. Corners follow the
//! octree z-order: corner `c` at `((c&1), (c>>1)&1, (c>>2)&1)`.
//!
//! [`ElementBlocks::new`] integrates three quantities of one element size
//! in one quadrature loop — `M = ∫N_i N_j`, `G^d = ∫N_i ∂_d N_j` and
//! `H^{de} = ∫∂_d N_i ∂_e N_j` — and every block a solver uses is algebra
//! on them. [`LevelBlocks`] keeps one per element size of a mesh, and
//! [`LevelBlocks::of`] is the one function that knows a box domain has one
//! size per octree level.

use mesh::extract::Mesh;

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

/// Variable-coefficient stiffness `∫ κ ∇N_i · ∇N_j` with per-element
/// constant `κ`, by direct quadrature. The solvers read `κ·K₁` from
/// [`LevelBlocks`]; this stands alone as the reference kernel of the
/// benchmark's element-apply probe.
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
/// row-major 8×8 matrix `DistOp` and `assemble_owned_block` take with
/// `κ(e)·K₁` from `blocks`, the mesh's [`LevelBlocks`].
pub fn stiffness_source<'a>(
    mesh: &'a Mesh,
    blocks: &'a LevelBlocks,
    kappa: impl Fn(usize) -> f64 + 'a,
) -> impl Fn(usize, &mut [f64]) + 'a {
    move |e, out| {
        let (k, kappa) = (&blocks.of(mesh, e).stiffness, kappa(e));
        for (row, k) in out.chunks_exact_mut(8).zip(k) {
            for (o, v) in row.iter_mut().zip(k) {
                *o = kappa * v;
            }
        }
    }
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

/// Row-major 8×8 element matrix.
pub type Mat8 = [[f64; 8]; 8];

/// Every unit-coefficient element block of one box size `h`, formed from
/// three integrals. On an axis-aligned box the coefficients factor out:
/// the Stokes momentum block is `η·A₁`, the stabilization `C₁/η`, the AMG
/// block `η·K₁`, the Schur diagonal `m/η`, the load `M·f`; transport forms
/// `A(a) + κK₁ + S_a` and `S_m` per element from [`Self::advection`] and
/// [`Self::supg`].
pub struct ElementBlocks {
    /// `M_ij = ∫ N_i N_j`.
    pub mass: Mat8,
    /// `G^d_ij = ∫ N_i ∂_d N_j`.
    grad: [Mat8; 3],
    /// `H^{de}_ij = ∫ ∂_d N_i ∂_e N_j`.
    grad_grad: [[Mat8; 3]; 3],
    /// `m_i = Σ_j M_ij = ∫ N_i`, the lumped mass.
    pub lumped_mass: [f64; 8],
    /// `K₁ = Σ_d H^{dd}`.
    pub stiffness: Mat8,
    /// `A₁[3i+a][3j+b] = δ_ab K₁_ij + H^{ba}_ij`: the weak form of
    /// `−∇·(∇u + ∇uᵀ)`.
    pub viscous: [[f64; 24]; 24],
    /// `B[i][3j+d] = G^d_ij`: pressure test row `i`, velocity trial column
    /// `(j, d)`. The Stokes system has `B` in the continuity row and `Bᵀ`
    /// (the pressure gradient) in the momentum rows.
    pub divergence: [[f64; 24]; 8],
    /// `Bᵀ`, so that the Stokes sweep runs `Bu` with the eight pressure
    /// rows as vector lanes.
    pub divergence_t: [[f64; 8]; 24],
    /// Dohrmann–Bochev polynomial pressure projection `C₁ = M − m mᵀ/V`:
    /// `∫ (N_i − Π N_i)(N_j − Π N_j)` with `Π` the element-wise `L²`
    /// projection onto constants and `V` the element volume. Exactly
    /// symmetric, so it is its own transpose.
    pub stabilization: Mat8,
}

impl ElementBlocks {
    /// Integrate `M`, `G` and `H` on a box of size `h` by 2-point Gauss
    /// quadrature (exact for all three) and form the blocks. Every product
    /// is `w·(x·y)`, so `M`, `H^{dd}`, `K₁`, `A₁` and `C₁` are exactly
    /// symmetric.
    pub fn new(h: [f64; 3]) -> Self {
        let mut mass = [[0.0; 8]; 8];
        let mut grad = [[[0.0; 8]; 8]; 3];
        let mut grad_grad = [[[[0.0; 8]; 8]; 3]; 3];
        for (w, _, n, g) in quad_points(h) {
            for i in 0..8 {
                for j in 0..8 {
                    mass[i][j] += w * (n[i] * n[j]);
                    for d in 0..3 {
                        grad[d][i][j] += w * (n[i] * g[j][d]);
                        for e in 0..3 {
                            grad_grad[d][e][i][j] += w * (g[i][d] * g[j][e]);
                        }
                    }
                }
            }
        }
        let lumped_mass: [f64; 8] = std::array::from_fn(|i| mass[i].iter().sum());
        let stiffness: Mat8 = std::array::from_fn(|i| {
            std::array::from_fn(|j| {
                grad_grad[0][0][i][j] + grad_grad[1][1][i][j] + grad_grad[2][2][i][j]
            })
        });
        let viscous = std::array::from_fn(|r| {
            std::array::from_fn(|c| {
                let (i, a, j, b) = (r / 3, r % 3, c / 3, c % 3);
                let cross = grad_grad[b][a][i][j];
                if a == b {
                    stiffness[i][j] + cross
                } else {
                    cross
                }
            })
        });
        let divergence: [[f64; 24]; 8] =
            std::array::from_fn(|i| std::array::from_fn(|c| grad[c % 3][i][c / 3]));
        let vol = h[0] * h[1] * h[2];
        let stabilization: Mat8 = std::array::from_fn(|i| {
            std::array::from_fn(|j| mass[i][j] - lumped_mass[i] * lumped_mass[j] / vol)
        });
        ElementBlocks {
            divergence_t: std::array::from_fn(|c| std::array::from_fn(|i| divergence[i][c])),
            mass,
            grad,
            grad_grad,
            lumped_mass,
            stiffness,
            viscous,
            divergence,
            stabilization,
        }
    }

    /// Galerkin advection `A(a) = Σ_d a_d G^d`, i.e. `∫ N_i (a·∇N_j)`, for
    /// a constant element velocity `a`.
    pub fn advection(&self, a: [f64; 3]) -> Mat8 {
        let g = &self.grad;
        std::array::from_fn(|i| {
            std::array::from_fn(|j| a[0] * g[0][i][j] + a[1] * g[1][i][j] + a[2] * g[2][i][j])
        })
    }

    /// The SUPG blocks for velocity `a` and parameter `tau` ([`supg_tau`]):
    /// `(S_m, S_a)` with `S_m = τ Σ_d a_d (G^d)ᵀ = τ ∫ (a·∇N_i) N_j` (the
    /// coupling of the time derivative and the source) and
    /// `S_a = τ Σ_de a_d a_e H^{de} = τ ∫ (a·∇N_i)(a·∇N_j)` (streamline
    /// diffusion).
    pub fn supg(&self, a: [f64; 3], tau: f64) -> (Mat8, Mat8) {
        let (g, hh) = (&self.grad, &self.grad_grad);
        let sm = std::array::from_fn(|i| {
            std::array::from_fn(|j| {
                tau * (a[0] * g[0][j][i] + a[1] * g[1][j][i] + a[2] * g[2][j][i])
            })
        });
        let aa: [[f64; 3]; 3] = std::array::from_fn(|d| std::array::from_fn(|e| a[d] * a[e]));
        let sa = std::array::from_fn(|i| {
            std::array::from_fn(|j| {
                let mut s = 0.0;
                for d in 0..3 {
                    for e in 0..3 {
                        s += aa[d][e] * hh[d][e][i][j];
                    }
                }
                tau * s
            })
        });
        (sm, sa)
    }
}

/// The [`ElementBlocks`] of every element of a mesh: one entry per octree
/// level present, because a box domain has one element size per level.
/// Every element matrix a solver uses is read from here and scaled by the
/// element's coefficients. The entries share one allocation, whatever the
/// levels present.
pub struct LevelBlocks {
    /// Per octree level, its entry in `blocks` (`u8::MAX` if absent).
    slot: [u8; octree::MAX_LEVEL as usize + 1],
    blocks: Vec<ElementBlocks>,
}

impl LevelBlocks {
    pub fn new(mesh: &Mesh) -> Self {
        let present = mesh
            .elements
            .iter()
            .fold(0u32, |bits, o| bits | 1 << o.level());
        let mut table = LevelBlocks {
            slot: [u8::MAX; octree::MAX_LEVEL as usize + 1],
            blocks: Vec::with_capacity(present.count_ones() as usize),
        };
        // Each level's blocks from its first element.
        for (e, o) in mesh.elements.iter().enumerate() {
            let slot = &mut table.slot[o.level() as usize];
            if *slot == u8::MAX {
                *slot = table.blocks.len() as u8;
                table.blocks.push(ElementBlocks::new(mesh.element_size(e)));
            }
        }
        table
    }

    /// The blocks of local element `e` of the mesh the table was built on.
    /// The one geometry hook: a mapped geometry would index per-element
    /// blocks here and no caller would change.
    #[inline]
    pub fn of(&self, mesh: &Mesh, e: usize) -> &ElementBlocks {
        let slot = self.slot[mesh.elements[e].level() as usize];
        self.blocks
            .get(slot as usize)
            .expect("a block per level present in the mesh")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: [f64; 3] = [0.5, 0.25, 1.0];

    /// `xᵀ K x` for a square matrix given by rows.
    fn quadratic_form<const N: usize>(k: &[[f64; N]; N], x: &[f64; N]) -> f64 {
        (0..N)
            .map(|i| (0..N).map(|j| x[i] * k[i][j] * x[j]).sum::<f64>())
            .sum()
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
    fn symmetric_blocks_are_exactly_symmetric() {
        let b = ElementBlocks::new(H);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(b.mass[i][j].to_bits(), b.mass[j][i].to_bits());
                assert_eq!(b.stiffness[i][j].to_bits(), b.stiffness[j][i].to_bits());
                let c = &b.stabilization;
                assert_eq!(c[i][j].to_bits(), c[j][i].to_bits());
            }
        }
        for r in 0..24 {
            for c in 0..24 {
                assert_eq!(b.viscous[r][c].to_bits(), b.viscous[c][r].to_bits());
            }
        }
    }

    #[test]
    fn mass_matrix_totals_volume() {
        let b = ElementBlocks::new(H);
        let vol = H[0] * H[1] * H[2];
        let total: f64 = b.mass.iter().flatten().sum();
        assert!((total - vol).abs() < 1e-14);
        assert!((0..8).all(|i| b.mass[i][i] > 0.0));
        assert!((b.lumped_mass.iter().sum::<f64>() - vol).abs() < 1e-14);
    }

    #[test]
    fn stiffness_annihilates_constants_and_is_spd() {
        let k = ElementBlocks::new(H).stiffness;
        for row in &k {
            assert!(row.iter().sum::<f64>().abs() < 1e-13, "constant in kernel");
        }
        // Energy of the linear function x: u_c = x_c ⇒ uᵀK₁u = ∫ |∇x|² = V.
        let u: [f64; 8] = std::array::from_fn(|c| (c & 1) as f64 * H[0]);
        let e = quadratic_form(&k, &u);
        assert!((e - H[0] * H[1] * H[2]).abs() < 1e-13, "e = {e}");
    }

    #[test]
    fn advection_is_skew_on_interior_pairing() {
        // A·1 = ∫ N_i a·∇1 = 0 row by row, so the total vanishes too.
        let a = ElementBlocks::new(H).advection([1.0, -2.0, 0.5]);
        for row in &a {
            assert!(row.iter().sum::<f64>().abs() < 1e-14);
        }
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
        let a = [1.0, 0.3, -0.2];
        let (_, sa) = ElementBlocks::new(H).supg(a, supg_tau(H, a, 1e-3));
        for seed in 0..5u64 {
            let x: [f64; 8] = std::array::from_fn(|i| {
                (((i as u64 + 1) * (seed + 3) * 2654435761) % 1000) as f64 / 500.0 - 1.0
            });
            let q = quadratic_form(&sa, &x);
            assert!(q >= -1e-12, "quadratic form {q}");
        }
    }

    #[test]
    fn viscous_matrix_annihilates_rigid_motions() {
        let k = ElementBlocks::new(H).viscous;
        // Translations.
        for d in 0..3 {
            let u: [f64; 24] = std::array::from_fn(|i| if i % 3 == d { 1.0 } else { 0.0 });
            for row in &k {
                let r: f64 = row.iter().zip(&u).map(|(a, b)| a * b).sum();
                assert!(r.abs() < 1e-12, "translation {d} not in kernel");
            }
        }
        // Rotation about z: u = (−y, x, 0).
        let mut u = [0.0; 24];
        for c in 0..8 {
            u[3 * c] = -(((c >> 1) & 1) as f64 * H[1]);
            u[3 * c + 1] = (c & 1) as f64 * H[0];
        }
        let e = quadratic_form(&k, &u);
        assert!(e.abs() < 1e-12, "rigid rotation energy {e}");
    }

    #[test]
    fn divergence_exact_on_linear_velocity() {
        // u = (x, 0, 0) has div u = 1; B u against each pressure shape
        // must give ∫ N_i · 1 = m_i.
        let b = ElementBlocks::new(H);
        let mut u = [0.0; 24];
        for c in 0..8 {
            u[3 * c] = (c & 1) as f64 * H[0];
        }
        for i in 0..8 {
            let bi: f64 = (0..24).map(|j| b.divergence[i][j] * u[j]).sum();
            assert!((bi - b.lumped_mass[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn pressure_stabilization_kills_constants_only() {
        let c = ElementBlocks::new(H).stabilization;
        // C₁·1 = 0 (constants unpenalized).
        for row in &c {
            assert!(row.iter().sum::<f64>().abs() < 1e-13);
        }
        // The checkerboard mode is penalized.
        let cb: [f64; 8] =
            std::array::from_fn(|i| if (i.count_ones() & 1) == 0 { 1.0 } else { -1.0 });
        let q = quadratic_form(&c, &cb);
        assert!(q > 1e-6, "checkerboard energy {q}");
    }
}
