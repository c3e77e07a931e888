//! Element derivative kernels: the Section VII performance experiment.
//!
//! The reference-space gradient of a nodal field on one hexahedral
//! spectral element can be applied two ways (paper, Section VII):
//!
//! * **matrix-based** — three explicit `(p+1)³ × (p+1)³` dense matrices
//!   (or one stacked `3(p+1)³ × (p+1)³` matrix), costing `6(p+1)⁶` flops
//!   per element but executing as one large cache-friendly matrix–matrix
//!   multiply when elements are batched;
//! * **tensor-product** — contracting the 1D differentiation matrix
//!   along each coordinate direction, costing `6(p+1)⁴` flops —
//!   asymptotically work-optimal but built from many small matrices.
//!
//! The paper measures the crossover on Ranger's Barcelona cores between
//! `p = 2` and `p = 4` with GotoBLAS; our dense kernel is a cache-blocked
//! Rust matmul (DESIGN.md substitution #5), so the crossover may shift,
//! but its existence and direction are architecture-independent
//! consequences of the flop counts.

use crate::lgl::Lgl;

/// Exact flop count of the matrix-based derivative per element
/// (3 directions × (p+1)³ rows × (p+1)³ multiply-adds × 2).
pub fn matrix_derivative_flops(p: usize) -> u64 {
    let n = (p + 1) as u64;
    6 * n.pow(6)
}

/// Exact flop count of the tensor-product derivative per element.
pub fn tensor_derivative_flops(p: usize) -> u64 {
    let n = (p + 1) as u64;
    6 * n.pow(4)
}

/// Highest polynomial order the const-order kernels are built for.
pub const MAX_ORDER: usize = 8;

/// Evaluate `$body` with `const $N: usize` bound to `$n`, the nodes per
/// direction of an order in `1..=MAX_ORDER`: every element kernel has one
/// body, monomorphised per order, so its loops run at a compile-time trip
/// count the compiler unrolls and vectorises.
macro_rules! with_nodes {
    ($n:expr, $N:ident => $body:expr) => {
        $crate::kernels::with_nodes!($n, $N => $body; 2 3 4 5 6 7 8 9)
    };
    ($n:expr, $N:ident => $body:expr; $($k:literal)*) => {
        match $n {
            $($k => {
                const $N: usize = $k;
                $body
            })*
            n => unreachable!("{n} nodes per direction: orders 1..={} only", $crate::kernels::MAX_ORDER),
        }
    };
}
pub(crate) use with_nodes;

/// The reference gradient of one element `u` (`N³` nodes) into `out`
/// (`3N³`: ∂/∂ξ, ∂/∂η, ∂/∂ζ) with `D` and `Dᵀ` ([`ElementDerivative::diff`])
/// as axpy sweeps over fixed-size lines. Per output node the contraction
/// accumulates in ascending `m` order from a zero start, so results are
/// **bitwise identical** to the plain scalar triple loop (pinned by a
/// test):
///
/// * ∂/∂ξ — each `N`-line of the output accumulates the rows of `Dᵀ`
///   scaled by one input value each;
/// * ∂/∂η — each `N`-row of an `(i, j)` plane accumulates input rows of
///   the same `k`-plane scaled by `D[j][m]`;
/// * ∂/∂ζ — each contiguous `N²`-slab accumulates input slabs scaled by
///   `D[k][m]`.
#[inline(always)]
pub(crate) fn grad<const N: usize>([d, dt]: &[[[f64; N]; N]; 2], u: &[f64], out: &mut [f64]) {
    let (n2, n3) = (N * N, N * N * N);
    let (ox, rest) = out.split_at_mut(n3);
    let (oy, oz) = rest.split_at_mut(n3);
    let (olines, ulines) = (ox.as_chunks_mut::<N>().0, u.as_chunks::<N>().0);
    for (oline, uline) in olines.iter_mut().zip(ulines) {
        *oline = [0.0; N];
        for (&um, dtrow) in uline.iter().zip(dt) {
            for (o, &dv) in oline.iter_mut().zip(dtrow) {
                *o += dv * um;
            }
        }
    }
    for (oplane, uplane) in oy.chunks_exact_mut(n2).zip(u.chunks_exact(n2)) {
        let urows = uplane.as_chunks::<N>().0;
        for (orow, drow) in oplane.as_chunks_mut::<N>().0.iter_mut().zip(d) {
            *orow = [0.0; N];
            for (&dm, urow) in drow.iter().zip(urows) {
                for (o, &uv) in orow.iter_mut().zip(urow) {
                    *o += dm * uv;
                }
            }
        }
    }
    for (oslab, drow) in oz.chunks_exact_mut(n2).zip(d) {
        oslab.fill(0.0);
        for (&dm, uslab) in drow.iter().zip(u.chunks_exact(n2)) {
            for (o, &uv) in oslab.iter_mut().zip(uslab) {
                *o += dm * uv;
            }
        }
    }
}

/// Precomputed operators for applying the reference gradient on elements
/// of order `p` with the tensor-product kernel.
pub struct ElementDerivative {
    pub lgl: Lgl,
    n1: usize,
}

impl ElementDerivative {
    /// Panics unless `1 ≤ p ≤ MAX_ORDER`, the orders the kernels are
    /// built for.
    pub fn new(p: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&p),
            "ElementDerivative: order {p} is not supported (orders 1..={MAX_ORDER} are)"
        );
        let lgl = Lgl::new(p);
        let n1 = lgl.n();
        ElementDerivative { lgl, n1 }
    }

    /// `D` by rows and by columns, on the stack, for [`grad`].
    pub(crate) fn diff<const N: usize>(&self) -> [[[f64; N]; N]; 2] {
        let d = |i: usize, m: usize| self.lgl.diff[i * N + m];
        [
            std::array::from_fn(|i| std::array::from_fn(|m| d(i, m))),
            std::array::from_fn(|m| std::array::from_fn(|i| d(i, m))),
        ]
    }

    /// Nodes per element.
    pub fn n3(&self) -> usize {
        self.n1 * self.n1 * self.n1
    }

    /// Tensor-product path: three 1D contractions per element, the one
    /// const-order body `grad`. `u` is `n³ × nelem`
    /// (element-major columns, i.e. `u[e*n3 + node]`), `out` is
    /// `3n³ × nelem` laid out `out[e*3n3 + dir*n3 + node]`.
    pub fn apply_tensor_batch(&self, u: &[f64], out: &mut [f64], nelem: usize) {
        with_nodes!(self.n1, N => {
            let (d, n3) = (self.diff::<N>(), N * N * N);
            let (u, out) = (&u[..n3 * nelem], &mut out[..3 * n3 * nelem]);
            for (ue, oe) in u.chunks_exact(n3).zip(out.chunks_exact_mut(3 * n3)) {
                grad(&d, ue, oe);
            }
        })
    }

    /// Straightforward scalar tensor-product contraction: the readable
    /// reference implementation the const-order [`Self::apply_tensor_batch`]
    /// must match bitwise.
    #[cfg(test)]
    pub(crate) fn apply_tensor_batch_reference(&self, u: &[f64], out: &mut [f64], nelem: usize) {
        let n = self.n1;
        let n3 = self.n3();
        let d = &self.lgl.diff;
        for e in 0..nelem {
            let ue = &u[e * n3..(e + 1) * n3];
            let oe = &mut out[e * 3 * n3..(e + 1) * 3 * n3];
            // ∂/∂ξ: for each (j,k) line, D × line.
            for k in 0..n {
                for j in 0..n {
                    let base = n * (j + n * k);
                    for i in 0..n {
                        let mut acc = 0.0;
                        for m in 0..n {
                            acc += d[i * n + m] * ue[base + m];
                        }
                        oe[base + i] = acc;
                    }
                }
            }
            // ∂/∂η.
            for k in 0..n {
                for i in 0..n {
                    for jj in 0..n {
                        let mut acc = 0.0;
                        for m in 0..n {
                            acc += d[jj * n + m] * ue[i + n * (m + n * k)];
                        }
                        oe[n3 + i + n * (jj + n * k)] = acc;
                    }
                }
            }
            // ∂/∂ζ.
            for j in 0..n {
                for i in 0..n {
                    for kk in 0..n {
                        let mut acc = 0.0;
                        for m in 0..n {
                            acc += d[kk * n + m] * ue[i + n * (j + n * m)];
                        }
                        oe[2 * n3 + i + n * (j + n * kk)] = acc;
                    }
                }
            }
        }
    }
}

/// The matrix-based kernel: the stacked dense derivative matrix
/// `[Dξ; Dη; Dζ]` (`3n³ × n³`, row-major) of an [`ElementDerivative`]'s
/// order, applied as one matrix–matrix multiply over a batch of elements.
/// The Section VII experiment's other side; the solver runs the tensor
/// kernel.
pub struct MatrixDerivative {
    big: Vec<f64>,
    n3: usize,
}

impl MatrixDerivative {
    pub fn new(ed: &ElementDerivative) -> Self {
        let (n1, n3) = (ed.n1, ed.n3());
        let d = &ed.lgl.diff;
        let mut big = vec![0.0; 3 * n3 * n3];
        // Node (i,j,k) ↔ flat index i + n*(j + n*k); ξ varies with i.
        let flat = |i: usize, j: usize, k: usize| i + n1 * (j + n1 * k);
        for k in 0..n1 {
            for j in 0..n1 {
                for i in 0..n1 {
                    let row = flat(i, j, k);
                    for m in 0..n1 {
                        // ∂/∂ξ couples i↔m.
                        big[row * n3 + flat(m, j, k)] += d[i * n1 + m];
                        // ∂/∂η couples j↔m.
                        big[(n3 + row) * n3 + flat(i, m, k)] += d[j * n1 + m];
                        // ∂/∂ζ couples k↔m.
                        big[(2 * n3 + row) * n3 + flat(i, j, m)] += d[k * n1 + m];
                    }
                }
            }
        }
        MatrixDerivative { big, n3 }
    }

    /// One `3n³ × n³` by `n³ × nelem` multiply, in the layouts of
    /// [`ElementDerivative::apply_tensor_batch`].
    pub fn apply_batch(&self, u: &[f64], out: &mut [f64], nelem: usize) {
        let n3 = self.n3;
        debug_assert_eq!(u.len(), n3 * nelem);
        debug_assert_eq!(out.len(), 3 * n3 * nelem);
        // Cache-blocked GEMM: out(e) = big · u(e); block over rows and the
        // inner dimension. The inner product runs over zipped slices so
        // the compiler can drop bounds checks and vectorize.
        const BK: usize = 64;
        for e in 0..nelem {
            let ue = &u[e * n3..(e + 1) * n3];
            let oe = &mut out[e * 3 * n3..(e + 1) * 3 * n3];
            oe.fill(0.0);
            for k0 in (0..n3).step_by(BK) {
                let k1 = (k0 + BK).min(n3);
                let ub = &ue[k0..k1];
                for (r, orow) in oe.iter_mut().enumerate() {
                    let brow = &self.big[r * n3 + k0..r * n3 + k1];
                    let mut acc = 0.0;
                    for (&bv, &uv) in brow.iter().zip(ub) {
                        acc += bv * uv;
                    }
                    *orow += acc;
                }
            }
        }
    }
}

/// `out = (B ⊗ A) x` on an `n × n` face trace `x[a + n·b]`: `A`
/// contracts the fast index, `B` the slow one (row-major `n × n`, rows
/// are outputs); `2n³` multiply-adds, `tmp` is `n²` scratch. With the
/// half-interval operators of [`Lgl`] this is the mortar interpolation
/// onto, or projection from, one quarter of a 2:1 hanging face.
pub fn apply_face(a: &[f64], b: &[f64], n: usize, x: &[f64], tmp: &mut [f64], out: &mut [f64]) {
    for (trow, xrow) in tmp.chunks_exact_mut(n).zip(x.chunks_exact(n)) {
        for (t, arow) in trow.iter_mut().zip(a.chunks_exact(n)) {
            *t = arow.iter().zip(xrow).map(|(&av, &xv)| av * xv).sum();
        }
    }
    for (orow, brow) in out.chunks_exact_mut(n).zip(b.chunks_exact(n)) {
        orow.fill(0.0);
        for (&bv, trow) in brow.iter().zip(tmp.chunks_exact(n)) {
            for (o, &t) in orow.iter_mut().zip(trow) {
                *o += bv * t;
            }
        }
    }
}

/// Index tables of the `n²` trace of an element face. Face node
/// `a + n·b` runs `a` along the lower and `b` along the higher of the
/// face's two transverse axes.
pub struct FaceTables {
    n2: usize,
    nodes: Vec<u32>,
    perm: Vec<u32>,
    across: Vec<u32>,
}

impl FaceTables {
    pub fn new(n: usize) -> Self {
        let n2 = n * n;
        let mut nodes = Vec::with_capacity(6 * n2);
        for face in 0..6 {
            let (axis, end) = (face / 2, (face % 2) * (n - 1));
            let stride = |ax: usize| n.pow(ax as u32);
            let [t1, t2] = forest::transverse_axes(face as u8);
            for b in 0..n {
                for a in 0..n {
                    nodes.push((end * stride(axis) + a * stride(t1) + b * stride(t2)) as u32);
                }
            }
        }
        let mut perm = Vec::with_capacity(8 * n2);
        for o in 0..8 {
            for b in 0..n {
                for a in 0..n {
                    let ours = [a, b];
                    let theirs: [usize; 2] = std::array::from_fn(|c| {
                        let i = ours[c ^ (o & 1)];
                        if (o >> (1 + c)) & 1 == 1 {
                            n - 1 - i
                        } else {
                            i
                        }
                    });
                    perm.push((theirs[0] + n * theirs[1]) as u32);
                }
            }
        }
        let mut across = Vec::with_capacity(48 * n2);
        for face in 0..6 {
            for theirs in perm.chunks_exact(n2) {
                across.extend(theirs.iter().map(|&k| nodes[face * n2 + k as usize]));
            }
        }
        FaceTables {
            n2,
            nodes,
            perm,
            across,
        }
    }

    /// Volume node index of every node of `face`, in trace order.
    pub fn nodes(&self, face: usize) -> &[u32] {
        &self.nodes[face * self.n2..(face + 1) * self.n2]
    }

    /// For every node of our trace, the index of the coinciding node in
    /// the trace of the element across the face, under the forest's
    /// orientation code `orient` ([`forest::FaceTransform::orientation`]
    /// seen from our side). LGL nodes are symmetric, so a reversed axis
    /// is the reversed index.
    pub fn perm(&self, orient: u8) -> &[u32] {
        &self.perm[orient as usize * self.n2..(orient as usize + 1) * self.n2]
    }

    /// For every node of our trace, the volume node index of the
    /// coinciding node in the element across the face, whose face is
    /// `face`: [`Self::nodes`]`(face)` through [`Self::perm`]`(orient)`,
    /// one table.
    pub fn across(&self, face: usize, orient: u8) -> &[u32] {
        &self.across[(face * 8 + orient as usize) * self.n2..][..self.n2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_match_paper_formulas() {
        assert_eq!(matrix_derivative_flops(2), 6 * 3u64.pow(6));
        assert_eq!(tensor_derivative_flops(2), 6 * 3u64.pow(4));
        // The paper's p = 6 example: 20× fewer flops for the tensor path.
        let ratio = matrix_derivative_flops(6) / tensor_derivative_flops(6);
        assert_eq!(ratio, 49, "(p+1)² = 49 for p = 6");
    }

    #[test]
    fn both_kernels_agree() {
        for p in [1usize, 2, 3, 4] {
            let ed = ElementDerivative::new(p);
            let n3 = ed.n3();
            let nelem = 3;
            let u: Vec<f64> = (0..n3 * nelem)
                .map(|i| ((i * 2654435761 + 17) % 1000) as f64 / 499.0 - 1.0)
                .collect();
            let mut a = vec![0.0; 3 * n3 * nelem];
            let mut b = vec![0.0; 3 * n3 * nelem];
            MatrixDerivative::new(&ed).apply_batch(&u, &mut a, nelem);
            ed.apply_tensor_batch(&u, &mut b, nelem);
            for i in 0..a.len() {
                assert!(
                    (a[i] - b[i]).abs() < 1e-10,
                    "p={p} idx={i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn vectorized_tensor_kernel_is_bitwise_identical_to_reference() {
        for p in 1..=MAX_ORDER {
            let ed = ElementDerivative::new(p);
            let n3 = ed.n3();
            let nelem = 5;
            let u: Vec<f64> = (0..n3 * nelem)
                .map(|i| ((i * 1103515245 + 12345) % 1000) as f64 / 333.0 - 1.5)
                .collect();
            let mut a = vec![f64::NAN; 3 * n3 * nelem];
            let mut b = vec![f64::NAN; 3 * n3 * nelem];
            ed.apply_tensor_batch(&u, &mut a, nelem);
            ed.apply_tensor_batch_reference(&u, &mut b, nelem);
            assert_eq!(a, b, "p={p}: vectorized kernel must match bitwise");
        }
    }

    #[test]
    fn unsupported_orders_are_refused() {
        for p in [0, MAX_ORDER + 1] {
            let err = std::panic::catch_unwind(|| ElementDerivative::new(p)).err();
            let msg = err.as_ref().and_then(|e| e.downcast_ref::<String>());
            assert_eq!(
                msg.map(String::as_str),
                Some(
                    format!("ElementDerivative: order {p} is not supported (orders 1..=8 are)")
                        .as_str()
                )
            );
        }
    }

    fn pseudo_random(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (((i + seed) * 2654435761 + 17) % 1000) as f64 / 499.0 - 1.0)
            .collect()
    }

    /// The 2-D mortar algebra a conservative hanging face rests on:
    /// interpolating a trace onto the four quarters and projecting back
    /// is the identity, and the projection keeps the face integral (the
    /// quarters have a quarter of the area).
    #[test]
    fn face_mortar_projection_inverts_interpolation_and_keeps_integrals() {
        for p in 1..=6 {
            let lgl = Lgl::new(p);
            let n = lgl.n();
            let n2 = n * n;
            let (mut tmp, mut fine, mut back) = (vec![0.0; n2], vec![0.0; n2], vec![0.0; n2]);
            for k in 0..n2 {
                let mut unit = vec![0.0; n2];
                unit[k] = 1.0;
                let mut sum = vec![0.0; n2];
                for q in 0..4 {
                    let (lo, hi) = (q & 1 != 0, q & 2 != 0);
                    apply_face(
                        lgl.interp(lo),
                        lgl.interp(hi),
                        n,
                        &unit,
                        &mut tmp,
                        &mut fine,
                    );
                    apply_face(
                        lgl.project(lo),
                        lgl.project(hi),
                        n,
                        &fine,
                        &mut tmp,
                        &mut back,
                    );
                    sum.iter_mut().zip(&back).for_each(|(s, b)| *s += b);
                }
                for (j, (s, u)) in sum.iter().zip(&unit).enumerate() {
                    assert!((s - u).abs() < 1e-13, "p={p} ({j},{k}): {s}");
                }
            }
            let integral = |g: &[f64]| -> f64 {
                (0..n2)
                    .map(|k| lgl.weights[k % n] * lgl.weights[k / n] * g[k])
                    .sum()
            };
            let (mut coarse, mut children) = (0.0, 0.0);
            for q in 0..4 {
                let g = pseudo_random(n2, 31 * q + p);
                apply_face(
                    lgl.project(q & 1 != 0),
                    lgl.project(q & 2 != 0),
                    n,
                    &g,
                    &mut tmp,
                    &mut back,
                );
                coarse += integral(&back);
                children += 0.25 * integral(&g);
            }
            assert!(
                (coarse - children).abs() < 1e-13,
                "p={p}: {coarse} vs {children}"
            );
        }
    }

    /// Face node tables against the node numbering, and the orientation
    /// permutations against their definition.
    #[test]
    fn face_tables_index_the_face_nodes() {
        let n = 4;
        let ft = FaceTables::new(n);
        for face in 0..6 {
            let [t1, t2] = forest::transverse_axes(face as u8);
            for (k, &node) in ft.nodes(face).iter().enumerate() {
                let idx = [
                    node as usize % n,
                    node as usize / n % n,
                    node as usize / (n * n),
                ];
                assert_eq!(idx[face / 2], (face % 2) * (n - 1));
                assert_eq!((idx[t1], idx[t2]), (k % n, k / n));
            }
        }
        assert!(ft.perm(0).iter().enumerate().all(|(k, &j)| j as usize == k));
        // Swap alone transposes; a flip alone reverses one index.
        assert_eq!(ft.perm(1)[1], n as u32);
        assert_eq!(ft.perm(2)[0], (n - 1) as u32);
        assert_eq!(ft.perm(4)[0], (n * (n - 1)) as u32);
        for (face, o) in (0..6).flat_map(|f| (0..8).map(move |o| (f, o))) {
            let composed = ft.perm(o).iter().map(|&k| ft.nodes(face)[k as usize]);
            assert!(composed.eq(ft.across(face, o).iter().copied()));
        }
        for o in 0..8 {
            let mut seen = vec![false; n * n];
            ft.perm(o).iter().for_each(|&j| seen[j as usize] = true);
            assert!(seen.iter().all(|&s| s), "orientation {o} is a permutation");
        }
    }

    #[test]
    fn derivative_exact_on_trilinear_monomials() {
        let p = 3;
        let ed = ElementDerivative::new(p);
        let n = p + 1;
        let n3 = ed.n3();
        // u = ξ²η − ζ on the LGL grid.
        let mut u = vec![0.0; n3];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, z) = (ed.lgl.nodes[i], ed.lgl.nodes[j], ed.lgl.nodes[k]);
                    u[i + n * (j + n * k)] = x * x * y - z;
                }
            }
        }
        let mut g = vec![0.0; 3 * n3];
        ed.apply_tensor_batch(&u, &mut g, 1);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, _z) = (ed.lgl.nodes[i], ed.lgl.nodes[j], ed.lgl.nodes[k]);
                    let idx = i + n * (j + n * k);
                    assert!((g[idx] - 2.0 * x * y).abs() < 1e-11, "dξ");
                    assert!((g[n3 + idx] - x * x).abs() < 1e-11, "dη");
                    assert!((g[2 * n3 + idx] + 1.0).abs() < 1e-11, "dζ");
                }
            }
        }
    }
}
