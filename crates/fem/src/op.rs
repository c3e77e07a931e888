//! Distributed matrix-free operator application and dof-map utilities.
//!
//! Krylov vectors hold *owned* dofs only (so inner products never double
//! count); operator application expands to the owned+ghost layout,
//! exchanges ghosts, runs the element kernels with element-level
//! constraint application (`CᵀKC`), and accumulates boundary
//! contributions back to their owners — the standard parallel FEM
//! operator pipeline the paper's MINRES relies on.
//!
//! Every CG operator runs that pipeline through one element sweep,
//! [`sweep`], with its own [`ElementKernel`]: `DistOp`'s element matrix,
//! the Stokes stencil and the SUPG transport rate.

use std::cell::RefCell;

use la::LinearOp;
use mesh::extract::Mesh;
use scomm::{Comm, HaloBuffers};

/// Clear and re-zero a reusable buffer without shrinking its allocation.
#[inline]
fn reset(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// One element's share of a CG operator. [`sweep`] hands it the gathered
/// element vector (corner-major, `NI` components per corner, hanging
/// corners already resolved) and scatters what it writes (`NO`
/// components per corner) with the constraint transpose.
///
/// Implementations mark `apply` `#[inline(always)]`: the sweep's AVX2
/// build only vectorises a kernel that is inlined into it, and an
/// ordinary `#[inline]` leaves that to the compiler's cost model.
pub trait ElementKernel<const NI: usize, const NO: usize> {
    /// Overwrite every entry of `y` with element `e`'s contribution for
    /// the element input `x`.
    fn apply(&mut self, e: usize, x: &[[f64; NI]; 8], y: &mut [[f64; NO]; 8]);
}

/// The one CG element sweep: for every local element in element order,
/// gather its input from the owned+ghost field `x` (`NI` interleaved
/// components per dof), apply `kernel`, and add the result into the
/// owned+ghost field `y` (`NO` components per dof). Runs the AVX2 build
/// where the CPU has it; both builds compute the same bits, because AVX2
/// brings no FMA and Rust never contracts `a * b + c`. The AVX2 build
/// stays: without it `conv_cube_p1` ran 1.026× slower in 8 of 8 pairs
/// (EXPERIMENTS.md, "Why the two AVX2 builds stay").
pub fn sweep<const NI: usize, const NO: usize>(
    mesh: &Mesh,
    kernel: &mut impl ElementKernel<NI, NO>,
    x: &[f64],
    y: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        unsafe { sweep_avx2(mesh, kernel, x, y) };
        return;
    }
    sweep_plain(mesh, kernel, x, y);
}

/// [`sweep`] compiled for 256-bit vectors.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<const NI: usize, const NO: usize>(
    mesh: &Mesh,
    kernel: &mut impl ElementKernel<NI, NO>,
    x: &[f64],
    y: &mut [f64],
) {
    sweep_plain(mesh, kernel, x, y);
}

/// [`sweep`] without the AVX2 build: the element loop, written once and
/// inlined into each build, public so that a test can compare the two.
#[doc(hidden)]
#[inline(always)]
pub fn sweep_plain<const NI: usize, const NO: usize>(
    mesh: &Mesh,
    kernel: &mut impl ElementKernel<NI, NO>,
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(x.len(), mesh.n_local() * NI);
    debug_assert_eq!(y.len(), mesh.n_local() * NO);
    let (mut xe, mut ye) = ([[0.0; NI]; 8], [[0.0; NO]; 8]);
    for e in 0..mesh.elements.len() {
        mesh.gather(e, x, &mut xe);
        kernel.apply(e, &xe, &mut ye);
        mesh.scatter(e, &ye, y);
    }
}

/// Reusable buffers of one operator's applications: the owned+ghost
/// input and output and the ghost-exchange staging. Grow-only — after
/// the first application every buffer is recycled. A warm apply
/// allocates nothing at P = 1 and one payload per point-to-point message
/// it sends at P ≥ 2, as `tests/allocations.rs` counts.
#[derive(Default)]
pub struct Workspace {
    /// Owned+ghost input of the last [`DofMap::apply_kernel`].
    xl: Vec<f64>,
    /// Owned+ghost accumulation target.
    yl: Vec<f64>,
    /// Ghost-exchange pack/unpack buffers.
    exch: HaloBuffers<f64>,
}

impl Workspace {
    /// The owned+ghost input of the last [`DofMap::apply_kernel`], its
    /// ghosts filled.
    pub fn input(&self) -> &[f64] {
        &self.xl
    }
}

/// A view of the mesh's element-to-dof table ([`Mesh::corner_dofs`]) for
/// fields with `ncomp` interleaved components per dof, plus the
/// communicator its exchanges and reductions run on. It owns nothing:
/// constructing one is free.
pub struct DofMap<'a> {
    pub mesh: &'a Mesh,
    pub comm: &'a Comm,
    /// Components per node (1 = scalar, 3 = velocity).
    pub ncomp: usize,
}

impl<'a> DofMap<'a> {
    pub fn new(mesh: &'a Mesh, comm: &'a Comm, ncomp: usize) -> Self {
        DofMap { mesh, comm, ncomp }
    }

    /// Owned vector length.
    pub fn n_owned(&self) -> usize {
        self.mesh.n_owned * self.ncomp
    }

    /// Owned+ghost vector length.
    pub fn n_local(&self) -> usize {
        self.mesh.n_local() * self.ncomp
    }

    /// Globally consistent inner product over owned entries.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.n_owned());
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        self.comm.allreduce_sum(&[local])[0]
    }

    /// Global max-norm of an owned vector.
    pub fn norm_inf(&self, a: &[f64]) -> f64 {
        let local = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        self.comm.allreduce_max(&[local])[0]
    }

    /// Expand an owned vector into a fresh owned+ghost vector and fill its
    /// ghosts on a fresh stream-0 buffer set (see [`HaloBuffers::new`]),
    /// for set-up code that does not keep a buffer.
    pub fn to_local(&self, owned: &[f64]) -> Vec<f64> {
        let mut v = Vec::new();
        self.fill_local(owned, &mut v);
        self.exchange_in(&mut v, &mut Workspace::default());
        v
    }

    /// Split-phase ghost fill on reused buffers: post one packed
    /// interleaved message per neighbor and return while the messages are
    /// in flight. Only the owned block of `v` is read at post time;
    /// [`DofMap::exchange_end`] fills the ghost block.
    pub fn exchange_begin(&self, v: &[f64], buf: &mut HaloBuffers<f64>) {
        debug_assert_eq!(v.len(), self.n_local());
        buf.fill_begin(self.comm, &[&self.mesh.exchange], &[v], self.ncomp);
    }

    /// Complete the ghost fill posted by [`DofMap::exchange_begin`].
    pub fn exchange_end(&self, v: &mut [f64], buf: &mut HaloBuffers<f64>) {
        debug_assert_eq!(v.len(), self.n_local());
        buf.fill_end(self.comm, &[&self.mesh.exchange], &mut [v], self.ncomp);
    }

    /// Reset `v` to owned+ghost length and copy the owned entries in,
    /// without exchanging — the split-phase prelude to
    /// [`DofMap::exchange_begin`].
    pub fn fill_local(&self, owned: &[f64], v: &mut Vec<f64>) {
        debug_assert_eq!(owned.len(), self.n_owned());
        reset(v, self.n_local());
        v[..owned.len()].copy_from_slice(owned);
    }

    /// Reverse-accumulate ghost contributions to owners (assembly step)
    /// on a fresh stream-0 buffer set.
    pub fn reverse_accumulate(&self, v: &mut [f64]) {
        self.reverse_accumulate_in(v, &mut Workspace::default());
    }

    /// Fill the ghost block of the owned+ghost vector `v` (`ncomp`
    /// interleaved components per dof) in one round on `ws`'s stream-0
    /// buffers, which a warm workspace recycles.
    pub fn exchange_in(&self, v: &mut [f64], ws: &mut Workspace) {
        self.exchange_begin(v, &mut ws.exch);
        self.exchange_end(v, &mut ws.exch);
    }

    /// Add the ghost block of the owned+ghost vector `v` into its owners'
    /// rows and zero it, in one round on `ws`'s stream-0 buffers.
    pub fn reverse_accumulate_in(&self, v: &mut [f64], ws: &mut Workspace) {
        debug_assert_eq!(v.len(), self.n_local());
        let halo = &self.mesh.exchange;
        ws.exch.accumulate(self.comm, &[halo], &mut [v], self.ncomp);
    }

    /// One operator application on this map's field: `fill` writes the
    /// owned block of the input, one ghost exchange round fills the rest,
    /// and [`DofMap::accumulate_kernel`] sweeps `kernel` and
    /// reverse-accumulates. Returns the owned block of the result.
    pub fn apply_kernel<'w, const NC: usize>(
        &self,
        kernel: &mut impl ElementKernel<NC, NC>,
        ws: &'w mut Workspace,
        fill: impl FnOnce(&mut [f64]),
    ) -> &'w [f64] {
        assert_eq!(NC, self.ncomp, "kernel and map disagree on components");
        reset(&mut ws.xl, self.n_local());
        fill(&mut ws.xl[..self.n_owned()]);
        self.exchange_begin(&ws.xl, &mut ws.exch);
        self.exchange_end(&mut ws.xl, &mut ws.exch);
        let xl = std::mem::take(&mut ws.xl);
        self.accumulate_kernel(kernel, &xl, ws);
        ws.xl = xl;
        &ws.yl[..self.n_owned()]
    }

    /// Sweep `kernel` over the owned+ghost field `x` (`NI` components per
    /// dof, ghosts already filled) into a zeroed result on this map's
    /// field, reverse-accumulate it in one round and return its owned
    /// block.
    pub fn accumulate_kernel<'w, const NI: usize, const NO: usize>(
        &self,
        kernel: &mut impl ElementKernel<NI, NO>,
        x: &[f64],
        ws: &'w mut Workspace,
    ) -> &'w [f64] {
        assert_eq!(NO, self.ncomp, "kernel and map disagree on components");
        reset(&mut ws.yl, self.n_local());
        sweep(self.mesh, kernel, x, &mut ws.yl);
        let halo = &self.mesh.exchange;
        ws.exch
            .accumulate(self.comm, &[halo], &mut [&mut ws.yl], self.ncomp);
        &ws.yl[..self.n_owned()]
    }

    /// Gather the element-local vector (length `8·ncomp`, corner-major)
    /// of element `e` from an owned+ghost vector, applying hanging-node
    /// constraints: [`Mesh::gather`] for the component counts the
    /// operators use, 1, 3 and 4.
    #[inline]
    pub fn gather_element(&self, e: usize, v: &[f64], out: &mut [f64]) {
        match self.ncomp {
            1 => self.mesh.gather::<1>(e, v, corners_mut(out)),
            3 => self.mesh.gather::<3>(e, v, corners_mut(out)),
            4 => self.mesh.gather::<4>(e, v, corners_mut(out)),
            nc => panic!("no element gather for {nc} components per node"),
        }
    }

    /// Scatter element contributions back with the constraint transpose
    /// ([`Mesh::scatter`]).
    #[inline]
    pub fn scatter_element(&self, e: usize, contrib: &[f64], v: &mut [f64]) {
        match self.ncomp {
            1 => self.mesh.scatter::<1>(e, corners(contrib), v),
            3 => self.mesh.scatter::<3>(e, corners(contrib), v),
            4 => self.mesh.scatter::<4>(e, corners(contrib), v),
            nc => panic!("no element scatter for {nc} components per node"),
        }
    }
}

/// An element vector of `8·NC` entries as its eight corners.
fn corners<const NC: usize>(flat: &[f64]) -> &[[f64; NC]; 8] {
    debug_assert_eq!(flat.len(), 8 * NC);
    let (corners, _) = flat.as_chunks();
    corners.try_into().expect("8·ncomp entries")
}

/// [`corners`] for writing.
fn corners_mut<const NC: usize>(flat: &mut [f64]) -> &mut [[f64; NC]; 8] {
    debug_assert_eq!(flat.len(), 8 * NC);
    let (corners, _) = flat.as_chunks_mut();
    corners.try_into().expect("8·ncomp entries")
}

/// A distributed symmetric operator defined by per-element matrices, with
/// optional symmetric Dirichlet elimination. Carries its own reusable
/// [`Workspace`], so repeated applications reuse every buffer.
///
/// An application is [`DofMap::apply_kernel`] with the element matrix as
/// the kernel: post and complete the ghost exchange, sweep every local
/// element in element order, reverse-accumulate.
/// `check::oracles::dist_apply_reference` rebuilds the same product from
/// freshly allocated vectors and the blocking `to_local` /
/// `reverse_accumulate`, in the same accumulation order; the two agree
/// bitwise.
pub struct DistOp<'a> {
    map: &'a DofMap<'a>,
    /// Fills the `(8·ncomp)²` row-major element matrix of element `e`.
    elem_matrix: Box<dyn Fn(usize, &mut [f64]) + 'a>,
    /// Owned-dof Dirichlet mask (length `n_owned · ncomp`); constrained
    /// entries behave as identity rows/columns.
    bc_mask: Option<&'a [bool]>,
    ws: RefCell<Workspace>,
}

impl<'a> DistOp<'a> {
    pub fn new(
        map: &'a DofMap<'a>,
        elem_matrix: Box<dyn Fn(usize, &mut [f64]) + 'a>,
        bc_mask: Option<&'a [bool]>,
    ) -> DistOp<'a> {
        DistOp {
            map,
            elem_matrix,
            bc_mask,
            ws: RefCell::default(),
        }
    }

    /// Apply `y = A x` on owned vectors.
    pub fn apply_owned(&self, x: &[f64], y: &mut [f64]) {
        match self.map.ncomp {
            1 => self.apply_with::<1>(x, y),
            3 => self.apply_with::<3>(x, y),
            4 => self.apply_with::<4>(x, y),
            nc => panic!("DistOp has no sweep for {nc} components per node"),
        }
    }

    fn apply_with<const NC: usize>(&self, x: &[f64], y: &mut [f64]) {
        let mut ws = self.ws.borrow_mut();
        let mut kernel = MatrixKernel {
            elem_matrix: &*self.elem_matrix,
            mat: [0.0; 32 * 32],
        };
        // Symmetric elimination: masked entries of the input are zero,
        // masked rows of the result the identity.
        let masked = |i: usize| self.bc_mask.is_some_and(|m| m[i]);
        let yo = self.map.apply_kernel::<NC>(&mut kernel, &mut ws, |xo| {
            for (i, v) in xo.iter_mut().enumerate() {
                *v = if masked(i) { 0.0 } else { x[i] };
            }
        });
        for (i, v) in y.iter_mut().enumerate() {
            *v = if masked(i) { x[i] } else { yo[i] };
        }
    }
}

/// `DistOp`'s kernel: form the element matrix, multiply, each row summed
/// left to right from 0.0.
struct MatrixKernel<'k> {
    elem_matrix: &'k dyn Fn(usize, &mut [f64]),
    /// Room for the largest element matrix, four components per node.
    mat: [f64; 32 * 32],
}

impl<const NC: usize> ElementKernel<NC, NC> for MatrixKernel<'_> {
    #[inline(always)]
    fn apply(&mut self, e: usize, x: &[[f64; NC]; 8], y: &mut [[f64; NC]; 8]) {
        let dim = 8 * NC;
        let mat = &mut self.mat[..dim * dim];
        (self.elem_matrix)(e, mat);
        let x = x.as_flattened();
        for (r, row) in y.as_flattened_mut().iter_mut().zip(mat.chunks_exact(dim)) {
            let mut acc = 0.0;
            for (&a, &u) in row.iter().zip(x) {
                acc += a * u;
            }
            *r = acc;
        }
    }
}

impl<'a> LinearOp for DistOp<'a> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_owned(x, y);
    }
    fn len(&self) -> usize {
        self.map.n_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{stiffness_source, LevelBlocks};
    use la::krylov::cg;
    use mesh::extract::extract_mesh;
    use octree::balance::BalanceKind;
    use octree::parallel::DistOctree;
    use scomm::spmd;

    /// Build an adapted mesh on `nranks` ranks and solve −Δu = f with
    /// homogeneous Dirichlet BCs via matrix-free CG; verify against the
    /// manufactured solution u = sin(πx) sin(πy) sin(πz).
    fn poisson_mms(nranks: usize, level: u8, adapt: bool) -> f64 {
        let errs = spmd::run(nranks, move |c| {
            let mut t = DistOctree::new_uniform(c, level);
            if adapt {
                t.refine(|o| o.center_unit()[0] < 0.5);
                t.balance(BalanceKind::Full);
                t.partition();
            }
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let pi = std::f64::consts::PI;
            let exact = |p: [f64; 3]| (pi * p[0]).sin() * (pi * p[1]).sin() * (pi * p[2]).sin();
            let f = |p: [f64; 3]| 3.0 * pi * pi * exact(p);

            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let blocks = LevelBlocks::new(&m);
            let op = DistOp::new(
                &map,
                Box::new(stiffness_source(&m, &blocks, |_| 1.0)),
                Some(&bc),
            );
            // rhs = M f (consistent mass), assembled matrix-free.
            let mut rhs_local = vec![0.0; map.n_local()];
            let mut fe = vec![0.0; 8];
            let mut re = vec![0.0; 8];
            // f sampled at dof positions, expanded with ghosts.
            let mut fv = vec![0.0; m.n_owned];
            for d in 0..m.n_owned {
                fv[d] = f(m.dof_coords(d));
            }
            let fl = map.to_local(&fv);
            let blocks = LevelBlocks::new(&m);
            for e in 0..m.elements.len() {
                let mm = &blocks.of(&m, e).mass;
                map.gather_element(e, &fl, &mut fe);
                for i in 0..8 {
                    re[i] = (0..8).map(|j| mm[i][j] * fe[j]).sum();
                }
                map.scatter_element(e, &re, &mut rhs_local);
            }
            map.reverse_accumulate(&mut rhs_local);
            let mut rhs = rhs_local[..m.n_owned].to_vec();
            for (d, &isbc) in bc.iter().enumerate() {
                if isbc {
                    rhs[d] = 0.0;
                }
            }

            let mut u = vec![0.0; m.n_owned];
            let info = cg(&op, None::<&la::Csr>, &rhs, &mut u, 1e-10, 2000, |a, b| {
                map.dot(a, b)
            });
            assert!(info.converged, "{info:?}");

            // Max-norm error at owned dofs.
            let mut err = 0.0f64;
            for d in 0..m.n_owned {
                err = err.max((u[d] - exact(m.dof_coords(d))).abs());
            }
            c.allreduce_max(&[err])[0]
        });
        errs[0]
    }

    #[test]
    fn poisson_converges_second_order_uniform() {
        let e2 = poisson_mms(1, 2, false);
        let e3 = poisson_mms(1, 3, false);
        let rate = (e2 / e3).log2();
        assert!(rate > 1.6, "rate {rate} (e2={e2}, e3={e3})");
    }

    #[test]
    fn poisson_on_adapted_mesh_parallel_matches_serial() {
        let serial = poisson_mms(1, 2, true);
        let par = poisson_mms(3, 2, true);
        assert!(
            (serial - par).abs() < 1e-7,
            "serial {serial} vs parallel {par}"
        );
        // And the adapted solution is still accurate (coarse half of the
        // mesh is level 2, so expect the level-2 error scale).
        assert!(par < 0.08, "error {par}");
    }

    /// The dispatching sweep (AVX2 on an AVX2 host) against the plain
    /// build, with the element-matrix kernel on `NC` components.
    fn sweep_builds_agree<const NC: usize>(m: &Mesh, elem_matrix: &dyn Fn(usize, &mut [f64])) {
        let mut rng = scomm::rng::SplitMix64::new(NC as u64);
        let x: Vec<f64> = (0..NC * m.n_local()).map(|_| rng.unit() - 0.5).collect();
        let mut kernel = MatrixKernel {
            elem_matrix,
            mat: [0.0; 32 * 32],
        };
        let (mut dispatched, mut plain) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        sweep::<NC, NC>(m, &mut kernel, &x, &mut dispatched);
        sweep_plain::<NC, NC>(m, &mut kernel, &x, &mut plain);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dispatched), bits(&plain), "{NC} components");
    }

    #[test]
    fn sweep_builds_agree_bitwise() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
            assert!(m.n_hanging() > 0);
            let blocks = LevelBlocks::new(&m);
            let viscous = |e: usize, out: &mut [f64]| {
                for (row, k) in out.chunks_exact_mut(24).zip(&blocks.of(&m, e).viscous) {
                    row.copy_from_slice(k);
                }
            };
            sweep_builds_agree::<1>(&m, &stiffness_source(&m, &blocks, |e| 1.0 + (e % 5) as f64));
            sweep_builds_agree::<3>(&m, &viscous);
        });
    }

    #[test]
    fn operator_is_symmetric_across_hanging_nodes() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[2] > 0.5);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let blocks = LevelBlocks::new(&m);
            let op = DistOp::new(&map, Box::new(stiffness_source(&m, &blocks, |_| 1.0)), None);
            // <Au, v> == <u, Av> with deterministic pseudo-random vectors
            // (consistent across ranks via global dof ids).
            let mk = |salt: u64| -> Vec<f64> {
                (0..m.n_owned)
                    .map(|d| {
                        let g = m.global_offset + d as u64;
                        (((g + 1).wrapping_mul(2654435761 + salt)) % 10007) as f64 / 10007.0 - 0.5
                    })
                    .collect()
            };
            let u = mk(0);
            let v = mk(13);
            let mut au = vec![0.0; m.n_owned];
            let mut av = vec![0.0; m.n_owned];
            op.apply_owned(&u, &mut au);
            op.apply_owned(&v, &mut av);
            let lhs = map.dot(&au, &v);
            let rhs = map.dot(&u, &av);
            assert!(
                (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
                "asymmetric: {lhs} vs {rhs}"
            );
        });
    }
}
