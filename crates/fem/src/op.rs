//! Distributed matrix-free operator application and dof-map utilities.
//!
//! Krylov vectors hold *owned* dofs only (so inner products never double
//! count); operator application expands to the owned+ghost layout,
//! exchanges ghosts, runs the element kernels with element-level
//! constraint application (`CᵀKC`), and accumulates boundary
//! contributions back to their owners — the standard parallel FEM
//! operator pipeline the paper's MINRES relies on.

use std::cell::{Cell, RefCell};

use la::LinearOp;
use mesh::extract::{ExchangeBuffers, Mesh};
use scomm::Comm;

/// Clear and re-zero a reusable buffer without shrinking its allocation.
#[inline]
fn reset(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Reusable scratch for the distributed operator pipeline: owned and
/// owned+ghost vectors, element scratch, and ghost-exchange pack/unpack
/// buffers. Grow-only — after the first application every buffer is
/// recycled, so steady-state operator applies perform zero heap
/// allocations (verifiable through [`Workspace::capacity_bytes`]).
#[derive(Default)]
pub struct Workspace {
    /// BC-masked copy of the input (owned layout).
    xw: Vec<f64>,
    /// Owned+ghost expansion of the input.
    xl: Vec<f64>,
    /// Owned+ghost accumulation target.
    yl: Vec<f64>,
    /// Row-major element matrix scratch.
    mat: Vec<f64>,
    /// Element-local input/output vectors.
    ue: Vec<f64>,
    re: Vec<f64>,
    /// Ghost-exchange pack/unpack buffers.
    exch: ExchangeBuffers,
}

impl Workspace {
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Total heap capacity currently held, in bytes. The per-apply delta
    /// of this value is the operator's allocation count: zero once the
    /// buffers have reached steady state.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.xw.capacity()
            + self.xl.capacity()
            + self.yl.capacity()
            + self.mat.capacity()
            + self.ue.capacity()
            + self.re.capacity())
            * std::mem::size_of::<f64>()) as u64
            + self.exch.capacity_bytes()
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
    /// ghosts: [`DofMap::fill_local`] + [`DofMap::exchange`], for set-up
    /// code that does not keep a buffer.
    pub fn to_local(&self, owned: &[f64]) -> Vec<f64> {
        let mut v = Vec::new();
        self.fill_local(owned, &mut v);
        self.exchange(&mut v);
        v
    }

    /// Split-phase, allocation-free ghost fill: post one packed
    /// interleaved message per neighbor and return while the messages are
    /// in flight. Only the owned block of `v` is read at post time;
    /// [`DofMap::exchange_end`] fills the ghost block.
    pub fn exchange_begin(&self, v: &[f64], buf: &mut ExchangeBuffers) {
        self.mesh
            .exchange
            .exchange_begin_interleaved(self.comm, v, self.ncomp, buf);
    }

    /// Complete the ghost fill posted by [`DofMap::exchange_begin`].
    pub fn exchange_end(&self, v: &mut [f64], buf: &mut ExchangeBuffers) {
        self.mesh.exchange.exchange_end_interleaved(
            self.comm,
            v,
            self.mesh.n_owned,
            self.ncomp,
            buf,
        );
    }

    /// Split-phase, allocation-free reverse accumulation: post the ghost
    /// contributions back to their owners and zero the ghost block.
    pub fn reverse_accumulate_begin(&self, v: &mut [f64], buf: &mut ExchangeBuffers) {
        self.mesh.exchange.reverse_accumulate_begin_interleaved(
            self.comm,
            v,
            self.mesh.n_owned,
            self.ncomp,
            buf,
        );
    }

    /// Complete the accumulation posted by
    /// [`DofMap::reverse_accumulate_begin`].
    pub fn reverse_accumulate_end(&self, v: &mut [f64], buf: &mut ExchangeBuffers) {
        self.mesh.exchange.reverse_accumulate_end_interleaved(
            self.comm,
            v,
            self.mesh.n_owned,
            self.ncomp,
            buf,
        );
    }

    /// Reset `v` to owned+ghost length and copy the owned entries in,
    /// without exchanging — the split-phase prelude to
    /// [`DofMap::exchange_begin`].
    pub fn fill_local(&self, owned: &[f64], v: &mut Vec<f64>) {
        debug_assert_eq!(owned.len(), self.n_owned());
        reset(v, self.n_local());
        v[..owned.len()].copy_from_slice(owned);
    }

    /// Exchange ghost values of an owned+ghost vector with `ncomp`
    /// interleaved components: one packed round, posted and completed on
    /// a fresh stream-0 buffer set (see [`ExchangeBuffers::new`]).
    pub fn exchange(&self, v: &mut [f64]) {
        let mut buf = ExchangeBuffers::new();
        self.exchange_begin(v, &mut buf);
        self.exchange_end(v, &mut buf);
    }

    /// Reverse-accumulate ghost contributions to owners (assembly step):
    /// one packed round, posted and completed.
    pub fn reverse_accumulate(&self, v: &mut [f64]) {
        let mut buf = ExchangeBuffers::new();
        self.reverse_accumulate_begin(v, &mut buf);
        self.reverse_accumulate_end(v, &mut buf);
    }

    /// Gather the element-local vector (length `8·ncomp`) of element `e`
    /// from an owned+ghost vector, applying hanging-node constraints
    /// ([`Mesh::gather_element`]).
    #[inline]
    pub fn gather_element(&self, e: usize, v: &[f64], out: &mut [f64]) {
        self.mesh.gather_element(e, self.ncomp, v, out);
    }

    /// Scatter element contributions back with the constraint transpose
    /// ([`Mesh::scatter_element`]).
    #[inline]
    pub fn scatter_element(&self, e: usize, contrib: &[f64], v: &mut [f64]) {
        self.mesh.scatter_element(e, self.ncomp, contrib, v);
    }
}

/// A distributed symmetric operator defined by per-element matrices, with
/// optional symmetric Dirichlet elimination. Carries its own reusable
/// [`Workspace`], so repeated applications are allocation-free.
///
/// An application posts the split-phase ghost exchange, completes it,
/// sweeps every local element in element order and reverse-accumulates.
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
    /// Cumulative workspace growth, in bytes (see [`DistOp::alloc_bytes`]).
    grown: Cell<u64>,
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
            ws: RefCell::new(Workspace::new()),
            grown: Cell::new(0),
        }
    }

    /// The dof map this operator acts on.
    pub fn map(&self) -> &DofMap<'a> {
        self.map
    }

    /// Cumulative bytes of workspace growth over all applications so
    /// far. The delta across a window of applies is the heap-allocation
    /// volume of that window: zero once buffers reached steady state.
    pub fn alloc_bytes(&self) -> u64 {
        self.grown.get()
    }

    /// Apply `y = A x` on owned vectors.
    pub fn apply_owned(&self, x: &[f64], y: &mut [f64]) {
        let map = self.map;
        let n_owned = map.n_owned();
        debug_assert_eq!(x.len(), n_owned);
        debug_assert_eq!(y.len(), n_owned);
        let nc = map.ncomp;
        let dim = 8 * nc;
        let mut ws_ref = self.ws.borrow_mut();
        let ws = &mut *ws_ref;
        let cap0 = ws.capacity_bytes();

        // Zero BC entries of the input (symmetric elimination), expand.
        ws.xw.clear();
        ws.xw.extend_from_slice(x);
        if let Some(mask) = self.bc_mask {
            for (v, &m) in ws.xw.iter_mut().zip(mask) {
                if m {
                    *v = 0.0;
                }
            }
        }
        reset(&mut ws.xl, map.n_local());
        ws.xl[..n_owned].copy_from_slice(&ws.xw);

        reset(&mut ws.yl, map.n_local());
        reset(&mut ws.mat, dim * dim);
        reset(&mut ws.ue, dim);
        reset(&mut ws.re, dim);
        map.exchange_begin(&ws.xl, &mut ws.exch);
        map.exchange_end(&mut ws.xl, &mut ws.exch);
        self.sweep(ws);
        map.reverse_accumulate_begin(&mut ws.yl, &mut ws.exch);
        map.reverse_accumulate_end(&mut ws.yl, &mut ws.exch);
        y.copy_from_slice(&ws.yl[..n_owned]);
        if let Some(mask) = self.bc_mask {
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    y[i] = x[i];
                }
            }
        }
        self.grown
            .set(self.grown.get() + (ws.capacity_bytes() - cap0));
    }

    /// Sweep every local element: form its element matrix, gather the
    /// element vector from `ws.xl`, multiply, scatter into `ws.yl`.
    fn sweep(&self, ws: &mut Workspace) {
        let map = self.map;
        let dim = 8 * map.ncomp;
        for e in 0..map.mesh.elements.len() {
            (self.elem_matrix)(e, &mut ws.mat);
            map.gather_element(e, &ws.xl, &mut ws.ue);
            if dim == 8 {
                // Scalar fast path: fixed-size rows, fully unrolled dots
                // with the same left-to-right accumulation order as the
                // generic loop below.
                let ue: &[f64; 8] = ws.ue[..8].try_into().unwrap();
                for (r, row) in ws.re.iter_mut().zip(ws.mat.chunks_exact(8)) {
                    let row: &[f64; 8] = row.try_into().unwrap();
                    let mut acc = 0.0;
                    for k in 0..8 {
                        acc += row[k] * ue[k];
                    }
                    *r = acc;
                }
            } else {
                for (r, row) in ws.re.iter_mut().zip(ws.mat.chunks_exact(dim)) {
                    let mut acc = 0.0;
                    for (&a, &u) in row.iter().zip(ws.ue.iter()) {
                        acc += a * u;
                    }
                    *r = acc;
                }
            }
            map.scatter_element(e, &ws.re, &mut ws.yl);
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
            let op = DistOp::new(&map, Box::new(stiffness_source(&m, |_| 1.0)), Some(&bc));
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

    #[test]
    fn steady_state_apply_is_allocation_free() {
        // After the first application warms the workspace, subsequent
        // applies must not grow any buffer.
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let op = DistOp::new(&map, Box::new(stiffness_source(&m, |_| 1.0)), Some(&bc));
            let x: Vec<f64> = (0..m.n_owned).map(|d| (d % 7) as f64 - 3.0).collect();
            let mut y = vec![0.0; m.n_owned];
            op.apply_owned(&x, &mut y);
            assert!(op.alloc_bytes() > 0, "first apply must warm the workspace");
            let warm = op.alloc_bytes();
            for _ in 0..5 {
                op.apply_owned(&x, &mut y);
            }
            assert_eq!(
                op.alloc_bytes(),
                warm,
                "steady-state applies must not allocate"
            );
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
            let op = DistOp::new(&map, Box::new(stiffness_source(&m, |_| 1.0)), None);
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
