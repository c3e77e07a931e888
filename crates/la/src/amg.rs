//! Smoothed-aggregation algebraic multigrid — the BoomerAMG substitute.
//!
//! The paper preconditions each variable-viscosity Poisson block of the
//! Stokes operator with one V-cycle of BoomerAMG (hypre); AMG is chosen
//! over geometric multigrid precisely because it mitigates heterogeneity
//! in mesh size and viscosity (Section III). This module provides the
//! same contract: [`Amg::new`] is the *setup phase* (coarse hierarchy +
//! transfer operators), [`Amg::vcycle`] applies one V-cycle, and the
//! operator is SPD (a forward Gauss–Seidel pass before the coarse
//! correction and its adjoint, a backward pass, after it), making it
//! admissible inside MINRES and CG.
//!
//! Algorithm: Vaněk–Mandel–Brezina smoothed aggregation with the constant
//! near-nullspace — strength graph by `|a_ij| ≥ θ √(a_ii a_jj)` (θ is
//! [`THETA`]), greedy aggregation, tentative piecewise-constant
//! prolongator, one step of weighted-Jacobi prolongator smoothing with
//! the spectral radius estimated by power iteration. Rows with no
//! off-diagonal entry (Dirichlet identity rows) join no aggregate: the
//! smoother solves them exactly and they never reach a coarse level. If
//! aggregation stalls above `max_coarse` rows the coarsest level is
//! solved by smoother sweeps, never by a dense factorization.
//!
//! **Interleaved components.** An [`Amg<C>`] applies `C` scalar
//! hierarchies to the `C` interleaved components of one vector (the
//! velocity block of the Stokes preconditioner, `[ux uy uz]` per node).
//! [`Amg::fuse`] stores their finest operators once, on the union of
//! their sparsity patterns with every lane's value per entry, so one
//! Gauss–Seidel pass advances all `C` dependency chains together. Each
//! lane's arithmetic is that of its own scalar V-cycle, operation for
//! operation, so the result is bitwise the same; restriction,
//! prolongation and the coarser levels stay per hierarchy. The smoother
//! and residual are written once, generic over `C`; the scalar [`Amg`]
//! is the instance `C = 1`.
//!
//! **Communication.** This hierarchy is deliberately *rank-local*
//! (block-Jacobi across ranks): [`Amg::new`] takes the owned diagonal
//! block and every smoother sweep, restriction, and coarse solve touches
//! only local data — there are no ghost exchanges to overlap, split-phase
//! or otherwise. The split-phase machinery (`fem::DofMap::exchange_begin`
//! / `exchange_end`) therefore lives in the distributed operator
//! applications that wrap these V-cycles (`fem::op::DistOp`,
//! `stokes`), not here; if a distributed smoother is ever added, its
//! halo exchange should adopt the same begin/end pattern. See DESIGN.md
//! §8 for the deviation note versus the paper's distributed BoomerAMG.

use std::cell::RefCell;

use crate::csr::Csr;
use crate::dense::Cholesky;
use crate::krylov::LinearOp;

/// Setup options.
#[derive(Debug, Clone, Copy)]
pub struct AmgOptions {
    /// Stop coarsening below this size and solve directly.
    pub max_coarse: usize,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions { max_coarse: 64 }
    }
}

/// Hard cap on hierarchy depth. Not an option: no caller's hierarchy
/// comes near it.
const MAX_LEVELS: usize = 20;

/// Symmetric Gauss–Seidel sweeps that solve a coarsest level which has
/// no dense factor.
const COARSE_SWEEPS: usize = 20;

/// One stored entry of a [`LevelOp`]: its column and every lane's value.
#[derive(Clone, Copy)]
struct Entry<const C: usize> {
    val: [f64; C],
    col: u32,
    /// Bit `c` is set when lane `c`'s matrix stores the entry.
    present: u8,
}

impl<const C: usize> Entry<C> {
    /// Lane `c`'s term `a_ij · x_j`. A lane that does not store the entry
    /// gets `+0.0`: an exact no-op for `σ −= t` and for a sum that starts
    /// at `+0.0`, whereas `0.0 · x_j` is `−0.0` for negative `x_j` and
    /// turns a `−0.0` partial result into `+0.0`.
    #[inline(always)]
    fn term(&self, c: usize, x: f64) -> f64 {
        let t = self.val[c] * x;
        if C == 1 || self.present >> c & 1 != 0 {
            t
        } else {
            0.0
        }
    }
}

/// One level's operator in the form the smoother reads: the `C` lane
/// matrices, all of order `n`, on the union of their sparsity patterns
/// (columns ascending within a row).
struct LevelOp<const C: usize> {
    row_ptr: Vec<usize>,
    entries: Vec<Entry<C>>,
    /// Per row, where the entries left and right of the diagonal end and
    /// start: the smoother skips the diagonal slot between them.
    around_diag: Vec<(usize, usize)>,
    /// Per row, each lane's diagonal (`0.0` where not stored).
    diag: Vec<[f64; C]>,
}

impl LevelOp<1> {
    fn from_csr(a: Csr, diag: Vec<f64>) -> Self {
        assert!(
            u32::try_from(a.ncols).is_ok(),
            "{} columns exceed the u32 column index",
            a.ncols
        );
        let entries = a
            .col_idx
            .iter()
            .zip(&a.values)
            .map(|(&col, &v)| Entry {
                val: [v],
                col: col as u32,
                present: 1,
            })
            .collect();
        LevelOp::new(a.row_ptr, entries, diag.into_iter().map(|d| [d]).collect())
    }
}

impl<const C: usize> LevelOp<C> {
    fn new(row_ptr: Vec<usize>, entries: Vec<Entry<C>>, diag: Vec<[f64; C]>) -> Self {
        let around_diag = (0..diag.len())
            .map(|i| {
                let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
                let mid = lo + entries[lo..hi].partition_point(|e| (e.col as usize) < i);
                let on_diag = mid < hi && entries[mid].col as usize == i;
                (mid, mid + usize::from(on_diag))
            })
            .collect();
        LevelOp {
            row_ptr,
            entries,
            around_diag,
            diag,
        }
    }

    /// The lane matrices `lanes[c]` (scalar operators of one order, the
    /// same one in several lanes if they share it) on one pattern.
    fn union(lanes: [&LevelOp<1>; C]) -> Self {
        const { assert!(C >= 1 && C <= 8, "one presence bit per lane in a u8") };
        let n = lanes[0].n();
        assert!(
            lanes.iter().all(|l| l.n() == n),
            "lane operators of one order"
        );
        // Row `i` of the union, entry by entry in column order.
        let merge_row = |i: usize, emit: &mut dyn FnMut(Entry<C>)| {
            let mut rows = lanes.map(|l| &l.entries[l.row_ptr[i]..l.row_ptr[i + 1]]);
            while let Some(col) = rows.iter().filter_map(|r| r.first()).map(|e| e.col).min() {
                let mut entry = Entry {
                    val: [0.0; C],
                    col,
                    present: 0,
                };
                for (c, row) in rows.iter_mut().enumerate() {
                    if let Some((first, rest)) = row.split_first().filter(|(f, _)| f.col == col) {
                        entry.val[c] = first.val[0];
                        entry.present |= 1 << c;
                        *row = rest;
                    }
                }
                emit(entry);
            }
        };
        // Count first, so the entries are allocated once at their size.
        let mut nnz = 0;
        for i in 0..n {
            merge_row(i, &mut |_| nnz += 1);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut entries = Vec::with_capacity(nnz);
        for i in 0..n {
            merge_row(i, &mut |e| entries.push(e));
            row_ptr.push(entries.len());
        }
        let diag = (0..n)
            .map(|i| std::array::from_fn(|c| lanes[c].diag[i][0]))
            .collect();
        LevelOp::new(row_ptr, entries, diag)
    }

    fn n(&self) -> usize {
        self.diag.len()
    }

    /// One Gauss–Seidel pass over `rows`, in their order, of every lane
    /// of the interleaved `x` (length `C·n`). The backward pass is the
    /// adjoint of the forward one.
    fn gs(&self, b: &[f64], x: &mut [f64], rows: impl Iterator<Item = usize>) {
        let (b, x) = (lanes::<C>(b), lanes_mut::<C>(x));
        for i in rows {
            self.relax(i, b, x);
        }
    }

    /// One symmetric Gauss–Seidel sweep: forward, then backward.
    fn sgs(&self, b: &[f64], x: &mut [f64]) {
        self.gs(b, x, 0..self.n());
        self.gs(b, x, (0..self.n()).rev());
    }

    /// Solve row `i` of every lane for `x_i`, the other unknowns fixed.
    #[inline(always)]
    fn relax(&self, i: usize, b: &[[f64; C]], x: &mut [[f64; C]]) {
        let (lower_end, upper_start) = self.around_diag[i];
        let mut sigma = b[i];
        for part in [
            &self.entries[self.row_ptr[i]..lower_end],
            &self.entries[upper_start..self.row_ptr[i + 1]],
        ] {
            for e in part {
                let xj = x[e.col as usize];
                for c in 0..C {
                    sigma[c] -= e.term(c, xj[c]);
                }
            }
        }
        let d = self.diag[i];
        x[i] = std::array::from_fn(|c| sigma[c] / d[c]);
    }

    /// `r = b − A x`, every lane.
    fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        let (b, x, r) = (lanes::<C>(b), lanes::<C>(x), lanes_mut::<C>(r));
        for (i, ri) in r.iter_mut().enumerate() {
            let mut acc = [0.0; C];
            for e in &self.entries[self.row_ptr[i]..self.row_ptr[i + 1]] {
                let xj = x[e.col as usize];
                for c in 0..C {
                    acc[c] += e.term(c, xj[c]);
                }
            }
            *ri = std::array::from_fn(|c| b[i][c] - acc[c]);
        }
    }
}

/// An interleaved vector as one `[f64; C]` per row.
fn lanes<const C: usize>(v: &[f64]) -> &[[f64; C]] {
    let (rows, rest) = v.as_chunks();
    assert!(rest.is_empty(), "a length that is a multiple of {C}");
    rows
}

fn lanes_mut<const C: usize>(v: &mut [f64]) -> &mut [[f64; C]] {
    let (rows, rest) = v.as_chunks_mut();
    assert!(rest.is_empty(), "a length that is a multiple of {C}");
    rows
}

/// `out = R r_c`: restriction of lane `c` of the interleaved `r`.
fn restrict_lane<const C: usize>(rmat: &Csr, r: &[f64], c: usize, out: &mut [f64]) {
    let r = lanes::<C>(r);
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in rmat.row_ptr[i]..rmat.row_ptr[i + 1] {
            acc += rmat.values[k] * r[rmat.col_idx[k]][c];
        }
        *o = acc;
    }
}

/// `x_c += P e`: prolongation of `e` added to lane `c` of the
/// interleaved `x`.
fn prolong_add_lane<const C: usize>(p: &Csr, e: &[f64], c: usize, x: &mut [f64]) {
    for (i, xi) in lanes_mut::<C>(x).iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in p.row_ptr[i]..p.row_ptr[i + 1] {
            acc += p.values[k] * e[p.col_idx[k]];
        }
        xi[c] += acc;
    }
}

/// How a coarsest level is solved.
enum Direct {
    Cholesky(Cholesky),
    /// [`COARSE_SWEEPS`] smoother sweeps from zero, for a coarsest level
    /// that is singular or still larger than `max_coarse` (its vanishing
    /// diagonal entries are replaced by `1.0`).
    Sweeps,
}

/// What follows one level for one scalar hierarchy.
enum Below {
    /// Restrict, cycle on the next coarser level, prolong.
    Coarser { r: Csr, p: Csr, next: Box<Level<1>> },
    /// This is the coarsest level: solve it directly.
    Solve(Direct),
}

/// One level of `C` lanes: its operator and, per distinct hierarchy,
/// what follows it.
struct Level<const C: usize> {
    op: LevelOp<C>,
    below: Vec<Below>,
    /// Lane `c` continues in `below[lanes[c]]`.
    lanes: [usize; C],
    /// Whether some lane coarsens from here (and is smoothed here).
    coarsens: bool,
    /// Interior mutability because `LinearOp::apply` takes `&self`.
    /// V-cycles never nest, and each level is visited by one cycle at a
    /// time, so the borrow is always uncontended.
    scratch: RefCell<Scratch>,
}

/// Per-level V-cycle scratch, sized at setup so steady-state V-cycles are
/// allocation-free. Every buffer is fully overwritten before it is read,
/// so reuse is bitwise-transparent.
struct Scratch {
    /// Interleaved residual, `C·n` (empty if no lane coarsens).
    r: Vec<f64>,
    /// Restricted residual and coarse correction, sized for the largest
    /// next level.
    rc: Vec<f64>,
    ec: Vec<f64>,
    /// One lane, for the dense direct solves.
    lane: Vec<f64>,
    /// Every lane swept from zero, for [`Direct::Sweeps`].
    swept: Vec<f64>,
}

impl<const C: usize> Level<C> {
    fn new(op: LevelOp<C>, below: Vec<Below>, lanes: [usize; C]) -> Self {
        let n = op.n();
        let coarser = || {
            below.iter().filter_map(|b| match b {
                Below::Coarser { r, .. } => Some(r.nrows),
                Below::Solve(_) => None,
            })
        };
        let coarsens = coarser().next().is_some();
        let nc = coarser().max().unwrap_or(0);
        let solves =
            |f: fn(&Direct) -> bool| below.iter().any(|b| matches!(b, Below::Solve(d) if f(d)));
        let dense = solves(|d| !matches!(d, Direct::Sweeps));
        let sweeps = solves(|d| matches!(d, Direct::Sweeps));
        let scratch = Scratch {
            r: vec![0.0; if coarsens { C * n } else { 0 }],
            rc: vec![0.0; nc],
            ec: vec![0.0; nc],
            lane: vec![0.0; if dense { n } else { 0 }],
            swept: vec![0.0; if sweeps { C * n } else { 0 }],
        };
        Level {
            op,
            below,
            lanes,
            coarsens,
            scratch: RefCell::new(scratch),
        }
    }

    /// One V-cycle from the initial guess in `x`, on every lane.
    fn cycle(&self, b: &[f64], x: &mut [f64]) {
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        if self.coarsens {
            // Forward before the coarse correction, backward after: the
            // post-smoother is the pre-smoother's adjoint, so the cycle
            // is SPD with one pass over the operator on each side.
            self.op.gs(b, x, 0..self.op.n());
            self.op.residual(b, x, &mut s.r);
            for (c, &k) in self.lanes.iter().enumerate() {
                if let Below::Coarser { r, p, next } = &self.below[k] {
                    let (rc, ec) = (&mut s.rc[..r.nrows], &mut s.ec[..r.nrows]);
                    restrict_lane::<C>(r, &s.r, c, rc);
                    ec.fill(0.0);
                    next.cycle(rc, ec);
                    prolong_add_lane::<C>(p, ec, c, x);
                }
            }
            self.op.gs(b, x, (0..self.op.n()).rev());
        }
        if !s.swept.is_empty() {
            s.swept.fill(0.0);
            for _ in 0..COARSE_SWEEPS {
                self.op.sgs(b, &mut s.swept);
            }
        }
        for (c, &k) in self.lanes.iter().enumerate() {
            let Below::Solve(direct) = &self.below[k] else {
                continue;
            };
            let x = lanes_mut::<C>(x);
            let Direct::Cholesky(ch) = direct else {
                for (xi, si) in x.iter_mut().zip(lanes::<C>(&s.swept)) {
                    xi[c] = si[c];
                }
                continue;
            };
            for (li, bi) in s.lane.iter_mut().zip(lanes::<C>(b)) {
                *li = bi[c];
            }
            ch.solve(&mut s.lane);
            for (xi, li) in x.iter_mut().zip(&s.lane) {
                xi[c] = *li;
            }
        }
    }
}

/// `C` smoothed-aggregation hierarchies, one per interleaved component
/// of the vectors they precondition (see the module documentation). The
/// plain `Amg` is one hierarchy for a scalar vector.
pub struct Amg<const C: usize = 1> {
    top: Level<C>,
}

/// Strength-of-connection threshold θ: `j` is a strong neighbor of `i`
/// when `|a_ij| ≥ θ √(a_ii a_jj)`.
///
/// Chosen for the matrix this module preconditions, the assembled
/// trilinear (27-point) Poisson stencil: relative to the diagonal its
/// axis neighbours are 0 and its edge and corner neighbours 1/16 and
/// 1/32, so 0.02 makes all twenty of those strong on a uniform patch (the
/// classical 0.08, right for a 7-point stencil's 1/6, finds *nothing*
/// strong there and the hierarchy does not coarsen: operator complexity
/// 7.5). θ = 0 measured the same within noise on both `conv_cube`
/// workloads (121 / 217 MINRES iterations at complexity 1.04, against
/// 122 / 217 at 1.07) and on the contrast tests, but it would call the
/// rounding residue left in the axis entries strong and aggregate across
/// any coefficient jump; 0.02 still drops the couplings from an interface
/// node into the weak side of a jump η₂/η₁ ≳ 20 (edge neighbours:
/// 1/16 · √(2η₁/(η₁+η₂)) < 0.02). Not an option: no caller has a second
/// matrix family. EXPERIMENTS.md has the sweep.
const THETA: f64 = 0.02;

/// Marks a row that belongs to no aggregate.
const UNAGG: usize = usize::MAX;

/// Greedy aggregation on the strength graph. Returns (aggregate id per
/// node, number of aggregates). A row with no non-zero off-diagonal gets
/// no aggregate ([`UNAGG`]): nothing couples it to a coarse unknown.
fn aggregate(a: &Csr) -> (Vec<usize>, usize) {
    let n = a.nrows;
    let diag = a.diagonal();
    // Strong neighbor lists.
    let mut strong: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut isolated = vec![true; n];
    for i in 0..n {
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let j = a.col_idx[k];
            if j != i && a.values[k] != 0.0 {
                isolated[i] = false;
                let bound = THETA * (diag[i].abs() * diag[j].abs()).sqrt();
                if a.values[k].abs() >= bound {
                    strong[i].push(j);
                }
            }
        }
    }
    let mut agg = vec![UNAGG; n];
    let mut n_agg = 0;
    // Pass 1: roots whose entire strong neighborhood is unaggregated.
    for i in 0..n {
        if agg[i] != UNAGG || isolated[i] {
            continue;
        }
        if strong[i].iter().all(|&j| agg[j] == UNAGG) {
            agg[i] = n_agg;
            for &j in &strong[i] {
                agg[j] = n_agg;
            }
            n_agg += 1;
        }
    }
    // Pass 2: attach stragglers to a neighboring aggregate.
    for i in 0..n {
        if agg[i] == UNAGG {
            if let Some(&j) = strong[i].iter().find(|&&j| agg[j] != UNAGG) {
                agg[i] = agg[j];
            }
        }
    }
    // Pass 3: leftovers that couple to something become singletons.
    for i in 0..n {
        if agg[i] == UNAGG && !isolated[i] {
            agg[i] = n_agg;
            n_agg += 1;
        }
    }
    (agg, n_agg)
}

/// Estimate ρ(D⁻¹A) by power iteration (deterministic start).
fn spectral_radius_dinv_a(a: &Csr, diag: &[f64], iters: usize) -> f64 {
    let n = a.nrows;
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let mut lambda = 1.0f64;
    for _ in 0..iters {
        a.matvec(&x, &mut y);
        for i in 0..n {
            y[i] /= diag[i].max(1e-300);
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 1.0;
        }
        lambda = norm / x.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for i in 0..n {
            x[i] = y[i] / norm;
        }
    }
    lambda.max(1e-8)
}

/// Dense Cholesky factorization of `a`; `None` if a pivot is not
/// positive. The Galerkin coarse operator `Pᵀ A P` of an SPD input is SPD
/// unless singular, and a singular one is solved by sweeps.
fn dense_factor(a: &Csr) -> Option<Direct> {
    let n = a.nrows;
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            dense[i * n + a.col_idx[k]] = a.values[k];
        }
    }
    Cholesky::factor(&dense, n).map(Direct::Cholesky)
}

impl Amg {
    /// Setup phase: build the hierarchy for SPD `a`.
    pub fn new(a: Csr, options: AmgOptions) -> Amg {
        // (operator, prolongator from the next level, restriction to it)
        let mut levels: Vec<(LevelOp<1>, Csr, Csr)> = Vec::new();
        let mut current = a;
        while current.nrows > options.max_coarse && levels.len() < MAX_LEVELS {
            let diag = current.diagonal();
            let (agg, n_agg) = aggregate(&current);
            if n_agg == 0 || n_agg >= current.nrows {
                break; // nothing to coarsen, or no progress; stop here
            }
            // Tentative prolongator: piecewise constant over aggregates,
            // an empty row for a node in none.
            let triplets: Vec<(usize, usize, f64)> = agg
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g != UNAGG)
                .map(|(i, &g)| (i, g, 1.0))
                .collect();
            let p0 = Csr::from_triplets(current.nrows, n_agg, &triplets);
            // Smooth: P = (I − ω D⁻¹ A) P0 with ω = 4/(3ρ).
            let rho = spectral_radius_dinv_a(&current, &diag, 12);
            let omega = 4.0 / (3.0 * rho);
            let ap0 = current.matmul(&p0);
            // P = P0 − ω D⁻¹ (A P0): subtract scaled rows.
            let mut p_trip: Vec<(usize, usize, f64)> = Vec::with_capacity(ap0.nnz() + p0.nnz());
            for i in 0..p0.nrows {
                for k in p0.row_ptr[i]..p0.row_ptr[i + 1] {
                    p_trip.push((i, p0.col_idx[k], p0.values[k]));
                }
                let scale = omega / diag[i].max(1e-300);
                for k in ap0.row_ptr[i]..ap0.row_ptr[i + 1] {
                    p_trip.push((i, ap0.col_idx[k], -scale * ap0.values[k]));
                }
            }
            let p = Csr::from_triplets(current.nrows, n_agg, &p_trip);
            let r = p.transpose();
            let coarse = r.matmul(&current.matmul(&p));
            let fine = std::mem::replace(&mut current, coarse);
            levels.push((LevelOp::from_csr(fine, diag), p, r));
        }
        // Direct coarse solve, degrading to smoother sweeps for singular
        // coarse operators (e.g. pure-Neumann problems) and for a level
        // that stalled above `max_coarse` rows, where a dense factor
        // would cost O(n²) per V-cycle.
        let mut diag = current.diagonal();
        let factor = if current.nrows <= options.max_coarse {
            dense_factor(&current)
        } else {
            None
        };
        let direct = factor.unwrap_or_else(|| {
            for d in &mut diag {
                if d.abs() < 1e-300 {
                    *d = 1.0;
                }
            }
            Direct::Sweeps
        });
        let mut top = Level::new(
            LevelOp::from_csr(current, diag),
            vec![Below::Solve(direct)],
            [0],
        );
        for (op, p, r) in levels.into_iter().rev() {
            let next = Box::new(top);
            top = Level::new(op, vec![Below::Coarser { r, p, next }], [0]);
        }
        Amg { top }
    }

    /// The levels, finest first.
    fn levels(&self) -> impl Iterator<Item = &Level<1>> {
        std::iter::successors(Some(&self.top), |l| match &l.below[0] {
            Below::Coarser { next, .. } => Some(&**next),
            Below::Solve(_) => None,
        })
    }

    /// Number of levels including the coarse grid.
    pub fn num_levels(&self) -> usize {
        self.levels().count()
    }

    /// `(rows, non-zeros)` of the operator on every level, finest first.
    pub fn level_sizes(&self) -> Vec<(usize, usize)> {
        self.levels()
            .map(|l| (l.op.n(), l.op.entries.len()))
            .collect()
    }

    /// Operator complexity: Σ nnz(Aₗ) / nnz(A₀) — the standard AMG memory
    /// metric (cf. De Sterck–Yang–Heys, the paper's reference [14]).
    pub fn operator_complexity(&self) -> f64 {
        let sizes = self.level_sizes();
        let total: usize = sizes.iter().map(|&(_, nnz)| nnz).sum();
        total as f64 / sizes[0].1 as f64
    }
}

impl<const C: usize> Amg<C> {
    /// Lane `c` of the vectors this preconditions is preconditioned by
    /// `hierarchies[lanes[c]]`, V-cycle for V-cycle bitwise as that
    /// hierarchy alone would. Their finest operators are stored once (see
    /// the module documentation); every coarser level is kept as built.
    pub fn fuse(hierarchies: Vec<Amg>, lanes: [usize; C]) -> Amg<C> {
        assert!(
            lanes.iter().all(|&k| k < hierarchies.len()),
            "lanes {lanes:?} index {} hierarchies",
            hierarchies.len()
        );
        let (ops, below): (Vec<LevelOp<1>>, Vec<Below>) = hierarchies
            .into_iter()
            .map(|h| {
                let Level { op, mut below, .. } = h.top;
                (op, below.pop().expect("a scalar level has one successor"))
            })
            .unzip();
        let op = LevelOp::union(lanes.map(|k| &ops[k]));
        drop(ops);
        Amg {
            top: Level::new(op, below, lanes),
        }
    }

    /// Apply one V-cycle to `b` with zero initial guess: `x = B b` where
    /// `B ≈ A⁻¹` is SPD, on each of the `C` interleaved lanes.
    /// Allocation-free: all per-level scratch was sized during setup.
    pub fn vcycle(&self, b: &[f64], x: &mut [f64]) {
        x.fill(0.0);
        self.top.cycle(b, x);
    }
}

impl<const C: usize> LinearOp for Amg<C> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.vcycle(x, y);
    }
    fn len(&self) -> usize {
        C * self.top.op.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{cg, euclidean_dot};
    use scomm::rng::SplitMix64;

    /// 3D 7-point Poisson with optional variable coefficient field.
    fn poisson3d(n: usize, kappa: impl Fn(usize, usize, usize) -> f64) -> Csr {
        let id = |i: usize, j: usize, k: usize| i + n * (j + n * k);
        let mut t = Vec::new();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let c = id(i, j, k);
                    let mut diag = 0.0;
                    let mut push = |ii: i64, jj: i64, kk: i64| {
                        if ii < 0
                            || jj < 0
                            || kk < 0
                            || ii >= n as i64
                            || jj >= n as i64
                            || kk >= n as i64
                        {
                            // Dirichlet boundary: drop the neighbor but
                            // keep the diagonal contribution.
                            diag += kappa(i, j, k);
                            return;
                        }
                        let o = id(ii as usize, jj as usize, kk as usize);
                        // Harmonic-mean-ish symmetric coefficient.
                        let kc =
                            0.5 * (kappa(i, j, k) + kappa(ii as usize, jj as usize, kk as usize));
                        t.push((c, o, -kc));
                        diag += kc;
                    };
                    push(i as i64 - 1, j as i64, k as i64);
                    push(i as i64 + 1, j as i64, k as i64);
                    push(i as i64, j as i64 - 1, k as i64);
                    push(i as i64, j as i64 + 1, k as i64);
                    push(i as i64, j as i64, k as i64 - 1);
                    push(i as i64, j as i64, k as i64 + 1);
                    t.push((c, c, diag));
                }
            }
        }
        Csr::from_triplets(n * n * n, n * n * n, &t)
    }

    #[test]
    fn vcycle_reduces_error() {
        let a = poisson3d(8, |_, _, _| 1.0);
        let amg = Amg::new(a.clone(), AmgOptions::default());
        assert!(amg.num_levels() >= 2);
        let n = a.nrows;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        amg.vcycle(&b, &mut x);
        let mut r = vec![0.0; n];
        a.matvec(&x, &mut r);
        let res: f64 = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi).powi(2))
            .sum::<f64>()
            .sqrt();
        let b0: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            res < 0.5 * b0,
            "one V-cycle should cut the residual: {res} vs {b0}"
        );
    }

    #[test]
    fn pcg_with_amg_is_mesh_independent() {
        // Iteration counts must stay nearly flat as n grows — the paper's
        // core algorithmic-scalability property (its Fig. 2 analogue at
        // unit viscosity).
        let mut iters = Vec::new();
        for n in [6, 10, 14] {
            let a = poisson3d(n, |_, _, _| 1.0);
            let amg = Amg::new(a.clone(), AmgOptions::default());
            let b = vec![1.0; a.nrows];
            let mut x = vec![0.0; a.nrows];
            let info = cg(&a, Some(&amg), &b, &mut x, 1e-8, 200, euclidean_dot);
            assert!(info.converged);
            iters.push(info.iterations);
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap();
        assert!(
            max <= min + 8,
            "iterations should be nearly size-independent: {iters:?}"
        );
        assert!(max < 40, "AMG-PCG should converge fast: {iters:?}");
    }

    #[test]
    fn handles_severe_coefficient_jumps() {
        // 10^5 viscosity contrast, the regime the paper stresses.
        let a = poisson3d(10, |i, _, _| if i < 5 { 1.0 } else { 1e5 });
        let amg = Amg::new(a.clone(), AmgOptions::default());
        let b = vec![1.0; a.nrows];
        let mut x = vec![0.0; a.nrows];
        let info = cg(&a, Some(&amg), &b, &mut x, 1e-8, 300, euclidean_dot);
        assert!(info.converged, "{info:?}");
        assert!(info.iterations < 60, "{} iterations", info.iterations);
    }

    #[test]
    fn coarse_only_hierarchy_solves_directly() {
        let a = poisson3d(3, |_, _, _| 1.0); // 27 unknowns < max_coarse
        let amg = Amg::new(a.clone(), AmgOptions::default());
        assert_eq!(amg.num_levels(), 1);
        let b = vec![1.0; 27];
        let mut x = vec![0.0; 27];
        amg.vcycle(&b, &mut x);
        let mut r = vec![0.0; 27];
        a.matvec(&x, &mut r);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10, "direct solve must be exact");
        }
    }

    #[test]
    fn operator_complexity_is_bounded() {
        // 7-point stencil only (off-diagonal/diagonal = 1/6, everything
        // strong): this says nothing about the 27-point trilinear stencil
        // the Stokes preconditioner assembles, whose axis neighbours are 0
        // and edge/corner neighbours 1/16 and 1/32 of the diagonal. That
        // one is pinned by `check/tests/ablations.rs`.
        let a = poisson3d(12, |_, _, _| 1.0);
        let amg = Amg::new(a, AmgOptions::default());
        let oc = amg.operator_complexity();
        assert!((1.0..1.5).contains(&oc), "operator complexity {oc}");
    }

    #[test]
    fn amg_preconditioner_is_symmetric() {
        // <B u, v> == <u, B v> for the V-cycle operator (required by
        // MINRES/CG). Check on random-ish vectors.
        let a = poisson3d(6, |i, j, _| 1.0 + (i * j) as f64);
        let n = a.nrows;
        let amg = Amg::new(a, AmgOptions::default());
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 40503) % 997) as f64 / 997.0 - 0.3)
            .collect();
        let mut bu = vec![0.0; n];
        let mut bv = vec![0.0; n];
        amg.vcycle(&u, &mut bu);
        amg.vcycle(&v, &mut bv);
        let lhs = euclidean_dot(&bu, &v);
        let rhs = euclidean_dot(&u, &bv);
        assert!(
            (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
            "V-cycle not symmetric: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn fused_vcycle_is_symmetric_positive_definite() {
        // MINRES needs an SPD preconditioner: the backward post-smoothing
        // pass is the adjoint of the forward pre-smoothing one.
        let n = 8;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 30.0);
        let [ax, _, az] = free_slip(&a, n);
        // A diagonal shift makes every coupling weak: the lane does not
        // coarsen, and its 512 rows > max_coarse are left to smoother
        // sweeps.
        let mut shifted = Vec::new();
        for i in 0..a.nrows {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                shifted.push((i, a.col_idx[k], a.values[k]));
            }
            shifted.push((i, i, 1e4));
        }
        let ay = Csr::from_triplets(a.nrows, a.ncols, &shifted);
        let hierarchies: Vec<Amg> = [ax, ay, az]
            .into_iter()
            .map(|m| Amg::new(m, AmgOptions::default()))
            .collect();
        assert!(hierarchies[0].num_levels() >= 2);
        assert!(matches!(
            hierarchies[1].top.below[..],
            [Below::Solve(Direct::Sweeps)]
        ));
        let fused = Amg::fuse(hierarchies, [0, 1, 2]);
        let len = fused.len();
        let mut rng = SplitMix64::new(0x5eed);
        let mut random = || -> Vec<f64> { (0..len).map(|_| 2.0 * rng.unit() - 1.0).collect() };
        for case in 0..8 {
            let (u, v) = (random(), random());
            let (mut bu, mut bv) = (vec![0.0; len], vec![0.0; len]);
            fused.vcycle(&u, &mut bu);
            fused.vcycle(&v, &mut bv);
            let (lhs, rhs) = (euclidean_dot(&bu, &v), euclidean_dot(&u, &bv));
            assert!(
                (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
                "case {case}: V-cycle not symmetric: {lhs} vs {rhs}"
            );
            let ubu = euclidean_dot(&u, &bu);
            assert!(ubu > 0.0, "case {case}: uᵀBu = {ubu}");
        }
    }

    /// The mask `pinned` marks over the rows of `a`.
    fn mask(a: &Csr, pinned: impl Fn(usize) -> bool) -> Vec<bool> {
        (0..a.nrows).map(pinned).collect()
    }

    /// Free-slip masks on an `n³` grid: lane `c` pins the rows on the two
    /// faces normal to axis `c`.
    fn free_slip(a: &Csr, n: usize) -> [Csr; 3] {
        std::array::from_fn(|c| {
            a.eliminate(&mask(a, |i| {
                let x = i / n.pow(c as u32) % n;
                x == 0 || x == n - 1
            }))
        })
    }

    /// The fused V-cycle on interleaved `b` against one scalar V-cycle
    /// per lane, bit for bit. `b` holds `±0.0` and negative values at
    /// masked rows and elsewhere.
    fn assert_fused_matches_scalar(mats: &[Csr], lanes: [usize; 3]) {
        let n = mats[0].nrows;
        let build = || -> Vec<Amg> {
            mats.iter()
                .map(|a| Amg::new(a.clone(), AmgOptions::default()))
                .collect()
        };
        let scalar = build();
        let fused = Amg::fuse(build(), lanes);
        assert_eq!(fused.len(), 3 * n);
        let b: Vec<f64> = (0..3 * n)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => ((i * 7919) % 211) as f64 / 50.0 - 2.2,
            })
            .collect();
        let mut z = vec![f64::NAN; 3 * n];
        // Twice: the second cycle runs on warm scratch.
        for _ in 0..2 {
            fused.vcycle(&b, &mut z);
            for (c, &k) in lanes.iter().enumerate() {
                let bc: Vec<f64> = (0..n).map(|i| b[3 * i + c]).collect();
                let mut zc = vec![0.0; n];
                scalar[k].vcycle(&bc, &mut zc);
                for i in 0..n {
                    assert_eq!(
                        z[3 * i + c].to_bits(),
                        zc[i].to_bits(),
                        "lane {c}, row {i}: {} vs {}",
                        z[3 * i + c],
                        zc[i]
                    );
                }
            }
        }
    }

    #[test]
    fn fused_vcycle_matches_scalar_vcycles_bitwise() {
        let n = 10;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 30.0);
        let [ax, ay, az] = free_slip(&a, n);
        assert!(Amg::new(ax.clone(), AmgOptions::default()).num_levels() >= 3);
        // Free-slip: three masks, three hierarchies.
        assert_fused_matches_scalar(&[ax.clone(), ay, az.clone()], [0, 1, 2]);
        // No-slip: one mask shared by all lanes.
        let all = a.eliminate(&mask(&a, |i| {
            (0..3).any(|c| [0, n - 1].contains(&(i / n.pow(c) % n)))
        }));
        assert_fused_matches_scalar(&[all], [0, 0, 0]);
        // Two lanes share one hierarchy, listed out of order.
        assert_fused_matches_scalar(&[az, ax], [1, 0, 1]);
    }

    #[test]
    fn fused_vcycle_matches_on_coarse_only_and_mixed_hierarchies() {
        // 27 rows ≤ max_coarse: every lane is one dense direct solve.
        let a = poisson3d(3, |i, _, _| 1.0 + i as f64);
        let coarse_only = free_slip(&a, 3);
        assert_eq!(
            Amg::new(coarse_only[0].clone(), AmgOptions::default()).num_levels(),
            1
        );
        assert_fused_matches_scalar(&coarse_only, [0, 1, 2]);
        // One lane of identity rows only (no aggregate, solved by sweeps)
        // beside two that coarsen.
        let n = 8;
        let a = poisson3d(n, |_, j, _| 1.0 + j as f64);
        let [ax, _, az] = free_slip(&a, n);
        let ident = a.eliminate(&vec![true; a.nrows]);
        assert_eq!(
            Amg::new(ident.clone(), AmgOptions::default()).num_levels(),
            1
        );
        assert_fused_matches_scalar(&[ax, ident, az], [0, 1, 2]);
    }
}
