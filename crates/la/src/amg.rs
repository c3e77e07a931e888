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
//! [`Amg::masked`] builds them from one assembled matrix and one
//! Dirichlet mask per lane. Lane `c`'s matrix is that matrix eliminated by
//! its mask ([`Csr::eliminate`]), which drops entries and sets diagonals
//! but re-sums nothing, so the lanes share every stored value. The fine
//! level is therefore stored once: one value per entry, a presence bit
//! per lane, and a diagonal per lane; a row that every lane stores whole
//! skips the presence test. One Gauss–Seidel pass advances all `C`
//! dependency chains together. Each distinct mask keeps its own coarser
//! levels. Each lane's arithmetic is that of [`Amg::new`] on its
//! eliminated matrix, operation for operation, so the result is bitwise
//! the same. The smoother and residual are written once, generic over
//! `C`; the scalar [`Amg`] is the instance `C = 1`.
//!
//! **Setup storage.** One workspace, sized from the fine level, holds
//! every setup temporary (strength lists, the power iteration, the
//! sparse products) for every level of every lane, and each hierarchy
//! stores all its coarse levels and restrictions in one set of arrays
//! reserved from the fine level's size (half its rows and entries for
//! the coarse levels). So a setup allocates the same number of times
//! whatever its rows and levels (`tests/allocations.rs` pins it); only a
//! hierarchy that outgrows a reservation reallocates.
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
use std::ops::Range;

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

/// One stored entry of a [`LevelOp`].
#[derive(Clone, Copy)]
struct Entry {
    /// The value every lane that stores the entry shares. A diagonal
    /// slot's is never read: the smoother skips the slot, and the
    /// residual and the setup read [`LevelOp::diag`].
    val: f64,
    col: u32,
    /// Bit `c` is set when lane `c` stores the entry.
    present: u8,
}

impl Entry {
    /// Lane `c`'s term `a_ij · x_j`. A lane that does not store the entry
    /// gets `+0.0`: an exact no-op for `σ −= t` and for a sum that starts
    /// at `+0.0`, whereas `0.0 · x_j` is `−0.0` for negative `x_j` and
    /// turns a `−0.0` partial result into `+0.0`.
    #[inline(always)]
    fn term(&self, c: usize, x: f64) -> f64 {
        let t = self.val * x;
        if self.present >> c & 1 != 0 {
            t
        } else {
            0.0
        }
    }
}

/// The presence bits of an entry every one of `C` lanes stores.
const fn every_lane<const C: usize>() -> u8 {
    ((1u16 << C) - 1) as u8
}

/// Operators of `C` lanes, row by row with columns ascending: one level
/// (the fine one), or a hierarchy's coarse levels one after the other,
/// each with its own column numbering.
struct LevelOp<const C: usize> {
    row_ptr: Vec<usize>,
    entries: Vec<Entry>,
    /// Per row, where the entries left and right of the diagonal end and
    /// start: the smoother skips the diagonal slot between them.
    around_diag: Vec<(usize, usize)>,
    /// Per row, each lane's diagonal (`0.0` where not stored).
    diag: Vec<[f64; C]>,
    /// Per row, whether every lane stores every entry (empty for `C = 1`,
    /// where the one lane does).
    uniform: Vec<bool>,
}

impl<const C: usize> LevelOp<C> {
    fn with_capacity(rows: usize, entries: usize) -> Self {
        const { assert!(C >= 1 && C <= 8, "one presence bit per lane in a u8") };
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        LevelOp {
            row_ptr,
            entries: Vec::with_capacity(entries),
            around_diag: Vec::with_capacity(rows),
            diag: Vec::with_capacity(rows),
            uniform: Vec::with_capacity(if C == 1 { 0 } else { rows }),
        }
    }

    /// Rows stored.
    fn n(&self) -> usize {
        self.diag.len()
    }

    /// Close row `i` of its level, made of the entries pushed since the
    /// last row was closed, with the lanes' diagonals `diag`.
    fn end_row(&mut self, i: usize, diag: [f64; C]) {
        let (lo, hi) = (self.row_ptr[self.row_ptr.len() - 1], self.entries.len());
        let row = &self.entries[lo..hi];
        let mid = lo + row.partition_point(|e| (e.col as usize) < i);
        let on_diag = mid < hi && self.entries[mid].col as usize == i;
        self.around_diag.push((mid, mid + usize::from(on_diag)));
        self.diag.push(diag);
        if C > 1 {
            let whole = row.iter().all(|e| e.present == every_lane::<C>());
            self.uniform.push(whole);
        }
        self.row_ptr.push(hi);
    }

    /// The level stored in `range`.
    fn rows(&self, range: Range<usize>) -> Rows<'_, C> {
        Rows {
            row_ptr: &self.row_ptr[range.start..=range.end],
            around_diag: &self.around_diag[range.clone()],
            diag: &self.diag[range.clone()],
            uniform: if C == 1 { &[] } else { &self.uniform[range] },
            entries: &self.entries,
        }
    }

    /// `a` eliminated lane by lane: lane `c` stores what
    /// `a.eliminate(mask_c)` stores, bit for bit, where bit `c` of
    /// `pinned[i]` is `mask_c[i]`. Columns of `a` must be ascending and
    /// distinct within a row, as [`Csr::from_row_terms`] leaves them.
    /// Entries no lane stores are left out.
    fn masked(a: &Csr, pinned: &[u8]) -> Self {
        assert_eq!(a.nrows, a.ncols, "elimination needs a square matrix");
        assert_eq!(pinned.len(), a.nrows);
        assert!(
            u32::try_from(a.ncols).is_ok(),
            "{} columns exceed the u32 column index",
            a.ncols
        );
        let every = every_lane::<C>();
        let mut op = LevelOp::with_capacity(a.nrows, a.nnz() + a.nrows);
        for i in 0..a.nrows {
            let row = a.row_ptr[i]..a.row_ptr[i + 1];
            // `Csr::eliminate`'s diagonal: 1.0 on a masked row, and for an
            // absent or exactly zero stored one.
            let stored = row.clone().find(|&k| a.col_idx[k] == i);
            let d = stored.map_or(1.0, |k| a.values[k]);
            let d = if d == 0.0 { 1.0 } else { d };
            let diag = std::array::from_fn(|c| if pinned[i] >> c & 1 != 0 { 1.0 } else { d });
            let slot = Entry {
                val: 0.0,
                col: i as u32,
                present: every,
            };
            let mut slot_placed = false;
            for k in row {
                let j = a.col_idx[k];
                debug_assert!(k == a.row_ptr[i] || a.col_idx[k - 1] < j);
                if !slot_placed && j >= i {
                    op.entries.push(slot);
                    slot_placed = true;
                }
                let present = every & !(pinned[i] | pinned[j]);
                if j != i && present != 0 {
                    op.entries.push(Entry {
                        val: a.values[k],
                        col: j as u32,
                        present,
                    });
                }
            }
            if !slot_placed {
                op.entries.push(slot);
            }
            op.end_row(i, diag);
        }
        op
    }
}

impl LevelOp<1> {
    /// The scalar operator `a` as it is stored.
    fn from_csr(a: &Csr) -> Self {
        assert!(
            u32::try_from(a.ncols).is_ok(),
            "{} columns exceed the u32 column index",
            a.ncols
        );
        let mut op = LevelOp::with_capacity(a.nrows, a.nnz());
        for i in 0..a.nrows {
            let mut diag = None;
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                let (col, val) = (a.col_idx[k], a.values[k]);
                if col == i && diag.is_none() {
                    diag = Some(val);
                }
                op.entries.push(Entry {
                    val,
                    col: col as u32,
                    present: 1,
                });
            }
            op.end_row(i, [diag.unwrap_or(0.0)]);
        }
        op
    }
}

/// One level of a [`LevelOp`], rows and columns numbered from zero.
#[derive(Clone, Copy)]
struct Rows<'a, const C: usize> {
    /// `n + 1` offsets into `entries`.
    row_ptr: &'a [usize],
    around_diag: &'a [(usize, usize)],
    diag: &'a [[f64; C]],
    uniform: &'a [bool],
    entries: &'a [Entry],
}

impl<'a, const C: usize> Rows<'a, C> {
    fn n(&self) -> usize {
        self.diag.len()
    }

    /// Row `i`'s entries left and right of its diagonal slot, and whether
    /// every lane stores all of them.
    #[inline(always)]
    fn off_diagonal(&self, i: usize) -> ([&'a [Entry]; 2], bool) {
        let (lower_end, upper_start) = self.around_diag[i];
        let parts = [
            &self.entries[self.row_ptr[i]..lower_end],
            &self.entries[upper_start..self.row_ptr[i + 1]],
        ];
        (parts, C == 1 || self.uniform[i])
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
        let (parts, whole) = self.off_diagonal(i);
        let mut sigma = b[i];
        for part in parts {
            terms(part, whole, x, |c, t| sigma[c] -= t);
        }
        let d = self.diag[i];
        x[i] = std::array::from_fn(|c| sigma[c] / d[c]);
    }

    /// `r = b − A x`, every lane.
    fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        let (b, x, r) = (lanes::<C>(b), lanes::<C>(x), lanes_mut::<C>(r));
        for (i, ri) in r.iter_mut().enumerate() {
            let acc = self.row_product(i, x);
            *ri = std::array::from_fn(|c| b[i][c] - acc[c]);
        }
    }

    /// Row `i` of `A x`, every lane, each summed in column order from
    /// `0.0`; the diagonal term is read from `diag`, in its column's place.
    #[inline(always)]
    fn row_product(&self, i: usize, x: &[[f64; C]]) -> [f64; C] {
        let ([lower, upper], whole) = self.off_diagonal(i);
        let mut acc = [0.0; C];
        terms(lower, whole, x, |c, t| acc[c] += t);
        let (lower_end, upper_start) = self.around_diag[i];
        if upper_start > lower_end {
            for c in 0..C {
                acc[c] += self.diag[i][c] * x[i][c];
            }
        }
        terms(upper, whole, x, |c, t| acc[c] += t);
        acc
    }

    /// Row `i` of lane `c` as `(column, value)`, columns ascending: the
    /// entries the lane stores, with its diagonal read from `diag` — the
    /// row `Csr::eliminate` gives that lane.
    fn lane_row(self, i: usize, c: usize) -> impl Iterator<Item = (usize, f64)> + 'a {
        let ([lower, upper], whole) = self.off_diagonal(i);
        let (lower_end, upper_start) = self.around_diag[i];
        let keep = move |e: &&Entry| whole || e.present >> c & 1 != 0;
        let pair = |e: &Entry| (e.col as usize, e.val);
        let diag = (upper_start > lower_end).then(|| (i, self.diag[i][c]));
        let lower = lower.iter().filter(keep).map(pair);
        lower.chain(diag).chain(upper.iter().filter(keep).map(pair))
    }
}

/// `f(c, t)` for lane `c`'s term `t` of every entry of `part`, in order.
/// `whole` says every lane stores every entry, so no presence test runs.
#[inline(always)]
fn terms<const C: usize>(
    part: &[Entry],
    whole: bool,
    x: &[[f64; C]],
    mut f: impl FnMut(usize, f64),
) {
    if whole {
        for e in part {
            let xj = x[e.col as usize];
            for c in 0..C {
                f(c, e.val * xj[c]);
            }
        }
    } else {
        for e in part {
            let xj = x[e.col as usize];
            for c in 0..C {
                f(c, e.term(c, xj[c]));
            }
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

/// Sparse rows with `u32` columns: prolongators, and the setup's
/// products.
struct Sparse {
    ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Sparse {
    fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut ptr = Vec::with_capacity(rows + 1);
        ptr.push(0);
        Sparse {
            ptr,
            cols: Vec::with_capacity(entries),
            vals: Vec::with_capacity(entries),
        }
    }

    fn clear(&mut self) {
        self.ptr.truncate(1);
        self.cols.clear();
        self.vals.clear();
    }

    fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    fn push(&mut self, col: usize, val: f64) {
        self.cols.push(col as u32);
        self.vals.push(val);
    }

    fn end_row(&mut self) {
        self.ptr.push(self.cols.len());
    }

    /// Append the rows of `other`.
    fn append(&mut self, other: &Sparse) {
        let base = self.cols.len();
        self.ptr.extend(other.ptr[1..].iter().map(|&k| base + k));
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
    }

    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let k = self.ptr[i]..self.ptr[i + 1];
        let cols = self.cols[k.clone()].iter().map(|&j| j as usize);
        cols.zip(self.vals[k].iter().copied())
    }
}

/// `out = R r_c`: restriction of lane `c` of the interleaved `r` by the
/// restriction whose rows are `rmat`'s `rows`.
fn restrict<const C: usize>(
    rmat: &Sparse,
    rows: Range<usize>,
    r: &[[f64; C]],
    c: usize,
    out: &mut [f64],
) {
    for (i, o) in rows.zip(out) {
        let mut acc = 0.0;
        for k in rmat.ptr[i]..rmat.ptr[i + 1] {
            acc += rmat.vals[k] * r[rmat.cols[k] as usize][c];
        }
        *o = acc;
    }
}

/// `x_c += P e` for `P = Rᵀ`, where `R` is `rmat`'s `rows`: prolongation
/// of `e` added to lane `c` of the interleaved `x`. Each fine entry sums
/// its terms from `0.0` in lane `c` of `acc` in `R`-row order — ascending
/// coarse column, the order of its row of `P` — and is then added to `x`.
/// Scattering along the long rows of `R` keeps the short rows of `P` (a
/// few entries each) from costing a loop exit apiece.
fn prolong_add<const C: usize>(
    rmat: &Sparse,
    rows: Range<usize>,
    e: &[f64],
    c: usize,
    acc: &mut [[f64; C]],
    x: &mut [[f64; C]],
) {
    for a in acc.iter_mut() {
        a[c] = 0.0;
    }
    for (j, ej) in rows.zip(e) {
        for k in rmat.ptr[j]..rmat.ptr[j + 1] {
            acc[rmat.cols[k] as usize][c] += rmat.vals[k] * ej;
        }
    }
    for (xi, ai) in x.iter_mut().zip(acc) {
        xi[c] += ai[c];
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

/// One scalar hierarchy below the fine level: the coarse levels built
/// from one lane's matrix, the restrictions between them, and how the
/// coarsest level is solved.
struct Chain {
    /// Coarse levels; 0 when the fine level is the coarsest.
    depth: usize,
    /// Coarse level `k` (from 1) is rows `ends[k - 1]..ends[k]` of `ops`.
    ends: [usize; MAX_LEVELS + 1],
    ops: LevelOp<1>,
    /// `R_k = P_kᵀ` for `k < depth`, where `P_k` prolongs from level
    /// `k + 1` to level `k` (level 0 is the fine one): one row per
    /// level-`k + 1` row, stacked as `ops` is. The V-cycle needs no `P_k`.
    r: Sparse,
    direct: Direct,
    /// Interior mutability because `LinearOp::apply` takes `&self`.
    /// V-cycles never nest, so the borrow is always uncontended.
    scratch: RefCell<ChainScratch>,
}

/// Every coarse level's right-hand side, iterate and residual (reused to
/// sum the prolonged correction), stacked as the levels are. Every entry
/// is overwritten before it is read, so reuse is bitwise-transparent.
struct ChainScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
}

impl Chain {
    /// Build the hierarchy of lane `c` of the fine level `fine`, whose
    /// `D⁻¹A` has spectral radius `rho` in that lane.
    fn build<const C: usize>(
        fine: Rows<'_, C>,
        c: usize,
        rho: f64,
        options: AmgOptions,
        ws: &mut Setup,
    ) -> Chain {
        let n_fine = fine.n();
        let mut chain = Chain {
            depth: 0,
            ends: [0; MAX_LEVELS + 1],
            ops: LevelOp::with_capacity(n_fine / 2, ws.entries / 2),
            r: Sparse::with_capacity(n_fine / 2, ws.entries),
            direct: Direct::Sweeps,
            scratch: RefCell::new(ChainScratch {
                b: Vec::new(),
                x: Vec::new(),
                r: Vec::new(),
            }),
        };
        let mut n = n_fine;
        while n > options.max_coarse && chain.depth < MAX_LEVELS {
            let coarse = match chain.depth {
                0 => ws.coarsen(fine, c, Some(rho)),
                d => ws.coarsen(chain.level(d), 0, None),
            };
            let Some(n_agg) = coarse else {
                break; // nothing to coarsen, or no progress; stop here
            };
            ws.galerkin(n_agg, &mut chain.ops);
            chain.r.append(&ws.r);
            chain.depth += 1;
            chain.ends[chain.depth] = chain.ops.n();
            n = n_agg;
        }
        // Direct coarse solve, degrading to smoother sweeps for singular
        // coarse operators (e.g. pure-Neumann problems) and for a level
        // that stalled above `max_coarse` rows, where a dense factor
        // would cost O(n²) per V-cycle.
        let d = chain.depth;
        let last = chain.ends[d.saturating_sub(1)]..chain.ends[d];
        if n <= options.max_coarse {
            let factor = match d {
                0 => dense_factor(fine, c),
                _ => dense_factor(chain.ops.rows(last.clone()), 0),
            };
            if let Some(ch) = factor {
                chain.direct = Direct::Cholesky(ch);
            }
        }
        if d > 0 && matches!(chain.direct, Direct::Sweeps) {
            for [v] in &mut chain.ops.diag[last] {
                if v.abs() < 1e-300 {
                    *v = 1.0;
                }
            }
        }
        let rows = chain.ops.n();
        chain.scratch = RefCell::new(ChainScratch {
            b: vec![0.0; rows],
            x: vec![0.0; rows],
            r: vec![0.0; rows],
        });
        chain
    }

    /// Coarse level `k`.
    fn level(&self, k: usize) -> Rows<'_, 1> {
        self.ops.rows(self.ends[k - 1]..self.ends[k])
    }

    /// Coarse-grid correction of lane `c` of the fine level: restrict its
    /// residual `r`, cycle on level 1 from zero, and add the prolonged
    /// result to `x`. Lane `c` of `r` is spent on the prolongation.
    fn correct<const C: usize>(&self, r: &mut [[f64; C]], c: usize, x: &mut [[f64; C]]) {
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        let n1 = self.ends[1];
        restrict(&self.r, 0..n1, r, c, &mut s.b[..n1]);
        self.cycle(1, &mut s.b, &mut s.x, &mut s.r);
        prolong_add(&self.r, 0..n1, &s.x[..n1], c, r, x);
    }

    /// One V-cycle on coarse level `k` from a zero guess. `b`, `x` and `r`
    /// start with level `k`'s right-hand side, iterate and residual, the
    /// coarser levels' follow.
    fn cycle(&self, k: usize, b: &mut [f64], x: &mut [f64], r: &mut [f64]) {
        let op = self.level(k);
        let n = op.n();
        let (b, b_next) = b.split_at_mut(n);
        let (x, x_next) = x.split_at_mut(n);
        let (r, r_next) = r.split_at_mut(n);
        x.fill(0.0);
        if k < self.depth {
            // Forward before the coarse correction, backward after: the
            // post-smoother is the pre-smoother's adjoint, so the cycle
            // is SPD with one pass over the operator on each side.
            op.gs(b, x, 0..n);
            op.residual(b, x, r);
            let coarse = self.ends[k]..self.ends[k + 1];
            let nc = coarse.len();
            restrict::<1>(&self.r, coarse.clone(), lanes(r), 0, &mut b_next[..nc]);
            self.cycle(k + 1, b_next, x_next, r_next);
            let e = &x_next[..nc];
            prolong_add::<1>(&self.r, coarse, e, 0, lanes_mut(r), lanes_mut(x));
            op.gs(b, x, (0..n).rev());
        } else {
            match &self.direct {
                Direct::Cholesky(ch) => {
                    x.copy_from_slice(b);
                    ch.solve(x);
                }
                Direct::Sweeps => {
                    for _ in 0..COARSE_SWEEPS {
                        op.sgs(b, x);
                    }
                }
            }
        }
    }

    /// `(rows, non-zeros)` of every coarse level, finest first.
    fn level_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (1..=self.depth).map(|k| {
            let l = self.level(k);
            (l.n(), l.row_ptr[l.n()] - l.row_ptr[0])
        })
    }
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

/// The setup's temporaries, allocated once per [`Amg`] build at the fine
/// level's size (rows, lanes and entries) and reused by every level of
/// every lane.
struct Setup {
    /// Entries of the fine level: the bound every reservation starts from.
    entries: usize,
    /// The diagonal of the level being coarsened.
    diag: Vec<f64>,
    /// Aggregate per row ([`UNAGG`] for none).
    agg: Vec<usize>,
    isolated: Vec<bool>,
    /// Strong neighbours of every row, flat: row `i`'s are
    /// `strong[strong_ptr[i]..strong_ptr[i + 1]]`.
    strong_ptr: Vec<usize>,
    strong: Vec<u32>,
    /// Power-iteration vectors.
    x: Vec<f64>,
    y: Vec<f64>,
    /// `A·P0`, `P`, `R = Pᵀ` and `A·P` of the level being coarsened.
    ap0: Sparse,
    p: Sparse,
    r: Sparse,
    ap: Sparse,
    /// The sparse products' dense row accumulator, each column with the
    /// row it last summed for, and the columns of the current row.
    accum: Vec<(usize, f64)>,
    row_cols: Vec<u32>,
}

impl Setup {
    fn new(n: usize, lanes: usize, entries: usize) -> Self {
        Setup {
            entries,
            diag: Vec::with_capacity(n),
            agg: Vec::with_capacity(n),
            isolated: Vec::with_capacity(n),
            strong_ptr: Vec::with_capacity(n + 1),
            strong: Vec::with_capacity(entries),
            x: Vec::with_capacity(lanes * n),
            y: Vec::with_capacity(lanes * n),
            ap0: Sparse::with_capacity(n, entries),
            p: Sparse::with_capacity(n, entries),
            r: Sparse::with_capacity(n / 2, entries),
            ap: Sparse::with_capacity(n, entries),
            accum: Vec::with_capacity(n),
            row_cols: Vec::with_capacity(n),
        }
    }

    /// One coarsening step of lane `c` of `a`: aggregate, smooth the
    /// tentative prolongator `P` (with the spectral radius `rho` of lane
    /// `c`'s `D⁻¹A` if already estimated), and leave `R = Pᵀ` and `A·P`
    /// here for [`Setup::galerkin`]. `None` if aggregation makes no
    /// progress (no aggregate, or one per row).
    fn coarsen<const C: usize>(
        &mut self,
        a: Rows<'_, C>,
        c: usize,
        rho: Option<f64>,
    ) -> Option<usize> {
        let n = a.n();
        self.diag.clear();
        self.diag.extend(a.diag.iter().map(|d| d[c]));
        let n_agg = self.aggregate(a, c);
        if n_agg == 0 || n_agg >= n {
            return None;
        }
        // Smooth: P = (I − ω D⁻¹ A) P0 with ω = 4/(3ρ).
        let rho = rho.unwrap_or_else(|| self.spectral_radii(a, 12)[c]);
        let omega = 4.0 / (3.0 * rho);
        let Setup {
            diag,
            agg,
            ap0,
            p,
            r,
            ap,
            accum,
            row_cols,
            ..
        } = self;
        // A·P0, where P0 is the tentative prolongator: piecewise constant
        // over aggregates, an empty row for a node in none.
        let p0 = |j: usize| (agg[j] != UNAGG).then_some((agg[j], 1.0)).into_iter();
        ap0.clear();
        let ws = (&mut *accum, &mut *row_cols);
        gustavson(
            n,
            n_agg,
            |i| a.lane_row(i, c),
            p0,
            ws,
            true,
            |_, cols, acc| {
                for &j in cols {
                    ap0.push(j as usize, acc[j as usize].1);
                }
                ap0.end_row();
            },
        );
        // P = P0 − ω D⁻¹ (A P0), row by row: the row of P0 (one 1.0 in
        // the aggregate's column) first, then the scaled row of A·P0,
        // each column's terms summed in that order.
        p.clear();
        for i in 0..n {
            let scale = omega / diag[i].max(1e-300);
            let mut tentative = (agg[i] != UNAGG).then_some(agg[i]);
            for (j, v) in ap0.row(i) {
                let smoothed = -scale * v;
                match tentative {
                    Some(g) if g < j => {
                        p.push(g, 1.0);
                        p.push(j, smoothed);
                        tentative = None;
                    }
                    Some(g) if g == j => {
                        p.push(j, 1.0 + smoothed);
                        tentative = None;
                    }
                    _ => p.push(j, smoothed),
                }
            }
            if let Some(g) = tentative {
                p.push(g, 1.0);
            }
            p.end_row();
        }
        transpose(p, n_agg, r);
        ap.clear();
        let p_row = |j: usize| p.row(j);
        let ws = (accum, row_cols);
        gustavson(
            n,
            n_agg,
            |i| a.lane_row(i, c),
            p_row,
            ws,
            false,
            |_, cols, acc| {
                for &j in cols {
                    ap.push(j as usize, acc[j as usize].1);
                }
                ap.end_row();
            },
        );
        Some(n_agg)
    }

    /// Append the Galerkin operator `R·(A·P)` of the last
    /// [`Setup::coarsen`] to `ops` as a level of `n_agg` rows.
    fn galerkin(&mut self, n_agg: usize, ops: &mut LevelOp<1>) {
        let Setup {
            r,
            ap,
            accum,
            row_cols,
            ..
        } = self;
        let ws = (accum, row_cols);
        gustavson(
            n_agg,
            n_agg,
            |i| r.row(i),
            |j| ap.row(j),
            ws,
            true,
            |i, cols, acc| {
                let mut diag = 0.0;
                for &j in cols {
                    let val = acc[j as usize].1;
                    if j as usize == i {
                        diag = val;
                    }
                    ops.entries.push(Entry {
                        val,
                        col: j,
                        present: 1,
                    });
                }
                ops.end_row(i, [diag]);
            },
        );
    }

    /// Greedy aggregation on the strength graph of lane `c` of `a` into
    /// `agg`. Returns the number of aggregates. A row with no non-zero
    /// off-diagonal gets no aggregate ([`UNAGG`]): nothing couples it to
    /// a coarse unknown.
    fn aggregate<const C: usize>(&mut self, a: Rows<'_, C>, c: usize) -> usize {
        let n = a.n();
        let Setup {
            diag,
            agg,
            isolated,
            strong_ptr,
            strong,
            ..
        } = self;
        strong_ptr.clear();
        strong_ptr.push(0);
        strong.clear();
        isolated.clear();
        isolated.resize(n, true);
        for i in 0..n {
            a.lane_row(i, c).for_each(|(j, v)| {
                if j != i && v != 0.0 {
                    isolated[i] = false;
                    let bound = THETA * (diag[i].abs() * diag[j].abs()).sqrt();
                    if v.abs() >= bound {
                        strong.push(j as u32);
                    }
                }
            });
            strong_ptr.push(strong.len());
        }
        let strong = |i: usize| {
            strong[strong_ptr[i]..strong_ptr[i + 1]]
                .iter()
                .map(|&j| j as usize)
        };
        agg.clear();
        agg.resize(n, UNAGG);
        let mut n_agg = 0;
        // Pass 1: roots whose entire strong neighborhood is unaggregated.
        for i in 0..n {
            if agg[i] != UNAGG || isolated[i] {
                continue;
            }
            if strong(i).all(|j| agg[j] == UNAGG) {
                agg[i] = n_agg;
                for j in strong(i) {
                    agg[j] = n_agg;
                }
                n_agg += 1;
            }
        }
        // Pass 2: attach stragglers to a neighboring aggregate.
        for i in 0..n {
            if agg[i] == UNAGG {
                if let Some(j) = strong(i).find(|&j| agg[j] != UNAGG) {
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
        n_agg
    }

    /// Estimate ρ(D⁻¹A) of every lane of `a` by power iteration
    /// (deterministic start), the lanes side by side. Each lane's
    /// arithmetic is that of the iteration on its matrix alone: a term
    /// the lane does not store adds `+0.0` to a sum that starts at `+0.0`.
    fn spectral_radii<const C: usize>(&mut self, a: Rows<'_, C>, iters: usize) -> [f64; C] {
        let n = a.n();
        let Setup { x, y, .. } = self;
        x.clear();
        x.extend((0..n).flat_map(|i| [1.0 + (i % 7) as f64 * 0.1; C]));
        y.clear();
        y.resize(C * n, 0.0);
        let (x, y) = (lanes_mut::<C>(x), lanes_mut::<C>(y));
        let mut lambda = [1.0f64; C];
        // A lane whose `D⁻¹A x` vanishes stops at ρ = 1.
        let mut live = [true; C];
        for _ in 0..iters {
            for (i, yi) in y.iter_mut().enumerate() {
                let ax = a.row_product(i, x);
                *yi = std::array::from_fn(|c| ax[c] / a.diag[i][c].max(1e-300));
            }
            for c in 0..C {
                if !live[c] {
                    continue;
                }
                let norm = y.iter().map(|v| v[c] * v[c]).sum::<f64>().sqrt();
                if norm == 0.0 {
                    (lambda[c], live[c]) = (1.0, false);
                    continue;
                }
                let norm_x = x.iter().map(|v| v[c] * v[c]).sum::<f64>().sqrt();
                lambda[c] = norm / norm_x.max(1e-300);
                for (xi, yi) in x.iter_mut().zip(y.iter()) {
                    xi[c] = yi[c] / norm;
                }
            }
        }
        lambda.map(|l| l.max(1e-8))
    }
}

/// Row by row, the sparse product of `left` (rows `0..nrows`) and `right`
/// (columns `0..ncols`): row `i` accumulates `l · r` for each term
/// `(k, l)` of `left(i)` and each term `(j, r)` of `right(k)`, in that
/// order, in a dense accumulator that starts at `0.0` per column, and
/// `emit(i, columns, accumulator)` takes the row: its columns ascending
/// if `sorted`, else in the order first met (a product whose rows only
/// feed another product's sums, which no column order changes).
fn gustavson<L, R>(
    nrows: usize,
    ncols: usize,
    left: impl Fn(usize) -> L,
    right: impl Fn(usize) -> R,
    (accum, row_cols): (&mut Vec<(usize, f64)>, &mut Vec<u32>),
    sorted: bool,
    mut emit: impl FnMut(usize, &[u32], &[(usize, f64)]),
) where
    L: Iterator<Item = (usize, f64)>,
    R: Iterator<Item = (usize, f64)>,
{
    accum.clear();
    accum.resize(ncols, (usize::MAX, 0.0));
    for i in 0..nrows {
        row_cols.clear();
        left(i).for_each(|(k, lv)| {
            for (j, rv) in right(k) {
                let (row, sum) = &mut accum[j];
                if *row != i {
                    (*row, *sum) = (i, 0.0);
                    row_cols.push(j as u32);
                }
                *sum += lv * rv;
            }
        });
        if sorted {
            // Columns are distinct, so any sort gives the same row.
            row_cols.sort_unstable();
        }
        emit(i, row_cols, accum);
    }
}

/// `out = Pᵀ` for `P` with `ncols` columns: row `J` of `out` lists
/// column `J` of `P` in row order.
fn transpose(p: &Sparse, ncols: usize, out: &mut Sparse) {
    out.ptr.clear();
    out.ptr.resize(ncols + 1, 0);
    for &j in &p.cols {
        out.ptr[j as usize + 1] += 1;
    }
    for j in 0..ncols {
        out.ptr[j + 1] += out.ptr[j];
    }
    out.cols.clear();
    out.cols.resize(p.cols.len(), 0);
    out.vals.clear();
    out.vals.resize(p.cols.len(), 0.0);
    // `ptr[j]` runs from the start of row `j` to its end, the start of
    // row `j + 1`; shifted back afterwards.
    for i in 0..p.rows() {
        for k in p.ptr[i]..p.ptr[i + 1] {
            let j = p.cols[k] as usize;
            let at = out.ptr[j];
            out.cols[at] = i as u32;
            out.vals[at] = p.vals[k];
            out.ptr[j] += 1;
        }
    }
    for j in (1..=ncols).rev() {
        out.ptr[j] = out.ptr[j - 1];
    }
    out.ptr[0] = 0;
}

/// Dense Cholesky factorization of lane `c` of `a`; `None` if a pivot is
/// not positive. The Galerkin coarse operator `Pᵀ A P` of an SPD input is
/// SPD unless singular, and a singular one is solved by sweeps.
fn dense_factor<const C: usize>(a: Rows<'_, C>, c: usize) -> Option<Cholesky> {
    let n = a.n();
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        for (j, v) in a.lane_row(i, c) {
            dense[i * n + j] = v;
        }
    }
    Cholesky::factor(&dense, n)
}

/// `C` smoothed-aggregation hierarchies, one per interleaved component
/// of the vectors they precondition (see the module documentation). The
/// plain `Amg` is one hierarchy for a scalar vector.
pub struct Amg<const C: usize = 1> {
    fine: LevelOp<C>,
    /// One per distinct lane matrix.
    chains: Vec<Chain>,
    /// Lane `c` continues in `chains[lanes[c]]`.
    lanes: [usize; C],
    /// Whether some lane coarsens (and is smoothed on the fine level).
    coarsens: bool,
    scratch: RefCell<FineScratch>,
}

/// Fine-level V-cycle scratch, sized at setup so steady-state V-cycles
/// are allocation-free. Every buffer is fully overwritten before it is
/// read, so reuse is bitwise-transparent.
struct FineScratch {
    /// Interleaved residual, `C·n` (empty if no lane coarsens); each
    /// lane's is reused to sum its prolonged correction.
    r: Vec<f64>,
    /// One lane, for the dense direct solves of lanes that do not
    /// coarsen.
    lane: Vec<f64>,
    /// Every lane swept from zero, for [`Direct::Sweeps`] on the fine
    /// level.
    swept: Vec<f64>,
}

impl Amg {
    /// Setup phase: build the hierarchy for SPD `a`.
    pub fn new(a: Csr, options: AmgOptions) -> Amg {
        let fine = LevelOp::from_csr(&a);
        drop(a);
        Amg::build(fine, [0], options)
    }

    /// Number of levels including the coarse grid.
    pub fn num_levels(&self) -> usize {
        1 + self.chains[0].depth
    }

    /// `(rows, non-zeros)` of the operator on every level, finest first.
    pub fn level_sizes(&self) -> Vec<(usize, usize)> {
        let fine = (self.fine.n(), self.fine.entries.len());
        std::iter::once(fine)
            .chain(self.chains[0].level_sizes())
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
    /// Lane `c` of the vectors this preconditions is preconditioned as
    /// `Amg::new(a.eliminate(masks[lanes[c]]), options)` would, V-cycle
    /// for V-cycle bitwise, with one hierarchy per mask. The fine level is
    /// built from `a` itself, with no eliminated copy (see the module
    /// documentation). Columns of `a` must be ascending and distinct
    /// within a row, as [`Csr::from_row_terms`] leaves them.
    pub fn masked(a: &Csr, masks: &[&[bool]], lanes: [usize; C], options: AmgOptions) -> Amg<C> {
        assert!(
            (0..masks.len()).all(|k| lanes.contains(&k)) && lanes.iter().all(|&k| k < masks.len()),
            "lanes {lanes:?} must use each of {} masks and no other",
            masks.len()
        );
        assert!(masks.iter().all(|m| m.len() == a.nrows));
        let pinned: Vec<u8> = (0..a.nrows)
            .map(|i| {
                let bits = lanes.iter().enumerate();
                bits.fold(0, |pinned, (c, &k)| pinned | u8::from(masks[k][i]) << c)
            })
            .collect();
        Amg::build(LevelOp::masked(a, &pinned), lanes, options)
    }

    /// The hierarchies below `fine`, one per distinct entry of `lanes`.
    fn build(mut fine: LevelOp<C>, lanes: [usize; C], options: AmgOptions) -> Amg<C> {
        let n = fine.n();
        let n_chains = lanes.iter().max().map_or(0, |&k| k + 1);
        let mut ws = Setup::new(n, C, fine.entries.len());
        // Every lane's spectral radius in one pass per power step; only a
        // level above `max_coarse` rows is coarsened and needs one.
        let rho = if n > options.max_coarse {
            ws.spectral_radii(fine.rows(0..n), 12)
        } else {
            [1.0; C]
        };
        let mut chains = Vec::with_capacity(n_chains);
        for k in 0..n_chains {
            let c = lanes
                .iter()
                .position(|&l| l == k)
                .expect("every hierarchy has a lane");
            let chain = Chain::build(fine.rows(0..n), c, rho[c], options, &mut ws);
            if chain.depth == 0 && matches!(chain.direct, Direct::Sweeps) {
                for d in &mut fine.diag {
                    for (c, _) in lanes.iter().enumerate().filter(|&(_, &l)| l == k) {
                        if d[c].abs() < 1e-300 {
                            d[c] = 1.0;
                        }
                    }
                }
            }
            chains.push(chain);
        }
        drop(ws);
        let fine_solves =
            |f: fn(&Direct) -> bool| chains.iter().any(|ch| ch.depth == 0 && f(&ch.direct));
        let coarsens = chains.iter().any(|ch| ch.depth > 0);
        let dense = fine_solves(|d| matches!(d, Direct::Cholesky(_)));
        let sweeps = fine_solves(|d| matches!(d, Direct::Sweeps));
        let scratch = FineScratch {
            r: vec![0.0; if coarsens { C * n } else { 0 }],
            lane: vec![0.0; if dense { n } else { 0 }],
            swept: vec![0.0; if sweeps { C * n } else { 0 }],
        };
        Amg {
            fine,
            chains,
            lanes,
            coarsens,
            scratch: RefCell::new(scratch),
        }
    }

    /// Hierarchies built: one per distinct lane matrix.
    pub fn hierarchies(&self) -> usize {
        self.chains.len()
    }

    /// Stored operator entries one V-cycle sweeps: the fine level's once,
    /// and each coarse level's once per lane that cycles it.
    pub fn vcycle_entries(&self) -> usize {
        let coarse = |k: usize| self.chains[k].ops.entries.len();
        self.fine.entries.len() + self.lanes.iter().map(|&k| coarse(k)).sum::<usize>()
    }

    /// Apply one V-cycle to `b` with zero initial guess: `x = B b` where
    /// `B ≈ A⁻¹` is SPD, on each of the `C` interleaved lanes.
    /// Allocation-free: all per-level scratch was sized during setup.
    pub fn vcycle(&self, b: &[f64], x: &mut [f64]) {
        x.fill(0.0);
        let op = self.fine.rows(0..self.fine.n());
        let n = op.n();
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        if self.coarsens {
            // Forward before the coarse correction, backward after, as on
            // the coarse levels.
            op.gs(b, x, 0..n);
            op.residual(b, x, &mut s.r);
            for (c, &k) in self.lanes.iter().enumerate() {
                if self.chains[k].depth > 0 {
                    self.chains[k].correct(lanes_mut::<C>(&mut s.r), c, lanes_mut::<C>(x));
                }
            }
            op.gs(b, x, (0..n).rev());
        }
        if !s.swept.is_empty() {
            s.swept.fill(0.0);
            for _ in 0..COARSE_SWEEPS {
                op.sgs(b, &mut s.swept);
            }
        }
        for (c, &k) in self.lanes.iter().enumerate() {
            let chain = &self.chains[k];
            if chain.depth > 0 {
                continue;
            }
            let x = lanes_mut::<C>(x);
            let Direct::Cholesky(ch) = &chain.direct else {
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

impl<const C: usize> LinearOp for Amg<C> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.vcycle(x, y);
    }
    fn len(&self) -> usize {
        C * self.fine.n()
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
        let [mx, _, mz] = free_slip(n);
        // A lane masked everywhere: every row an identity row, so the lane
        // does not coarsen, and its 512 rows > max_coarse are left to
        // smoother sweeps.
        let all = vec![true; a.nrows];
        let masks: [&[bool]; 3] = [&mx, &all, &mz];
        let fused = Amg::masked(&a, &masks, [0, 1, 2], AmgOptions::default());
        assert!(fused.chains[0].depth >= 1);
        assert!(fused.chains[1].depth == 0 && matches!(fused.chains[1].direct, Direct::Sweeps));
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

    /// Free-slip masks on an `n³` grid: lane `c` pins the rows on the two
    /// faces normal to axis `c`.
    fn free_slip(n: usize) -> [Vec<bool>; 3] {
        std::array::from_fn(|c| {
            (0..n.pow(3))
                .map(|i| {
                    let x = i / n.pow(c as u32) % n;
                    x == 0 || x == n - 1
                })
                .collect()
        })
    }

    /// The fused V-cycle of `Amg::masked(a, masks, lanes)` on
    /// interleaved `b` against one `Amg::new(a.eliminate(mask))` V-cycle
    /// per lane, bit for bit. `b` holds `±0.0` and negative values at
    /// masked rows and elsewhere.
    fn assert_fused_matches_scalar(a: &Csr, masks: &[&[bool]], lanes: [usize; 3]) {
        let n = a.nrows;
        let options = AmgOptions::default();
        let scalar: Vec<Amg> = masks
            .iter()
            .map(|m| Amg::new(a.eliminate(m), options))
            .collect();
        let fused = Amg::masked(a, masks, lanes, options);
        assert_eq!(fused.len(), 3 * n);
        assert_eq!(fused.hierarchies(), masks.len());
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
        let [mx, my, mz] = free_slip(n);
        assert!(Amg::new(a.eliminate(&mx), AmgOptions::default()).num_levels() >= 3);
        // Free-slip: three masks, three hierarchies.
        assert_fused_matches_scalar(&a, &[&mx, &my, &mz], [0, 1, 2]);
        // No-slip: one mask shared by all lanes.
        let all: Vec<bool> = (0..a.nrows).map(|i| mx[i] || my[i] || mz[i]).collect();
        assert_fused_matches_scalar(&a, &[&all], [0, 0, 0]);
        // Two lanes share one hierarchy, listed out of order.
        assert_fused_matches_scalar(&a, &[&mz, &mx], [1, 0, 1]);
    }

    #[test]
    fn fused_vcycle_matches_on_coarse_only_and_mixed_hierarchies() {
        // 27 rows ≤ max_coarse: every lane is one dense direct solve.
        let a = poisson3d(3, |i, _, _| 1.0 + i as f64);
        let [mx, my, mz] = free_slip(3);
        assert_eq!(
            Amg::new(a.eliminate(&mx), AmgOptions::default()).num_levels(),
            1
        );
        assert_fused_matches_scalar(&a, &[&mx, &my, &mz], [0, 1, 2]);
        // One lane of identity rows only (no aggregate, solved by sweeps)
        // beside two that coarsen.
        let n = 8;
        let a = poisson3d(n, |_, j, _| 1.0 + j as f64);
        let [mx, _, mz] = free_slip(n);
        let all = vec![true; a.nrows];
        assert_eq!(
            Amg::new(a.eliminate(&all), AmgOptions::default()).num_levels(),
            1
        );
        assert_fused_matches_scalar(&a, &[&mx, &all, &mz], [0, 1, 2]);
    }

    #[test]
    fn fused_vcycle_matches_on_zero_and_absent_diagonals() {
        // An assembled matrix as `Csr::eliminate` meets it: in unmasked
        // rows one stored zero diagonal and one absent diagonal (both
        // become 1.0), and an off-diagonal zero that stays stored.
        let n = 8;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i + 2 * j + 3 * k) % 4) as f64 * 7.0);
        let (zero, absent) = (3 + n * (3 + 3 * n), 4 + n * (2 + 5 * n));
        let mut t = Vec::new();
        for i in 0..a.nrows {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                let (j, v) = (a.col_idx[k], a.values[k]);
                match (i == j, i) {
                    (true, r) if r == zero => t.push((i, j, 0.0)),
                    (true, r) if r == absent => {}
                    _ => t.push((i, j, if (i, j) == (zero, zero + 1) { 0.0 } else { v })),
                }
            }
        }
        let a = Csr::from_triplets(a.nrows, a.ncols, &t);
        let [mx, my, _] = free_slip(n);
        assert!(![zero, absent].iter().any(|&r| mx[r] || my[r]));
        let all = vec![true; a.nrows];
        // A lane masked everywhere, and two lanes sharing the x mask.
        assert_fused_matches_scalar(&a, &[&mx, &all], [0, 1, 0]);
        assert_fused_matches_scalar(&a, &[&my, &mx, &all], [2, 0, 1]);
    }
}
