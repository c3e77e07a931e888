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
//! aggregation stalls above `max_coarse` rows, and above four rows per
//! rank, the coarsest level is solved by smoother sweeps, never by a
//! dense factorization.
//!
//! **One hierarchy across ranks.** [`Amg::coupled`] builds one hierarchy
//! over the rows of every rank, as BoomerAMG does, from each rank's owned
//! rows with their ghost columns ([`DistCsr`]). Aggregation stays
//! rank-local ("uncoupled" aggregation, Tuminaro & Tong, SC 2000): an
//! aggregate holds owned rows only, and coarse rows are numbered globally
//! by an exclusive scan of the aggregate counts. The smoothed prolongator
//! gets its ghost rows in one exchange, the Galerkin product `Pᵀ(AP)` runs
//! over owned and ghost columns, and the terms of coarse rows another
//! rank owns are shipped to it ([`OwnedRows`], the assembly the fine
//! matrix has too). Each level smooths by ℓ1-hybrid
//! Gauss–Seidel (Baker, Falgout, Kolev & Yang 2011): a rank sweeps its
//! owned rows with the ghost values of one exchange, adding each row's
//! residual over a divisor that gains `½Σ|a_ij|` over its ghost columns.
//! Half the off-rank row sum already keeps `M + Mᵀ − A` positive definite
//! (Gershgorin on `2D_ℓ1 − A_off`) and damps less than the whole: 63
//! against 69 iterations at P = 4 on the Stokes gate
//! (`iterations_stay_flat_in_the_rank_count`). The forward sweep before
//! the coarse correction and the backward one after it keep the V-cycle
//! the fixed SPD operator MINRES needs. Coarsening stops on the global
//! row count; the coarsest level is gathered to every rank and solved
//! redundantly by one dense Cholesky factor. The lanes' coarse levels
//! cycle in lock-step, so across ranks one exchange round per step
//! carries every lane: three rounds per level smoothed, one per
//! restriction, and one gather per coarsest solve ([`Amg::exchanges`]
//! counts the rounds run).
//! [`Amg::new`] and [`Amg::masked`] are the instance for one rank's rows
//! alone: no ghost column and no message, so the smoother is plain
//! Gauss–Seidel, and a coupled hierarchy on one rank is bitwise theirs.
//!
//! **Interleaved components.** An [`Amg<C>`] applies `C` scalar
//! hierarchies to the `C` interleaved components of one vector (the
//! velocity block of the Stokes preconditioner, `[ux uy uz]` per node).
//! [`Amg::masked`] builds them from one assembled matrix and the
//! interleaved Dirichlet mask, `C` flags per row. Lane `c`'s matrix is
//! that matrix eliminated by its mask ([`Csr::eliminate`]), which drops
//! entries and sets diagonals but re-sums nothing, so the lanes share
//! every stored value. The fine level is therefore stored once: one value
//! per entry, a presence bit per lane, and a diagonal per lane; a row that
//! every lane stores whole skips the presence test. One Gauss–Seidel pass
//! advances all `C` dependency chains together, and one exchange carries
//! every lane's ghost values. Each distinct lane mask keeps its own
//! coarser levels: two lanes share a hierarchy when their masks agree on
//! every rank, which one reduction decides, since a rank may own only rows
//! on which two lanes' masks agree while another rank's differ. Each
//! lane's arithmetic is that of [`Amg::new`] on its eliminated matrix,
//! operation for operation, so the result is bitwise the same. The
//! smoother and residual are written once, generic over `C`; the scalar
//! [`Amg`] is the instance `C = 1`.
//!
//! **Setup storage.** One workspace, sized from the fine level, holds
//! every setup temporary (strength lists, the power iteration, the
//! sparse products) for every level of every lane, and each hierarchy
//! stores all its coarse levels and restrictions in one set of arrays
//! reserved from the fine level's size (half its rows and entries for
//! the coarse levels). So a setup on one rank allocates the same number
//! of times whatever its rows and levels (`tests/allocations.rs` pins
//! it); only a hierarchy that outgrows a reservation reallocates.

use std::cell::RefCell;
use std::ops::Range;

use scomm::{Comm, Halo, HaloBuffers};

use crate::csr::{Csr, DistCsr, OwnedRows};
use crate::dense::Cholesky;
use crate::krylov::LinearOp;

/// Setup options.
#[derive(Debug, Clone, Copy)]
pub struct AmgOptions {
    /// Stop coarsening at this many rows, over all ranks, and solve
    /// directly.
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

/// Exchange streams: the V-cycle's, and the setup's three payload types.
const VCYCLE_STREAM: u64 = 0xA0;
const SETUP_F64_STREAM: u64 = 0xA1;
const SETUP_U64_STREAM: u64 = 0xA2;
const SETUP_U8_STREAM: u64 = 0xA3;

/// How one level of a hierarchy that spans ranks reaches the others: the
/// communicator and the level's [`Ghosts`]. `None` for one rank's rows
/// alone, which have no ghost column and exchange nothing.
type Link<'a> = Option<(&'a Comm, &'a Ghosts)>;

/// Where one level's rows lie across ranks: this rank owns global rows
/// `first..first + n`, its rows' other columns are the ghost rows `gids`,
/// and `halo` moves their values.
struct Ghosts {
    first: u64,
    /// Global ids of the ghost columns (local columns `n..`), ascending,
    /// so grouped by owner rank.
    gids: Vec<u64>,
    halo: Halo,
}

/// The rank owning global row `g` when rank `r` owns
/// `offsets[r]..offsets[r + 1]`.
fn owner(offsets: &[u64], g: u64) -> usize {
    offsets.partition_point(|&o| o <= g) - 1
}

impl Ghosts {
    /// The owned rows from `first` with ghost columns `gids`
    /// (ascending), rank `r` owning `offsets[r]..offsets[r + 1]`.
    /// Collective.
    fn new(comm: &Comm, first: u64, gids: Vec<u64>, offsets: &[u64]) -> Ghosts {
        let halo = Halo::from_ghosts(comm, first, &gids, offsets);
        Ghosts { first, gids, halo }
    }

    /// Global id of local column `j` of a level with `n` owned rows.
    fn gid(&self, n: usize, j: usize) -> u64 {
        if j < n {
            self.first + j as u64
        } else {
            self.gids[j - n]
        }
    }
}

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
/// each with its own column numbering: its owned rows, then its ghost
/// columns.
struct LevelOp<const C: usize> {
    row_ptr: Vec<usize>,
    entries: Vec<Entry>,
    /// Per row, where the entries left and right of the diagonal end and
    /// start: the smoother skips the diagonal slot between them.
    around_diag: Vec<(usize, usize)>,
    /// Per row, each lane's diagonal (`0.0` where not stored).
    diag: Vec<[f64; C]>,
    /// Per row, each lane's ℓ1 smoother divisor: the diagonal plus
    /// `½Σ|a_ij|` over the row's ghost columns. Empty for a rank alone,
    /// whose divisor is the diagonal.
    l1: Vec<[f64; C]>,
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
            l1: Vec::new(),
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
            l1: (!self.l1.is_empty()).then(|| &self.l1[range.clone()]),
            uniform: if C == 1 { &[] } else { &self.uniform[range] },
            entries: &self.entries,
        }
    }

    /// Give the levels in `levels` (row ranges, each numbering its
    /// columns from its first row) the ℓ1 divisors of a hierarchy that
    /// spans ranks: each row's diagonal plus half the magnitudes of the
    /// entries in its ghost columns, the columns past the level's rows.
    fn hybrid(&mut self, levels: impl Iterator<Item = Range<usize>>) {
        self.l1 = self.diag.clone();
        for level in levels {
            let n = level.len();
            for i in level {
                for e in &self.entries[self.row_ptr[i]..self.row_ptr[i + 1]] {
                    if e.col as usize >= n {
                        for c in (0..C).filter(|&c| e.present >> c & 1 != 0) {
                            self.l1[i][c] += 0.5 * e.val.abs();
                        }
                    }
                }
            }
        }
    }

    /// `a` eliminated lane by lane: lane `c` stores what
    /// `a.eliminate(mask_c)` stores, bit for bit, where bit `c` of
    /// `pinned[j]` is `mask_c[j]` for every column `j` (owned rows, then
    /// ghost columns). Columns of `a` must be ascending and distinct
    /// within a row, as [`Csr::from_row_terms`] leaves them. Entries no
    /// lane stores are left out.
    fn masked(a: &Csr, pinned: &[u8]) -> Self {
        assert!(a.ncols >= a.nrows, "owned rows number the first columns");
        assert_eq!(pinned.len(), a.ncols);
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

/// One level of a [`LevelOp`], rows numbered from zero, and columns:
/// its rows, then its ghost columns.
#[derive(Clone, Copy)]
struct Rows<'a, const C: usize> {
    /// `n + 1` offsets into `entries`.
    row_ptr: &'a [usize],
    around_diag: &'a [(usize, usize)],
    diag: &'a [[f64; C]],
    /// The smoother's ℓ1 divisors; `None` for a rank alone, whose
    /// divisor is the diagonal.
    l1: Option<&'a [[f64; C]]>,
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
    /// of the interleaved `x` (owned rows, then ghost rows, which stay as
    /// they are). The backward pass is the adjoint of the forward one.
    fn gs(&self, b: &[f64], x: &mut [f64], rows: impl Iterator<Item = usize>) {
        let (b, x) = (lanes::<C>(b), lanes_mut::<C>(x));
        match self.l1 {
            None => rows.for_each(|i| self.relax::<false>(i, self.diag, b, x)),
            Some(l1) => rows.for_each(|i| self.relax::<true>(i, l1, b, x)),
        }
    }

    /// Relax row `i` of every lane, the other unknowns fixed: solve it for
    /// `x_i` (`x_i = σ/a_ii`, `div` the diagonal), or with ℓ1 divisors
    /// `div` (`HYBRID`) add the row's residual over its divisor
    /// (`x_i += (σ − a_ii x_i)/l1_i`), which keeps the backward pass the
    /// forward one's adjoint.
    #[inline(always)]
    fn relax<const HYBRID: bool>(
        &self,
        i: usize,
        div: &[[f64; C]],
        b: &[[f64; C]],
        x: &mut [[f64; C]],
    ) {
        let (parts, whole) = self.off_diagonal(i);
        let mut sigma = b[i];
        for part in parts {
            terms(part, whole, x, |c, t| sigma[c] -= t);
        }
        let d = div[i];
        x[i] = if HYBRID {
            let a = self.diag[i];
            std::array::from_fn(|c| (sigma[c] + (d[c] - a[c]) * x[i][c]) / d[c])
        } else {
            std::array::from_fn(|c| sigma[c] / d[c])
        };
    }

    /// `r = b − A x` on the owned rows, every lane.
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

/// `COARSE_SWEEPS` symmetric Gauss–Seidel sweeps on `x`, each pass after
/// one exchange of its ghost values.
fn sweeps<const C: usize>(
    op: Rows<'_, C>,
    link: Link,
    b: &[f64],
    x: &mut [f64],
    wire: &mut HaloBuffers<f64>,
) {
    let n = op.n();
    for _ in 0..COARSE_SWEEPS {
        if let Some((comm, g)) = link {
            wire.fill(comm, &[&g.halo], &mut [x], C);
        }
        op.gs(b, x, 0..n);
        if let Some((comm, g)) = link {
            wire.fill(comm, &[&g.halo], &mut [x], C);
        }
        op.gs(b, x, (0..n).rev());
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

    fn push(&mut self, col: usize, val: f64) {
        self.cols.push(col as u32);
        self.vals.push(val);
    }

    fn end_row(&mut self) {
        self.ptr.push(self.cols.len());
    }

    /// Append rows `rows` of `other`.
    fn append(&mut self, other: &Sparse, rows: Range<usize>) {
        let k = other.ptr[rows.start]..other.ptr[rows.end];
        let base = self.cols.len() - k.start;
        let ptrs = &other.ptr[rows.start + 1..=rows.end];
        self.ptr.extend(ptrs.iter().map(|&p| base + p));
        self.cols.extend_from_slice(&other.cols[k.clone()]);
        self.vals.extend_from_slice(&other.vals[k]);
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
/// of `e` added to lane `c` of the owned rows of the interleaved `x`.
/// Each fine entry sums its terms from `0.0` in lane `c` of `acc` in
/// `R`-row order — ascending coarse column, the order of its row of `P` —
/// and is then added to `x`. Scattering along the long rows of `R` keeps
/// the short rows of `P` (a few entries each) from costing a loop exit
/// apiece.
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
    /// A dense factor of the whole level, which every rank holds.
    Cholesky(Cholesky),
    /// [`COARSE_SWEEPS`] smoother sweeps from zero, for a coarsest level
    /// that is singular or still larger than `max_coarse` (its vanishing
    /// diagonal entries are replaced by `1.0`).
    Sweeps,
}

/// Solve a level that `ch` factors whole for the right-hand side in the
/// `n` owned rows of `x`, leaving the solution in `x`'s owned rows and in
/// its ghost rows past them: gather the right-hand side from every rank
/// into `whole` and solve it redundantly.
fn solve_whole(link: Link, ch: &Cholesky, x: &mut [f64], n: usize, whole: &mut Vec<f64>) {
    let Some((comm, level)) = link else {
        ch.solve(&mut x[..n]);
        return;
    };
    comm.allgatherv_into(&x[..n], whole);
    ch.solve(whole);
    let (owned, ghosts) = x.split_at_mut(n);
    let first = level.first as usize;
    owned.copy_from_slice(&whole[first..first + n]);
    for (xg, &g) in ghosts.iter_mut().zip(&level.gids) {
        *xg = whole[g as usize];
    }
}

/// One scalar hierarchy below the fine level: the coarse levels built
/// from one lane's matrix, the restrictions between them, and how the
/// coarsest level is solved.
struct Chain {
    /// Coarse levels; 0 when the fine level is the coarsest.
    depth: usize,
    /// Coarse level `k` (from 1) is rows `ends[k - 1]..ends[k]` of `ops`.
    ends: [usize; MAX_LEVELS + 1],
    /// Its vectors, owned rows then ghost rows, are
    /// `vec_ends[k - 1]..vec_ends[k]` of the stacked scratch.
    vec_ends: [usize; MAX_LEVELS + 1],
    /// Coarse level `k`'s ghosts are `ghosts[k - 1]`; none for a rank
    /// alone.
    ghosts: Vec<Ghosts>,
    ops: LevelOp<1>,
    /// `R_k = P_kᵀ` for `k < depth`, where `P_k` prolongs from level
    /// `k + 1` to level `k` (level 0 is the fine one): one row per
    /// level-`k + 1` row, owned then ghost, listing owned level-`k` rows,
    /// stacked as the scratch vectors are. The V-cycle needs no `P_k`.
    r: Sparse,
    direct: Direct,
}

impl Chain {
    /// Build the hierarchy of lane `c` of the fine level `fine`, whose
    /// `D⁻¹A` has spectral radius `rho` in that lane and which has
    /// `n_global` rows over all ranks. Collective.
    fn build<const C: usize>(
        fine: Rows<'_, C>,
        link: Link,
        n_global: u64,
        (c, rho): (usize, f64),
        options: AmgOptions,
        ws: &mut Setup,
    ) -> Chain {
        let net = link.map(|(comm, _)| comm);
        let n_fine = fine.n();
        let mut chain = Chain {
            depth: 0,
            ends: [0; MAX_LEVELS + 1],
            vec_ends: [0; MAX_LEVELS + 1],
            ghosts: Vec::new(),
            ops: LevelOp::with_capacity(n_fine / 2, ws.entries / 2),
            r: Sparse::with_capacity(n_fine / 2, ws.entries),
            direct: Direct::Sweeps,
        };
        let mut n = n_global;
        while n > options.max_coarse as u64 && chain.depth < MAX_LEVELS {
            let coarse = match chain.depth {
                0 => ws.coarsen(fine, link, n, c, Some(rho)),
                d => ws.coarsen(chain.level(d), chain.link(d, net), n, 0, None),
            };
            let Some(n_coarse) = coarse else {
                break; // nothing to coarsen, or no progress; stop here
            };
            let gids = ws.galerkin(net, &mut chain.ops, &mut chain.r);
            chain.depth += 1;
            let d = chain.depth;
            chain.ends[d] = chain.ops.n();
            chain.vec_ends[d] = chain.vec_ends[d - 1] + ws.n_agg + gids.len();
            if let Some(comm) = net {
                let first = ws.offsets[comm.rank()];
                let level = Ghosts::new(comm, first, gids, &ws.offsets);
                chain.ghosts.push(level);
            }
            n = n_coarse;
        }
        // Direct coarse solve, degrading to smoother sweeps for singular
        // coarse operators (e.g. pure-Neumann problems) and for a level
        // that stalled above `max_coarse` rows, where a dense factor
        // would cost O(n²) per V-cycle. Aggregation within each rank
        // keeps a coarse row on every rank with rows, so a level spread
        // over more than `max_coarse` ranks stalls at a few rows per
        // rank; up to four per rank it is still gathered and factored.
        let d = chain.depth;
        let last = chain.ends[d.saturating_sub(1)]..chain.ends[d];
        let ranks = net.map_or(1, Comm::size);
        if n <= options.max_coarse.max(4 * ranks) as u64 {
            let factor = match d {
                0 => dense_factor(fine, link, n, c),
                _ => dense_factor(chain.ops.rows(last.clone()), chain.link(d, net), n, 0),
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
        if net.is_some() {
            let levels = (1..=d).map(|k| chain.ends[k - 1]..chain.ends[k]);
            let levels: Vec<Range<usize>> = levels.collect();
            chain.ops.hybrid(levels.into_iter());
        }
        chain
    }

    /// Coarse level `k`.
    fn level(&self, k: usize) -> Rows<'_, 1> {
        self.ops.rows(self.ends[k - 1]..self.ends[k])
    }

    /// How coarse level `k` reaches the other ranks of `net`.
    fn link<'a>(&'a self, k: usize, net: Option<&'a Comm>) -> Link<'a> {
        net.map(|comm| (comm, &self.ghosts[k - 1]))
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
    /// Aggregate per row ([`UNAGG`] for none): per owned row its own,
    /// then per ghost row its column of `P`.
    agg: Vec<usize>,
    isolated: Vec<bool>,
    /// Strong neighbours of every row, flat: row `i`'s are
    /// `strong[strong_ptr[i]..strong_ptr[i + 1]]`.
    strong_ptr: Vec<usize>,
    strong: Vec<u32>,
    /// Power-iteration vectors.
    x: Vec<f64>,
    y: Vec<f64>,
    /// `A·P0`, `P` (owned rows, then ghost rows), `R = Pᵀ` and `A·P` of
    /// the level being coarsened.
    ap0: Sparse,
    p: Sparse,
    r: Sparse,
    ap: Sparse,
    /// The Galerkin levels' assembly, whose row accumulator the sparse
    /// products share.
    rows: OwnedRows,
    /// Aggregates on this rank, and their first global id: the owned
    /// coarse rows.
    n_agg: usize,
    /// Where the ranks' coarse rows start, and their total after them.
    offsets: Vec<u64>,
    /// Global ids of the coarse columns past the owned ones: those of
    /// the ghost rows' aggregates, then with the ghost rows of `P`.
    g1: Vec<u64>,
    g2: Vec<u64>,
    ids: Vec<u64>,
    wire_f: HaloBuffers<f64>,
    wire_u: HaloBuffers<u64>,
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
            rows: OwnedRows {
                accum: Vec::with_capacity(n),
                row_cols: Vec::with_capacity(n),
                ..OwnedRows::default()
            },
            n_agg: 0,
            offsets: Vec::new(),
            g1: Vec::new(),
            g2: Vec::new(),
            ids: Vec::new(),
            wire_f: HaloBuffers::with_stream(SETUP_F64_STREAM),
            wire_u: HaloBuffers::with_stream(SETUP_U64_STREAM),
        }
    }

    /// One coarsening step of lane `c` of `a`, a level of `n_global` rows
    /// over all ranks: aggregate, smooth the tentative prolongator `P`
    /// (with the spectral radius `rho` of lane `c`'s `D⁻¹A` if already
    /// estimated), and leave `R = Pᵀ` and `A·P` here for
    /// [`Setup::galerkin`]. Returns the coarse level's rows over all
    /// ranks; `None` if aggregation makes no progress (no aggregate, or
    /// one per row). Collective.
    fn coarsen<const C: usize>(
        &mut self,
        a: Rows<'_, C>,
        link: Link,
        n_global: u64,
        c: usize,
        rho: Option<f64>,
    ) -> Option<u64> {
        let n = a.n();
        self.diag.clear();
        self.diag.extend(a.diag.iter().map(|d| d[c]));
        let n_agg = self.aggregate(a, c);
        self.n_agg = n_agg;
        let (first, n_coarse) = match link {
            None if n_agg == 0 || n_agg >= n => return None,
            None => (0, n_agg as u64),
            Some((comm, _)) => {
                comm.offsets_into(n_agg as u64, &mut self.offsets);
                let total = self.offsets[comm.size()];
                if total == 0 || total >= n_global {
                    return None;
                }
                (self.offsets[comm.rank()], total)
            }
        };
        // Smooth: P = (I − ω D⁻¹ A) P0 with ω = 4/(3ρ).
        let rho = rho.unwrap_or_else(|| self.spectral_radii(a, link, 12)[c]);
        let omega = 4.0 / (3.0 * rho);
        self.g1.clear();
        if let Some((comm, g)) = link {
            self.ghost_aggregates(comm, g, n, first);
        }
        let Setup {
            diag,
            agg,
            ap0,
            p,
            rows,
            ..
        } = self;
        // A·P0, where P0 is the tentative prolongator: piecewise constant
        // over aggregates, an empty row for a node in none.
        let p0 = |j: usize| (agg[j] != UNAGG).then_some((agg[j], 1.0)).into_iter();
        ap0.clear();
        gustavson(
            n,
            n_agg + self.g1.len(),
            |i| a.lane_row(i, c),
            p0,
            (&mut rows.accum, &mut rows.row_cols),
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
        self.g2.clear();
        if let Some((comm, g)) = link {
            self.ghost_prolongator_rows(comm, &g.halo, first);
        }
        let nc = n_agg + self.g2.len();
        let Setup { p, r, ap, rows, .. } = self;
        transpose(p, n, nc, r);
        ap.clear();
        gustavson(
            n,
            nc,
            |i| a.lane_row(i, c),
            |j| p.row(j),
            (&mut rows.accum, &mut rows.row_cols),
            false,
            |_, cols, acc| {
                for &j in cols {
                    ap.push(j as usize, acc[j as usize].1);
                }
                ap.end_row();
            },
        );
        Some(n_coarse)
    }

    /// Give each ghost row of the level being coarsened (the `agg`
    /// entries past its `n` owned rows) its column of `P`: the aggregate
    /// its owner put it in, from one exchange, numbered past the owned
    /// aggregates in ascending global id (`g1`).
    fn ghost_aggregates(&mut self, comm: &Comm, g: &Ghosts, n: usize, first: u64) {
        let gid = |g: usize| {
            if g == UNAGG {
                u64::MAX
            } else {
                first + g as u64
            }
        };
        self.ids.clear();
        self.ids.extend(self.agg[..n].iter().map(|&g| gid(g)));
        self.ids.resize(n + g.gids.len(), u64::MAX);
        (self.wire_u).fill(comm, &[&g.halo], &mut [&mut self.ids], 1);
        let ghosts = &self.ids[n..];
        self.g1
            .extend(ghosts.iter().copied().filter(|&g| g != u64::MAX));
        self.g1.sort_unstable();
        self.g1.dedup();
        self.agg.truncate(n);
        for &g in ghosts {
            let col = self.g1.binary_search(&g).map_or(UNAGG, |k| self.n_agg + k);
            self.agg.push(col);
        }
    }

    /// Append to `P`'s owned rows its ghost rows: each rank ships the rows
    /// the others read as ghosts, columns as global ids. The coarse
    /// columns past the owned ones become `g2`, the ids in `g1` and in
    /// the ghost rows, and the owned rows are renumbered to it.
    fn ghost_prolongator_rows(&mut self, comm: &Comm, halo: &Halo, first: u64) {
        let n_agg = self.n_agg;
        let own = first..first + n_agg as u64;
        let (p, g1) = (&mut self.p, &self.g1);
        let gid = |j: usize| {
            if j < n_agg {
                first + j as u64
            } else {
                g1[j - n_agg]
            }
        };
        let mut lens: Vec<Vec<u32>> = vec![Vec::new(); comm.size()];
        let mut terms: Vec<Vec<(u64, f64)>> = vec![Vec::new(); comm.size()];
        let mut rows = halo.send.iter();
        for (rank, &count) in halo.send_counts.iter().enumerate() {
            for &i in rows.by_ref().take(count) {
                let row = p.row(i as usize);
                let before = terms[rank].len();
                terms[rank].extend(row.map(|(j, v)| (gid(j), v)));
                lens[rank].push((terms[rank].len() - before) as u32);
            }
        }
        let (lens, terms) = (comm.alltoallv(&lens), comm.alltoallv(&terms));
        let g2 = &mut self.g2;
        g2.extend_from_slice(g1);
        g2.extend(
            terms
                .iter()
                .flatten()
                .map(|t| t.0)
                .filter(|g| !own.contains(g)),
        );
        g2.sort_unstable();
        g2.dedup();
        let col = |g: u64| match own.contains(&g) {
            true => (g - first) as usize,
            false => n_agg + g2.binary_search(&g).expect("a listed coarse column"),
        };
        for j in &mut p.cols {
            if *j as usize >= n_agg {
                *j = col(g1[*j as usize - n_agg]) as u32;
            }
        }
        // Ranks in order, each rank's rows in this rank's ghost order.
        for (lens, terms) in lens.iter().zip(&terms) {
            let mut terms = terms.iter();
            for &len in lens {
                for &(g, v) in terms.by_ref().take(len as usize) {
                    p.push(col(g), v);
                }
                p.end_row();
            }
        }
    }

    /// Append the Galerkin operator `R·(A·P)` of the last
    /// [`Setup::coarsen`] to `ops` as a level of `n_agg` owned rows, and
    /// its restriction to `r_out`: [`OwnedRows::sum`] ships the rows of
    /// coarse columns another rank owns to it and adds them after the
    /// owner's own sums. Returns the ghost columns of the new level
    /// (ascending global ids): those of its rows and of the restriction's
    /// rows. Collective where the level spans ranks.
    fn galerkin(
        &mut self,
        net: Option<&Comm>,
        ops: &mut LevelOp<1>,
        r_out: &mut Sparse,
    ) -> Vec<u64> {
        let n_agg = self.n_agg;
        let nc = n_agg + self.g2.len();
        let first = net.map_or(0, |comm| self.offsets[comm.rank()]);
        let Setup {
            r,
            ap,
            ap0: own_rows,
            rows,
            g2,
            offsets,
            ..
        } = self;
        let gid = |j: usize| {
            if j < n_agg {
                first + j as u64
            } else {
                g2[j - n_agg]
            }
        };
        // Owned rows wait in `own_rows` (`A·P0` is spent); the others are
        // shipped.
        rows.ship.resize_with(net.map_or(0, Comm::size), Vec::new);
        let OwnedRows {
            ship,
            accum,
            row_cols,
            ..
        } = rows;
        own_rows.clear();
        gustavson(
            nc,
            nc,
            |i| r.row(i),
            |j| ap.row(j),
            (accum, row_cols),
            true,
            |i, cols, acc| {
                if i >= n_agg {
                    let (row, to) = (gid(i), owner(offsets, gid(i)));
                    let terms = cols
                        .iter()
                        .map(|&j| (row, gid(j as usize), acc[j as usize].1));
                    ship[to].extend(terms);
                } else {
                    for &j in cols {
                        own_rows.push(j as usize, acc[j as usize].1);
                    }
                    own_rows.end_row();
                }
            },
        );
        // The level's ghost columns: its owned rows' and the restriction's.
        let restricted = (n_agg..nc).filter(|&j| r.ptr[j + 1] > r.ptr[j]);
        let local = own_rows
            .cols
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| j >= n_agg);
        let own_row = |i: usize| own_rows.row(i).map(|(j, v)| (j as u32, v));
        let gid_u32 = |j: u32| gid(j as usize);
        let extra = local.chain(restricted).map(gid);
        let ghosts = rows.sum(
            net,
            (first, n_agg),
            own_row,
            gid_u32,
            extra,
            |i, cols, acc| {
                let diag = if acc[i].0 == i { acc[i].1 } else { 0.0 };
                let entry = |&j: &u32| Entry {
                    val: acc[j as usize].1,
                    col: j,
                    present: 1,
                };
                ops.entries.extend(cols.iter().map(entry));
                ops.end_row(i, [diag]);
            },
        );
        // The restriction: owned coarse rows, then one per ghost column.
        r_out.append(r, 0..n_agg);
        for g in &ghosts {
            match g2.binary_search(g) {
                Ok(k) => r_out.append(r, n_agg + k..n_agg + k + 1),
                Err(_) => r_out.end_row(),
            }
        }
        ghosts
    }

    /// Greedy aggregation of the owned rows on the strength graph of lane
    /// `c` of `a`, among owned rows, into `agg`. Returns the number of
    /// aggregates. A row with no non-zero off-diagonal gets no aggregate
    /// ([`UNAGG`]): nothing couples it to a coarse unknown.
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
                    if j < n {
                        let bound = THETA * (diag[i].abs() * diag[j].abs()).sqrt();
                        if v.abs() >= bound {
                            strong.push(j as u32);
                        }
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
    /// (deterministic start, by global row), the lanes side by side. Each
    /// lane's arithmetic is that of the iteration on its matrix alone: a
    /// term the lane does not store adds `+0.0` to a sum that starts at
    /// `+0.0`. Collective where the level spans ranks: each step
    /// exchanges the ghost values and sums the norms over ranks.
    fn spectral_radii<const C: usize>(
        &mut self,
        a: Rows<'_, C>,
        link: Link,
        iters: usize,
    ) -> [f64; C] {
        let n = a.n();
        let Setup { x, y, wire_f, .. } = self;
        x.clear();
        let (first, ghosts) = link.map_or((0, 0), |(_, g)| (g.first as usize, g.gids.len()));
        let start = |i: usize| 1.0 + ((first + i) % 7) as f64 * 0.1;
        x.extend((0..n).flat_map(|i| [start(i); C]));
        x.resize(C * (n + ghosts), 0.0);
        y.clear();
        y.resize(C * n, 0.0);
        let mut lambda = [1.0f64; C];
        // A lane whose `D⁻¹A x` vanishes stops at ρ = 1.
        let mut live = [true; C];
        for _ in 0..iters {
            if let Some((comm, g)) = link {
                wire_f.fill(comm, &[&g.halo], &mut [x], C);
            }
            let (xs, ys) = (lanes_mut::<C>(x), lanes_mut::<C>(y));
            for (i, yi) in ys.iter_mut().enumerate() {
                let ax = a.row_product(i, xs);
                *yi = std::array::from_fn(|c| ax[c] / a.diag[i][c].max(1e-300));
            }
            // Per lane Σy² and Σx² over the owned rows, summed over ranks.
            let mut sums = [0.0; 16];
            for c in 0..C {
                sums[c] = ys.iter().map(|v| v[c] * v[c]).sum::<f64>();
                sums[8 + c] = xs[..n].iter().map(|v| v[c] * v[c]).sum::<f64>();
            }
            if let Some((comm, _)) = link {
                sums = comm.allreduce_sum(&sums);
            }
            for c in 0..C {
                if !live[c] {
                    continue;
                }
                let norm = sums[c].sqrt();
                if norm == 0.0 {
                    (lambda[c], live[c]) = (1.0, false);
                    continue;
                }
                let norm_x = sums[8 + c].sqrt();
                lambda[c] = norm / norm_x.max(1e-300);
                for (xi, yi) in xs.iter_mut().zip(ys.iter()) {
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

/// `out = Pᵀ` for the first `rows` rows of `P`, with `ncols` columns:
/// row `J` of `out` lists column `J` of those rows in row order.
fn transpose(p: &Sparse, rows: usize, ncols: usize, out: &mut Sparse) {
    let entries = p.ptr[rows];
    out.ptr.clear();
    out.ptr.resize(ncols + 1, 0);
    for &j in &p.cols[..entries] {
        out.ptr[j as usize + 1] += 1;
    }
    for j in 0..ncols {
        out.ptr[j + 1] += out.ptr[j];
    }
    out.cols.clear();
    out.cols.resize(entries, 0);
    out.vals.clear();
    out.vals.resize(entries, 0.0);
    // `ptr[j]` runs from the start of row `j` to its end, the start of
    // row `j + 1`; shifted back afterwards.
    for i in 0..rows {
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

/// Dense Cholesky factorization of lane `c` of the level `a`, whole: a
/// level that spans ranks is gathered to every rank. `None` if a pivot is
/// not positive. The Galerkin coarse operator `Pᵀ A P` of an SPD input is
/// SPD unless singular, and a singular one is solved by sweeps.
/// Collective.
fn dense_factor<const C: usize>(
    a: Rows<'_, C>,
    link: Link,
    n_global: u64,
    c: usize,
) -> Option<Cholesky> {
    let (n, ng) = (a.n(), n_global as usize);
    let mut dense = vec![0.0; ng * ng];
    let Some((comm, g)) = link else {
        for i in 0..n {
            for (j, v) in a.lane_row(i, c) {
                dense[i * n + j] = v;
            }
        }
        return Cholesky::factor(&dense, n);
    };
    let mine: Vec<(u64, u64, f64)> = (0..n)
        .flat_map(|i| a.lane_row(i, c).map(move |(j, v)| (i, j, v)))
        .map(|(i, j, v)| (g.first + i as u64, g.gid(n, j), v))
        .collect();
    for (i, j, v) in comm.allgatherv(&mine) {
        dense[i as usize * ng + j as usize] = v;
    }
    Cholesky::factor(&dense, ng)
}

/// `C` smoothed-aggregation hierarchies, one per interleaved component
/// of the vectors they precondition (see the module documentation). The
/// plain `Amg` is one hierarchy for a scalar vector. A hierarchy that
/// spans ranks holds their communicator for its V-cycles.
pub struct Amg<'c, const C: usize = 1> {
    /// The communicator and the fine level's ghosts of a hierarchy that
    /// spans ranks.
    net: Option<(&'c Comm, Ghosts)>,
    fine: LevelOp<C>,
    /// One per distinct lane matrix.
    chains: Vec<Chain>,
    /// Lane `c` continues in `chains[lanes[c]]`.
    lanes: [usize; C],
    /// Whether some lane coarsens (and is smoothed on the fine level).
    coarsens: bool,
    scratch: RefCell<FineScratch<C>>,
}

/// Fine-level V-cycle scratch, sized at setup so steady-state V-cycles
/// are allocation-free. Every buffer is fully overwritten before it is
/// read, so reuse is bitwise-transparent.
struct FineScratch<const C: usize> {
    /// Interleaved residual, `C·n` (empty if no lane coarsens); each
    /// lane's is reused to sum its prolonged correction.
    r: Vec<f64>,
    /// The interleaved iterate with its ghost rows, where the fine level
    /// has ghost columns (empty otherwise: the iterate is the caller's).
    x: Vec<f64>,
    /// One lane, for the dense direct solves of lanes that do not
    /// coarsen, and the whole level such a solve gathers.
    lane: Vec<f64>,
    whole: Vec<f64>,
    /// Every lane swept from zero, with ghost rows, for
    /// [`Direct::Sweeps`] on the fine level.
    swept: Vec<f64>,
    /// Each coarsening lane's coarse-level vectors.
    coarse: [LaneScratch; C],
    wire: HaloBuffers<f64>,
}

/// One lane's right-hand side, iterate and residual (reused to sum the
/// prolonged correction) on every coarse level of its hierarchy, owned
/// rows then ghost rows, stacked as the levels are.
#[derive(Default)]
struct LaneScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
}

/// The field of a lane's coarse vectors an exchange round carries.
type Field = fn(&mut LaneScratch) -> &mut Vec<f64>;

impl Amg<'static> {
    /// Setup phase: build the hierarchy for SPD `a`, the whole matrix.
    pub fn new(a: Csr, options: AmgOptions) -> Amg<'static> {
        let fine = LevelOp::from_csr(&a);
        drop(a);
        let n = fine.n() as u64;
        Amg::build(None, fine, n, [0], options)
    }
}

impl Amg<'_> {
    /// Number of levels including the coarse grid.
    pub fn num_levels(&self) -> usize {
        1 + self.chains[0].depth
    }

    /// `(rows, non-zeros)` of the operator on every level, finest first:
    /// this rank's rows.
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

/// The lanes of the interleaved Dirichlet `mask` (`C` flags per owned
/// row): per row, bit `c` set when lane `c` is pinned, and the hierarchy
/// each lane continues in, that of the first earlier lane pinned on the
/// same rows of every rank, else a new one. Whether two lanes share is
/// decided across the ranks of `comm` in one reduction, so that every
/// rank builds the same hierarchies even where its own rows cannot tell
/// two lanes apart; a rank alone (`None`) decides by itself.
fn lane_layout<const C: usize>(mask: &[bool], comm: Option<&Comm>) -> (Vec<u8>, [usize; C]) {
    let (rows, rest) = mask.as_chunks::<C>();
    assert!(rest.is_empty(), "{C} mask flags per row");
    let pinned: Vec<u8> = rows
        .iter()
        .map(|m| (0..C).fold(0, |bits, c| bits | u8::from(m[c]) << c))
        .collect();
    // `differ[8 * c + e]`: lanes `c` and `e < c` pin different rows.
    let mut differ = [0u8; 64];
    for c in 0..C {
        for e in 0..c {
            differ[8 * c + e] = u8::from(pinned.iter().any(|&b| (b >> c ^ b >> e) & 1 != 0));
        }
    }
    if let Some(comm) = comm {
        differ = comm.allreduce_max(&differ);
    }
    let mut lanes = [0; C];
    for c in 1..C {
        lanes[c] = match (0..c).find(|&e| differ[8 * c + e] == 0) {
            Some(e) => lanes[e],
            None => lanes[..c].iter().max().unwrap() + 1,
        };
    }
    (pinned, lanes)
}

impl<'c, const C: usize> Amg<'c, C> {
    /// Lane `c` of the vectors this preconditions is preconditioned as
    /// `Amg::new(a.eliminate(m_c), options)` would, V-cycle for V-cycle
    /// bitwise, where `m_c` is lane `c` of the interleaved Dirichlet
    /// `mask` (`C` flags per row), with one hierarchy per distinct lane
    /// mask. The fine level is built from `a` itself, with no eliminated
    /// copy (see the module documentation). Columns of `a` must be
    /// ascending and distinct within a row, as [`Csr::from_row_terms`]
    /// leaves them.
    pub fn masked(a: &Csr, mask: &[bool], options: AmgOptions) -> Amg<'c, C> {
        assert_eq!(a.nrows, a.ncols, "the whole matrix is square");
        assert_eq!(mask.len(), C * a.nrows, "{C} mask flags per row");
        let (pinned, lanes) = lane_layout::<C>(mask, None);
        let n = a.nrows as u64;
        Amg::build(None, LevelOp::masked(a, &pinned), n, lanes, options)
    }

    /// [`Amg::masked`] for the matrix whose rows the ranks of `comm` own
    /// as `a`, one hierarchy across them (see the module documentation),
    /// `mask` over the owned rows; two lanes share a hierarchy when their
    /// masks agree on every rank. On one rank it is `Amg::masked` of
    /// `a.a`. Collective.
    pub fn coupled(comm: &'c Comm, a: &DistCsr, mask: &[bool], options: AmgOptions) -> Amg<'c, C> {
        let n = a.a.nrows;
        assert_eq!(a.a.ncols, n + a.ghosts.len(), "owned columns, then ghosts");
        if comm.size() == 1 {
            return Amg::masked(&a.a, mask, options);
        }
        let (rank, offsets) = (comm.rank(), &a.offsets);
        assert_eq!(
            offsets.len(),
            comm.size() + 1,
            "one offset per rank, then the total"
        );
        assert_eq!(
            (offsets[rank], offsets[rank + 1] - offsets[rank]),
            (a.first_row, n as u64),
            "ranks own rows in rank order"
        );
        assert_eq!(mask.len(), C * n, "{C} mask flags per owned row");
        let (mut pinned, lanes) = lane_layout::<C>(mask, Some(comm));
        let ghosts = Ghosts::new(comm, a.first_row, a.ghosts.clone(), offsets);
        pinned.resize(n + a.ghosts.len(), 0);
        let mut wire = HaloBuffers::with_stream(SETUP_U8_STREAM);
        wire.fill(comm, &[&ghosts.halo], &mut [&mut pinned], 1);
        let fine = LevelOp::masked(&a.a, &pinned);
        Amg::build(
            Some((comm, ghosts)),
            fine,
            offsets[comm.size()],
            lanes,
            options,
        )
    }

    /// The hierarchies below `fine`, one per distinct entry of `lanes`.
    fn build(
        net: Option<(&'c Comm, Ghosts)>,
        mut fine: LevelOp<C>,
        n_global: u64,
        lanes: [usize; C],
        options: AmgOptions,
    ) -> Amg<'c, C> {
        let n = fine.n();
        let n_chains = lanes.iter().max().map_or(0, |&k| k + 1);
        let mut ws = Setup::new(n, C, fine.entries.len());
        let link = net.as_ref().map(|(comm, g)| (*comm, g));
        // Every lane's spectral radius in one pass per power step; only a
        // level above `max_coarse` rows is coarsened and needs one.
        let rho = if n_global > options.max_coarse as u64 {
            ws.spectral_radii(fine.rows(0..n), link, 12)
        } else {
            [1.0; C]
        };
        let mut chains = Vec::with_capacity(n_chains);
        for k in 0..n_chains {
            let c = lanes
                .iter()
                .position(|&l| l == k)
                .expect("every hierarchy has a lane");
            let fine_rows = fine.rows(0..n);
            let chain = Chain::build(fine_rows, link, n_global, (c, rho[c]), options, &mut ws);
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
        if link.is_some() {
            fine.hybrid(std::iter::once(0..n));
        }
        let fine_solves =
            |f: fn(&Direct) -> bool| chains.iter().any(|ch| ch.depth == 0 && f(&ch.direct));
        let coarsens = chains.iter().any(|ch| ch.depth > 0);
        let dense = fine_solves(|d| matches!(d, Direct::Cholesky(_)));
        let gathered = chains.iter().filter_map(|ch| match &ch.direct {
            Direct::Cholesky(f) if link.is_some() => Some(f.len()),
            _ => None,
        });
        let gathered = gathered.max().unwrap_or(0);
        let sweeps = fine_solves(|d| matches!(d, Direct::Sweeps));
        let ghosts = link.map_or(0, |(_, g)| g.gids.len());
        let rows = n + ghosts;
        let scratch = FineScratch {
            r: vec![0.0; if coarsens { C * n } else { 0 }],
            x: vec![0.0; if ghosts == 0 { 0 } else { C * rows }],
            lane: vec![0.0; if dense { n } else { 0 }],
            whole: Vec::with_capacity(gathered),
            swept: vec![0.0; if sweeps { C * rows } else { 0 }],
            coarse: std::array::from_fn(|c| {
                let len = chains[lanes[c]].vec_ends[chains[lanes[c]].depth];
                LaneScratch {
                    b: vec![0.0; len],
                    x: vec![0.0; len],
                    r: vec![0.0; len],
                }
            }),
            wire: HaloBuffers::with_stream(VCYCLE_STREAM),
        };
        Amg {
            net,
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

    /// Stored operator entries one V-cycle sweeps on this rank: the fine
    /// level's once, and each coarse level's once per lane that cycles it.
    pub fn vcycle_entries(&self) -> usize {
        let coarse = |k: usize| self.chains[k].ops.entries.len();
        self.fine.entries.len() + self.lanes.iter().map(|&k| coarse(k)).sum::<usize>()
    }

    /// Exchange rounds this rank's V-cycles have run so far and the
    /// point-to-point messages it sent in them; `(0, 0)` for a rank
    /// alone. Each coarsest-level solve gathers its right-hand side
    /// besides, in one collective.
    pub fn exchanges(&self) -> (u64, u64) {
        self.scratch.borrow().wire.exchanges()
    }

    /// The communicator of a hierarchy that spans ranks.
    fn comm(&self) -> Option<&Comm> {
        self.net.as_ref().map(|(comm, _)| *comm)
    }

    /// How the fine level reaches the other ranks.
    fn link(&self) -> Link<'_> {
        self.net.as_ref().map(|(comm, g)| (*comm, g))
    }

    /// Apply one V-cycle to `b` with zero initial guess: `x = B b` where
    /// `B ≈ A⁻¹` is SPD, on each of the `C` interleaved lanes of the
    /// owned rows. Allocation-free: all per-level scratch was sized during
    /// setup. Collective where the hierarchy spans ranks.
    pub fn vcycle(&self, b: &[f64], x: &mut [f64]) {
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        if s.x.is_empty() {
            self.cycle(b, x, s);
        } else {
            let mut with_ghosts = std::mem::take(&mut s.x);
            self.cycle(b, &mut with_ghosts, s);
            x.copy_from_slice(&with_ghosts[..x.len()]);
            s.x = with_ghosts;
        }
    }

    /// [`Amg::vcycle`] into `x`, the owned rows and then the ghost rows.
    fn cycle(&self, b: &[f64], x: &mut [f64], s: &mut FineScratch<C>) {
        x.fill(0.0);
        let link = self.link();
        let op = self.fine.rows(0..self.fine.n());
        let n = op.n();
        if self.coarsens {
            // Forward before the coarse correction, backward after, as on
            // the coarse levels. The forward pass starts from zero ghost
            // values, which are exact.
            op.gs(b, x, 0..n);
            if let Some((comm, g)) = link {
                s.wire.fill(comm, &[&g.halo], &mut [x], C);
            }
            op.residual(b, x, &mut s.r);
            self.correct(x, s);
            if let Some((comm, g)) = link {
                s.wire.fill(comm, &[&g.halo], &mut [x], C);
            }
            op.gs(b, x, (0..n).rev());
        }
        if !s.swept.is_empty() {
            s.swept.fill(0.0);
            sweeps(op, link, b, &mut s.swept, &mut s.wire);
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
            solve_whole(link, ch, &mut s.lane, n, &mut s.whole);
            for (xi, li) in x.iter_mut().zip(&s.lane) {
                xi[c] = *li;
            }
        }
    }

    /// Lane `c`'s hierarchy.
    fn chain(&self, c: usize) -> &Chain {
        &self.chains[self.lanes[c]]
    }

    /// Coarse-grid correction of every lane that coarsens, the lanes in
    /// lock-step (across ranks one exchange round carries them all):
    /// restrict the fine residual `s.r`, cycle on level 1 from zero, and
    /// add the prolonged result to `x`. Each lane of `s.r` is spent on its
    /// prolongation.
    fn correct(&self, x: &mut [f64], s: &mut FineScratch<C>) {
        let cycling: [bool; C] = std::array::from_fn(|c| self.chain(c).depth > 0);
        for c in (0..C).filter(|&c| cycling[c]) {
            let (ch, b) = (self.chain(c), &mut s.coarse[c].b);
            let v1 = ch.vec_ends[1];
            restrict(&ch.r, 0..v1, lanes::<C>(&s.r), c, &mut b[..v1]);
        }
        self.accumulate_level(1, cycling, s);
        self.descend(1, cycling, s);
        for c in (0..C).filter(|&c| cycling[c]) {
            let ch = self.chain(c);
            let v1 = ch.vec_ends[1];
            let (r, x) = (lanes_mut::<C>(&mut s.r), lanes_mut::<C>(x));
            prolong_add(&ch.r, 0..v1, &s.coarse[c].x[..v1], c, r, x);
        }
    }

    /// One V-cycle from zero on coarse level `k` of the lanes in `set`,
    /// whose hierarchies all reach level `k`, side by side: each exchange
    /// round carries every lane's ghost values. Leaves each lane's
    /// level-`k` iterate with its ghost values, for the prolongation.
    fn descend(&self, k: usize, set: [bool; C], s: &mut FineScratch<C>) {
        let net = self.comm();
        let smooth = std::array::from_fn(|c| set[c] && k < self.chain(c).depth);
        let level = |c: usize| {
            let ch = self.chain(c);
            (ch, ch.level(k), ch.vec_ends[k - 1]..ch.vec_ends[k])
        };
        for c in (0..C).filter(|&c| set[c]) {
            let (_, op, range) = level(c);
            let LaneScratch { b, x, .. } = &mut s.coarse[c];
            let (b, x) = (&b[range.clone()], &mut x[range]);
            x.fill(0.0);
            if smooth[c] {
                // Forward before the coarse correction, backward after:
                // the post-smoother is the pre-smoother's adjoint, so the
                // cycle is SPD with one pass over the operator on each
                // side.
                op.gs(&b[..op.n()], x, 0..op.n());
            }
        }
        if smooth.contains(&true) {
            let x: Field = |l| &mut l.x;
            self.fill_level(k, smooth, x, s);
            for c in (0..C).filter(|&c| smooth[c]) {
                let (ch, op, range) = level(c);
                let n = op.n();
                let coarse = ch.vec_ends[k]..ch.vec_ends[k + 1];
                let LaneScratch { b, x, r } = &mut s.coarse[c];
                let (b_here, b_next) = b.split_at_mut(coarse.start);
                let (b_here, r) = (&b_here[range.clone()], &mut r[range.clone()]);
                op.residual(&b_here[..n], &x[range], &mut r[..n]);
                let b_next = &mut b_next[..coarse.len()];
                restrict::<1>(&ch.r, coarse, lanes(r), 0, b_next);
            }
            self.accumulate_level(k + 1, smooth, s);
            self.descend(k + 1, smooth, s);
            for c in (0..C).filter(|&c| smooth[c]) {
                let (ch, _, range) = level(c);
                let coarse = ch.vec_ends[k]..ch.vec_ends[k + 1];
                let LaneScratch { x, r, .. } = &mut s.coarse[c];
                let (x, e) = x.split_at_mut(coarse.start);
                let e = &e[..coarse.len()];
                let (r, x) = (&mut r[range.clone()], &mut x[range]);
                prolong_add::<1>(&ch.r, coarse, e, 0, lanes_mut(r), lanes_mut(x));
            }
            self.fill_level(k, smooth, x, s);
            for c in (0..C).filter(|&c| smooth[c]) {
                let (_, op, range) = level(c);
                let LaneScratch { b, x, .. } = &mut s.coarse[c];
                let (b, x) = (&b[range.clone()], &mut x[range]);
                op.gs(&b[..op.n()], x, (0..op.n()).rev());
            }
            self.fill_level(k, smooth, x, s);
        }
        for c in (0..C).filter(|&c| set[c] && !smooth[c]) {
            let (ch, op, range) = level(c);
            let (link, n) = (ch.link(k, net), op.n());
            let LaneScratch { b, x, .. } = &mut s.coarse[c];
            let (b, x) = (&b[range.clone()], &mut x[range]);
            match &ch.direct {
                Direct::Cholesky(f) => {
                    x[..n].copy_from_slice(&b[..n]);
                    solve_whole(link, f, x, n, &mut s.whole);
                }
                Direct::Sweeps => {
                    sweeps(op, link, &b[..n], x, &mut s.wire);
                    if let Some((comm, g)) = link {
                        s.wire.fill(comm, &[&g.halo], &mut [x], 1);
                    }
                }
            }
        }
    }

    /// One round that fills the ghost rows of level `k` of `field` of
    /// every lane in `set` with their owners' values.
    fn fill_level(&self, k: usize, set: [bool; C], field: Field, s: &mut FineScratch<C>) {
        let Some(comm) = self.comm() else { return };
        let (halos, mut vs, m) = self.level_parts(k, set, field, &mut s.coarse);
        s.wire.fill(comm, &halos[..m], &mut vs[..m], 1);
    }

    /// One round that adds the ghost rows of level `k` of the lanes'
    /// right-hand sides into their owners' rows, in ascending source
    /// rank, then each lane's `send` order, and zeroes them.
    fn accumulate_level(&self, k: usize, set: [bool; C], s: &mut FineScratch<C>) {
        let Some(comm) = self.comm() else { return };
        let (halos, mut vs, m) = self.level_parts(k, set, |l| &mut l.b, &mut s.coarse);
        s.wire.accumulate(comm, &halos[..m], &mut vs[..m], 1);
    }

    /// The halos and the level-`k` vectors of `field` of the lanes in
    /// `set`, which one round carries side by side: the first `m` of each.
    fn level_parts<'a>(
        &'a self,
        k: usize,
        set: [bool; C],
        field: Field,
        coarse: &'a mut [LaneScratch; C],
    ) -> ([&'a Halo; C], [&'a mut [f64]; C], usize) {
        let first = set.iter().position(|&s| s).expect("a lane in the round");
        let mut halos = [&self.chain(first).ghosts[k - 1].halo; C];
        let mut vs: [&mut [f64]; C] = std::array::from_fn(|_| Default::default());
        let mut m = 0;
        for (c, lane) in coarse.iter_mut().enumerate().filter(|&(c, _)| set[c]) {
            let ch = self.chain(c);
            halos[m] = &ch.ghosts[k - 1].halo;
            vs[m] = &mut field(lane)[ch.vec_ends[k - 1]..ch.vec_ends[k]];
            m += 1;
        }
        (halos, vs, m)
    }
}

impl<const C: usize> LinearOp for Amg<'_, C> {
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
        let fused = Amg::<3>::masked(&a, &interleave([&mx, &all, &mz]), AmgOptions::default());
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

    /// The interleaved Dirichlet mask of three lanes' masks.
    fn interleave(lanes: [&[bool]; 3]) -> Vec<bool> {
        (0..3 * lanes[0].len())
            .map(|i| lanes[i % 3][i / 3])
            .collect()
    }

    /// The fused V-cycle of `Amg::masked` on the lanes' masks `lanes`,
    /// interleaved, on interleaved `b` against one
    /// `Amg::new(a.eliminate(mask))` V-cycle per lane, bit for bit, with
    /// `hierarchies` hierarchies built. `b` holds `±0.0` and negative
    /// values at masked rows and elsewhere.
    fn assert_fused_matches_scalar(a: &Csr, lanes: [&[bool]; 3], hierarchies: usize) {
        let n = a.nrows;
        let options = AmgOptions::default();
        let scalar = lanes.map(|m| Amg::new(a.eliminate(m), options));
        let fused = Amg::<3>::masked(a, &interleave(lanes), options);
        assert_eq!(fused.len(), 3 * n);
        assert_eq!(fused.hierarchies(), hierarchies);
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
            for (c, scalar) in scalar.iter().enumerate() {
                let bc: Vec<f64> = (0..n).map(|i| b[3 * i + c]).collect();
                let mut zc = vec![0.0; n];
                scalar.vcycle(&bc, &mut zc);
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
        assert_fused_matches_scalar(&a, [&mx, &my, &mz], 3);
        // No-slip: one mask shared by all lanes.
        let all: Vec<bool> = (0..a.nrows).map(|i| mx[i] || my[i] || mz[i]).collect();
        assert_fused_matches_scalar(&a, [&all, &all, &all], 1);
        // The first and the last lane share one hierarchy.
        assert_fused_matches_scalar(&a, [&mz, &mx, &mz], 2);
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
        assert_fused_matches_scalar(&a, [&mx, &my, &mz], 3);
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
        assert_fused_matches_scalar(&a, [&mx, &all, &mz], 3);
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
        assert_fused_matches_scalar(&a, [&mx, &all, &mx], 2);
        assert_fused_matches_scalar(&a, [&all, &my, &mx], 3);
    }

    /// Rows `lo..hi` of `a` as rank `rank` of `p` owns them, the ranks
    /// splitting the rows evenly in order.
    fn rows_of(a: &Csr, rank: usize, p: usize) -> DistCsr {
        let (lo, hi) = (a.nrows * rank / p, a.nrows * (rank + 1) / p);
        let cols = |i: usize| a.col_idx[a.row_ptr[i]..a.row_ptr[i + 1]].iter().copied();
        let mut ghosts: Vec<u64> = (lo..hi)
            .flat_map(cols)
            .filter(|j| !(lo..hi).contains(j))
            .map(|j| j as u64)
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        let local = |j: usize| match (lo..hi).contains(&j) {
            true => (j - lo) as u32,
            false => (hi - lo + ghosts.binary_search(&(j as u64)).unwrap()) as u32,
        };
        let row = |i: usize| {
            let k = a.row_ptr[lo + i]..a.row_ptr[lo + i + 1];
            let vals = a.values[k.clone()].iter().copied();
            a.col_idx[k].iter().map(move |&j| local(j)).zip(vals)
        };
        let m = Csr::from_row_terms(hi - lo, hi - lo + ghosts.len(), a.nnz(), row);
        DistCsr {
            a: m,
            first_row: lo as u64,
            offsets: (0..=p).map(|r| (a.nrows * r / p) as u64).collect(),
            ghosts,
        }
    }

    /// `B u` and `B v` of the coupled V-cycle on `P` ranks with the
    /// interleaved Dirichlet `mask`, for `u`, `v` drawn over the global
    /// rows (so the same at every `P`), and the global `⟨Bu, v⟩`,
    /// `⟨u, Bv⟩` and `⟨Bu, u⟩`.
    fn coupled_forms(a: &Csr, mask: &[bool], p: usize) -> [f64; 3] {
        let (a, mask) = (a.clone(), mask.to_vec());
        let out = scomm::spmd::run(p, move |comm| {
            let rows = rows_of(&a, comm.rank(), p);
            let (lo, n) = (rows.first_row as usize, rows.a.nrows);
            let owned = &mask[3 * lo..3 * (lo + n)];
            let amg = Amg::<3>::coupled(comm, &rows, owned, AmgOptions::default());
            let mut rng = SplitMix64::new(0x5eed);
            let draw: Vec<f64> = (0..6 * a.nrows).map(|_| 2.0 * rng.unit() - 1.0).collect();
            let u = &draw[3 * lo..3 * (lo + n)];
            let v = &draw[3 * (a.nrows + lo)..3 * (a.nrows + lo + n)];
            let (mut bu, mut bv) = (vec![0.0; 3 * n], vec![0.0; 3 * n]);
            amg.vcycle(u, &mut bu);
            amg.vcycle(v, &mut bv);
            let dots = [
                euclidean_dot(&bu, v),
                euclidean_dot(u, &bv),
                euclidean_dot(&bu, u),
            ];
            comm.allreduce_sum(&dots)
        });
        out[0]
    }

    #[test]
    fn coupled_vcycle_on_one_rank_is_the_whole_matrix_vcycle_bitwise() {
        let n = 10;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 30.0);
        let [mx, my, mz] = free_slip(n);
        let slip = interleave([&mx, &my, &mz]);
        let fused = Amg::<3>::masked(&a, &slip, AmgOptions::default());
        let scalar = Amg::new(a.clone(), AmgOptions::default());
        let b: Vec<f64> = (0..3 * a.nrows)
            .map(|i| ((i * 7919) % 211) as f64 / 50.0 - 2.2)
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut want3, mut want1) = (vec![0.0; 3 * a.nrows], vec![0.0; a.nrows]);
        fused.vcycle(&b, &mut want3);
        scalar.vcycle(&b[..a.nrows], &mut want1);
        let (want3, want1) = (bits(&want3), bits(&want1));
        scomm::spmd::run(1, |comm| {
            let rows = rows_of(&a, 0, 1);
            assert!(rows.ghosts.is_empty());
            let options = AmgOptions::default();
            let coupled = Amg::<3>::coupled(comm, &rows, &slip, options);
            let mut z = vec![0.0; 3 * a.nrows];
            coupled.vcycle(&b, &mut z);
            assert_eq!(bits(&z), want3, "free-slip lanes");
            let none = vec![false; a.nrows];
            let coupled = Amg::<1>::coupled(comm, &rows, &none, options);
            let mut z = vec![0.0; a.nrows];
            coupled.vcycle(&b[..a.nrows], &mut z);
            assert_eq!(bits(&z), want1, "one unmasked lane");
            assert_eq!(coupled.exchanges(), (0, 0));
        });
    }

    #[test]
    fn coupled_vcycle_is_symmetric_positive_definite_across_ranks() {
        // One hierarchy over P ∈ {2, 4} ranks: the ℓ1-hybrid forward and
        // backward sweeps keep ⟨Bu, v⟩ = ⟨u, Bv⟩ and ⟨Bu, u⟩ > 0, on
        // free-slip lanes and on a no-slip mask shared by all three.
        let n = 10;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 30.0);
        let [mx, my, mz] = free_slip(n);
        let all: Vec<bool> = (0..a.nrows).map(|i| mx[i] || my[i] || mz[i]).collect();
        for p in [2, 4] {
            for (name, lanes) in [("free slip", [&mx, &my, &mz]), ("no slip", [&all; 3])] {
                let [buv, ubv, buu] = coupled_forms(&a, &interleave(lanes.map(|m| &m[..])), p);
                let gap = (buv - ubv).abs() / buv.abs().max(ubv.abs());
                assert!(gap <= 1e-12, "P = {p}, {name}: {buv} vs {ubv}");
                assert!(buu > 0.0, "P = {p}, {name}: uᵀBu = {buu}");
            }
        }
    }

    #[test]
    fn coupled_vcycle_exchanges_follow_the_levels() {
        // One lane with a factored coarsest level: two ghost fills on the
        // fine level, then per coarse level one accumulation into it and,
        // above the coarsest, three fills. Each round sends one message
        // per rank that has rows to send in it.
        let n = 10;
        let a = poisson3d(n, |i, j, k| 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 30.0);
        for p in [2, 4] {
            let a = a.clone();
            scomm::spmd::run(p, move |comm| {
                let rows = rows_of(&a, comm.rank(), p);
                let none = vec![false; rows.a.nrows];
                let amg = Amg::<1>::coupled(comm, &rows, &none, AmgOptions::default());
                let ch = &amg.chains[0];
                assert!(ch.depth >= 2 && matches!(ch.direct, Direct::Cholesky(_)));
                let busy = |counts: &[usize]| counts.iter().filter(|&&k| k > 0).count() as u64;
                let fine = &amg.net.as_ref().unwrap().1.halo;
                let mut want = (2, 2 * busy(&fine.send_counts));
                for k in 1..=ch.depth {
                    want.0 += 1;
                    want.1 += busy(&ch.ghosts[k - 1].halo.recv_counts);
                    if k < ch.depth {
                        want.0 += 3;
                        want.1 += 3 * busy(&ch.ghosts[k - 1].halo.send_counts);
                    }
                }
                let b = vec![1.0; rows.a.nrows];
                let mut x = vec![0.0; rows.a.nrows];
                for cycles in 1..=2 {
                    amg.vcycle(&b, &mut x);
                    assert_eq!(amg.exchanges(), (cycles * want.0, cycles * want.1));
                }
            });
        }
    }

    #[test]
    fn coupled_pcg_iterations_do_not_grow_with_ranks() {
        // One hierarchy across the ranks keeps PCG's count near the
        // one-rank count on a 10³ coefficient jump.
        let n = 14;
        let a = poisson3d(n, |i, _, _| if i < n / 2 { 1.0 } else { 1e3 });
        let iterations = |p: usize| {
            let a = a.clone();
            scomm::spmd::run(p, move |comm| {
                let rows = rows_of(&a, comm.rank(), p);
                let none = vec![false; rows.a.nrows];
                let amg = Amg::<1>::coupled(comm, &rows, &none, AmgOptions::default());
                let n = rows.a.nrows;
                let op = (n, |x: &[f64], y: &mut [f64]| {
                    let mut xl = x.to_vec();
                    xl.resize(rows.a.ncols, 0.0);
                    let all = comm.allgatherv(x);
                    for (k, &g) in rows.ghosts.iter().enumerate() {
                        xl[n + k] = all[g as usize];
                    }
                    rows.a.matvec(&xl, y);
                });
                let b = vec![1.0; n];
                let mut x = vec![0.0; n];
                let dot = |u: &[f64], v: &[f64]| comm.allreduce_sum(&[euclidean_dot(u, v)])[0];
                let info = cg(&op, Some(&amg), &b, &mut x, 1e-8, 300, dot);
                assert!(info.converged, "P = {p}: {info:?}");
                info.iterations
            })[0]
        };
        let one = iterations(1);
        for p in [2, 4] {
            let many = iterations(p);
            assert!(many <= one + 3, "P = {p}: {many} against {one} on one rank");
        }
    }
}
