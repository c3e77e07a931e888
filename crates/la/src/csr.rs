//! Compressed sparse row matrices, and the rows one rank owns of a
//! matrix distributed by rows.

use scomm::Comm;

/// A CSR matrix with `f64` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    pub nrows: usize,
    pub ncols: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub values: Vec<f64>,
}

/// The rows one rank owns of a matrix distributed by rows: rank `r` owns
/// global rows `offsets[r]..offsets[r + 1]`, the ranks' ranges in rank
/// order, `offsets` ending with the total. `a` holds the owned rows; its
/// columns are the owned rows (`0..nrows`, global rows `first_row..`),
/// then one per entry of `ghosts`, the global ids of the other ranks'
/// rows the owned rows couple to, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct DistCsr {
    pub a: Csr,
    pub first_row: u64,
    pub offsets: Vec<u64>,
    pub ghosts: Vec<u64>,
}

/// The one assembly of the rows a rank owns from the terms every rank
/// adds to them: the fine matrix (`fem::assembly`) and every Galerkin
/// level of the AMG. The caller hands [`OwnedRows::sum`] each owned row's
/// local terms and lists in `ship` the terms of rows other ranks own. The
/// buffers only grow, so a caller that keeps one `OwnedRows` allocates
/// once for all its assemblies.
#[derive(Default)]
pub struct OwnedRows {
    /// Per rank, the `(row, column, value)` terms bound for its rows, by
    /// global id; [`OwnedRows::sum`] ships and empties them.
    pub ship: Vec<Vec<(u64, u64, f64)>>,
    /// The received terms as `(row, column, value)`, row and column
    /// local, each row's in delivery order.
    pub(crate) recv: Vec<(u32, u32, f64)>,
    /// The row accumulator: per column the row it last summed for and
    /// the sum, and the columns of the current row. The AMG's sparse
    /// products use them too.
    pub(crate) accum: Vec<(usize, f64)>,
    pub(crate) row_cols: Vec<u32>,
}

impl OwnedRows {
    /// Sum the owned global rows `first..first + n`, after shipping `ship`
    /// to the rows' owners over `comm` in one all-to-all (a rank alone
    /// ships nothing). Row `i` sums its local terms `local(i)` in caller
    /// order, then the received ones in delivery (source rank) order, the
    /// first term of an entry as it is and each later one added. A local
    /// column below `n` is an owned row, any other that of global id
    /// `gid(j)`. `emit(i, columns, accumulator)` takes row `i`: its
    /// columns ascending, entry `j` at `accumulator[j].1`. Columns number
    /// the owned rows, then the returned ghost ids, ascending: `extra`,
    /// which lists every local term's and may list columns that hold no
    /// entry, and those of the received terms. Collective where `comm`
    /// spans ranks.
    pub fn sum<I: Iterator<Item = (u32, f64)>>(
        &mut self,
        comm: Option<&Comm>,
        (first, n): (u64, usize),
        local: impl Fn(usize) -> I,
        gid: impl Fn(u32) -> u64,
        extra: impl Iterator<Item = u64>,
        mut emit: impl FnMut(usize, &[u32], &[(usize, f64)]),
    ) -> Vec<u64> {
        let incoming = match comm {
            Some(comm) if comm.size() > 1 => comm.alltoallv(&self.ship),
            _ => Vec::new(),
        };
        self.ship.iter_mut().for_each(Vec::clear);
        let (owned, received) = (first..first + n as u64, incoming.iter().flatten());
        let others = received.clone().map(|t| t.1).filter(|g| !owned.contains(g));
        let mut ghosts: Vec<u64> = extra.chain(others).collect();
        ghosts.sort();
        ghosts.dedup();
        let column = |g: u64| match owned.contains(&g) {
            true => (g - first) as u32,
            false => (n + ghosts.binary_search(&g).expect("a listed ghost")) as u32,
        };
        let OwnedRows {
            recv,
            accum,
            row_cols,
            ..
        } = self;
        recv.clear();
        recv.extend(received.map(|&(i, j, v)| ((i - first) as u32, column(j), v)));
        // A stable sort keeps each row's terms in delivery order.
        recv.sort_by_key(|t| t.0);
        let mut recv = recv.iter().peekable();
        let ncols = n + ghosts.len();
        accum.clear();
        accum.resize(ncols, (usize::MAX, 0.0));
        row_cols.clear();
        row_cols.reserve(ncols);
        for i in 0..n {
            let local = local(i).map(|(j, v)| match j as usize >= n {
                true => (column(gid(j)), v),
                false => (j, v),
            });
            let got = std::iter::from_fn(|| recv.next_if(|t| t.0 == i as u32));
            row_cols.clear();
            for (j, v) in local.chain(got.map(|t| (t.1, t.2))) {
                let (row, sum) = &mut accum[j as usize];
                if *row == i {
                    *sum += v;
                } else {
                    (*row, *sum) = (i, v);
                    row_cols.push(j);
                }
            }
            row_cols.sort();
            emit(i, row_cols, accum);
        }
        ghosts
    }

    /// [`OwnedRows::sum`] into a matrix with room for `terms` entries:
    /// the owned rows with all their columns, and the ghost ids.
    pub fn assemble<I: Iterator<Item = (u32, f64)>>(
        &mut self,
        comm: Option<&Comm>,
        (first, n, terms): (u64, usize, usize),
        local: impl Fn(usize) -> I,
        gid: impl Fn(u32) -> u64,
        extra: impl Iterator<Item = u64>,
    ) -> (Csr, Vec<u64>) {
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let (mut col_idx, mut values) = (Vec::with_capacity(terms), Vec::with_capacity(terms));
        let ghosts = self.sum(comm, (first, n), local, gid, extra, |_, cols, acc| {
            col_idx.extend(cols.iter().map(|&j| j as usize));
            values.extend(cols.iter().map(|&j| acc[j as usize].1));
            row_ptr.push(col_idx.len());
        });
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        let a = Csr {
            nrows: n,
            ncols: n + ghosts.len(),
            row_ptr,
            col_idx,
            values,
        };
        (a, ghosts)
    }
}

impl Csr {
    /// Build from (row, col, value) triplets. The terms of one entry are
    /// summed in input order, the first term standing as it is: the order
    /// [`Csr::from_row_terms`] defines, which a stable sort by column
    /// followed by a running sum would also give.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Csr {
        assert!(ncols <= u32::MAX as usize, "column index must fit in u32");
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            debug_assert!(r < nrows);
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0.0; triplets.len()];
        let mut cursor = row_ptr.clone();
        for &(r, c, v) in triplets {
            debug_assert!(c < ncols);
            cols[cursor[r]] = c as u32;
            vals[cursor[r]] = v;
            cursor[r] += 1;
        }
        let row = |r: usize| {
            let k = row_ptr[r]..row_ptr[r + 1];
            cols[k.clone()].iter().copied().zip(vals[k].iter().copied())
        };
        Csr::from_row_terms(nrows, ncols, triplets.len(), row)
    }

    /// Build from raw terms grouped by row: row `r`'s terms are the
    /// `(column, value)` pairs `row(r)` yields, in any column order and
    /// with repeats, `terms` of them in all. The terms of entry `(r, c)`
    /// are summed in the order they come — the first term as it is, each
    /// later one added to the running sum — and each row's entries come
    /// out in ascending column order: [`OwnedRows::sum`] for a rank alone
    /// whose every column past the rows is a ghost of its own id.
    pub fn from_row_terms<I: Iterator<Item = (u32, f64)>>(
        nrows: usize,
        ncols: usize,
        terms: usize,
        row: impl Fn(usize) -> I,
    ) -> Csr {
        let past_the_rows = nrows as u64..ncols as u64;
        let rows = (0, nrows, terms);
        let gid = |j: u32| j as u64;
        OwnedRows::default()
            .assemble(None, rows, row, gid, past_the_rows)
            .0
    }

    /// Symmetric Dirichlet elimination of the dofs `mask` marks: a masked
    /// row becomes the identity row, a masked column is dropped from every
    /// other row, and an absent or exactly zero diagonal becomes `1.0`
    /// (AMG smoothers divide by it). Entries are copied, not re-summed, so
    /// eliminating after assembly gives the bits an assembly that skipped
    /// the masked terms would give. Square matrices only.
    pub fn eliminate(&self, mask: &[bool]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "elimination needs a square matrix");
        assert_eq!(mask.len(), self.nrows);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            if mask[r] {
                col_idx.push(r);
                values.push(1.0);
                row_ptr[r + 1] = col_idx.len();
                continue;
            }
            let mut diag_seen = false;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if mask[c] {
                    continue;
                }
                if !diag_seen && c > r {
                    // Absent diagonal: insert it in column order.
                    col_idx.push(r);
                    values.push(1.0);
                    diag_seen = true;
                }
                let v = self.values[k];
                if c == r {
                    diag_seen = true;
                    values.push(if v == 0.0 { 1.0 } else { v });
                } else {
                    values.push(v);
                }
                col_idx.push(c);
            }
            if !diag_seen {
                col_idx.push(r);
                values.push(1.0);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Csr {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for r in 0..self.nrows {
            let mut acc = 0.0;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[i] * x[self.col_idx[i]];
            }
            y[r] = acc;
        }
    }

    /// Main diagonal (zeros where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        for r in 0..self.nrows.min(self.ncols) {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_idx[i] == r {
                    d[r] = self.values[i];
                    break;
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [2 1 0]
        // [1 3 1]
        // [0 1 4]
        Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn triplets_sum_duplicates() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.diagonal(), vec![3.0, 5.0]);
    }

    #[test]
    fn triplets_sum_duplicates_in_input_order() {
        // One row of 41 triplets: filler columns around four terms on
        // column 7 whose sum depends on the order they are added in.
        let mut t: Vec<(usize, usize, f64)> = (0..20).map(|k| (0, 8 + k % 12, 0.5)).collect();
        t.insert(3, (0, 7, 1e16));
        t.insert(11, (0, 7, 1.0));
        t.insert(17, (0, 7, -1e16));
        t.insert(20, (0, 7, 1.0));
        t.extend((0..17).map(|k| (0, k % 7, 0.25)));
        assert!(t.len() > 32);
        let a = Csr::from_triplets(1, 20, &t);
        let at = |c: usize| {
            let k = a.col_idx.iter().position(|&x| x == c).expect("stored");
            a.values[k]
        };
        // 1e16 + 1 rounds to 1e16, so input order gives 1, reversed order
        // 0, and the two ±1e16 terms first gives 2.
        assert_eq!(at(7).to_bits(), 1.0f64.to_bits());
        assert!(a.col_idx.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(at(8), 1.0);
        assert_eq!(at(0), 0.75);
    }

    #[test]
    fn eliminate_masks_rows_and_columns_and_fixes_the_diagonal() {
        // [2 1 0 0]
        // [1 3 1 0]
        // [0 1 0 5]   zero diagonal
        // [0 0 5 0]   absent diagonal
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 0.0),
                (2, 3, 5.0),
                (3, 2, 5.0),
            ],
        );
        let rows = |m: &Csr| -> Vec<Vec<(usize, f64)>> {
            (0..m.nrows)
                .map(|r| {
                    (m.row_ptr[r]..m.row_ptr[r + 1])
                        .map(|k| (m.col_idx[k], m.values[k]))
                        .collect()
                })
                .collect()
        };
        let e = a.eliminate(&[false, true, false, false]);
        assert_eq!(
            rows(&e),
            vec![
                vec![(0, 2.0)],
                vec![(1, 1.0)],
                vec![(2, 1.0), (3, 5.0)],
                vec![(2, 5.0), (3, 1.0)],
            ]
        );
        // No mask: only the diagonal fix-up.
        let e = a.eliminate(&[false; 4]);
        assert_eq!(rows(&e)[2], vec![(1, 1.0), (2, 1.0), (3, 5.0)]);
        assert_eq!(rows(&e)[3], vec![(2, 5.0), (3, 1.0)]);
        assert_eq!(rows(&e)[..2], rows(&a)[..2]);
        // Everything masked: the identity.
        assert_eq!(a.eliminate(&[true; 4]), Csr::identity(4));
        // An absent diagonal between two stored columns.
        let b = Csr::from_triplets(2, 2, &[(0, 1, 4.0), (1, 0, 4.0)]);
        let b3 = Csr::from_triplets(3, 3, &[(1, 0, 2.0), (1, 2, 3.0), (0, 0, 1.0), (2, 2, 1.0)]);
        assert_eq!(
            rows(&b3.eliminate(&[false; 3]))[1],
            vec![(0, 2.0), (1, 1.0), (2, 3.0)]
        );
        assert_eq!(rows(&b.eliminate(&[false; 2]))[0], vec![(0, 1.0), (1, 4.0)]);
    }

    #[test]
    fn matvec_of_the_example() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, [4.0, 10.0, 14.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]);
        assert_eq!((a.nrows, a.ncols), (2, 3));
        let mut y = [0.0; 2];
        a.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }

    /// The terms rank `r` of `p` adds to a matrix of `4p` rows, each rank
    /// owning four, by global id: random rows and columns, `±0.0`, and
    /// two entries every rank adds to twice.
    fn terms_of(r: usize, p: usize) -> Vec<(u64, u64, f64)> {
        let mut rng = scomm::rng::SplitMix64::new(0x0a5e + r as u64);
        let n = 4 * p as u64;
        let mut terms: Vec<(u64, u64, f64)> = (0..40)
            .map(|k| {
                let (i, j) = (rng.below(n), rng.below(n));
                let v = [-0.0, 0.0, 2.0 * rng.unit() - 1.0][k % 3];
                (i, j, v)
            })
            .collect();
        for _ in 0..2 {
            terms.extend([(0, n - 1, 1.0 + r as f64), (n - 1, 0, 0.3 * r as f64)]);
        }
        terms
    }

    #[test]
    fn owned_rows_sum_as_triplets_in_owner_then_source_rank_order() {
        for p in [1, 2, 3] {
            scomm::spmd::run(p, move |comm| {
                let (me, n) = (comm.rank(), 4);
                let first = 4 * me as u64;
                let owned = first..first + 4;
                let mine = terms_of(me, p);
                // Local terms in caller order, their ghost columns numbered
                // by a table; the other terms shipped to their owners.
                let (ours, theirs): (Vec<&(u64, u64, f64)>, Vec<_>) =
                    mine.iter().partition(|t| owned.contains(&t.0));
                let mut table: Vec<u64> = ours
                    .iter()
                    .map(|t| t.1)
                    .filter(|g| !owned.contains(g))
                    .collect();
                table.sort();
                table.dedup();
                let col = |g: u64| match owned.contains(&g) {
                    true => (g - first) as u32,
                    false => (n + table.binary_search(&g).unwrap()) as u32,
                };
                let local = |i: usize| {
                    let row = ours.iter().filter(move |t| t.0 == first + i as u64);
                    row.map(|t| (col(t.1), t.2))
                };
                let mut rows = OwnedRows {
                    ship: vec![Vec::new(); p],
                    ..OwnedRows::default()
                };
                for t in theirs {
                    rows.ship[t.0 as usize / 4].push(*t);
                }
                let gid = |j: u32| table[j as usize - n];
                let sizes = (first, n, ours.len());
                let (a, ghosts) =
                    rows.assemble(Some(comm), sizes, local, gid, table.iter().copied());
                // The owner's terms, then every other rank's, ascending.
                let ranks = std::iter::once(me).chain((0..p).filter(|&r| r != me));
                let terms: Vec<(u64, u64, f64)> = ranks
                    .flat_map(|r| terms_of(r, p))
                    .filter(|t| owned.contains(&t.0))
                    .collect();
                let mut want_ghosts: Vec<u64> = terms
                    .iter()
                    .map(|t| t.1)
                    .filter(|g| !owned.contains(g))
                    .collect();
                want_ghosts.sort();
                want_ghosts.dedup();
                assert_eq!(ghosts, want_ghosts, "P = {p}, rank {me}");
                let column = |g: u64| match owned.contains(&g) {
                    true => (g - first) as usize,
                    false => n + ghosts.binary_search(&g).unwrap(),
                };
                let triplets: Vec<(usize, usize, f64)> = terms
                    .iter()
                    .map(|&(i, j, v)| ((i - first) as usize, column(j), v))
                    .collect();
                let want = Csr::from_triplets(n, n + ghosts.len(), &triplets);
                let bits = |a: &Csr| a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!((&a.row_ptr, &a.col_idx), (&want.row_ptr, &want.col_idx));
                assert_eq!(
                    (a.ncols, bits(&a)),
                    (want.ncols, bits(&want)),
                    "P = {p}, rank {me}"
                );
            });
        }
    }
}
