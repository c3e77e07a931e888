//! Compressed sparse row matrices.

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
/// a contiguous range of global rows, the ranks' ranges in rank order.
/// `a` holds the owned rows; its columns are the owned rows (`0..nrows`,
/// global rows `first_row..`), then one per entry of `ghosts`, the global
/// ids of the other ranks' rows the owned rows couple to, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct DistCsr {
    pub a: Csr,
    pub first_row: u64,
    pub ghosts: Vec<u64>,
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
    /// out in ascending column order.
    pub fn from_row_terms<I: Iterator<Item = (u32, f64)>>(
        nrows: usize,
        ncols: usize,
        terms: usize,
        row: impl Fn(usize) -> I,
    ) -> Csr {
        let mut out_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(terms);
        let mut values = Vec::with_capacity(terms);
        // Dense accumulator per row (Gustavson): `marker[c] == r` when
        // column `c` already holds a running sum for row `r`.
        let mut accum = vec![0.0f64; ncols];
        let mut marker = vec![usize::MAX; ncols];
        let mut row_cols: Vec<u32> = Vec::with_capacity(ncols);
        for r in 0..nrows {
            row_cols.clear();
            for (col, val) in row(r) {
                let c = col as usize;
                debug_assert!(c < ncols);
                if marker[c] == r {
                    accum[c] += val;
                } else {
                    marker[c] = r;
                    accum[c] = val;
                    row_cols.push(col);
                }
            }
            // Columns are distinct here, so any sort gives the same row.
            row_cols.sort();
            for &c in &row_cols {
                col_idx.push(c as usize);
                values.push(accum[c as usize]);
            }
            out_ptr[r + 1] = col_idx.len();
        }
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        Csr {
            nrows,
            ncols,
            row_ptr: out_ptr,
            col_idx,
            values,
        }
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
}
