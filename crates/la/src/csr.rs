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

impl Csr {
    /// Build from (row, col, value) triplets; duplicate entries are summed.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Csr {
        let mut counts = vec![0usize; nrows];
        for &(r, _, _) in triplets {
            debug_assert!(r < nrows);
            counts[r] += 1;
        }
        let mut row_start = vec![0usize; nrows + 1];
        for r in 0..nrows {
            row_start[r + 1] = row_start[r] + counts[r];
        }
        let nnz_raw = row_start[nrows];
        let mut cols = vec![0usize; nnz_raw];
        let mut vals = vec![0.0; nnz_raw];
        let mut cursor = row_start.clone();
        for &(r, c, v) in triplets {
            debug_assert!(c < ncols);
            cols[cursor[r]] = c;
            vals[cursor[r]] = v;
            cursor[r] += 1;
        }
        // Sort each row and merge duplicates.
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(nnz_raw);
        let mut values = Vec::with_capacity(nnz_raw);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            for i in row_start[r]..row_start[r + 1] {
                scratch.push((cols[i], vals[i]));
            }
            scratch.sort_unstable_by_key(|t| t.0);
            for &(c, v) in scratch.iter() {
                if let Some(last) = values.last_mut() {
                    if col_idx.last() == Some(&c) && col_idx.len() > row_ptr[r] {
                        *last += v;
                        continue;
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Csr {
            nrows,
            ncols,
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

    /// Explicit transpose.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c] += 1;
        }
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for c in 0..self.ncols {
            row_ptr[c + 1] = row_ptr[c] + counts[c];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = row_ptr.clone();
        for r in 0..self.nrows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                col_idx[cursor[c]] = r;
                values[cursor[c]] = self.values[i];
                cursor[c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse product `A · B`.
    pub fn matmul(&self, other: &Csr) -> Csr {
        assert_eq!(self.ncols, other.nrows);
        let n = self.nrows;
        let m = other.ncols;
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        // Dense accumulator per row (classic Gustavson).
        let mut accum = vec![0.0f64; m];
        let mut marker = vec![usize::MAX; m];
        let mut row_cols: Vec<usize> = Vec::new();
        for r in 0..n {
            row_cols.clear();
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let k = self.col_idx[i];
                let av = self.values[i];
                for j in other.row_ptr[k]..other.row_ptr[k + 1] {
                    let c = other.col_idx[j];
                    if marker[c] != r {
                        marker[c] = r;
                        accum[c] = 0.0;
                        row_cols.push(c);
                    }
                    accum[c] += av * other.values[j];
                }
            }
            row_cols.sort_unstable();
            for &c in &row_cols {
                col_idx.push(c);
                values.push(accum[c]);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Csr {
            nrows: n,
            ncols: m,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Frobenius-norm difference to another matrix of the same shape
    /// (test helper).
    pub fn diff_norm(&self, other: &Csr) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let mut dense = std::collections::HashMap::new();
        for r in 0..self.nrows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                *dense.entry((r, self.col_idx[i])).or_insert(0.0) += self.values[i];
            }
        }
        for r in 0..other.nrows {
            for i in other.row_ptr[r]..other.row_ptr[r + 1] {
                *dense.entry((r, other.col_idx[i])).or_insert(0.0) -= other.values[i];
            }
        }
        dense.values().map(|v| v * v).sum::<f64>().sqrt()
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
    fn matvec_and_transpose() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, [4.0, 10.0, 14.0]);
        // A is symmetric.
        assert_eq!(a.transpose().diff_norm(&a), 0.0);
    }

    #[test]
    fn matmul_against_identity_and_manual() {
        let a = example();
        let i = Csr::identity(3);
        assert_eq!(a.matmul(&i).diff_norm(&a), 0.0);
        assert_eq!(i.matmul(&a).diff_norm(&a), 0.0);
        // A·A spot check: (0,0) = 2·2 + 1·1 = 5.
        let aa = a.matmul(&a);
        let mut y = [0.0; 3];
        aa.matvec(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y[0], 5.0);
        assert_eq!(y[1], 2.0 + 3.0); // row1·col0 = 1·2+3·1+1·0
    }

    #[test]
    fn rectangular_shapes() {
        let a = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0)]);
        let at = a.transpose();
        assert_eq!((at.nrows, at.ncols), (3, 2));
        let mut y = [0.0; 2];
        a.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }
}
