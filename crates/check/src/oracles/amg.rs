//! The gathered AMG: the oracle of `la::Amg::coupled` across ranks.

use std::cell::RefCell;

use la::{Amg, AmgOptions, Csr, DistCsr};
use scomm::Comm;

/// The serial hierarchy of the whole matrix whose rows the ranks of
/// `comm` own: every rank gathers every row and the mask and builds
/// [`Amg::masked`] on them, and a V-cycle gathers the right-hand side,
/// cycles the whole vector and keeps the owned rows. What a hierarchy
/// that ignored rank boundaries altogether would do, so at every `P` it
/// is the one-rank preconditioner, whatever the partition: the bound a
/// hierarchy that aggregates within ranks is measured against
/// (EXPERIMENTS.md, "One hierarchy across ranks").
pub struct GatheredAmg<'c, const C: usize> {
    comm: &'c Comm,
    amg: Amg<'static, C>,
    /// This rank's first row and rows.
    first: usize,
    n: usize,
    whole: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'c, const C: usize> GatheredAmg<'c, C> {
    /// Gather `rows` and the interleaved Dirichlet `mask` (`C` flags per
    /// owned row) from every rank and build the whole matrix's
    /// hierarchy. Collective.
    pub fn new(comm: &'c Comm, rows: &DistCsr, mask: &[bool], options: AmgOptions) -> Self {
        let (a, first) = (&rows.a, rows.first_row);
        let column = |j: usize| match j < a.nrows {
            true => first + j as u64,
            false => rows.ghosts[j - a.nrows],
        };
        let mine: Vec<(u64, u64, f64)> = (0..a.nrows)
            .flat_map(|i| (a.row_ptr[i]..a.row_ptr[i + 1]).map(move |k| (i, k)))
            .map(|(i, k)| (first + i as u64, column(a.col_idx[k]), a.values[k]))
            .collect();
        let all = comm.allgatherv(&mine);
        let n_global = rows.offsets[comm.size()] as usize;
        let triplets: Vec<(usize, usize, f64)> = all
            .iter()
            .map(|&(i, j, v)| (i as usize, j as usize, v))
            .collect();
        let whole = Csr::from_triplets(n_global, n_global, &triplets);
        let bits: Vec<u8> = mask.iter().map(|&b| u8::from(b)).collect();
        let mask: Vec<bool> = comm.allgatherv(&bits).iter().map(|&b| b != 0).collect();
        GatheredAmg {
            comm,
            amg: Amg::masked(&whole, &mask, options),
            first: first as usize,
            n: a.nrows,
            whole: RefCell::new((Vec::new(), vec![0.0; C * n_global])),
        }
    }

    /// One V-cycle of the whole matrix's hierarchy on the owned rows of
    /// `b` (`C` interleaved lanes), into the owned rows of `x`.
    /// Collective.
    pub fn vcycle(&self, b: &[f64], x: &mut [f64]) {
        let (whole_b, whole_x) = &mut *self.whole.borrow_mut();
        self.comm.allgatherv_into(b, whole_b);
        self.amg.vcycle(whole_b, whole_x);
        x.copy_from_slice(&whole_x[C * self.first..C * (self.first + self.n)]);
    }
}
