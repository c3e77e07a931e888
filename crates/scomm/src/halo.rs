//! One halo: the ghost pattern of a distributed vector and the buffers
//! its exchange rounds run on — the mesh's dofs, every AMG level and the
//! DG face traces all exchange through these two types.
//!
//! A distributed vector stores its owned rows, then its ghost rows,
//! `lanes` interleaved values per row; the ghost rows are grouped by
//! owner rank in ascending rank order. A [`Halo`] lists which owned rows
//! each rank reads and how many ghost rows each rank owns; a
//! [`HaloBuffers`] runs its rounds, split-phase, on one [`Exchange`]
//! stream:
//!
//! * a **fill** sends every rank the owned rows it reads and copies what
//!   arrives into the ghost rows;
//! * an **accumulation** sends the ghost rows to their owners and zeroes
//!   them, and each owner adds what arrives into its owned rows in
//!   ascending source rank, then send order, lane by lane — one order, so
//!   sums are reproducible bit for bit.
//!
//! One round may carry several halos side by side (the lanes of an AMG
//! level that cycle in lock-step): rank by rank, each halo's rows for
//! that rank in turn, so one message per neighbour carries them all.

use std::ops::AddAssign;

use crate::{Comm, Exchange, Pod};

/// Which owned rows every rank reads as ghosts, and how many ghost rows
/// each rank owns.
#[derive(Debug, Clone, Default)]
pub struct Halo {
    /// The owned rows each rank reads, rank after rank, each rank's in
    /// the order of its ghost rows.
    pub send: Vec<u32>,
    /// Per rank: how many rows of `send` it reads.
    pub send_counts: Vec<usize>,
    /// Per rank: how many of this rank's ghost rows it owns.
    pub recv_counts: Vec<usize>,
}

impl Halo {
    /// The halo of the owned global rows from `first` whose ghost rows
    /// have the global ids `ghosts` (ascending), rank `r` owning global
    /// rows `offsets[r]..offsets[r + 1]`: each rank sends the owners the
    /// ids it reads, in one all-to-all. Collective.
    pub fn from_ghosts(comm: &Comm, first: u64, ghosts: &[u64], offsets: &[u64]) -> Halo {
        assert!(ghosts.windows(2).all(|w| w[0] < w[1]), "ghost ids ascend");
        let mut recv_counts = vec![0; comm.size()];
        for &g in ghosts {
            recv_counts[offsets.partition_point(|&o| o <= g) - 1] += 1;
        }
        let (mut asked, mut send_counts) = (Vec::new(), Vec::new());
        comm.alltoallv_flat(ghosts, &recv_counts, &mut asked, &mut send_counts);
        Halo {
            send: asked.iter().map(|&g| (g - first) as u32).collect(),
            send_counts,
            recv_counts,
        }
    }

    /// Number of ghost rows.
    pub fn n_ghost(&self) -> usize {
        self.recv_counts.iter().sum()
    }

    /// Fill the ghost rows of the scalar field `v` (`n_owned` owned rows,
    /// then the ghost rows) with their owners' values: one round on a
    /// fresh stream-0 buffer set. Collective over the ranks of the halo.
    pub fn exchange(&self, comm: &Comm, v: &mut [f64], n_owned: usize) {
        assert_eq!(v.len(), n_owned + self.n_ghost(), "owned rows, then ghosts");
        HaloBuffers::new().fill(comm, &[self], &mut [v], 1);
    }
}

/// Walk the send rows of `halos` rank by rank, each halo's rows for that
/// rank in turn: `visit(j, row)` for row `row` of halo `j`.
fn send_rows(at: &mut Vec<usize>, halos: &[&Halo], mut visit: impl FnMut(usize, usize)) {
    at.clear();
    at.resize(halos.len(), 0);
    for r in 0..halos.first().map_or(0, |h| h.send_counts.len()) {
        for (j, h) in halos.iter().enumerate() {
            let rows = &h.send[at[j]..at[j] + h.send_counts[r]];
            rows.iter().for_each(|&i| visit(j, i as usize));
            at[j] += rows.len();
        }
    }
}

/// Walk the ghost rows of the vectors `vs` (`halos[j]`'s for `vs[j]`,
/// `lanes` values per row) rank by rank, each vector's rows from that
/// rank in turn: `visit(values)` for each vector's values from each rank.
fn ghost_chunks<T>(
    at: &mut Vec<usize>,
    halos: &[&Halo],
    vs: &mut [&mut [T]],
    lanes: usize,
    mut visit: impl FnMut(&mut [T]),
) {
    at.clear();
    for (h, v) in halos.iter().zip(vs.iter()) {
        let ghosts = h.n_ghost() * lanes;
        assert!(v.len() >= ghosts, "ghost rows past the vector");
        at.push(v.len() - ghosts);
    }
    for r in 0..halos.first().map_or(0, |h| h.recv_counts.len()) {
        for (j, h) in halos.iter().enumerate() {
            let len = h.recv_counts[r] * lanes;
            visit(&mut vs[j][at[j]..at[j] + len]);
            at[j] += len;
        }
    }
}

/// The grow-only buffers and the [`Exchange`] stream of one kind of halo
/// round: once every round has carried its largest payload, a round
/// allocates nothing but its message buffers (`tests/allocations.rs`).
///
/// At most one round (fill *or* accumulation) is in flight per buffer
/// set. Two sets whose rounds overlap in time must post on distinct
/// streams ([`HaloBuffers::with_stream`]).
#[derive(Debug, Default)]
pub struct HaloBuffers<T> {
    send: Vec<T>,
    recv: Vec<T>,
    /// Values sent to each rank in the round, and expected from each
    /// (as `exchange_end` then reports them).
    send_counts: Vec<usize>,
    recv_counts: Vec<usize>,
    /// Per halo of the round, how far its walk has come.
    at: Vec<usize>,
    ex: Exchange,
    /// Rounds posted and the point-to-point messages sent in them.
    rounds: u64,
    messages: u64,
}

impl<T: Pod + AddAssign + Default> HaloBuffers<T> {
    /// Buffers posting on stream 0: for rounds posted and completed
    /// before anything else posts on stream 0.
    pub fn new() -> Self {
        HaloBuffers::default()
    }

    /// Buffers posting on exchange stream `stream`.
    pub fn with_stream(stream: u64) -> Self {
        let ex = Exchange::new(stream);
        HaloBuffers {
            ex,
            ..HaloBuffers::default()
        }
    }

    /// Whether a round is posted but not yet completed.
    pub fn in_flight(&self) -> bool {
        self.ex.in_flight()
    }

    /// Rounds this rank has posted on these buffers and the
    /// point-to-point messages it sent in them.
    pub fn exchanges(&self) -> (u64, u64) {
        (self.rounds, self.messages)
    }

    /// Post the round packed into `send`: per rank, `lanes` values per
    /// send row of `halos` (a fill) or per ghost row (an accumulation),
    /// and the mirror image expected back.
    fn post(&mut self, comm: &Comm, halos: &[&Halo], lanes: usize, fill: bool) {
        let p = comm.size();
        self.send_counts.clear();
        self.send_counts.resize(p, 0);
        self.recv_counts.clear();
        self.recv_counts.resize(p, 0);
        for h in halos {
            let (out, back) = (&h.send_counts, &h.recv_counts);
            let (out, back) = if fill { (out, back) } else { (back, out) };
            for r in 0..p {
                self.send_counts[r] += out[r] * lanes;
                self.recv_counts[r] += back[r] * lanes;
            }
        }
        let (send, counts) = (&self.send, &self.send_counts);
        comm.exchange_start(send, counts, &self.recv_counts, &mut self.ex);
        self.rounds += 1;
        self.messages += counts.iter().filter(|&&k| k > 0).count() as u64;
    }

    /// Post a fill of `halos`' ghost rows in which `gather(j, row, send)`
    /// appends the `lanes` values of owned row `row` of halo `j`.
    pub fn fill_begin_with(
        &mut self,
        comm: &Comm,
        halos: &[&Halo],
        lanes: usize,
        mut gather: impl FnMut(usize, usize, &mut Vec<T>),
    ) {
        self.send.clear();
        let send = &mut self.send;
        send_rows(&mut self.at, halos, |j, i| gather(j, i, send));
        self.post(comm, halos, lanes, true);
    }

    /// Post a fill of the ghost rows of the vectors `vs`, halo `halos[j]`
    /// for `vs[j]`: only their owned rows are read.
    pub fn fill_begin<V: AsRef<[T]>>(
        &mut self,
        comm: &Comm,
        halos: &[&Halo],
        vs: &[V],
        lanes: usize,
    ) {
        self.fill_begin_with(comm, halos, lanes, |j, i, send| {
            send.extend_from_slice(&vs[j].as_ref()[i * lanes..][..lanes]);
        });
    }

    /// Complete the posted round.
    pub fn complete(&mut self, comm: &Comm) {
        comm.exchange_end(&mut self.ex, &mut self.recv, &mut self.recv_counts);
    }

    /// The values the last completed round received, by source rank.
    pub fn received(&self) -> &[T] {
        &self.recv
    }

    /// Complete the fill [`HaloBuffers::fill_begin`] posted: the owners'
    /// values land in the ghost rows of `vs`.
    pub fn fill_end(&mut self, comm: &Comm, halos: &[&Halo], vs: &mut [&mut [T]], lanes: usize) {
        self.complete(comm);
        let mut got = 0;
        ghost_chunks(&mut self.at, halos, vs, lanes, |ghost| {
            ghost.copy_from_slice(&self.recv[got..got + ghost.len()]);
            got += ghost.len();
        });
        assert_eq!(got, self.recv.len(), "every value received has a ghost row");
    }

    /// One fill round, posted and completed.
    pub fn fill(&mut self, comm: &Comm, halos: &[&Halo], vs: &mut [&mut [T]], lanes: usize) {
        self.fill_begin(comm, halos, vs, lanes);
        self.fill_end(comm, halos, vs, lanes);
    }

    /// Post the accumulation of the ghost rows of the vectors `vs` into
    /// their owners' rows, and zero them. Their owned rows are untouched
    /// until [`HaloBuffers::accumulate_end`].
    pub fn accumulate_begin(
        &mut self,
        comm: &Comm,
        halos: &[&Halo],
        vs: &mut [&mut [T]],
        lanes: usize,
    ) {
        self.send.clear();
        ghost_chunks(&mut self.at, halos, vs, lanes, |ghost| {
            self.send.extend_from_slice(ghost);
            ghost.fill(T::default());
        });
        self.post(comm, halos, lanes, false);
    }

    /// Complete the accumulation [`HaloBuffers::accumulate_begin`]
    /// posted: add what arrives into the owned rows of `vs`, in ascending
    /// source rank, then send order, lane by lane.
    pub fn accumulate_end(
        &mut self,
        comm: &Comm,
        halos: &[&Halo],
        vs: &mut [&mut [T]],
        lanes: usize,
    ) {
        self.complete(comm);
        let mut added = self.recv.chunks_exact(lanes);
        send_rows(&mut self.at, halos, |j, i| {
            let row = &mut vs[j][i * lanes..][..lanes];
            let add = added.next().expect("a row per send row");
            row.iter_mut().zip(add).for_each(|(v, &a)| *v += a);
        });
        assert!(added.next().is_none(), "every row received has an owner");
    }

    /// One accumulation round, posted and completed.
    pub fn accumulate(&mut self, comm: &Comm, halos: &[&Halo], vs: &mut [&mut [T]], lanes: usize) {
        self.accumulate_begin(comm, halos, vs, lanes);
        self.accumulate_end(comm, halos, vs, lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd;

    /// Two halos side by side in one round: each rank owns global rows
    /// `4r..4r + 4` and reads rows of both other ranks.
    #[test]
    fn side_by_side_rounds_fill_and_accumulate_every_halo() {
        spmd::run(3, |c| {
            let (r, offsets) = (c.rank() as u64, [0, 4, 8, 12]);
            let (next, prev) = ((r + 1) % 3 * 4, (r + 2) % 3 * 4);
            let mut a_ids = vec![next, prev + 3];
            let mut b_ids = vec![next + 2];
            a_ids.sort_unstable();
            b_ids.sort_unstable();
            let a = Halo::from_ghosts(c, 4 * r, &a_ids, &offsets);
            let b = Halo::from_ghosts(c, 4 * r, &b_ids, &offsets);
            let value = |part: u64, g: u64| (100 * part + g) as f64;
            let mut va: Vec<f64> = (0..4).map(|i| value(0, 4 * r + i)).collect();
            let mut vb: Vec<f64> = (0..4).map(|i| value(1, 4 * r + i)).collect();
            va.resize(6, -1.0);
            vb.resize(5, -1.0);
            let mut buf = HaloBuffers::with_stream(7);
            buf.fill(c, &[&a, &b], &mut [&mut va, &mut vb], 1);
            let want: Vec<f64> = a_ids.iter().map(|&g| value(0, g)).collect();
            assert_eq!(va[4..], want[..]);
            assert_eq!(vb[4], value(1, b_ids[0]));
            // One message per neighbour carries both halos.
            assert_eq!(buf.exchanges(), (1, 2));

            // Every ghost row carries 1: each owned row gains the number
            // of ranks reading it, and the ghost rows are zeroed.
            va.iter_mut().for_each(|x| *x = 1.0);
            vb.iter_mut().for_each(|x| *x = 1.0);
            buf.accumulate(c, &[&a, &b], &mut [&mut va, &mut vb], 1);
            assert_eq!(va, [2.0, 1.0, 1.0, 2.0, 0.0, 0.0]);
            assert_eq!(vb, [1.0, 1.0, 2.0, 1.0, 0.0]);
            assert_eq!(buf.exchanges(), (2, 4));
        });
    }
}
