//! One rank's segment of a distributed, curve-ordered leaf array: the
//! bookkeeping the single octree ([`crate::parallel::DistOctree`]) and
//! the forest of octrees (`forest::Forest`) share.
//!
//! The paper keeps one marker per rank, the curve key of its first leaf,
//! exchanged by one `allgather`, and partitions by cutting the curve into
//! equal shares (Section IV-A). A forest runs the same bookkeeping over
//! its `(tree, Morton)` curve, and one tree is the special case. So it is
//! written once here, generic over the leaf type through [`CurveLeaf`]:
//! the marker refresh and ownership queries, refine and coarsen,
//! `MarkElements` and its application, `PartitionTree`, validation and
//! allocation accounting. What really differs per tree type stays with
//! it: neighbour stepping, 2:1 balance and the ghost layer.

use crate::mark::{mark_elements_into, Mark, MarkParams};
use crate::morton::{Octant, ROOT_LEN};
use crate::ops;
use scomm::{Comm, Pod};

/// A position on the space-filling curve, shipped as one or two `u64`
/// words (so marker and validation messages carry no padding).
pub trait CurveKey: Copy + Ord {
    /// The marker of a rank that has no leaves and none after it.
    const MAX: Self;
    /// Number of `u64` words on the wire.
    const WORDS: usize;
    /// The wire words, most significant first; only the first
    /// [`CurveKey::WORDS`] are meaningful.
    fn to_words(self) -> [u64; 2];
    /// Inverse of [`CurveKey::to_words`].
    fn from_words(words: &[u64]) -> Self;
}

impl CurveKey for u64 {
    const MAX: u64 = u64::MAX;
    const WORDS: usize = 1;
    fn to_words(self) -> [u64; 2] {
        [self, 0]
    }
    fn from_words(words: &[u64]) -> u64 {
        words[0]
    }
}

impl CurveKey for u128 {
    const MAX: u128 = u128::MAX;
    const WORDS: usize = 2;
    fn to_words(self) -> [u64; 2] {
        [(self >> 64) as u64, self as u64]
    }
    fn from_words(words: &[u64]) -> u128 {
        ((words[0] as u128) << 64) | words[1] as u128
    }
}

/// A leaf of a distributed linear octree or forest: an octant in a
/// numbered tree. The derived order must be the curve order: by tree,
/// then by octant.
pub trait CurveLeaf: Copy + Ord + Pod {
    /// Curve position: the Morton key in one tree, `(tree, key)` in a
    /// forest.
    type Key: CurveKey;
    /// The octant within its tree.
    fn oct(&self) -> Octant;
    /// The tree (always 0 in a single octree).
    fn tree(&self) -> u32;
    /// The octant `oct` in this leaf's tree.
    fn with_oct(&self, oct: Octant) -> Self;
    /// Curve position of the leaf's first descendant.
    fn curve_key(&self) -> Self::Key;
    /// Curve position of the leaf's last descendant.
    fn curve_end(&self) -> Self::Key {
        self.with_oct(self.oct().last_descendant()).curve_key()
    }
    /// Strictly curve-sorted, and no leaf contains the next one.
    fn is_valid_linear(leaves: &[Self]) -> bool {
        leaves.windows(2).all(|w| {
            w[0] < w[1] && !(w[0].tree() == w[1].tree() && w[0].oct().contains(&w[1].oct()))
        })
    }
}

impl CurveLeaf for Octant {
    type Key = u64;
    fn oct(&self) -> Octant {
        *self
    }
    fn tree(&self) -> u32 {
        0
    }
    fn with_oct(&self, oct: Octant) -> Octant {
        oct
    }
    fn curve_key(&self) -> u64 {
        self.key()
    }
    /// The vectorized adjacent-pair sweep.
    fn is_valid_linear(leaves: &[Octant]) -> bool {
        crate::is_valid_linear(leaves)
    }
}

/// Description of the element movement performed by a repartition; apply
/// the same plan to element-attached data with
/// [`crate::parallel::transfer_fields`] (the paper's `TransferFields`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionPlan {
    /// For each destination rank, the half-open local index range of
    /// elements sent there (empty ranges allowed).
    pub send_ranges: Vec<(usize, usize)>,
    /// Number of elements owned after the repartition.
    pub new_len: usize,
}

/// The replicated curve metadata and the grow-only scratch of one rank's
/// leaf segment. The tree type owns the leaf array itself (its public
/// `local` field) and passes it in. Once every buffer has reached its
/// steady-state capacity, warm refine, coarsen, adapt and partition calls
/// perform no heap allocation here ([`LeafCurve::alloc_bytes`]).
pub struct LeafCurve<'c, L: CurveLeaf> {
    comm: &'c Comm,
    /// Trees the curve threads (1 for a single octree); validation
    /// checks the volume of each.
    ntrees: usize,
    /// Curve key of each rank's first leaf. An empty rank carries the
    /// marker of the next non-empty one (`Key::MAX` if none), so that
    /// ownership search never selects it.
    markers: Vec<L::Key>,
    /// Per-rank leaf counts.
    counts: Vec<u64>,
    /// Reused gather buffer of the marker refresh: per rank, the first
    /// key's words, then the count.
    gather: Vec<u64>,
    /// Swap partner of the leaf array for refine and coarsen.
    scratch: Vec<L>,
    /// Per-leaf coarsen flags.
    flags: Vec<bool>,
    /// One mark per leaf from [`LeafCurve::mark_for_target`].
    marks: Vec<Mark>,
    /// Partition receive buffer, swapped with the leaf array (the send
    /// buffer is the leaf array itself), and the exchange counts.
    recv: Vec<L>,
    send_counts: Vec<usize>,
    recv_counts: Vec<usize>,
}

impl<'c, L: CurveLeaf> LeafCurve<'c, L> {
    /// Metadata of `local` on a curve through `ntrees` trees; runs the
    /// collective marker refresh once.
    pub fn new(comm: &'c Comm, ntrees: usize, local: &[L]) -> Self {
        let mut curve = LeafCurve {
            comm,
            ntrees,
            markers: Vec::new(),
            counts: Vec::new(),
            gather: Vec::new(),
            scratch: Vec::new(),
            flags: Vec::new(),
            marks: Vec::new(),
            recv: Vec::new(),
            send_counts: Vec::new(),
            recv_counts: Vec::new(),
        };
        curve.update(local);
        curve
    }

    /// The communicator.
    pub fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// Re-establish the per-rank markers and counts after any structural
    /// change: one allgather of `(first key, count)` per rank, all buffers
    /// reused.
    pub fn update(&mut self, local: &[L]) {
        let w = L::Key::WORDS;
        let first = local.first().map_or(L::Key::MAX, L::curve_key);
        let mut msg = [0u64; 3];
        msg[..2].copy_from_slice(&first.to_words());
        msg[w] = local.len() as u64;
        self.comm.allgatherv_into(&msg[..=w], &mut self.gather);
        self.markers.clear();
        self.counts.clear();
        for rec in self.gather.chunks_exact(w + 1) {
            self.markers.push(L::Key::from_words(rec));
            self.counts.push(rec[w]);
        }
        let mut next = L::Key::MAX;
        for (marker, &count) in self.markers.iter_mut().zip(&self.counts).rev() {
            if count == 0 {
                *marker = next;
            } else {
                next = *marker;
            }
        }
    }

    /// Replicated curve markers, one per rank (see the field docs).
    pub fn markers(&self) -> &[L::Key] {
        &self.markers
    }

    /// Replicated per-rank leaf counts.
    pub fn rank_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Global leaf count.
    pub fn global_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Global index of this rank's first leaf.
    pub fn global_offset(&self) -> u64 {
        self.counts[..self.comm.rank()].iter().sum()
    }

    /// The rank owning the region of `leaf` (by its first descendant).
    /// Assumes the global leaf array covers that region.
    pub fn owner_of(&self, leaf: &L) -> usize {
        self.owner_of_key(leaf.curve_key())
    }

    /// The inclusive rank range whose segments intersect the region of
    /// `leaf` (it may span several ranks).
    pub fn owner_range(&self, leaf: &L) -> (usize, usize) {
        (self.owner_of(leaf), self.owner_of_key(leaf.curve_end()))
    }

    fn owner_of_key(&self, key: L::Key) -> usize {
        self.markers
            .partition_point(|&m| m <= key)
            .saturating_sub(1)
    }

    /// `RefineTree`: local, then the marker refresh. Returns the number of
    /// leaves refined.
    pub fn refine<F: FnMut(&L) -> bool>(&mut self, local: &mut Vec<L>, should_refine: F) -> usize {
        let n = ops::refine_with(local, &mut self.scratch, should_refine);
        self.update(local);
        n
    }

    /// Refine the leaves whose flag is set, without the marker refresh
    /// (the balance rounds refresh once per round).
    pub fn refine_flagged(&mut self, local: &mut Vec<L>, flags: &[bool]) -> usize {
        let mut i = 0;
        ops::refine_with(local, &mut self.scratch, |_| {
            let f = flags[i];
            i += 1;
            f
        })
    }

    /// `CoarsenTree`: merge the complete local families whose eight leaves
    /// are all selected, then the marker refresh. As in the paper,
    /// families spanning rank boundaries are not coarsened (at most
    /// `P − 1` such families exist). Returns the number of families
    /// coarsened.
    pub fn coarsen<F: FnMut(&L) -> bool>(
        &mut self,
        local: &mut Vec<L>,
        should_coarsen: F,
    ) -> usize {
        self.flags.clear();
        self.flags.extend(local.iter().map(should_coarsen));
        let n = ops::coarsen_marked_with(local, &mut self.scratch, &self.flags);
        self.update(local);
        n
    }

    /// `MarkElements`: the collective threshold bisection toward a global
    /// element-count target, driven by per-element indicators. Leaves one
    /// mark per local leaf for [`LeafCurve::coarsen_marked`] and
    /// [`LeafCurve::refine_marked`], which must follow in that order.
    pub fn mark_for_target(&mut self, local: &[L], indicators: &[f64], params: &MarkParams) {
        mark_elements_into(self.comm, local, indicators, params, &mut self.marks);
    }

    /// `CoarsenTree` on the marks (family-aligned by construction). Local;
    /// returns the number of families coarsened and re-aligns the marks
    /// with the new leaves.
    pub fn coarsen_marked(&mut self, local: &mut Vec<L>) -> usize {
        self.flags.clear();
        self.flags
            .extend(self.marks.iter().map(|m| *m == Mark::Coarsen));
        let coarsened = ops::coarsen_marked_with(local, &mut self.scratch, &self.flags);
        // A coarsened family becomes one parent that keeps its size; every
        // other leaf keeps its mark.
        let mut j = 0usize;
        for i in 0..local.len() {
            if self.flags[j] {
                self.marks[i] = Mark::None;
                j += 8;
            } else {
                self.marks[i] = self.marks[j];
                j += 1;
            }
        }
        self.marks.truncate(local.len());
        coarsened
    }

    /// `RefineTree` on the surviving marks, then the one marker refresh of
    /// the adaptation. Returns the number of leaves refined.
    pub fn refine_marked(&mut self, local: &mut Vec<L>) -> usize {
        let marks = &self.marks;
        let mut i = 0usize;
        let refined = ops::refine_with(local, &mut self.scratch, |_| {
            let m = marks[i] == Mark::Refine;
            i += 1;
            m
        });
        self.update(local);
        refined
    }

    /// `MarkElements` + apply: [`LeafCurve::mark_for_target`], then
    /// coarsen, then refine the survivors. Returns
    /// `(refined, coarsened_families)`.
    pub fn adapt_to_target(
        &mut self,
        local: &mut Vec<L>,
        indicators: &[f64],
        params: &MarkParams,
    ) -> (usize, usize) {
        self.mark_for_target(local, indicators, params);
        let coarsened = self.coarsen_marked(local);
        (self.refine_marked(local), coarsened)
    }

    /// `PartitionTree`: redistribute the leaves so that every rank owns an
    /// equal share (±1) of the curve, writing the plan into `plan` (ranges
    /// cleared first, capacity reused). The send ranges tile the local
    /// array contiguously in rank order, so the leaf array itself is the
    /// flat send buffer: each leaf moves exactly once, with no packing
    /// copy.
    pub fn partition_with(&mut self, local: &mut Vec<L>, plan: &mut PartitionPlan) {
        let p = self.comm.size() as u64;
        let n = self.global_count();
        let start = self.global_offset();
        let end = start + local.len() as u64;
        // Rank r owns the global index range [r·n/p, (r+1)·n/p).
        let share_start = |r: u64| n * r / p;
        plan.send_ranges.clear();
        self.send_counts.clear();
        for r in 0..p {
            let lo = share_start(r).clamp(start, end);
            let hi = share_start(r + 1).clamp(lo, end);
            plan.send_ranges
                .push(((lo - start) as usize, (hi - start) as usize));
            self.send_counts.push((hi - lo) as usize);
        }
        self.comm.alltoallv_flat(
            local,
            &self.send_counts,
            &mut self.recv,
            &mut self.recv_counts,
        );
        // Rank order is curve order: the flat receive buffer is the new
        // local segment.
        std::mem::swap(local, &mut self.recv);
        self.update(local);
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(
                self.validate(local),
                "leaf array invariants violated after partition"
            );
        }
        plan.new_len = local.len();
    }

    /// Validate the distributed linear-octree invariants (collective):
    /// local order, order across rank boundaries, and that the leaves of
    /// every tree exactly cover its root volume.
    pub fn validate(&self, local: &[L]) -> bool {
        let comm = self.comm;
        let w = L::Key::WORDS;
        let locally_valid = L::is_valid_linear(local);
        let first = local.first().map_or(L::Key::MAX, L::curve_key);
        // An empty rank is skipped by its first key; its last is unread.
        let last = local.last().map_or(L::Key::MAX, L::curve_end);
        let firsts = comm.allgatherv(&first.to_words()[..w]);
        let lasts = comm.allgatherv(&last.to_words()[..w]);
        let mut globally_sorted = true;
        let mut prev_last = None;
        for (f, l) in firsts.chunks_exact(w).zip(lasts.chunks_exact(w)) {
            let (f, l) = (L::Key::from_words(f), L::Key::from_words(l));
            if f != L::Key::MAX {
                globally_sorted &= prev_last.is_none_or(|pl| pl <= f);
                prev_last = prev_last.max(Some(l));
            }
        }
        // Exact per-tree volumes in u128, shipped as (high, low) words. The
        // leaves of one tree are contiguous.
        let mut vols = vec![0u64; 2 * self.ntrees];
        for run in local.chunk_by(|a, b| a.tree() == b.tree()) {
            let v: u128 = run
                .iter()
                .map(|l| {
                    let s = l.oct().len() as u128;
                    s * s * s
                })
                .sum();
            let t = 2 * run[0].tree() as usize;
            vols[t..t + 2].copy_from_slice(&v.to_words());
        }
        let vols = comm.allgatherv(&vols);
        let root = (ROOT_LEN as u128).pow(3);
        let complete = (0..self.ntrees).all(|t| {
            let total: u128 = vols
                .chunks_exact(2 * self.ntrees)
                .map(|rank| u128::from_words(&rank[2 * t..]))
                .sum();
            total == root
        });
        let ok = locally_valid && globally_sorted && complete;
        comm.allreduce_min(&[ok as u64])[0] == 1
    }

    /// Heap capacity held by the leaf array and this metadata, in bytes.
    /// Its growth across a warm adapt cycle is the tree layer's share of
    /// the `amr.alloc_bytes` counter; at steady state it must be zero.
    pub fn alloc_bytes(&self, local: &Vec<L>) -> u64 {
        use capacity_bytes as cap;
        let mut b = cap(local) + cap(&self.markers) + cap(&self.counts) + cap(&self.gather);
        b += cap(&self.scratch) + cap(&self.flags) + cap(&self.marks) + cap(&self.recv);
        b + cap(&self.send_counts) + cap(&self.recv_counts)
    }
}

/// Heap capacity of a vector's buffer, in bytes: the unit of every
/// grow-only workspace's `alloc_bytes` accounting.
pub fn capacity_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}
