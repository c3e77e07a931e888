//! The distributed tree: one rank's segment of a curve-ordered leaf
//! array, with everything that refines, balances and repartitions it.
//! [`LeafCurve`] is the one distributed tree type: the single octree
//! ([`crate::parallel::DistOctree`]) is its one-tree instantiation and
//! the forest of octrees (`forest::Forest`) wraps the `(tree, Morton)`
//! one.
//!
//! The paper keeps one marker per rank, the curve key of its first leaf,
//! exchanged by one `allgather`, and partitions by cutting the curve into
//! equal shares (Section IV-A). A forest runs the same bookkeeping over
//! its `(tree, Morton)` curve, and one tree is the special case. So it is
//! written once here, generic over the leaf type through [`CurveLeaf`]:
//! the marker refresh and ownership queries, refine and coarsen,
//! `MarkElements` and its application, `PartitionTree`, 2:1 balance,
//! validation and allocation accounting; the ghost layer is written the
//! same way in [`crate::ghost`]. What really differs per tree type is the
//! [`TreeSeam`] the tree owns: the same-size regions a step out of a
//! tree's root cube reaches in other trees (none for a single octree, the
//! composed face transforms for a forest). Every step inside a tree runs
//! through the batched [`crate::simd`] kernels on the tree's `u64` Morton
//! keys, with the curve markers projected into that key space.
//!
//! `BalanceTree` runs seed propagation ([`crate::balance`]) on each
//! tree's run of the local leaves, then exchanges one size request per
//! same-size neighbour region owned elsewhere, seam images included (to
//! this rank too, through the exchange's self slot), and repeats until no
//! rank refines. Seed propagation is not extended across trees: its
//! parent rule is not closed under the face transforms. Every refinement
//! either step makes is forced, so the rounds reach the unique minimal
//! 2:1 closure of the composed neighbour relation. Only leaves near the
//! segment's boundary build requests, and a round after the first seeds
//! its pass only with the children the previous round's requests created
//! (DESIGN.md §5).

use crate::balance::{balance_run_into, BalanceKind, BalanceWorkspace};
use crate::ghost::{GhostLayer, GhostWorkspace};
use crate::mark::{mark_elements_into, Mark, MarkParams};
use crate::morton::{Octant, ROOT_LEN};
use crate::ops::{self, find_containing};
use crate::simd;
use scomm::{Comm, Pod};
use std::sync::Arc;

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
    /// This position projected into tree `tree`'s Morton key space: 0 if
    /// it precedes the tree, `u64::MAX` if it follows it. Ownership
    /// inside one tree is then a `u64` upper-bound query over the
    /// projected markers.
    fn in_tree(self, tree: u32) -> u64;
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
    fn in_tree(self, _tree: u32) -> u64 {
        self
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
    fn in_tree(self, tree: u32) -> u64 {
        let base = (tree as u128) << 64;
        if self <= base {
            0
        } else if self < base + (1 << 64) {
            self as u64
        } else {
            u64::MAX
        }
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

/// How the trees of a curve meet: the one relation 2:1 balance and the
/// ghost layer follow across tree boundaries.
pub trait TreeSeam<L: CurveLeaf> {
    /// Overwrite `out` with the same-size regions adjacent to `leaf` in
    /// direction `d` that lie in other trees, sorted and deduplicated.
    /// Called only when the step leaves `leaf`'s root cube; empty on the
    /// domain boundary.
    fn across(&self, leaf: &L, d: (i32, i32, i32), out: &mut Vec<L>);
}

/// The seam of a single octree: every step out of the root cube is the
/// domain boundary.
pub struct NoSeam;

impl<L: CurveLeaf> TreeSeam<L> for NoSeam {
    fn across(&self, _leaf: &L, _d: (i32, i32, i32), out: &mut Vec<L>) {
        out.clear();
    }
}

/// A shared seam (the forest's connectivity is shared with its solvers).
impl<L: CurveLeaf, S: TreeSeam<L>> TreeSeam<L> for Arc<S> {
    fn across(&self, leaf: &L, d: (i32, i32, i32), out: &mut Vec<L>) {
        S::across(self, leaf, d, out)
    }
}

/// Overwrite `out` with every same-size region adjacent to `leaf` in
/// direction `d`: the in-tree neighbour, or else the seam's images.
pub fn adjacent_regions<L: CurveLeaf, S: TreeSeam<L>>(
    seam: &S,
    leaf: &L,
    d: (i32, i32, i32),
    out: &mut Vec<L>,
) {
    match leaf.oct().neighbor(d.0, d.1, d.2) {
        Some(n) => {
            out.clear();
            out.push(leaf.with_oct(n));
        }
        None => seam.across(leaf, d, out),
    }
}

/// Batched ownership ranges of same-size regions inside one tree: the
/// curve markers projected into the tree's `u64` key space, and after
/// [`TreeOwners::query`], [`TreeOwners::ranks`]`(i)` is the inclusive
/// range of ranks whose segments intersect region `nbrs[i]`
/// (meaningless for `Octant::INVALID`, which callers send through the
/// seam). Both sweeps run the vectorized upper-bound kernel.
#[derive(Default)]
pub(crate) struct TreeOwners {
    markers: Vec<u64>,
    key_lo: Vec<u64>,
    key_hi: Vec<u64>,
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl TreeOwners {
    pub(crate) fn project<K: CurveKey>(&mut self, markers: &[K], tree: u32) {
        self.markers.clear();
        self.markers.extend(markers.iter().map(|m| m.in_tree(tree)));
    }

    pub(crate) fn query(&mut self, nbrs: &[Octant]) {
        self.key_lo.clear();
        self.key_hi.clear();
        for &n in nbrs {
            let (lo, hi) = if n == Octant::INVALID {
                (0, 0)
            } else {
                (n.key(), n.last_descendant().key())
            };
            self.key_lo.push(lo);
            self.key_hi.push(hi);
        }
        self.lo.clear();
        simd::upper_bounds_into(&self.markers, &self.key_lo, &mut self.lo);
        self.hi.clear();
        simd::upper_bounds_into(&self.markers, &self.key_hi, &mut self.hi);
    }

    pub(crate) fn ranks(&self, i: usize) -> (usize, usize) {
        let rank = |bound: u32| (bound as usize).saturating_sub(1);
        (rank(self.lo[i]), rank(self.hi[i]))
    }

    /// `o` is insulated in rank `me`'s segment: the 3×3×3 block of
    /// same-size cells around it stays inside the root and inside `me`'s
    /// projected key range, so no neighbour region of `o` lies on another
    /// rank or across the seam. The Morton key grows with each coordinate,
    /// so the block's keys lie between those of its lowest and highest
    /// points. O(1); conservative, never wrong.
    pub(crate) fn insulates(&self, me: usize, o: Octant) -> bool {
        let (Some(lo), Some(hi)) = (o.neighbor(-1, -1, -1), o.neighbor(1, 1, 1)) else {
            return false;
        };
        let end = self.markers.get(me + 1).copied().unwrap_or(u64::MAX);
        self.markers[me] <= lo.key() && hi.last_descendant().key() < end
    }
}

/// Grow-only scratch of [`LeafCurve::balance`]'s rounds.
struct RippleScratch<L> {
    /// Seed-propagation scratch of the local pass, and its output, swapped
    /// with the leaf array when the pass added leaves.
    pass: BalanceWorkspace,
    out: Vec<L>,
    /// The seeds of the next local pass: the children the last request
    /// refinement created, in curve order.
    seeds: Vec<L>,
    /// Per-destination size requests: a same-size neighbour region, whose
    /// level is the requesting leaf's.
    req_bufs: Vec<Vec<L>>,
    /// Flat request exchange buffers.
    send_flat: Vec<L>,
    recv_flat: Vec<L>,
    /// Of one tree run, the leaves that are not insulated (their indices
    /// and octants), the batch neighbour-kernel output (one entry per such
    /// leaf, per direction) and its ownership ranges.
    idx: Vec<u32>,
    octs: Vec<Octant>,
    nbrs: Vec<Octant>,
    owners: TreeOwners,
    /// Seam images of one leaf and direction.
    images: Vec<L>,
}

impl<L> Default for RippleScratch<L> {
    fn default() -> Self {
        RippleScratch {
            pass: BalanceWorkspace::default(),
            out: Vec::new(),
            seeds: Vec::new(),
            req_bufs: Vec::new(),
            send_flat: Vec::new(),
            recv_flat: Vec::new(),
            idx: Vec::new(),
            octs: Vec::new(),
            nbrs: Vec::new(),
            owners: TreeOwners::default(),
            images: Vec::new(),
        }
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

/// A distributed tree: this rank's leaves, the [`TreeSeam`] that joins
/// its trees, the replicated curve metadata and the grow-only scratch of
/// every operation. Once every buffer has reached its steady-state
/// capacity, warm refine, coarsen and partition calls reuse it; a warm
/// refine → coarsen → balance → partition cycle allocates only the
/// result of balance's termination reduction (`tests/allocations.rs`).
pub struct LeafCurve<'c, L: CurveLeaf, S> {
    /// This rank's leaves, in curve order.
    pub local: Vec<L>,
    comm: &'c Comm,
    seam: S,
    /// Trees the curve threads (1 for a single octree); validation
    /// checks the volume of each.
    ntrees: usize,
    /// Curve key of each rank's first leaf. An empty rank carries the
    /// marker of the next non-empty one (`Key::MAX` if none), so that
    /// ownership search never selects it.
    markers: Vec<L::Key>,
    /// Per-rank leaf counts.
    counts: Vec<u64>,
    /// Reused gather buffer of the marker refresh (per rank, the first
    /// key's words, then the count).
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
    /// Balance scratch, and the rounds, requesting leaves and seeds of
    /// the last balance.
    ripple: RippleScratch<L>,
    balance_rounds: u64,
    balance_request_leaves: u64,
    balance_seed_leaves: u64,
}

impl<'c, L: CurveLeaf, S: TreeSeam<L>> LeafCurve<'c, L, S> {
    /// The tree of the already-distributed leaves `local` (globally
    /// curve-sorted and non-overlapping across ranks) on a curve through
    /// `ntrees` trees joined by `seam`; runs the collective marker refresh
    /// once.
    pub fn new(comm: &'c Comm, ntrees: usize, seam: S, local: Vec<L>) -> Self {
        let mut tree = LeafCurve {
            local,
            comm,
            seam,
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
            ripple: RippleScratch::default(),
            balance_rounds: 0,
            balance_request_leaves: 0,
            balance_seed_leaves: 0,
        };
        tree.update();
        tree
    }

    /// The communicator.
    pub fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// How the trees meet.
    pub fn seam(&self) -> &S {
        &self.seam
    }

    /// Re-establish the per-rank markers and counts after any structural
    /// change: one allgather of `(first key, count)` per rank, all buffers
    /// reused.
    pub fn update(&mut self) {
        let w = L::Key::WORDS;
        let first = self.local.first().map_or(L::Key::MAX, L::curve_key);
        let mut msg = [0u64; 3];
        msg[..2].copy_from_slice(&first.to_words());
        msg[w] = self.local.len() as u64;
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

    /// Number of trees the curve threads.
    pub fn ntrees(&self) -> usize {
        self.ntrees
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
    pub fn refine<F: FnMut(&L) -> bool>(&mut self, should_refine: F) -> usize {
        let n = ops::refine_with(&mut self.local, &mut self.scratch, should_refine);
        self.update();
        n
    }

    /// Parallel `BalanceTree` over `kind`'s neighbour set, across trees
    /// through the seam (see the module docs): each round a local
    /// seed-propagation pass per tree run, one alltoallv of size requests
    /// and one allreduce exit test; the round count is bounded by the
    /// number of levels, as in the paper. Round 1 seeds its pass with
    /// every leaf, a later round with the children the previous round's
    /// requests created (none: no pass). Only leaves that are not
    /// insulated in this rank's segment build requests. One marker
    /// refresh follows the last round. Returns the number of leaves added
    /// globally.
    pub fn balance(&mut self, kind: BalanceKind) -> u64 {
        let before = self.global_count();
        let dirs = kind.direction_slice();
        let comm = self.comm;
        let (p, me) = (comm.size(), comm.rank());
        let mut ws = std::mem::take(&mut self.ripple);
        if ws.req_bufs.len() < p {
            ws.req_bufs.resize_with(p, Vec::new);
        }
        self.balance_rounds = 0;
        self.balance_request_leaves = 0;
        self.balance_seed_leaves = 0;
        loop {
            self.balance_rounds += 1;
            // Coarsening can break the demands of unchanged leaves, so
            // round 1 seeds every leaf; after it, only the children request
            // refinement created can add demands (see `balance_run_into`).
            let first = self.balance_rounds == 1;
            if first || !ws.seeds.is_empty() {
                ws.out.clear();
                let (mut added, mut s) = (0, 0);
                for run in self.local.chunk_by(|a, b| a.tree() == b.tree()) {
                    let seeds = if first {
                        run
                    } else {
                        let t = run[0].tree();
                        let n = ws.seeds[s..].partition_point(|l| l.tree() == t);
                        s += n;
                        &ws.seeds[s - n..s]
                    };
                    self.balance_seed_leaves += seeds.len() as u64;
                    added += balance_run_into(run, seeds, kind, &mut ws.pass, &mut ws.out);
                }
                if added > 0 {
                    std::mem::swap(&mut self.local, &mut ws.out);
                }
            }

            // Size requests, direction-major per tree run: one batched
            // neighbour-kernel call and one batched ownership query per
            // direction over the run's leaves that are not insulated (an
            // insulated leaf would request nothing). A request `n` says
            // some leaf at level `n.level()` touches region `n`. Request
            // sets are unordered (the receiver flags idempotently).
            for buf in &mut ws.req_bufs {
                buf.clear();
            }
            for run in self.local.chunk_by(|a, b| a.tree() == b.tree()) {
                ws.owners.project(&self.markers, run[0].tree());
                ws.idx.clear();
                ws.octs.clear();
                for (i, o) in run.iter().map(L::oct).enumerate() {
                    if !ws.owners.insulates(me, o) {
                        ws.idx.push(i as u32);
                        ws.octs.push(o);
                    }
                }
                self.balance_request_leaves += ws.idx.len() as u64;
                for &d in dirs {
                    ws.nbrs.clear();
                    simd::neighbor_keys_into(&ws.octs, d.0, d.1, d.2, &mut ws.nbrs);
                    ws.owners.query(&ws.nbrs);
                    for (i, &n) in ws.nbrs.iter().enumerate() {
                        let leaf = &run[ws.idx[i] as usize];
                        if n != Octant::INVALID {
                            let (rlo, rhi) = ws.owners.ranks(i);
                            for r in (rlo..=rhi).filter(|&r| r != me) {
                                ws.req_bufs[r].push(leaf.with_oct(n));
                            }
                            continue;
                        }
                        self.seam.across(leaf, d, &mut ws.images);
                        for img in &ws.images {
                            let (rlo, rhi) = self.owner_range(img);
                            for buf in &mut ws.req_bufs[rlo..=rhi] {
                                buf.push(*img);
                            }
                        }
                    }
                }
            }
            ws.send_flat.clear();
            self.send_counts.clear();
            for buf in &ws.req_bufs[..p] {
                self.send_counts.push(buf.len());
                ws.send_flat.extend_from_slice(buf);
            }
            comm.alltoallv_flat(
                &ws.send_flat,
                &self.send_counts,
                &mut ws.recv_flat,
                &mut self.recv_counts,
            );

            // Any local leaf containing a requested region must be at
            // most one level coarser than the requester. The children of
            // the leaves refined here seed the next round's pass.
            self.flags.clear();
            self.flags.resize(self.local.len(), false);
            let mut changed = 0u64;
            for n in &ws.recv_flat {
                if let Some(i) = find_containing(&self.local, n) {
                    if self.local[i].oct().level() + 1 < n.oct().level() && !self.flags[i] {
                        self.flags[i] = true;
                        changed += 1;
                    }
                }
            }
            ws.seeds.clear();
            if changed > 0 {
                for (leaf, _) in self.local.iter().zip(&self.flags).filter(|(_, &f)| f) {
                    ws.seeds
                        .extend(leaf.oct().children().map(|c| leaf.with_oct(c)));
                }
                let (flags, mut i) = (&self.flags, 0);
                ops::refine_with(&mut self.local, &mut self.scratch, |_| {
                    i += 1;
                    flags[i - 1]
                });
            }
            if comm.allreduce_sum(&[changed])[0] == 0 {
                break;
            }
        }
        // Refinement keeps every rank's first key (a leaf's first child
        // has its anchor) and its emptiness, so the markers the requests
        // were routed by stay current through the rounds; only the counts
        // change.
        self.update();
        self.ripple = ws;
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(
                self.validate(),
                "leaf array invariants violated after balance"
            );
        }
        self.global_count() - before
    }

    /// Rounds (local pass + request exchange) used by the most recent
    /// [`LeafCurve::balance`] call.
    pub fn last_balance_rounds(&self) -> u64 {
        self.balance_rounds
    }

    /// Local leaves that built size requests in the most recent
    /// [`LeafCurve::balance`] call, summed over its rounds (the others
    /// were insulated).
    pub fn last_balance_request_leaves(&self) -> u64 {
        self.balance_request_leaves
    }

    /// Seeds of the local passes of the most recent
    /// [`LeafCurve::balance`] call, summed over its rounds.
    pub fn last_balance_seed_leaves(&self) -> u64 {
        self.balance_seed_leaves
    }

    /// `CoarsenTree`: merge the complete local families whose eight leaves
    /// are all selected, then the marker refresh. As in the paper,
    /// families spanning rank boundaries are not coarsened (at most
    /// `P − 1` such families exist). Returns the number of families
    /// coarsened.
    pub fn coarsen<F: FnMut(&L) -> bool>(&mut self, should_coarsen: F) -> usize {
        self.flags.clear();
        self.flags.extend(self.local.iter().map(should_coarsen));
        let n = ops::coarsen_marked_with(&mut self.local, &mut self.scratch, &self.flags);
        self.update();
        n
    }

    /// `MarkElements`: the collective threshold bisection toward a global
    /// element-count target, driven by per-element indicators. Leaves one
    /// mark per local leaf for [`LeafCurve::coarsen_marked`] and
    /// [`LeafCurve::refine_marked`], which must follow in that order.
    pub fn mark_for_target(&mut self, indicators: &[f64], params: &MarkParams) {
        mark_elements_into(self.comm, &self.local, indicators, params, &mut self.marks);
    }

    /// `CoarsenTree` on the marks (family-aligned by construction). Local;
    /// returns the number of families coarsened and re-aligns the marks
    /// with the new leaves.
    pub fn coarsen_marked(&mut self) -> usize {
        self.flags.clear();
        self.flags
            .extend(self.marks.iter().map(|m| *m == Mark::Coarsen));
        let coarsened = ops::coarsen_marked_with(&mut self.local, &mut self.scratch, &self.flags);
        // A coarsened family becomes one parent that keeps its size; every
        // other leaf keeps its mark.
        let mut j = 0usize;
        for i in 0..self.local.len() {
            if self.flags[j] {
                self.marks[i] = Mark::None;
                j += 8;
            } else {
                self.marks[i] = self.marks[j];
                j += 1;
            }
        }
        self.marks.truncate(self.local.len());
        coarsened
    }

    /// `RefineTree` on the surviving marks, then the one marker refresh of
    /// the adaptation. Returns the number of leaves refined.
    pub fn refine_marked(&mut self) -> usize {
        let marks = &self.marks;
        let mut i = 0usize;
        let refined = ops::refine_with(&mut self.local, &mut self.scratch, |_| {
            let m = marks[i] == Mark::Refine;
            i += 1;
            m
        });
        self.update();
        refined
    }

    /// `MarkElements` + apply: [`LeafCurve::mark_for_target`], then
    /// coarsen, then refine the survivors. Returns
    /// `(refined, coarsened_families)`.
    pub fn adapt_to_target(&mut self, indicators: &[f64], params: &MarkParams) -> (usize, usize) {
        self.mark_for_target(indicators, params);
        let coarsened = self.coarsen_marked();
        (self.refine_marked(), coarsened)
    }

    /// `PartitionTree`: redistribute the leaves so that every rank owns an
    /// equal share (±1) of the curve. Returns the plan, which must be
    /// replayed on element data with [`crate::parallel::transfer_fields`].
    pub fn partition(&mut self) -> PartitionPlan {
        let mut plan = PartitionPlan::default();
        self.partition_with(&mut plan);
        plan
    }

    /// [`LeafCurve::partition`] writing the plan into `plan` (ranges
    /// cleared first, capacity reused). The send ranges tile the local
    /// array contiguously in rank order, so the leaf array itself is the
    /// flat send buffer: each leaf moves exactly once, with no packing
    /// copy, and warm calls do not allocate.
    pub fn partition_with(&mut self, plan: &mut PartitionPlan) {
        let p = self.comm.size() as u64;
        let n = self.global_count();
        let start = self.global_offset();
        let end = start + self.local.len() as u64;
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
            &self.local,
            &self.send_counts,
            &mut self.recv,
            &mut self.recv_counts,
        );
        // Rank order is curve order: the flat receive buffer is the new
        // local segment.
        std::mem::swap(&mut self.local, &mut self.recv);
        self.update();
        #[cfg(debug_assertions)]
        if scomm::checks_enabled() {
            assert!(
                self.validate(),
                "leaf array invariants violated after partition"
            );
        }
        plan.new_len = self.local.len();
    }

    /// Validate the distributed linear-octree invariants (collective):
    /// local order, order across rank boundaries, and that the leaves of
    /// every tree exactly cover its root volume.
    pub fn validate(&self) -> bool {
        let (comm, local) = (self.comm, &self.local);
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

    /// The ghost layer (see [`crate::ghost`]) in a fresh workspace; AMR
    /// loops keep a [`GhostWorkspace`] and call
    /// [`LeafCurve::ghost_layer_into`].
    pub fn ghosts(&self) -> GhostLayer<L> {
        let mut ws = GhostWorkspace::new();
        self.ghost_layer_into(&mut ws);
        ws.take_layer()
    }
}
