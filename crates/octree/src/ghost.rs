//! The ghost layer of a distributed leaf curve: for every rank, the
//! remote leaves that touch its own through a face, an edge or a corner,
//! with owner and adjacency class. Written once over
//! [`CurveLeaf`], so the single octree and the forest build it with the
//! same code, and cross tree boundaries through their [`TreeSeam`].
//!
//! The constructor is the recursive one of Isaac, Burstedde, Wilcox &
//! Ghattas 2014 (PAPERS.md). Sender side: a top-down recursion per tree
//! over the implicit octree above the local leaves. A box whose
//! 26-neighbourhood is owned by this rank alone is *insulated*, and its
//! subtree is pruned. Interior nodes split their leaf run through
//! [`crate::ops::child_split`]; runs of at most [`RUN`] leaves are
//! processed direction-major with the batched [`crate::simd`] neighbour
//! and upper-bound kernels against the curve markers projected into the
//! tree's `u64` key space. A step out of the root cube goes through the
//! seam. Each leaf is sent once to every rank owning part of one of its
//! neighbour regions. Receiver side: a received leaf is kept with the
//! [`GhostKind`] of the first of the [`DIRS`] (faces first) whose regions
//! reach this rank's curve range, and dropped if none does.

use crate::curve::{
    adjacent_regions, capacity_bytes as cap, CurveLeaf, LeafCurve, TreeOwners, TreeSeam,
};
use crate::morton::{Octant, MAX_LEVEL};
use crate::ops;
use crate::simd;

/// The 26 unit directions grouped by codimension: 6 faces (indexed to
/// match the face numbering `f = 2*axis + high_side`), then 12 edges,
/// then 8 corners.
pub const DIRS: [(i32, i32, i32); 26] = [
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 1, 0),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (1, 0, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
    (0, 1, 1),
    (-1, -1, -1),
    (1, -1, -1),
    (-1, 1, -1),
    (1, 1, -1),
    (-1, -1, 1),
    (1, -1, 1),
    (-1, 1, 1),
    (1, 1, 1),
];

/// Leaf runs at or below this size stop the recursion and are processed
/// with the direction-major batched kernels.
const RUN: usize = 32;

/// Ghost provenance: the minimal codimension of an adjacency direction
/// through which the ghost touches this rank's leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GhostKind {
    /// Codimension 1: shares a face with a local leaf.
    Face,
    /// Codimension 2: touches local leaves through an edge only.
    Edge,
    /// Codimension 3: touches local leaves through a corner only.
    Corner,
}

impl GhostKind {
    /// The class of direction `DIRS[d]`.
    pub fn of_dir(d: usize) -> GhostKind {
        match d {
            0..6 => GhostKind::Face,
            6..18 => GhostKind::Edge,
            _ => GhostKind::Corner,
        }
    }
}

/// One ghost leaf with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostEntry<L> {
    /// Owning rank.
    pub owner: u32,
    /// Minimal-codimension adjacency class.
    pub kind: GhostKind,
    /// The remote leaf.
    pub leaf: L,
}

/// The ghost layer: entries sorted by `(leaf, owner)`.
#[derive(Debug)]
pub struct GhostLayer<L> {
    pub entries: Vec<GhostEntry<L>>,
}

impl<L> Default for GhostLayer<L> {
    fn default() -> Self {
        GhostLayer {
            entries: Vec::new(),
        }
    }
}

impl<L> GhostLayer<L> {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity_bytes(&self) -> u64 {
        cap(&self.entries)
    }
}

/// Grow-only scratch and output of [`LeafCurve::ghost_layer_into`]: once
/// warm, rebuilding the ghost layer performs no heap allocation.
pub struct GhostWorkspace<L> {
    /// Packed raw keys of the local leaves, rebuilt per call.
    keys: Vec<u64>,
    /// Explicit recursion stack: `(node, lo, hi)` over the local slice.
    stack: Vec<(Octant, u32, u32)>,
    /// Child-split scratch.
    needles: Vec<u64>,
    ends: Vec<u32>,
    /// Direction-major leaf-run batches and their ownership ranges.
    run_octs: Vec<Octant>,
    nbrs: Vec<Octant>,
    owners: TreeOwners,
    /// Per-destination staging and per-(leaf, rank) dedup stamps.
    send_bufs: Vec<Vec<L>>,
    stamp: Vec<u64>,
    /// Region scratch of the insulation test, the seam and the receiver.
    regions: Vec<L>,
    /// Flat wire buffers.
    send_flat: Vec<L>,
    send_counts: Vec<usize>,
    recv_flat: Vec<L>,
    recv_counts: Vec<usize>,
    /// The constructed layer (output; kept for reuse).
    layer: GhostLayer<L>,
}

impl<L> Default for GhostWorkspace<L> {
    fn default() -> Self {
        GhostWorkspace {
            keys: Vec::new(),
            stack: Vec::new(),
            needles: Vec::new(),
            ends: Vec::new(),
            run_octs: Vec::new(),
            nbrs: Vec::new(),
            owners: TreeOwners::default(),
            send_bufs: Vec::new(),
            stamp: Vec::new(),
            regions: Vec::new(),
            send_flat: Vec::new(),
            send_counts: Vec::new(),
            recv_flat: Vec::new(),
            recv_counts: Vec::new(),
            layer: GhostLayer::default(),
        }
    }
}

impl<L> GhostWorkspace<L> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The last constructed layer.
    pub fn layer(&self) -> &GhostLayer<L> {
        &self.layer
    }

    /// The entries of the last constructed layer.
    pub fn ghosts(&self) -> &[GhostEntry<L>] {
        &self.layer.entries
    }

    /// Take ownership of the last constructed layer.
    pub fn take_layer(&mut self) -> GhostLayer<L> {
        std::mem::take(&mut self.layer)
    }

    pub fn capacity_bytes(&self) -> u64 {
        let mut b = cap(&self.keys) + cap(&self.stack) + cap(&self.needles);
        b += cap(&self.ends) + cap(&self.run_octs) + cap(&self.nbrs);
        b += self.owners.capacity_bytes() + cap(&self.stamp) + cap(&self.regions);
        b += cap(&self.send_flat) + cap(&self.send_counts);
        b += cap(&self.recv_flat) + cap(&self.recv_counts);
        b += cap(&self.send_bufs) + self.send_bufs.iter().map(cap).sum::<u64>();
        b + self.layer.capacity_bytes()
    }
}

impl<L: CurveLeaf> LeafCurve<'_, L> {
    /// Build the ghost layer of `local` (see the module docs) into `ws`:
    /// one alltoallv, and no heap allocation once `ws` is warm.
    pub fn ghost_layer_into<'w, S: TreeSeam<L>>(
        &self,
        local: &[L],
        seam: &S,
        ws: &'w mut GhostWorkspace<L>,
    ) -> &'w GhostLayer<L> {
        let comm = self.comm();
        let (p, me) = (comm.size(), comm.rank());
        let GhostWorkspace {
            keys,
            stack,
            needles,
            ends,
            run_octs,
            nbrs,
            owners,
            send_bufs,
            stamp,
            regions,
            send_flat,
            send_counts,
            recv_flat,
            recv_counts,
            layer,
        } = ws;

        send_bufs.resize_with(p, Vec::new);
        for b in send_bufs.iter_mut() {
            b.clear();
        }
        stamp.clear();
        stamp.resize(p, 0);
        keys.clear();
        keys.extend(local.iter().map(|l| l.oct().raw()));

        // Send `leaf` (the `serial`-th local leaf, counting from 1) to
        // every rank in `rlo..=rhi` but this one, at most once each.
        let mut send = |leaf: L, serial: u64, rlo: usize, rhi: usize| {
            for r in rlo..=rhi.min(p - 1) {
                if r != me && stamp[r] != serial {
                    stamp[r] = serial;
                    send_bufs[r].push(leaf);
                }
            }
        };

        let mut t_lo = 0usize;
        while t_lo < local.len() {
            let t = local[t_lo].tree();
            let t_hi = t_lo + local[t_lo..].partition_point(|l| l.tree() == t);
            owners.project(self.markers(), t);
            stack.clear();
            stack.push((Octant::root(), t_lo as u32, t_hi as u32));
            while let Some((node, lo, hi)) = stack.pop() {
                let (lo, hi) = (lo as usize, hi as usize);
                if hi == lo {
                    continue;
                }
                if hi - lo > RUN && node.level() < MAX_LEVEL {
                    if self.insulated(&local[lo].with_oct(node), seam, regions) {
                        continue;
                    }
                    ops::child_split(&keys[lo..hi], &node, needles, ends);
                    let mut start = lo as u32;
                    for (k, child) in node.children().into_iter().enumerate() {
                        let end = lo as u32 + ends[k];
                        if end > start {
                            stack.push((child, start, end));
                        }
                        start = end;
                    }
                    continue;
                }
                // Leaf run: direction-major batched neighbour keys and
                // owner bounds.
                let run = &local[lo..hi];
                run_octs.clear();
                run_octs.extend(run.iter().map(L::oct));
                nbrs.clear();
                for &(dx, dy, dz) in DIRS.iter() {
                    simd::neighbor_keys_into(run_octs, dx, dy, dz, nbrs);
                }
                owners.query(nbrs);
                let b = run.len();
                for (i, &leaf) in run.iter().enumerate() {
                    let serial = (lo + i) as u64 + 1;
                    for (d, &dir) in DIRS.iter().enumerate() {
                        let idx = d * b + i;
                        if nbrs[idx] != Octant::INVALID {
                            let (rlo, rhi) = owners.ranks(idx);
                            send(leaf, serial, rlo, rhi);
                        } else {
                            seam.across(&leaf, dir, regions);
                            for nb in regions.iter() {
                                let (rlo, rhi) = self.owner_range(nb);
                                send(leaf, serial, rlo, rhi);
                            }
                        }
                    }
                }
            }
            t_lo = t_hi;
        }

        send_counts.clear();
        send_flat.clear();
        for buf in send_bufs.iter() {
            send_counts.push(buf.len());
            send_flat.extend_from_slice(buf);
        }
        comm.alltoallv_flat(send_flat, send_counts, recv_flat, recv_counts);

        layer.entries.clear();
        let mut off = 0usize;
        for (src, &cnt) in recv_counts.iter().enumerate() {
            for &leaf in &recv_flat[off..off + cnt] {
                if let Some(kind) = self.classify_ghost(&leaf, seam, regions) {
                    layer.entries.push(GhostEntry {
                        owner: src as u32,
                        kind,
                        leaf,
                    });
                }
            }
            off += cnt;
        }
        layer.entries.sort_by_key(|e| (e.leaf, e.owner));
        layer
    }

    /// The class of the first of the [`DIRS`] whose same-size regions
    /// around `leaf` intersect this rank's curve range; `None` means not
    /// adjacent.
    fn classify_ghost<S: TreeSeam<L>>(
        &self,
        leaf: &L,
        seam: &S,
        regions: &mut Vec<L>,
    ) -> Option<GhostKind> {
        let me = self.comm().rank();
        DIRS.iter()
            .position(|&d| {
                adjacent_regions(seam, leaf, d, regions);
                regions.iter().any(|n| {
                    let (rlo, rhi) = self.owner_range(n);
                    rlo <= me && me <= rhi
                })
            })
            .map(GhostKind::of_dir)
    }

    /// The box `node` plus its full 26-neighbourhood is owned by this
    /// rank alone: no leaf below it can have a remote neighbour, so the
    /// ghost recursion prunes the whole subtree.
    fn insulated<S: TreeSeam<L>>(&self, node: &L, seam: &S, regions: &mut Vec<L>) -> bool {
        let me = self.comm().rank();
        self.owner_range(node) == (me, me)
            && DIRS.iter().all(|&d| {
                adjacent_regions(seam, node, d, regions);
                regions.iter().all(|n| self.owner_range(n) == (me, me))
            })
    }
}
