//! Recursive forest traversal: ghost and iterate.
//!
//! The two entry points mirror the recursive distributed-forest
//! algorithms of Isaac, Burstedde, Wilcox & Ghattas 2014 (PAPERS.md):
//!
//! * [`Forest::ghost_layer_into`] — a top-down recursive ghost
//!   constructor producing **face, edge, and corner** ghosts with
//!   per-neighbor provenance ([`GhostKind`]). The recursion descends the
//!   implicit octree above the local leaves, prunes *insulated* subtrees
//!   (boxes whose entire 26-neighborhood is owned by this rank), and
//!   tests ownership bounds through the batched
//!   [`octree::simd::upper_bounds_into`] range-query kernel over
//!   per-tree projections of the curve markers.
//! * [`Forest::iterate_faces`] / [`Forest::iterate_edges`] /
//!   [`Forest::iterate_corners`] — visit every face/edge/corner entity
//!   touching a local leaf exactly once, with full hanging-neighbor
//!   information, over the merged local+ghost leaf view.
//!
//! Inter-tree edge/corner adjacency is reached through *composed* face
//! transforms ([`crate::FaceTransform::apply_anchor`]): a neighbor
//! region that leaves the tree on more than one axis is chased across
//! one face per step, each hop strictly reducing the number of
//! out-of-range axes. This covers every connectivity in which
//! edge/corner-adjacent trees are linked by chains of at most three face
//! hops — true for `unit_cube`, `brick`, and `cubed_sphere`.

use octree::{ops, simd, Octant, MAX_LEVEL, ROOT_LEN};

use crate::connectivity::{transverse_axes, Connectivity};
use crate::dist::{Forest, ForestLeaf};

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

fn kind_of_dir(d: usize) -> GhostKind {
    if d < 6 {
        GhostKind::Face
    } else if d < 18 {
        GhostKind::Edge
    } else {
        GhostKind::Corner
    }
}

/// One ghost leaf with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostEntry {
    /// Owning rank.
    pub owner: u32,
    /// Minimal-codimension adjacency class.
    pub kind: GhostKind,
    /// The remote leaf.
    pub leaf: ForestLeaf,
}

/// The recursive ghost layer: entries sorted by `(leaf, owner)`.
#[derive(Debug, Default)]
pub struct GhostLayer {
    pub entries: Vec<GhostEntry>,
}

impl GhostLayer {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<GhostEntry>()) as u64
    }
}

/// Grow-only scratch for [`Forest::ghost_layer_into`], following the
/// PR 3/4 zero-allocation workspace discipline: once warm, rebuilding
/// the ghost layer performs no steady-state heap allocation.
#[derive(Default)]
pub struct GhostWorkspace {
    /// Packed raw keys of the local leaves, rebuilt per call.
    keys: Vec<u64>,
    /// Per-tree u64 projection of the u128 curve markers.
    tmarkers: Vec<u64>,
    /// Explicit recursion stack: `(node, lo, hi)` over the local slice.
    stack: Vec<(Octant, u32, u32)>,
    /// Child-split scratch.
    needles: Vec<u64>,
    ends: Vec<u32>,
    /// Direction-major leaf-run batches.
    run_octs: Vec<Octant>,
    nbrs: Vec<Octant>,
    bnd_lo: Vec<u64>,
    bnd_hi: Vec<u64>,
    own_lo: Vec<u32>,
    own_hi: Vec<u32>,
    /// Per-destination staging and per-(leaf, rank) dedup stamps.
    send_bufs: Vec<Vec<ForestLeaf>>,
    stamp: Vec<u64>,
    /// Composed-transform region scratch (insulation / leaf dirs).
    insu: Vec<ForestLeaf>,
    xnbrs: Vec<ForestLeaf>,
    /// Flat wire buffers.
    send_flat: Vec<ForestLeaf>,
    send_counts: Vec<usize>,
    recv_flat: Vec<ForestLeaf>,
    recv_counts: Vec<usize>,
    /// The constructed layer (output; kept for reuse).
    layer: GhostLayer,
}

impl GhostWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// The last constructed layer.
    pub fn layer(&self) -> &GhostLayer {
        &self.layer
    }

    /// Take ownership of the last constructed layer.
    pub fn take_layer(&mut self) -> GhostLayer {
        std::mem::take(&mut self.layer)
    }

    pub fn capacity_bytes(&self) -> u64 {
        use octree::curve::capacity_bytes as cap;
        let mut b = cap(&self.keys) + cap(&self.tmarkers) + cap(&self.stack);
        b += cap(&self.needles) + cap(&self.ends) + cap(&self.run_octs);
        b += cap(&self.nbrs) + cap(&self.bnd_lo) + cap(&self.bnd_hi);
        b += cap(&self.own_lo) + cap(&self.own_hi) + cap(&self.stamp);
        b += cap(&self.insu) + cap(&self.xnbrs);
        b += cap(&self.send_flat) + cap(&self.send_counts);
        b += cap(&self.recv_flat) + cap(&self.recv_counts);
        b += cap(&self.send_bufs);
        for v in &self.send_bufs {
            b += cap(v);
        }
        b + self.layer.capacity_bytes()
    }
}

/// Chase a same-size neighbor region given by extended (possibly
/// out-of-tree) anchor coordinates across connected faces, one
/// out-of-range axis per hop. Each hop strictly reduces the number of
/// out-of-range axes, so the recursion depth is at most 3.
fn collect_extended(
    conn: &Connectivity,
    tree: u32,
    a: [i64; 3],
    level: u8,
    out: &mut Vec<ForestLeaf>,
) {
    let lim = ROOT_LEN as i64;
    if (0..3).all(|i| (0..lim).contains(&a[i])) {
        out.push(ForestLeaf::new(
            tree,
            Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, level),
        ));
        return;
    }
    for axis in 0..3 {
        if (0..lim).contains(&a[axis]) {
            continue;
        }
        let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
        if let Some(tr) = conn.neighbor_across(tree, face) {
            collect_extended(conn, tr.tree, tr.apply_anchor(a, level), level, out);
        }
    }
}

/// Same, additionally carrying an exact lattice point (doubled
/// coordinates) through each hop — corner/edge entity tracking.
fn collect_extended_pt(
    conn: &Connectivity,
    tree: u32,
    a: [i64; 3],
    p2: [i64; 3],
    level: u8,
    out: &mut Vec<(ForestLeaf, [i64; 3])>,
) {
    let lim = ROOT_LEN as i64;
    if (0..3).all(|i| (0..lim).contains(&a[i])) {
        let region = ForestLeaf::new(
            tree,
            Octant::new(a[0] as u32, a[1] as u32, a[2] as u32, level),
        );
        out.push((region, p2));
        return;
    }
    for axis in 0..3 {
        if (0..lim).contains(&a[axis]) {
            continue;
        }
        let face = (2 * axis + usize::from(a[axis] >= lim)) as u8;
        if let Some(tr) = conn.neighbor_across(tree, face) {
            collect_extended_pt(
                conn,
                tr.tree,
                tr.apply_anchor(a, level),
                tr.apply_point_i64(p2),
                level,
                out,
            );
        }
    }
}

// ----------------------------------------------------------------------
// Iterate
// ----------------------------------------------------------------------

/// Where a leaf in the merged traversal view came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafOrigin {
    /// Index into `forest.local`.
    Local(u32),
    /// Index into `GhostLayer::entries`.
    Ghost(u32),
}

impl LeafOrigin {
    pub fn is_local(&self) -> bool {
        matches!(self, LeafOrigin::Local(_))
    }
}

/// One side of a face entity.
#[derive(Debug, Clone, Copy)]
pub struct FaceSide {
    pub leaf: ForestLeaf,
    pub origin: LeafOrigin,
    /// The face of `leaf` lying on the entity, in `leaf`'s tree frame.
    pub face: u8,
    /// [`crate::FaceTransform::orientation`] of the way from this side's
    /// tree to the opposite side's, seen from `face`: how to lay the
    /// opposite side's face lattice over this one's. 0 inside a tree and
    /// on the domain boundary.
    pub orient: u8,
}

/// A face entity: the big (or equal-size) side, and the opposite
/// side(s) — one for conforming faces, four (in z-order of the face's
/// transverse axes) for hanging faces, none on the domain boundary.
pub struct FaceVisit<'a> {
    pub big: FaceSide,
    pub fine: &'a [FaceSide],
    pub hanging: bool,
}

/// One leaf incident to a corner or edge entity.
#[derive(Debug, Clone, Copy)]
pub struct Incident {
    pub leaf: ForestLeaf,
    pub origin: LeafOrigin,
    /// The entity is a full own corner (resp. edge) of this leaf; false
    /// marks a hanging incidence — the entity lies interior to a face or
    /// edge of this (coarser) leaf.
    pub conforming: bool,
}

/// A corner entity, identified by its doubled lattice coordinates in the
/// emitting leaf's tree frame.
pub struct CornerVisit<'a> {
    pub tree: u32,
    pub point2: [i64; 3],
    pub sides: &'a [Incident],
    pub hanging: bool,
}

/// An edge entity, identified by its midpoint in doubled lattice
/// coordinates in the emitting leaf's tree frame; `axis` is the edge
/// direction in that frame.
pub struct EdgeVisit<'a> {
    pub tree: u32,
    pub axis: u8,
    pub mid2: [i64; 3],
    pub sides: &'a [Incident],
    pub hanging: bool,
}

fn view_containing(view: &[(ForestLeaf, LeafOrigin)], target: &ForestLeaf) -> Option<usize> {
    let idx = view.partition_point(|(l, _)| l <= target);
    if idx == 0 {
        return None;
    }
    let c = idx - 1;
    if view[c].0.contains(target) {
        Some(c)
    } else {
        None
    }
}

/// The MAX_LEVEL probe cell just inside `region` touching the lattice
/// point/midpoint `p2` (doubled coordinates, same tree frame), displaced
/// toward the low (`lo = true`) or high side on axes where `p2` lies
/// interior to the region's extent. Returns `None` if `p2` does not
/// touch the closed region.
fn probe_at(region: &Octant, p2: [i64; 3], lo: bool) -> Option<Octant> {
    let len = region.len() as i64;
    let anchor = [region.x() as i64, region.y() as i64, region.z() as i64];
    let mut px = [0i64; 3];
    for i in 0..3 {
        let a2 = 2 * anchor[i];
        let b2 = 2 * (anchor[i] + len);
        if p2[i] < a2 || p2[i] > b2 {
            return None;
        }
        px[i] = if p2[i] == a2 {
            anchor[i]
        } else if p2[i] == b2 {
            anchor[i] + len - 1
        } else if p2[i] % 2 != 0 {
            (p2[i] - 1) / 2
        } else if lo {
            p2[i] / 2 - 1
        } else {
            p2[i] / 2
        };
    }
    Some(Octant::new(
        px[0] as u32,
        px[1] as u32,
        px[2] as u32,
        MAX_LEVEL,
    ))
}

/// `p2` is one of the eight corner points of `oct` (doubled coords).
fn is_corner_of(oct: &Octant, p2: [i64; 3]) -> bool {
    let len = oct.len() as i64;
    let a = [oct.x() as i64, oct.y() as i64, oct.z() as i64];
    (0..3).all(|i| p2[i] == 2 * a[i] || p2[i] == 2 * (a[i] + len))
}

/// `mid2` is the center of one of the twelve edges of `oct`.
fn is_edge_center_of(oct: &Octant, mid2: [i64; 3]) -> bool {
    let len = oct.len() as i64;
    let a = [oct.x() as i64, oct.y() as i64, oct.z() as i64];
    let mut interior = 0;
    for i in 0..3 {
        if mid2[i] == 2 * a[i] + len {
            interior += 1;
        } else if mid2[i] != 2 * a[i] && mid2[i] != 2 * (a[i] + len) {
            return false;
        }
    }
    interior == 1
}

impl<'c> Forest<'c> {
    /// All same-size neighbor regions of `leaf` in direction
    /// `(dx, dy, dz)`, including inter-tree images reached through
    /// composed face transforms (all crossing orders, deduplicated).
    /// For face directions this is at most one region; edge/corner
    /// directions can fan out across tree seams. `out` is overwritten.
    pub fn neighbors_full(
        &self,
        leaf: &ForestLeaf,
        dx: i32,
        dy: i32,
        dz: i32,
        out: &mut Vec<ForestLeaf>,
    ) {
        out.clear();
        let o = &leaf.oct;
        let len = o.len() as i64;
        let a = [
            o.x() as i64 + dx as i64 * len,
            o.y() as i64 + dy as i64 * len,
            o.z() as i64 + dz as i64 * len,
        ];
        collect_extended(self.connectivity().as_ref(), leaf.tree, a, o.level(), out);
        out.sort_unstable();
        out.dedup();
    }

    /// Classify a received leaf by the minimal codimension over the 26
    /// directions (faces first) whose composed neighbor regions
    /// intersect this rank's owned range. `None` means not adjacent.
    pub fn classify_ghost(
        &self,
        leaf: &ForestLeaf,
        scratch: &mut Vec<ForestLeaf>,
    ) -> Option<GhostKind> {
        let me = self.comm().rank();
        for (d, &(dx, dy, dz)) in DIRS.iter().enumerate() {
            self.neighbors_full(leaf, dx, dy, dz, scratch);
            let hit = scratch.iter().any(|n| {
                let (rlo, rhi) = self.owner_range(n);
                rlo <= me && me <= rhi
            });
            if hit {
                return Some(kind_of_dir(d));
            }
        }
        None
    }

    /// The box `node` in tree `t` plus its full 26-neighborhood is owned
    /// exclusively by rank `me`: no leaf below it can have a remote
    /// neighbor, so the ghost recursion prunes the whole subtree.
    fn insulated(&self, t: u32, node: &Octant, me: usize, scratch: &mut Vec<ForestLeaf>) -> bool {
        let nl = ForestLeaf::new(t, *node);
        if self.owner_range(&nl) != (me, me) {
            return false;
        }
        for &(dx, dy, dz) in DIRS.iter() {
            match node.neighbor(dx, dy, dz) {
                Some(n) => {
                    if self.owner_range(&ForestLeaf::new(t, n)) != (me, me) {
                        return false;
                    }
                }
                None => {
                    self.neighbors_full(&nl, dx, dy, dz, scratch);
                    if scratch.iter().any(|nb| self.owner_range(nb) != (me, me)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Recursive ghost construction into grow-only workspace storage.
    ///
    /// Sender side: a top-down recursion per tree over the implicit
    /// octree above the local leaves. Subtrees whose 26-neighborhood is
    /// wholly local are pruned (insulation test); interior nodes split
    /// their leaf run through [`octree::ops::child_split`]; runs of at
    /// most [`RUN`] leaves are processed direction-major with the
    /// batched [`octree::simd`] neighbor/range kernels against per-tree
    /// u64 projections of the curve markers. Receiver side: every
    /// received leaf is classified by minimal adjacency codimension
    /// ([`Forest::classify_ghost`]) or dropped.
    pub fn ghost_layer_into<'w>(&self, ws: &'w mut GhostWorkspace) -> &'w GhostLayer {
        let p = self.comm().size();
        let me = self.comm().rank();
        let GhostWorkspace {
            keys,
            tmarkers,
            stack,
            needles,
            ends,
            run_octs,
            nbrs,
            bnd_lo,
            bnd_hi,
            own_lo,
            own_hi,
            send_bufs,
            stamp,
            insu,
            xnbrs,
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
        keys.extend(self.local.iter().map(|l| l.oct.raw()));

        let markers = self.markers();
        let mut t_lo = 0usize;
        while t_lo < self.local.len() {
            let t = self.local[t_lo].tree;
            let t_hi = t_lo + self.local[t_lo..].partition_point(|l| l.tree == t);
            // Project the u128 curve markers into tree t's 64-bit key
            // space so in-tree owner bounds become plain u64 range
            // queries for the batched kernel.
            tmarkers.clear();
            let tbase = (t as u128) << 64;
            let tnext = ((t as u128) + 1) << 64;
            for &m in markers {
                tmarkers.push(if m <= tbase {
                    0
                } else if m < tnext {
                    m as u64
                } else {
                    u64::MAX
                });
            }
            stack.clear();
            stack.push((Octant::root(), t_lo as u32, t_hi as u32));
            while let Some((node, lo, hi)) = stack.pop() {
                let cnt = (hi - lo) as usize;
                if cnt == 0 {
                    continue;
                }
                if cnt > RUN && node.level() < MAX_LEVEL {
                    if self.insulated(t, &node, me, insu) {
                        continue;
                    }
                    ops::child_split(&keys[lo as usize..hi as usize], &node, needles, ends);
                    let mut start = 0u32;
                    for (k, child) in node.children().into_iter().enumerate() {
                        let end = ends[k];
                        if end > start {
                            stack.push((child, lo + start, lo + end));
                        }
                        start = end;
                    }
                    continue;
                }
                // Leaf run: direction-major batched neighbor keys and
                // owner bounds.
                let (lo_us, hi_us) = (lo as usize, hi as usize);
                run_octs.clear();
                run_octs.extend(self.local[lo_us..hi_us].iter().map(|l| l.oct));
                let b = run_octs.len();
                nbrs.clear();
                for &(dx, dy, dz) in DIRS.iter() {
                    simd::neighbor_keys_into(run_octs, dx, dy, dz, nbrs);
                }
                bnd_lo.clear();
                bnd_hi.clear();
                for n in nbrs.iter() {
                    if *n == Octant::INVALID {
                        bnd_lo.push(0);
                        bnd_hi.push(0);
                    } else {
                        bnd_lo.push(n.key());
                        bnd_hi.push(n.last_descendant().key());
                    }
                }
                own_lo.clear();
                own_hi.clear();
                simd::upper_bounds_into(tmarkers, bnd_lo, own_lo);
                simd::upper_bounds_into(tmarkers, bnd_hi, own_hi);
                for i in 0..b {
                    let leaf = self.local[lo_us + i];
                    let serial = lo as u64 + i as u64 + 1;
                    for (d, &(dx, dy, dz)) in DIRS.iter().enumerate() {
                        let idx = d * b + i;
                        if nbrs[idx] != Octant::INVALID {
                            let rlo = (own_lo[idx] as usize).saturating_sub(1);
                            let rhi = (own_hi[idx] as usize).saturating_sub(1).min(p - 1);
                            for r in rlo..=rhi {
                                if r != me && stamp[r] != serial {
                                    stamp[r] = serial;
                                    send_bufs[r].push(leaf);
                                }
                            }
                        } else {
                            // Left the root cube: domain boundary or an
                            // inter-tree crossing (possibly composed).
                            self.neighbors_full(&leaf, dx, dy, dz, xnbrs);
                            for nb in xnbrs.iter() {
                                let (rlo, rhi) = self.owner_range(nb);
                                for r in rlo..=rhi.min(p - 1) {
                                    if r != me && stamp[r] != serial {
                                        stamp[r] = serial;
                                        send_bufs[r].push(leaf);
                                    }
                                }
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
        }
        for buf in send_bufs.iter() {
            send_flat.extend_from_slice(buf);
        }
        self.comm()
            .alltoallv_flat(send_flat, send_counts, recv_flat, recv_counts);

        layer.entries.clear();
        let mut off = 0usize;
        for (src, &cnt) in recv_counts.iter().enumerate() {
            for &l in &recv_flat[off..off + cnt] {
                if let Some(kind) = self.classify_ghost(&l, xnbrs) {
                    layer.entries.push(GhostEntry {
                        owner: src as u32,
                        kind,
                        leaf: l,
                    });
                }
            }
            off += cnt;
        }
        layer.entries.sort_by_key(|e| (e.leaf, e.owner));
        layer
    }

    /// Convenience allocating wrapper around [`Forest::ghost_layer_into`].
    pub fn ghosts(&self) -> GhostLayer {
        let mut ws = GhostWorkspace::new();
        self.ghost_layer_into(&mut ws);
        ws.take_layer()
    }

    fn merged_view(&self, ghosts: &GhostLayer) -> Vec<(ForestLeaf, LeafOrigin)> {
        let mut view = Vec::with_capacity(self.local.len() + ghosts.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.local.len() || j < ghosts.len() {
            let take_local = j >= ghosts.len()
                || (i < self.local.len() && self.local[i] < ghosts.entries[j].leaf);
            if take_local {
                view.push((self.local[i], LeafOrigin::Local(i as u32)));
                i += 1;
            } else {
                view.push((ghosts.entries[j].leaf, LeafOrigin::Ghost(j as u32)));
                j += 1;
            }
        }
        view
    }

    /// Visit every face entity with at least one local side exactly
    /// once: conforming faces from the curve-smaller side, hanging
    /// (2:1 nonconforming) faces from the big side with all four fine
    /// sides resolved, domain-boundary faces with no opposite side.
    /// Requires the recursive ghost layer — the four fine sides of a
    /// hanging face seen from a ghost big side are pairwise edge/corner
    /// adjacent, which the flat face-only layer does not provide.
    pub fn iterate_faces<V: FnMut(&FaceVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = self.merged_view(ghosts);
        let mut fine: Vec<FaceSide> = Vec::with_capacity(4);
        for &(x, xo) in view.iter() {
            for face in 0u8..6 {
                let (dx, dy, dz) = DIRS[face as usize];
                let Some(n) = self.neighbor(&x, dx, dy, dz) else {
                    if xo.is_local() {
                        let big = FaceSide {
                            leaf: x,
                            origin: xo,
                            face,
                            orient: 0,
                        };
                        visit(&FaceVisit {
                            big,
                            fine: &[],
                            hanging: false,
                        });
                    }
                    continue;
                };
                // The facing face and both sides' orientation codes.
                let (facing, orient, back) = if n.tree == x.tree {
                    (face ^ 1, 0, 0)
                } else {
                    let conn = self.connectivity();
                    let there = conn
                        .neighbor_across(x.tree, face)
                        .expect("neighbor() crossed a connected face");
                    let back = conn
                        .neighbor_across(n.tree, there.face)
                        .expect("face connections are mutual");
                    (
                        there.face,
                        there.orientation(face),
                        back.orientation(there.face),
                    )
                };
                let big = FaceSide {
                    leaf: x,
                    origin: xo,
                    face,
                    orient,
                };
                match view_containing(&view, &n) {
                    Some(yi) => {
                        let (y, yo) = view[yi];
                        if y.oct.level() == x.oct.level()
                            && x < y
                            && (xo.is_local() || yo.is_local())
                        {
                            fine.clear();
                            fine.push(FaceSide {
                                leaf: y,
                                origin: yo,
                                face: facing,
                                orient: back,
                            });
                            visit(&FaceVisit {
                                big,
                                fine: &fine,
                                hanging: false,
                            });
                        }
                        // y coarser: the big side emits this face patch.
                    }
                    None => {
                        // x is the big side; resolve the four fine
                        // children of the neighbor region on the shared
                        // face, in z-order of the transverse axes.
                        fine.clear();
                        let axis = facing / 2;
                        let side = facing % 2;
                        let mut missing = false;
                        for k in 0u8..8 {
                            if (k >> axis) & 1 != side {
                                continue;
                            }
                            let kid = ForestLeaf::new(n.tree, n.oct.child(k));
                            match view_containing(&view, &kid) {
                                Some(ki) if view[ki].0.oct.level() == kid.oct.level() => {
                                    fine.push(FaceSide {
                                        leaf: view[ki].0,
                                        origin: view[ki].1,
                                        face: facing,
                                        orient: back,
                                    });
                                }
                                _ => missing = true,
                            }
                        }
                        if missing {
                            debug_assert!(
                                !xo.is_local(),
                                "2:1 balance must expose all fine face neighbors of a local leaf"
                            );
                            continue;
                        }
                        if xo.is_local() || fine.iter().any(|s| s.origin.is_local()) {
                            visit(&FaceVisit {
                                big,
                                fine: &fine,
                                hanging: true,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Visit every corner entity with at least one local incident leaf
    /// exactly once, emitted from the curve-smallest incident leaf that
    /// has the point as an own vertex. Sides list every incident leaf
    /// (across tree seams via composed transforms) with a hanging flag.
    pub fn iterate_corners<V: FnMut(&CornerVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = self.merged_view(ghosts);
        let conn = self.connectivity().clone();
        let mut regions: Vec<(ForestLeaf, [i64; 3])> = Vec::new();
        let mut sides: Vec<Incident> = Vec::new();
        for &(x, _) in view.iter() {
            let o = &x.oct;
            let len = o.len() as i64;
            let anchor = [o.x() as i64, o.y() as i64, o.z() as i64];
            for c in 0u8..8 {
                let cb = [c & 1, (c >> 1) & 1, (c >> 2) & 1];
                let p2 = [
                    2 * (anchor[0] + cb[0] as i64 * len),
                    2 * (anchor[1] + cb[1] as i64 * len),
                    2 * (anchor[2] + cb[2] as i64 * len),
                ];
                regions.clear();
                regions.push((x, p2));
                for d in 1u8..8 {
                    let db = [d & 1, (d >> 1) & 1, (d >> 2) & 1];
                    let dir: Vec<i64> = (0..3)
                        .map(|i| {
                            if db[i] == 0 {
                                0
                            } else if cb[i] == 0 {
                                -1
                            } else {
                                1
                            }
                        })
                        .collect();
                    let a = [
                        anchor[0] + dir[0] * len,
                        anchor[1] + dir[1] * len,
                        anchor[2] + dir[2] * len,
                    ];
                    collect_extended_pt(conn.as_ref(), x.tree, a, p2, o.level(), &mut regions);
                }
                regions.sort_unstable_by_key(|(r, _)| *r);
                regions.dedup_by_key(|(r, _)| *r);
                if !self.resolve_incident(&view, &regions, &mut sides, true) {
                    continue;
                }
                let min_conf = sides
                    .iter()
                    .filter(|s| s.conforming)
                    .map(|s| s.leaf)
                    .min()
                    .expect("the emitting leaf is a conforming side");
                if min_conf != x {
                    continue;
                }
                if !sides.iter().any(|s| s.origin.is_local()) {
                    continue;
                }
                let hanging = sides.iter().any(|s| !s.conforming);
                visit(&CornerVisit {
                    tree: x.tree,
                    point2: p2,
                    sides: &sides,
                    hanging,
                });
            }
        }
    }

    /// Visit every edge entity with at least one local incident leaf
    /// exactly once, emitted from the curve-smallest incident leaf that
    /// has the segment as a full own edge. Sides list every leaf
    /// touching the segment (finer half-edge leaves included).
    pub fn iterate_edges<V: FnMut(&EdgeVisit<'_>)>(&self, ghosts: &GhostLayer, visit: &mut V) {
        let view = self.merged_view(ghosts);
        let conn = self.connectivity().clone();
        let mut regions: Vec<(ForestLeaf, [i64; 3])> = Vec::new();
        let mut sides: Vec<Incident> = Vec::new();
        for &(x, _) in view.iter() {
            let o = &x.oct;
            let len = o.len() as i64;
            let anchor = [o.x() as i64, o.y() as i64, o.z() as i64];
            for e in 0u8..12 {
                let axis = (e / 4) as usize;
                let [t1, t2] = transverse_axes(2 * axis as u8);
                let s1 = (e % 4) & 1;
                let s2 = (e % 4) >> 1;
                let mut mid2 = [0i64; 3];
                mid2[axis] = 2 * anchor[axis] + len;
                mid2[t1] = 2 * (anchor[t1] + s1 as i64 * len);
                mid2[t2] = 2 * (anchor[t2] + s2 as i64 * len);
                regions.clear();
                regions.push((x, mid2));
                for d in 1u8..4 {
                    let d1 = d & 1;
                    let d2 = d >> 1;
                    let mut dir = [0i64; 3];
                    dir[t1] = if d1 == 0 {
                        0
                    } else if s1 == 0 {
                        -1
                    } else {
                        1
                    };
                    dir[t2] = if d2 == 0 {
                        0
                    } else if s2 == 0 {
                        -1
                    } else {
                        1
                    };
                    let a = [
                        anchor[0] + dir[0] * len,
                        anchor[1] + dir[1] * len,
                        anchor[2] + dir[2] * len,
                    ];
                    collect_extended_pt(conn.as_ref(), x.tree, a, mid2, o.level(), &mut regions);
                }
                regions.sort_unstable_by_key(|(r, _)| *r);
                regions.dedup_by_key(|(r, _)| *r);
                if !self.resolve_incident(&view, &regions, &mut sides, false) {
                    continue;
                }
                let min_conf = sides
                    .iter()
                    .filter(|s| s.conforming)
                    .map(|s| s.leaf)
                    .min()
                    .expect("the emitting leaf is a conforming side");
                if min_conf != x {
                    continue;
                }
                if !sides.iter().any(|s| s.origin.is_local()) {
                    continue;
                }
                let hanging = sides.iter().any(|s| !s.conforming);
                visit(&EdgeVisit {
                    tree: x.tree,
                    axis: axis as u8,
                    mid2,
                    sides: &sides,
                    hanging,
                });
            }
        }
    }

    /// Resolve the incident leaves of a corner/edge entity from its
    /// surrounding same-size regions via just-inside MAX_LEVEL probes.
    /// Returns `false` when the entity's full incidence is not visible
    /// from this rank's view (ghost-frame entity not involving us — the
    /// emission is skipped; a local emitter always has full visibility
    /// through the edge/corner ghost layer).
    fn resolve_incident(
        &self,
        view: &[(ForestLeaf, LeafOrigin)],
        regions: &[(ForestLeaf, [i64; 3])],
        sides: &mut Vec<Incident>,
        corner: bool,
    ) -> bool {
        sides.clear();
        for (region, p2) in regions.iter() {
            for lo in [true, false] {
                let Some(probe) = probe_at(&region.oct, *p2, lo) else {
                    return false;
                };
                let probe_leaf = ForestLeaf::new(region.tree, probe);
                let Some(vi) = view_containing(view, &probe_leaf) else {
                    return false;
                };
                let (l, origin) = view[vi];
                let conforming = if corner {
                    is_corner_of(&l.oct, *p2)
                } else {
                    is_edge_center_of(&l.oct, *p2)
                };
                sides.push(Incident {
                    leaf: l,
                    origin,
                    conforming,
                });
                if corner {
                    break; // one probe per region suffices for corners
                }
            }
        }
        sides.sort_unstable_by_key(|s| s.leaf);
        sides.dedup_by_key(|s| s.leaf);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::Connectivity;
    use scomm::spmd;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn sphere() -> Arc<Connectivity> {
        Arc::new(Connectivity::cubed_sphere(0.55, 1.0))
    }

    /// Build an adapted, balanced, partitioned forest deterministically.
    fn adapted_forest<'c>(comm: &'c scomm::Comm, conn: Arc<Connectivity>) -> Forest<'c> {
        let mut f = Forest::new_uniform(comm, conn, 1);
        f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
        f.refine(|l| l.oct.level() == 2 && l.oct.key() % 5 == 0);
        f.balance(octree::balance::BalanceKind::Full);
        f.partition();
        assert!(f.validate());
        f
    }

    #[test]
    fn recursive_ghosts_are_sorted_remote_and_owned() {
        // The flat-scan oracle comparison lives in check's
        // `dg_differential`; this pins the layer's own shape.
        let conn = sphere();
        for p in [1usize, 2, 4, 8] {
            spmd::run(p, |c| {
                let f = adapted_forest(c, conn.clone());
                let layer = f.ghosts();
                // Entries are sorted and unique.
                assert!(layer
                    .entries
                    .windows(2)
                    .all(|w| (w[0].leaf, w[0].owner) < (w[1].leaf, w[1].owner)));
                // Owners are correct and never self.
                for e in &layer.entries {
                    assert_eq!(f.owner_of(&e.leaf), e.owner as usize);
                    assert_ne!(e.owner as usize, c.rank());
                }
            });
        }
    }

    #[test]
    fn warm_ghost_rebuild_does_not_allocate() {
        let conn = sphere();
        spmd::run(4, |c| {
            let f = adapted_forest(c, conn.clone());
            let mut ws = GhostWorkspace::new();
            for _ in 0..3 {
                f.ghost_layer_into(&mut ws);
            }
            let cap0 = ws.capacity_bytes();
            for _ in 0..4 {
                f.ghost_layer_into(&mut ws);
            }
            assert_eq!(ws.capacity_bytes(), cap0, "warm ghost rebuild allocated");
        });
    }

    #[test]
    fn neighbors_full_agrees_with_single_transform() {
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let mut out = Vec::new();
            for l in &f.local {
                for (dx, dy, dz) in Octant::neighbor_directions() {
                    f.neighbors_full(l, dx, dy, dz, &mut out);
                    if let Some(n) = f.neighbor(l, dx, dy, dz) {
                        assert!(
                            out.contains(&n),
                            "composed regions must include the single-transform region"
                        );
                    }
                    // Codim-1 directions never fan out.
                    if dx.abs() + dy.abs() + dz.abs() == 1 {
                        assert!(out.len() <= 1);
                    }
                }
            }
        });
    }

    #[test]
    fn brick_corner_regions_reach_all_eight_trees() {
        // 2x2x2 brick of level-0 trees: the center vertex is shared by
        // all 8 trees, reachable only through composed transforms.
        let conn = Arc::new(Connectivity::brick(2, 2, 2));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 0);
            let l = ForestLeaf::new(0, Octant::root());
            let mut out = Vec::new();
            f.neighbors_full(&l, 1, 1, 1, &mut out);
            let trees: BTreeSet<u32> = out.iter().map(|n| n.tree).collect();
            assert_eq!(
                trees,
                BTreeSet::from([7]),
                "corner direction reaches tree 7"
            );
            f.neighbors_full(&l, 1, 1, 0, &mut out);
            let trees: BTreeSet<u32> = out.iter().map(|n| n.tree).collect();
            assert_eq!(trees, BTreeSet::from([3]), "edge direction reaches tree 3");
        });
    }

    #[test]
    fn iterate_faces_uniform_counts() {
        // P=1 uniform level-1 sphere: every face entity is conforming;
        // count conforming + boundary visits against a flat enumeration.
        let conn = sphere();
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let ghosts = f.ghosts();
            assert!(ghosts.is_empty());
            let mut conforming = 0usize;
            let mut boundary = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if v.fine.is_empty() {
                    boundary += 1;
                } else {
                    assert!(!v.hanging);
                    assert_eq!(v.fine.len(), 1);
                    conforming += 1;
                }
            });
            let mut expect_pairs = 0usize;
            let mut expect_boundary = 0usize;
            for l in &f.local {
                for face in 0u8..6 {
                    let (dx, dy, dz) = DIRS[face as usize];
                    if f.neighbor(l, dx, dy, dz).is_some() {
                        expect_pairs += 1;
                    } else {
                        expect_boundary += 1;
                    }
                }
            }
            assert_eq!(conforming, expect_pairs / 2);
            assert_eq!(boundary, expect_boundary);
        });
    }

    #[test]
    fn iterate_faces_hanging_resolution() {
        // Unit cube, one refined child: the three faces between the
        // refined child and its same-level siblings are hanging with
        // four fine sides each.
        let conn = Arc::new(Connectivity::unit_cube());
        spmd::run(1, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 1);
            f.refine(|l| l.oct == Octant::root().child(0));
            f.balance(octree::balance::BalanceKind::Full);
            let ghosts = f.ghosts();
            let mut hanging = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if v.hanging {
                    hanging += 1;
                    assert_eq!(v.fine.len(), 4);
                    assert_eq!(v.big.leaf.oct.level() + 1, v.fine[0].leaf.oct.level());
                    for s in v.fine {
                        assert_eq!(s.leaf.oct.level(), v.big.leaf.oct.level() + 1);
                    }
                } else if !v.fine.is_empty() {
                    assert_eq!(v.big.leaf.oct.level(), v.fine[0].leaf.oct.level());
                }
            });
            assert_eq!(hanging, 3, "child 0 exposes 3 hanging interior faces");
        });
    }

    #[test]
    fn iterate_corners_and_edges_unit_cube_counts() {
        let conn = Arc::new(Connectivity::unit_cube());
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let ghosts = f.ghosts();
            let mut corners = 0usize;
            f.iterate_corners(&ghosts, &mut |v: &CornerVisit<'_>| {
                corners += 1;
                assert!(!v.hanging);
                assert!(!v.sides.is_empty() && v.sides.len() <= 8);
            });
            // 3^3 lattice points of the 2x2x2 leaf grid.
            assert_eq!(corners, 27);
            let mut edges = 0usize;
            f.iterate_edges(&ghosts, &mut |v: &EdgeVisit<'_>| {
                edges += 1;
                assert!(!v.hanging);
                assert!(!v.sides.is_empty() && v.sides.len() <= 4);
            });
            // Per axis: 2 segments along x 3x3 transverse lines.
            assert_eq!(edges, 54);
        });
    }

    #[test]
    fn iterate_corners_brick_center_valence_eight() {
        let conn = Arc::new(Connectivity::brick(2, 2, 2));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 0);
            let ghosts = f.ghosts();
            let mut total = 0usize;
            let mut max_valence = 0usize;
            f.iterate_corners(&ghosts, &mut |v: &CornerVisit<'_>| {
                total += 1;
                max_valence = max_valence.max(v.sides.len());
                if v.sides.len() == 8 {
                    // The center vertex: all 8 trees meet there.
                    let trees: BTreeSet<u32> = v.sides.iter().map(|s| s.leaf.tree).collect();
                    assert_eq!(trees.len(), 8);
                }
            });
            // 3^3 lattice points of the 2x2x2 tree grid.
            assert_eq!(total, 27);
            assert_eq!(max_valence, 8);
        });
    }

    #[test]
    fn iterate_faces_distributed_partition_of_unity() {
        // Each conforming interior face entity is emitted by exactly one
        // rank; summed over ranks the count must match the serial run.
        let conn = sphere();
        let serial = spmd::run(1, |c| {
            let f = adapted_forest(c, conn.clone());
            let ghosts = f.ghosts();
            let mut n = 0usize;
            f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                if !v.fine.is_empty() {
                    n += 1;
                }
            });
            n
        })[0];
        for p in [2usize, 4] {
            let counts = spmd::run(p, |c| {
                let f = adapted_forest(c, conn.clone());
                let ghosts = f.ghosts();
                let mut n = 0usize;
                f.iterate_faces(&ghosts, &mut |v: &FaceVisit<'_>| {
                    if !v.fine.is_empty() {
                        let any_local =
                            v.big.origin.is_local() || v.fine.iter().any(|s| s.origin.is_local());
                        assert!(any_local);
                        // Count only entities this rank canonically owns:
                        // the emitting (big) side is local, or for a
                        // ghost big side, no smaller rank sees it...
                        // ownership = owner of the big leaf.
                        if f.owner_of(&v.big.leaf) == c.rank() {
                            n += 1;
                        }
                    }
                });
                n
            });
            assert_eq!(
                counts.iter().sum::<usize>(),
                serial,
                "P={p}: interior face entities double- or under-counted"
            );
        }
    }
}
