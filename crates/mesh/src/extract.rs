//! `ExtractMesh`: build the distributed FEM mesh from a balanced octree.
//!
//! Terminology: a *node* is a lattice point that is a corner of at least
//! one element. A node is *independent* (it carries a degree of freedom)
//! iff it is a vertex of **every** leaf whose closed region touches it;
//! otherwise it is *hanging* (it sits on a face or edge of some coarser
//! neighbor) and its value is algebraically constrained to the coarse
//! element's corner dofs.
//!
//! The extraction works on sorted arrays. The node table is the sorted,
//! deduplicated list of local element corners. Each node is classified
//! once, from one incident local element, by the 2:1 parent-midpoint
//! rule (`corner_master`), which needs full (corner) 2:1 balance.
//! Constraint chains (a master corner that itself hangs) are expanded in
//! ascending master level, a topological order, into flat arenas; chains
//! crossing rank boundaries are resolved with a bounded number of
//! query/answer rounds.

use std::ops::Range;

use octree::ghost::GhostEntry;
use octree::morton::{morton_decode, morton_key};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};
use scomm::Comm;

/// Lattice key of a node: Morton key of its coordinates (which may equal
/// `ROOT_LEN` on the upper domain boundary; keys use 20 bits per axis).
pub type NodeKey = u64;

/// Pack node coordinates into a key.
#[inline]
pub fn node_key(x: u32, y: u32, z: u32) -> NodeKey {
    morton_key(x, y, z)
}

/// Unpack a node key.
#[inline]
pub fn node_coords(key: NodeKey) -> (u32, u32, u32) {
    morton_decode(key)
}

/// Resolution of one mesh node into independent dofs.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeResolution {
    /// An independent node: local dof index (owned or ghost).
    Dof(usize),
    /// A hanging node: weighted combination of local dof indices.
    Constrained(Vec<(usize, f64)>),
}

/// Per-element corner reference into [`Mesh::node_table`].
pub type CornerRef = u32;

/// Ghost-value exchange pattern between ranks.
#[derive(Debug, Clone, Default)]
pub struct ExchangePattern {
    /// For each rank, the local *owned* dof indices whose values it needs.
    pub send_idx: Vec<Vec<usize>>,
    /// For each rank, how many ghost values it contributes to our ghost
    /// block (ghosts are stored grouped by owner rank, gid-sorted).
    pub recv_counts: Vec<usize>,
}

/// Reusable pack/unpack buffers for the split-phase interleaved
/// exchange. Grow-only: once a solver
/// reaches steady state every call recycles the same allocations.
///
/// One `ExchangeBuffers` value also carries the [`scomm::Exchange`]
/// stream state for the split-phase paths, so at most one split-phase
/// round (forward *or* reverse) can be in flight per buffer set. Two
/// buffer sets whose rounds overlap in time (e.g. the velocity and
/// pressure ghost layers of a Stokes operator) must use distinct stream
/// ids — construct them with [`ExchangeBuffers::with_stream`].
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    send: Vec<f64>,
    send_counts: Vec<usize>,
    recv: Vec<f64>,
    recv_counts: Vec<usize>,
    /// Expected per-source element counts of the posted round.
    expect: Vec<usize>,
    /// Split-phase stream state (tag namespace + round sequencing).
    ex: scomm::Exchange,
}

impl ExchangeBuffers {
    /// Buffers posting on stream 0. The blocking
    /// [`ExchangePattern::exchange`] and
    /// [`ExchangePattern::reverse_accumulate`] each use a fresh set of
    /// these: they post and complete their round before returning, so
    /// they never leave a stream-0 round in flight. A caller must not
    /// call them while it holds a stream-0 round of its own in flight.
    pub fn new() -> ExchangeBuffers {
        ExchangeBuffers::default()
    }

    /// Buffers posting split-phase rounds under exchange stream `stream`.
    pub fn with_stream(stream: u64) -> ExchangeBuffers {
        ExchangeBuffers {
            ex: scomm::Exchange::new(stream),
            ..ExchangeBuffers::default()
        }
    }

    /// Whether a split-phase round is posted but not yet completed.
    pub fn in_flight(&self) -> bool {
        self.ex.in_flight()
    }

    /// Total heap capacity currently held, in bytes. Allocation audits
    /// diff this across operator applications: a zero delta proves the
    /// exchange reused its buffers.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.send.capacity() + self.recv.capacity()) * std::mem::size_of::<f64>()
            + (self.send_counts.capacity() + self.recv_counts.capacity() + self.expect.capacity())
                * std::mem::size_of::<usize>()) as u64
            + self.ex.capacity_bytes()
    }
}

impl ExchangePattern {
    /// Fill the ghost block of `v` (`v.len() = n_owned + n_ghost`) with
    /// the owners' current values: one split-phase round, posted and
    /// completed. Collective over the ranks of the pattern.
    pub fn exchange(&self, comm: &Comm, v: &mut [f64], n_owned: usize) {
        let mut buf = ExchangeBuffers::new();
        self.exchange_begin_interleaved(comm, v, 1, &mut buf);
        self.exchange_end_interleaved(comm, v, n_owned, 1, &mut buf);
    }

    /// Reverse exchange: add each ghost value back into the owner's entry
    /// and zero the ghost block (FEM assembly accumulation). One
    /// split-phase round, posted and completed.
    pub fn reverse_accumulate(&self, comm: &Comm, v: &mut [f64], n_owned: usize) {
        let mut buf = ExchangeBuffers::new();
        self.reverse_accumulate_begin_interleaved(comm, v, n_owned, 1, &mut buf);
        self.reverse_accumulate_end_interleaved(comm, v, n_owned, 1, &mut buf);
    }

    /// Fold the received reverse contributions into the owned block, in
    /// ascending source-rank then send-index order, component by
    /// component — the one accumulation order of every reverse exchange.
    fn accumulate_received(&self, owned: &mut [f64], ncomp: usize, buf: &ExchangeBuffers) {
        let mut pos = 0;
        for (r, idx) in self.send_idx.iter().enumerate() {
            assert_eq!(buf.recv_counts[r], idx.len() * ncomp);
            for &i in idx {
                for k in 0..ncomp {
                    owned[i * ncomp + k] += buf.recv[pos];
                    pos += 1;
                }
            }
        }
    }

    /// Post the ghost fill of a vector with `ncomp` interleaved components
    /// per dof (`v[d*ncomp + k]`) without completing it: pack the owned
    /// values each neighbor needs — one packed message per neighbor, not
    /// one per component — and start a split-phase round on `buf`'s
    /// stream. Only the *owned* block of `v` is read; the ghost block is
    /// filled by [`ExchangePattern::exchange_end_interleaved`]. Not collective in
    /// the rendezvous sense: no barrier at either end.
    pub fn exchange_begin_interleaved(
        &self,
        comm: &Comm,
        v: &[f64],
        ncomp: usize,
        buf: &mut ExchangeBuffers,
    ) {
        buf.send.clear();
        buf.send_counts.clear();
        for idx in &self.send_idx {
            buf.send_counts.push(idx.len() * ncomp);
            for &i in idx {
                buf.send.extend_from_slice(&v[i * ncomp..(i + 1) * ncomp]);
            }
        }
        buf.expect.clear();
        buf.expect
            .extend(self.recv_counts.iter().map(|&c| c * ncomp));
        comm.exchange_start(&buf.send, &buf.send_counts, &buf.expect, &mut buf.ex);
    }

    /// Complete the round posted by
    /// [`ExchangePattern::exchange_begin_interleaved`] and copy the
    /// received values into the ghost block of `v`. The ghost block is
    /// grouped by owner rank in receive order, so the flat receive buffer
    /// copies straight into it.
    pub fn exchange_end_interleaved(
        &self,
        comm: &Comm,
        v: &mut [f64],
        n_owned: usize,
        ncomp: usize,
        buf: &mut ExchangeBuffers,
    ) {
        comm.exchange_end(&mut buf.ex, &mut buf.recv, &mut buf.recv_counts);
        for (r, &cnt) in self.recv_counts.iter().enumerate() {
            assert_eq!(buf.recv_counts[r], cnt * ncomp);
        }
        let ghost = &mut v[n_owned * ncomp..];
        assert_eq!(ghost.len(), buf.recv.len());
        ghost.copy_from_slice(&buf.recv);
    }

    /// Post the reverse accumulation for interleaved components without
    /// completing it: the ghost block itself is the flat send buffer (no
    /// pack pass; payload copied at post time) and is then zeroed. The
    /// owned block is untouched until
    /// [`ExchangePattern::reverse_accumulate_end_interleaved`].
    pub fn reverse_accumulate_begin_interleaved(
        &self,
        comm: &Comm,
        v: &mut [f64],
        n_owned: usize,
        ncomp: usize,
        buf: &mut ExchangeBuffers,
    ) {
        buf.send_counts.clear();
        buf.send_counts
            .extend(self.recv_counts.iter().map(|&c| c * ncomp));
        buf.expect.clear();
        buf.expect
            .extend(self.send_idx.iter().map(|idx| idx.len() * ncomp));
        let ghost = &mut v[n_owned * ncomp..];
        comm.exchange_start(ghost, &buf.send_counts, &buf.expect, &mut buf.ex);
        ghost.fill(0.0);
    }

    /// Complete the round posted by
    /// [`ExchangePattern::reverse_accumulate_begin_interleaved`],
    /// accumulating the neighbors' contributions into the owned block in
    /// ascending source-rank order.
    pub fn reverse_accumulate_end_interleaved(
        &self,
        comm: &Comm,
        v: &mut [f64],
        n_owned: usize,
        ncomp: usize,
        buf: &mut ExchangeBuffers,
    ) {
        comm.exchange_end(&mut buf.ex, &mut buf.recv, &mut buf.recv_counts);
        let owned = &mut v[..n_owned * ncomp];
        self.accumulate_received(owned, ncomp, buf);
    }
}

/// The distributed trilinear hexahedral mesh extracted from an octree.
pub struct Mesh {
    /// Physical domain extents: the unit cube is scaled to
    /// `[0,Lx]×[0,Ly]×[0,Lz]`.
    pub domain: [f64; 3],
    /// Local elements (copies of the octree leaves at extraction time).
    pub elements: Vec<Octant>,
    /// Per element, indices of its 8 corner nodes into `node_table`
    /// (z-order).
    pub elem_nodes: Vec<[CornerRef; 8]>,
    /// Distinct local nodes: resolution into local dofs.
    pub node_table: Vec<NodeResolution>,
    /// Lattice key of each entry of `node_table`, strictly ascending: the
    /// sorted, deduplicated corner keys of `elements`.
    pub node_keys: Vec<NodeKey>,
    /// Number of owned dofs (local dof indices `0..n_owned`).
    pub n_owned: usize,
    /// Number of ghost dofs (local dof indices `n_owned..n_owned+n_ghost`).
    pub n_ghost: usize,
    /// This rank's first global dof id.
    pub global_offset: u64,
    /// Global dof count.
    pub n_global: u64,
    /// Global ids of the ghost dofs, in ghost-block order.
    pub ghost_gids: Vec<u64>,
    /// Lattice key of each local dof (owned then ghost).
    pub dof_keys: Vec<NodeKey>,
    /// Ghost exchange pattern.
    pub exchange: ExchangePattern,
}

impl Mesh {
    /// Number of local dofs including ghosts (= length of field vectors).
    pub fn n_local(&self) -> usize {
        self.n_owned + self.n_ghost
    }

    /// Physical coordinates of a local dof.
    pub fn dof_coords(&self, dof: usize) -> [f64; 3] {
        let (x, y, z) = node_coords(self.dof_keys[dof]);
        let s = ROOT_LEN as f64;
        [
            x as f64 / s * self.domain[0],
            y as f64 / s * self.domain[1],
            z as f64 / s * self.domain[2],
        ]
    }

    /// Whether a local dof lies on the domain boundary.
    pub fn dof_on_boundary(&self, dof: usize) -> bool {
        let (x, y, z) = node_coords(self.dof_keys[dof]);
        x == 0 || y == 0 || z == 0 || x == ROOT_LEN || y == ROOT_LEN || z == ROOT_LEN
    }

    /// Which boundary faces a dof lies on: bitmask with bit `f` set for
    /// face `f` (−x,+x,−y,+y,−z,+z).
    pub fn dof_boundary_faces(&self, dof: usize) -> u8 {
        let (x, y, z) = node_coords(self.dof_keys[dof]);
        let mut m = 0u8;
        if x == 0 {
            m |= 1;
        }
        if x == ROOT_LEN {
            m |= 2;
        }
        if y == 0 {
            m |= 4;
        }
        if y == ROOT_LEN {
            m |= 8;
        }
        if z == 0 {
            m |= 16;
        }
        if z == ROOT_LEN {
            m |= 32;
        }
        m
    }

    /// Physical edge lengths of local element `e`.
    pub fn element_size(&self, e: usize) -> [f64; 3] {
        let h = self.elements[e].len_unit();
        [h * self.domain[0], h * self.domain[1], h * self.domain[2]]
    }

    /// Visit every element corner with its node resolution, elements in
    /// curve order and corners in z-order — the one traversal dof maps
    /// and constraint tables are built from, so consumers do not walk
    /// `elem_nodes` × `node_table` by hand.
    pub fn for_each_elem_corner(&self, mut f: impl FnMut(usize, usize, &NodeResolution)) {
        for (e, nodes) in self.elem_nodes.iter().enumerate() {
            for (c, &nref) in nodes.iter().enumerate() {
                f(e, c, &self.node_table[nref as usize]);
            }
        }
    }

    /// Resolve the 8 corner values of element `e` from a local field
    /// vector (owned + ghost layout), applying hanging-node constraints.
    pub fn corner_values(&self, e: usize, v: &[f64]) -> [f64; 8] {
        let mut out = [0.0; 8];
        for (c, &nref) in self.elem_nodes[e].iter().enumerate() {
            out[c] = match &self.node_table[nref as usize] {
                NodeResolution::Dof(d) => v[*d],
                NodeResolution::Constrained(terms) => terms.iter().map(|&(d, w)| w * v[d]).sum(),
            };
        }
        out
    }
}

/// Vertex keys of a leaf (z-order).
fn leaf_corner_keys(o: &Octant) -> [NodeKey; 8] {
    let l = o.len();
    std::array::from_fn(|c| {
        node_key(
            o.x() + (c as u32 & 1) * l,
            o.y() + ((c as u32 >> 1) & 1) * l,
            o.z() + ((c as u32 >> 2) & 1) * l,
        )
    })
}

/// The up-to-8 finest-level cells incident to node `p`, as octants, in
/// z-order of the offset `p − anchor` (so the cell anchored at `p` comes
/// first and the Morton-smallest cell last).
pub(crate) fn incident_probes(p: (u32, u32, u32)) -> impl Iterator<Item = Octant> {
    (0..8u32).filter_map(move |i| {
        let x = p.0.checked_sub(i & 1)?;
        let y = p.1.checked_sub((i >> 1) & 1)?;
        let z = p.2.checked_sub((i >> 2) & 1)?;
        (x < ROOT_LEN && y < ROOT_LEN && z < ROOT_LEN).then(|| Octant::new(x, y, z, MAX_LEVEL))
    })
}

/// Sorted local+ghost leaf view with owner provenance — the mesh
/// extraction analogue of the forest traversal's merged view. This
/// rank's leaves are one contiguous run of it.
pub struct LeafView {
    entries: Vec<(Octant, usize)>,
}

impl LeafView {
    /// Merge this rank's leaves (owned by `rank()`) with the supplied
    /// ghost layer into one Morton-sorted view.
    pub fn new(tree: &DistOctree, ghosts: &[GhostEntry<Octant>]) -> Self {
        let me = tree.comm().rank();
        let mut entries: Vec<(Octant, usize)> = tree.local.iter().map(|&o| (o, me)).collect();
        entries.extend(ghosts.iter().map(|g| (g.leaf, g.owner as usize)));
        entries.sort_by_key(|a| a.0);
        LeafView { entries }
    }

    /// The view leaf at index `i` and its owner rank.
    pub fn entry(&self, i: usize) -> (Octant, usize) {
        self.entries[i]
    }

    /// Index of the view leaf containing `probe` (equal or ancestor),
    /// or `None` if that region is not covered by local + ghost leaves.
    pub fn containing(&self, probe: &Octant) -> Option<usize> {
        let idx = self
            .entries
            .partition_point(|e| e.0 <= *probe)
            .checked_sub(1)?;
        self.entries[idx].0.contains(probe).then_some(idx)
    }
}

/// The leaf that corner `c` of local leaf `o` hangs on, by the 2:1
/// parent-midpoint rule, as a view index; `None` if the corner is
/// independent.
///
/// Let `o` be child `k` of its parent and `m = c ^ k`. For `m` ∈ {0, 7}
/// the corner is a corner or the centre of the parent: independent.
/// Otherwise it is the midpoint of a parent face (two bits of `m` set)
/// or edge (one bit), and it hangs iff one of the 1 or 3 parent
/// neighbours across that face or edge is a leaf one level coarser than
/// `o`. Each neighbour is read through one finest-level probe that
/// touches the corner and lies inside it; neighbours outside the root
/// are skipped. On a tie the leaf owned by `me` wins, which keeps the
/// constraint chain local. Needs full (corner) 2:1 balance: a probed
/// leaf two levels coarser than `o` panics with the node and both levels.
fn corner_master(view: &LeafView, o: &Octant, c: usize, me: usize) -> Option<usize> {
    let l = o.level();
    if l == 0 {
        return None;
    }
    let m = c ^ o.child_id() as usize;
    if m == 0 || m == 7 {
        return None;
    }
    let len = o.len();
    let anchor = [o.x(), o.y(), o.z()];
    let p: [u32; 3] = std::array::from_fn(|d| anchor[d] + ((c >> d) & 1) as u32 * len);
    // Axes on which `p` lies on the parent's boundary; the parent
    // neighbours through `p` are displaced along each nonempty subset.
    let boundary = !m & 7;
    let mut master: Option<usize> = None;
    let mut sub = boundary;
    while sub != 0 {
        // On a boundary axis the probe steps below `p` when exactly one of
        // "the neighbour is displaced on this axis" and "`p` is on the
        // parent's upper side" holds; on a midpoint axis it stays at `p`.
        let below = (sub ^ c) & boundary;
        let cell = std::array::from_fn::<_, 3, _>(|d| {
            p[d].checked_sub(((below >> d) & 1) as u32)
                .filter(|&x| x < ROOT_LEN)
        });
        sub = (sub - 1) & boundary;
        let [Some(x), Some(y), Some(z)] = cell else {
            continue;
        };
        let i = view
            .containing(&Octant::new(x, y, z, MAX_LEVEL))
            .unwrap_or_else(|| panic!("incident cell of node {p:?} missing from local+ghost view"));
        let (leaf, owner) = view.entry(i);
        assert!(
            leaf.level() + 1 >= l,
            "ExtractMesh needs full 2:1 balance: node {p:?} of a level-{l} element \
             touches a level-{} leaf",
            leaf.level()
        );
        if leaf.level() + 1 == l && master.is_none_or(|j| view.entry(j).1 != me && owner == me) {
            master = Some(i);
        }
    }
    master
}

/// Trilinear weights of master leaf `c`'s corners at lattice point `p`,
/// zeros dropped, in corner order. Each reference coordinate is 0, ½ or
/// 1 by the 2:1 balance, so every weight is exact.
fn master_weights(c: &Octant, p: (u32, u32, u32)) -> impl Iterator<Item = (usize, f64)> {
    let l = c.len() as f64;
    let r = [(p.0, c.x()), (p.1, c.y()), (p.2, c.z())].map(|(v, lo)| (v - lo) as f64 / l);
    (0..8).filter_map(move |ci| {
        let w: f64 = (0..3)
            .map(|d| if (ci >> d) & 1 == 1 { r[d] } else { 1.0 - r[d] })
            .product();
        (w > 0.0).then_some((ci, w))
    })
}

/// Owner rank of node `p`: the owner of the Morton-smallest incident
/// cell, the one a lattice step below `p` on every axis where that stays
/// inside the root — computable on every rank from the partition
/// markers alone.
fn node_owner(tree: &DistOctree, p: (u32, u32, u32)) -> usize {
    let [x, y, z] = [p.0, p.1, p.2].map(|v| v.saturating_sub(1));
    tree.owner_of(&Octant::new(x, y, z, MAX_LEVEL))
}

/// Wire term of a remote constraint answer.
#[derive(Clone, Copy)]
#[repr(C)]
struct WireTerm {
    /// Key of the node this term resolves (the query key).
    query: u64,
    /// Key of a contributing node.
    node: u64,
    weight: f64,
    /// `u64::MAX` if `node` is independent, else the rank to ask next.
    next_owner: u64,
}
unsafe impl scomm::Pod for WireTerm {}

/// Marks an independent node in the per-node master table.
const INDEPENDENT: u32 = u32::MAX;

/// Build the distributed mesh from a balanced octree (collective).
pub fn extract_mesh(tree: &DistOctree, domain: [f64; 3]) -> Mesh {
    let ghosts = tree.ghost_layer();
    extract_mesh_with_ghosts(tree, domain, &ghosts)
}

/// [`extract_mesh`] with a caller-supplied ghost layer (as produced by
/// `DistOctree::ghost_layer` or its grow-only `ghost_layer_into`
/// variant), so AMR loops that already maintain a ghost workspace do
/// not rebuild — or reallocate — the layer here (collective). The tree
/// must be balanced with `BalanceKind::Full`.
pub fn extract_mesh_with_ghosts(
    tree: &DistOctree,
    domain: [f64; 3],
    ghosts: &[GhostEntry<Octant>],
) -> Mesh {
    let comm = tree.comm();
    let me = comm.rank();
    let p = comm.size();
    let local = &tree.local;
    let view = LeafView::new(tree, ghosts);
    // View index of local element 0: a local view index minus this is the
    // element index.
    let first_local = local
        .first()
        .map_or(0, |o| view.entries.partition_point(|e| e.0 < *o));

    // ---- Node table: sorted, deduplicated corner keys ----------------
    let mut corners: Vec<(NodeKey, u32)> = Vec::with_capacity(8 * local.len());
    for (e, o) in local.iter().enumerate() {
        for (c, k) in leaf_corner_keys(o).into_iter().enumerate() {
            corners.push((k, (8 * e + c) as u32));
        }
    }
    corners.sort_unstable();
    let mut node_keys: Vec<NodeKey> = Vec::new();
    // Each node's first local corner, packed as 8·e + c.
    let mut first_corner: Vec<u32> = Vec::new();
    let mut elem_nodes = vec![[0 as CornerRef; 8]; local.len()];
    for &(k, ec) in &corners {
        if node_keys.last() != Some(&k) {
            node_keys.push(k);
            first_corner.push(ec);
        }
        elem_nodes[ec as usize / 8][ec as usize % 8] = (node_keys.len() - 1) as CornerRef;
    }
    drop(corners);
    let n_nodes = node_keys.len();

    // ---- Classification: each node once, from its first corner -------
    let master: Vec<u32> = first_corner
        .iter()
        .map(|&ec| {
            let (e, c) = (ec as usize / 8, ec as usize % 8);
            corner_master(&view, &local[e], c, me).map_or(INDEPENDENT, |i| i as u32)
        })
        .collect();

    // ---- Expansion in ascending master level -------------------------
    // An independent node expands to itself. A hanging node expands
    // through its master's corners: a foreign master's corners are left
    // to its owner; a local master's corners are local nodes that hang,
    // if at all, on a strictly coarser leaf — so in ascending master
    // level their expansions are complete when read. Each node's terms
    // are one span of `indep` (over independent keys) and one of
    // `foreign` (owner, key, weight).
    let mut indep: Vec<(NodeKey, f64)> = Vec::with_capacity(n_nodes);
    let mut foreign: Vec<(usize, NodeKey, f64)> = Vec::new();
    let mut spans: Vec<(Range<usize>, Range<usize>)> = vec![(0..0, 0..0); n_nodes];
    let mut hanging: Vec<(u8, usize)> = Vec::new();
    for (n, &mi) in master.iter().enumerate() {
        if mi == INDEPENDENT {
            spans[n].0 = indep.len()..indep.len() + 1;
            indep.push((node_keys[n], 1.0));
        } else {
            hanging.push((view.entry(mi as usize).0.level(), n));
        }
    }
    hanging.sort_unstable();
    for &(_, n) in &hanging {
        let mi = master[n] as usize;
        let (mo, owner) = view.entry(mi);
        let (i0, f0) = (indep.len(), foreign.len());
        let mkeys = leaf_corner_keys(&mo);
        for (ci, w) in master_weights(&mo, node_coords(node_keys[n])) {
            if owner != me {
                foreign.push((owner, mkeys[ci], w));
                continue;
            }
            let (si, sf) = spans[elem_nodes[mi - first_local][ci] as usize].clone();
            for j in si {
                indep.push((indep[j].0, w * indep[j].1));
            }
            for j in sf {
                let (o2, k2, w2) = foreign[j];
                foreign.push((o2, k2, w * w2));
            }
        }
        spans[n] = (i0..indep.len(), f0..foreign.len());
    }

    // ---- Rounds: resolve foreign constraint chains -------------------
    // Outstanding foreign parts: (local node, owner, remote key, weight).
    let mut pending: Vec<(usize, usize, NodeKey, f64)> = Vec::new();
    for (n, (_, sf)) in spans.iter().enumerate() {
        pending.extend(foreign[sf.clone()].iter().map(|&(o, k, w)| (n, o, k, w)));
    }
    // Resolved remote terms: (local node, independent key, weight).
    let mut remote: Vec<(usize, NodeKey, f64)> = Vec::new();
    loop {
        let n_pending = comm.allreduce_sum(&[pending.len() as u64])[0];
        if n_pending == 0 {
            break;
        }
        // One query per distinct (owner, key), in key order.
        let mut queries: Vec<Vec<u64>> = vec![Vec::new(); p];
        for &(_, owner, k, _) in &pending {
            queries[owner].push(k);
        }
        for q in &mut queries {
            q.sort_unstable();
            q.dedup();
        }
        let incoming = comm.alltoallv(&queries);
        // Answer each queried key with this rank's expansion of it.
        let mut answers: Vec<Vec<WireTerm>> = vec![Vec::new(); p];
        for (src, qs) in incoming.iter().enumerate() {
            for &query in qs {
                let n = node_keys.binary_search(&query).unwrap_or_else(|_| {
                    panic!("rank {me} asked to resolve unknown node {query:#x}")
                });
                let (si, sf) = spans[n].clone();
                let term = |node, weight, next_owner| WireTerm {
                    query,
                    node,
                    weight,
                    next_owner,
                };
                answers[src].extend(indep[si].iter().map(|&(k, w)| term(k, w, u64::MAX)));
                answers[src].extend(foreign[sf].iter().map(|&(o, k, w)| term(k, w, o as u64)));
            }
        }
        // Replies arrive sorted by query key, as the queries went out.
        let replies = comm.alltoallv(&answers);
        let mut next_pending = Vec::new();
        for (n, owner, k, w) in pending {
            let part = &replies[owner];
            let lo = part.partition_point(|t| t.query < k);
            let hi = lo + part[lo..].partition_point(|t| t.query == k);
            assert!(
                hi > lo,
                "query for node {k:#x} to rank {owner} must be answered"
            );
            for t in &part[lo..hi] {
                if t.next_owner == u64::MAX {
                    remote.push((n, t.node, w * t.weight));
                } else {
                    next_pending.push((n, t.next_owner as usize, t.node, w * t.weight));
                }
            }
        }
        pending = next_pending;
    }
    remote.sort_by_key(|t| t.0);

    // ---- Own + number the independent dofs --------------------------
    // The owner of a node sees it as a local-element corner, so the
    // owned keys are the independent, owned entries of the sorted table.
    let mut owned_keys: Vec<NodeKey> = Vec::new();
    let mut foreign_keys: Vec<NodeKey> = Vec::new();
    for (n, &k) in node_keys.iter().enumerate() {
        if master[n] == INDEPENDENT {
            if node_owner(tree, node_coords(k)) == me {
                owned_keys.push(k);
            } else {
                foreign_keys.push(k);
            }
        }
    }
    let n_owned = owned_keys.len();
    let global_offset = comm.exscan_sum(n_owned as u64);
    let n_global = comm.allreduce_sum(&[n_owned as u64])[0];

    // ---- Foreign gid lookup + exchange pattern -----------------------
    // Foreign independent keys: the non-owned ones above plus every
    // non-owned key a constraint row names.
    let row_keys = hanging
        .iter()
        .flat_map(|&(_, n)| &indep[spans[n].0.clone()]);
    foreign_keys.extend(
        row_keys
            .map(|t| t.0)
            .chain(remote.iter().map(|t| t.1))
            .filter(|k| owned_keys.binary_search(k).is_err()),
    );
    foreign_keys.sort_unstable();
    foreign_keys.dedup();
    let foreign_owner: Vec<usize> = foreign_keys
        .iter()
        .map(|&k| node_owner(tree, node_coords(k)))
        .collect();
    let mut gid_queries: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (&k, &owner) in foreign_keys.iter().zip(&foreign_owner) {
        debug_assert_ne!(owner, me, "owned key classified as foreign");
        gid_queries[owner].push(k);
    }
    let gid_incoming = comm.alltoallv(&gid_queries);
    // Answer with gids. Queries arrive sorted and unique, so the owned
    // indices they name are the gid-sorted send list of that rank.
    let mut gid_answers: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut send_idx: Vec<Vec<usize>> = vec![Vec::new(); p];
    for (src, qs) in gid_incoming.iter().enumerate() {
        for &k in qs {
            let li = owned_keys
                .binary_search(&k)
                .unwrap_or_else(|_| panic!("rank {me} asked for non-owned node {k}"));
            gid_answers[src].push(global_offset + li as u64);
            send_idx[src].push(li);
        }
    }
    let gid_replies = comm.alltoallv(&gid_answers);

    // Ghost block: the queries concatenated in owner order. Gid ranges
    // are contiguous per rank and follow key order within one, so this
    // is gid order. One cursor per owner hands each foreign key its slot.
    let ghost_gids: Vec<u64> = gid_replies.concat();
    debug_assert!(ghost_gids.windows(2).all(|w| w[0] < w[1]));
    let n_ghost = ghost_gids.len();
    let mut cursor = vec![n_owned; p];
    for r in 1..p {
        cursor[r] = cursor[r - 1] + gid_queries[r - 1].len();
    }
    let ghost_slot: Vec<usize> = foreign_owner
        .iter()
        .map(|&owner| {
            cursor[owner] += 1;
            cursor[owner] - 1
        })
        .collect();

    // recv counts per owner rank: gather rank offsets to map gid→rank.
    let offsets = comm.allgatherv(&[global_offset]);
    let mut recv_counts = vec![0usize; p];
    for &g in &ghost_gids {
        recv_counts[offsets.partition_point(|&o| o <= g) - 1] += 1;
    }

    // ---- Build the node table over local dof indices ----------------
    // A constraint row is the node's local terms then its remote ones,
    // stably sorted by key with duplicate keys summed.
    let lookup_dof = |k: NodeKey| -> usize {
        owned_keys.binary_search(&k).unwrap_or_else(|_| {
            let fi = foreign_keys
                .binary_search(&k)
                .unwrap_or_else(|_| panic!("unresolved node key {k}"));
            ghost_slot[fi]
        })
    };
    let mut row: Vec<(NodeKey, f64)> = Vec::new();
    let node_table: Vec<NodeResolution> = (0..n_nodes)
        .map(|n| {
            if master[n] == INDEPENDENT {
                return NodeResolution::Dof(lookup_dof(node_keys[n]));
            }
            let lo = remote.partition_point(|t| t.0 < n);
            let hi = remote.partition_point(|t| t.0 <= n);
            row.clear();
            row.extend_from_slice(&indep[spans[n].0.clone()]);
            row.extend(remote[lo..hi].iter().map(|&(_, k, w)| (k, w)));
            row.sort_by_key(|t| t.0);
            row.dedup_by(|t, kept| {
                t.0 == kept.0 && {
                    kept.1 += t.1;
                    true
                }
            });
            NodeResolution::Constrained(row.iter().map(|&(k, w)| (lookup_dof(k), w)).collect())
        })
        .collect();

    // dof keys: owned then ghost (`owned_keys` is not needed again, so
    // move it instead of copying).
    let mut dof_keys = owned_keys;
    dof_keys.extend(gid_queries.iter().flatten());

    // Hanging-node rows are convex combinations: weights in (0,1]
    // summing to 1. O(local); the cross-rank consistency checks live in
    // the `check` crate.
    #[cfg(debug_assertions)]
    if scomm::checks_enabled() {
        for (i, res) in node_table.iter().enumerate() {
            if let NodeResolution::Constrained(terms) = res {
                let sum: f64 = terms.iter().map(|t| t.1).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9 && terms.iter().all(|t| t.1 > 0.0 && t.1 <= 1.0),
                    "constraint row for node {:#x} is not a partition of unity: {terms:?}",
                    node_keys[i]
                );
            }
        }
    }

    Mesh {
        domain,
        elements: tree.local.clone(),
        elem_nodes,
        node_table,
        node_keys,
        n_owned,
        n_ghost,
        global_offset,
        n_global,
        ghost_gids,
        dof_keys,
        exchange: ExchangePattern {
            send_idx,
            recv_counts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::balance::BalanceKind;
    use scomm::spmd;

    fn extract(nranks: usize, level: u8, refine_corner: bool) -> Vec<(usize, usize, u64)> {
        spmd::run(nranks, move |c| {
            let mut t = DistOctree::new_uniform(c, level);
            if refine_corner {
                t.refine(|o| o.x() == 0 && o.y() == 0 && o.z() == 0);
                t.balance(BalanceKind::Full);
                t.partition();
            }
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            (m.n_owned, m.n_ghost, m.n_global)
        })
    }

    #[test]
    fn uniform_mesh_dof_count() {
        // Uniform level-2: (4+1)^3 = 125 global nodes, no hanging nodes.
        for nranks in [1, 2, 4] {
            let out = extract(nranks, 2, false);
            let total: usize = out.iter().map(|o| o.0).sum();
            assert_eq!(total, 125, "nranks={nranks}");
            assert!(out.iter().all(|o| o.2 == 125));
        }
    }

    #[test]
    fn refined_mesh_has_hanging_nodes_excluded() {
        // Level-1 tree with child 0 refined: 8 + 7 = 15 elements.
        // Global independent nodes: 27 (coarse) + interior/face nodes of
        // the refined octant that are NOT hanging.
        let out = extract(1, 1, true);
        let (n_owned, _, n_global) = out[0];
        assert_eq!(n_owned as u64, n_global);
        // Hand count: 27 coarse lattice nodes. The refined child-0 cell
        // adds lattice points at spacing 1/4 inside [0,1/2]^3: 27 points,
        // of which 8 coincide with coarse nodes. Of the 19 new points,
        // the 12 lying on an interface plane (some coordinate = 1/2) sit
        // on a face or edge of a coarse sibling without being its vertex
        // — hanging. The 7 with all coordinates in {0, 1/4} touch only
        // fine cells — independent. Total: 27 + 7 = 34.
        assert_eq!(n_global, 34, "independent dof count for this fixture");
    }

    #[test]
    fn parallel_matches_serial_dof_count() {
        let serial = extract(1, 1, true)[0].2;
        for nranks in [2, 3, 4] {
            let out = extract(nranks, 1, true);
            assert!(out.iter().all(|o| o.2 == serial), "nranks={nranks}");
            let total: usize = out.iter().map(|o| o.0).sum();
            assert_eq!(total as u64, serial);
        }
    }

    #[test]
    fn constraints_partition_unity() {
        // Sum of constraint weights at every hanging node must be 1
        // (interpolation of the constant function is exact).
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.4);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let mut n_hanging = 0;
            for res in &m.node_table {
                if let NodeResolution::Constrained(terms) = res {
                    n_hanging += 1;
                    let s: f64 = terms.iter().map(|t| t.1).sum();
                    assert!((s - 1.0).abs() < 1e-12, "weights sum to {s}");
                    assert!(
                        terms.len() == 2 || terms.len() == 4,
                        "face/edge hanging nodes have 2 or 4 masters, got {}",
                        terms.len()
                    );
                }
            }
            let total = c.allreduce_sum(&[n_hanging as u64])[0];
            assert!(total > 0, "fixture must contain hanging nodes");
        });
    }

    #[test]
    fn linear_field_is_reproduced_across_constraints() {
        // A globally linear function sampled at dofs must be exactly
        // interpolated at every element corner, including hanging ones.
        spmd::run(3, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| {
                let ctr = o.center_unit();
                ctr[0] + ctr[1] + ctr[2] < 1.0
            });
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
            let f = |p: [f64; 3]| 3.0 * p[0] - 2.0 * p[1] + 0.5 * p[2] + 1.0;
            let mut v = vec![0.0; m.n_local()];
            for d in 0..m.n_owned {
                v[d] = f(m.dof_coords(d));
            }
            m.exchange.exchange(c, &mut v, m.n_owned);
            for e in 0..m.elements.len() {
                let vals = m.corner_values(e, &v);
                let o = &m.elements[e];
                let keys = super::leaf_corner_keys(o);
                for (i, &k) in keys.iter().enumerate() {
                    let (x, y, z) = node_coords(k);
                    let s = ROOT_LEN as f64;
                    let pc = [x as f64 / s * 2.0, y as f64 / s * 1.0, z as f64 / s * 1.0];
                    assert!(
                        (vals[i] - f(pc)).abs() < 1e-10,
                        "corner {i} of elem {e}: {} vs {}",
                        vals[i],
                        f(pc)
                    );
                }
            }
        });
    }

    #[test]
    fn exchange_roundtrip_and_accumulate() {
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[2] > 0.6);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            // exchange: ghosts receive the owner's gid value.
            let mut v = vec![0.0; m.n_local()];
            for d in 0..m.n_owned {
                v[d] = (m.global_offset + d as u64) as f64;
            }
            m.exchange.exchange(c, &mut v, m.n_owned);
            for (g, &gid) in m.ghost_gids.iter().enumerate() {
                assert_eq!(v[m.n_owned + g], gid as f64);
            }
            // reverse_accumulate: each ghost sends 1.0; the owner's total
            // equals the number of ranks ghosting that dof; globally the
            // sum equals the global number of ghost entries.
            let mut w = vec![0.0; m.n_local()];
            for g in 0..m.n_ghost {
                w[m.n_owned + g] = 1.0;
            }
            let ghost_total = c.allreduce_sum(&[m.n_ghost as f64])[0];
            m.exchange.reverse_accumulate(c, &mut w, m.n_owned);
            let own_sum: f64 = w[..m.n_owned].iter().sum();
            let total = c.allreduce_sum(&[own_sum])[0];
            assert!((total - ghost_total).abs() < 1e-12);
            assert!(w[m.n_owned..].iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn split_phase_exchange_bitwise_matches_strided() {
        // The packed ncomp=3 begin/end exchange and reverse accumulation
        // must agree bit for bit with one strided ncomp=1 round per
        // component, and the pack buffers must stop growing after the
        // first round.
        spmd::run(4, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[2] > 0.6);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let ncomp = 3;
            let n_local = m.n_local();
            let fill = |d: usize, k: usize| {
                let g = (m.global_offset + d as u64) as f64;
                (g + 1.0) * (k as f64 + 1.0) * 0.37 - g * 0.11
            };

            // Strided reference: exchange each component separately.
            let mut v_ref = vec![0.0; n_local * ncomp];
            for d in 0..m.n_owned {
                for k in 0..ncomp {
                    v_ref[d * ncomp + k] = fill(d, k);
                }
            }
            let mut v = v_ref.clone();
            let mut scratch = vec![0.0; n_local];
            for k in 0..ncomp {
                for i in 0..n_local {
                    scratch[i] = v_ref[i * ncomp + k];
                }
                m.exchange.exchange(c, &mut scratch, m.n_owned);
                for i in 0..n_local {
                    v_ref[i * ncomp + k] = scratch[i];
                }
            }

            // Split-phase path.
            let mut buf = ExchangeBuffers::with_stream(1);
            m.exchange
                .exchange_begin_interleaved(c, &v, ncomp, &mut buf);
            assert!(buf.in_flight());
            m.exchange
                .exchange_end_interleaved(c, &mut v, m.n_owned, ncomp, &mut buf);
            assert!(!buf.in_flight());
            assert_eq!(v, v_ref, "ghost values must be bitwise identical");

            // Reverse accumulation: seed ghosts, compare owner sums.
            let mut w_ref = vec![0.0; n_local * ncomp];
            for g in 0..m.n_ghost {
                for k in 0..ncomp {
                    w_ref[(m.n_owned + g) * ncomp + k] = fill(g, k) + 0.5;
                }
            }
            let mut w = w_ref.clone();
            for k in 0..ncomp {
                for i in 0..n_local {
                    scratch[i] = w_ref[i * ncomp + k];
                }
                m.exchange.reverse_accumulate(c, &mut scratch, m.n_owned);
                for i in 0..n_local {
                    w_ref[i * ncomp + k] = scratch[i];
                }
            }
            m.exchange
                .reverse_accumulate_begin_interleaved(c, &mut w, m.n_owned, ncomp, &mut buf);
            m.exchange
                .reverse_accumulate_end_interleaved(c, &mut w, m.n_owned, ncomp, &mut buf);
            assert_eq!(w, w_ref, "accumulated values must be bitwise identical");

            // Steady state: warm rounds reuse every allocation.
            let cap = buf.capacity_bytes();
            m.exchange
                .exchange_begin_interleaved(c, &v, ncomp, &mut buf);
            m.exchange
                .exchange_end_interleaved(c, &mut v, m.n_owned, ncomp, &mut buf);
            m.exchange
                .reverse_accumulate_begin_interleaved(c, &mut w, m.n_owned, ncomp, &mut buf);
            m.exchange
                .reverse_accumulate_end_interleaved(c, &mut w, m.n_owned, ncomp, &mut buf);
            assert_eq!(buf.capacity_bytes(), cap, "buffers must be reused");
        });
    }

    #[test]
    fn boundary_classification() {
        spmd::run(1, |c| {
            let t = DistOctree::new_uniform(c, 1);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let boundary = (0..m.n_owned).filter(|&d| m.dof_on_boundary(d)).count();
            // 3^3 = 27 nodes, only the center is interior.
            assert_eq!(boundary, 26);
            let center = (0..m.n_owned).find(|&d| !m.dof_on_boundary(d)).unwrap();
            assert_eq!(m.dof_boundary_faces(center), 0);
            assert_eq!(m.dof_coords(center), [0.5, 0.5, 0.5]);
        });
    }

    #[test]
    fn node_keys_are_sorted_and_indexed_by_corner() {
        for nranks in [1, 2, 3, 4] {
            spmd::run(nranks, |c| {
                let mut t = DistOctree::new_uniform(c, 2);
                t.refine(|o| {
                    let ctr = o.center_unit();
                    (ctr[0] - 0.4).powi(2) + (ctr[1] - 0.6).powi(2) + ctr[2].powi(2) < 0.2
                });
                t.refine(|o| o.level() == 3 && o.center_unit()[1] > 0.5);
                t.balance(BalanceKind::Full);
                t.partition();
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                assert!(m.node_keys.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(m.node_keys.len(), m.node_table.len());
                for (e, o) in m.elements.iter().enumerate() {
                    let keys = leaf_corner_keys(o);
                    for (i, &nref) in m.elem_nodes[e].iter().enumerate() {
                        assert_eq!(m.node_keys[nref as usize], keys[i], "elem {e} corner {i}");
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "needs full 2:1 balance")]
    fn face_balanced_tree_with_a_coarse_edge_neighbour_panics() {
        // Octant 0 refined twice toward the centre: face balance refines
        // octants 1, 2 and 4 to level 2 but leaves octant 3 at level 1, so
        // the level-3 corner (½, ½, ⅜) sits on a parent edge whose
        // diagonal neighbour is two levels coarser.
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 1);
            let inner = Octant::root().child(0).child(7);
            t.refine(|o| o.contains(&inner));
            t.refine(|o| *o == inner);
            t.balance(BalanceKind::Face);
            extract_mesh(&t, [1.0, 1.0, 1.0]);
        });
    }
}
