//! `ExtractMesh`: build the distributed FEM mesh from a balanced octree.
//!
//! Terminology: a *node* is a lattice point that is a corner of at least
//! one element. A node is *independent* (it carries a degree of freedom)
//! iff it is a vertex of **every** leaf whose closed region touches it;
//! otherwise it is *hanging* (it sits on a face or edge of some coarser
//! neighbor) and its value is algebraically constrained to the coarse
//! element's corner dofs.
//!
//! The extraction works on sorted arrays, found by table lookups. The
//! node table is the sorted distinct keys of the local element corners,
//! deduplicated through a hash table. Each node is classified once, from
//! one incident local element, by the 2:1 parent-midpoint rule
//! (`corner_master`, hash lookups of the view's leaves), which needs full
//! (corner) 2:1 balance.
//! Constraint chains (a master corner that itself hangs) are expanded in
//! ascending master level, a topological order, into flat arenas; chains
//! crossing rank boundaries are resolved with a bounded number of
//! query/answer rounds.

use std::ops::Range;

use octree::ghost::{GhostEntry, LeafOrigin, LocalGhostView};
use octree::morton::{morton_decode, morton_key};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};
use scomm::{Halo, HaloBuffers};

use crate::table::{sort_distinct, KeyTable};

/// Lattice key of a node: Morton key of its coordinates (which may equal
/// `ROOT_LEN` on the upper domain boundary; keys use 20 bits per axis).
pub type NodeKey = u64;

/// Unpack a node key.
#[inline]
pub fn node_coords(key: NodeKey) -> (u32, u32, u32) {
    morton_decode(key)
}

/// Tag bit of a hanging corner in [`Mesh::corner_dofs`]: the low bits
/// of such an entry are the corner's row in [`Mesh::constraints`].
const HANGING_BIT: u32 = 1 << 31;

/// One element corner, decoded from [`Mesh::corner_dofs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corner {
    /// An independent corner: its local dof index (owned or ghost).
    Dof(usize),
    /// A hanging corner: its row of [`Mesh::constraints`].
    Hanging(usize),
}

/// The hanging-node constraint rows of a mesh in one CSR arena: one row
/// per distinct hanging local node, rows in node-key order, each row its
/// `(local dof, weight)` terms in ascending node-key order.
#[derive(Debug, Clone)]
pub struct Constraints {
    /// Row `r` is `terms[offsets[r]..offsets[r + 1]]`; `offsets[0] = 0`.
    pub offsets: Vec<usize>,
    /// The terms of every row, back to back.
    pub terms: Vec<(usize, f64)>,
}

/// The ghost-exchange buffers of a mesh field: the name the benchmark
/// uses for [`scomm::HaloBuffers`] of `f64`.
pub type ExchangeBuffers = HaloBuffers<f64>;

/// The distributed trilinear hexahedral mesh extracted from an octree.
pub struct Mesh {
    /// Physical domain extents: the unit cube is scaled to
    /// `[0,Lx]×[0,Ly]×[0,Lz]`.
    pub domain: [f64; 3],
    /// Local elements (copies of the octree leaves at extraction time).
    pub elements: Vec<Octant>,
    /// The element-to-dof table: entry `8e + c` is corner `c` (z-order)
    /// of element `e`, the corner's local dof if it is independent, or
    /// its row of [`Mesh::constraints`] tagged as hanging. The corners of
    /// one node hold the same entry. Read it through [`Mesh::corner`] or
    /// the element gather and scatter.
    pub corner_dofs: Vec<u32>,
    /// The constraint rows the hanging corners of `corner_dofs` name.
    pub constraints: Constraints,
    /// Distinct corners of the local elements: the nodes extraction
    /// classified, one per entry of its node table.
    pub n_nodes: usize,
    /// Number of owned dofs (local dof indices `0..n_owned`).
    pub n_owned: usize,
    /// Number of ghost dofs (local dof indices `n_owned..n_owned+n_ghost`).
    pub n_ghost: usize,
    /// This rank's first global dof id.
    pub global_offset: u64,
    /// Global dof count.
    pub n_global: u64,
    /// Every rank's first global dof id in rank order, then `n_global`:
    /// rank `r` owns the gids `offsets[r]..offsets[r + 1]`.
    pub offsets: Vec<u64>,
    /// Global ids of the ghost dofs, in ghost-block order.
    pub ghost_gids: Vec<u64>,
    /// Lattice key of each local dof (owned then ghost).
    pub dof_keys: Vec<NodeKey>,
    /// The ghost block's exchange pattern.
    pub exchange: Halo,
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

    /// Corner `c` of element `e`, decoded.
    #[inline]
    pub fn corner(&self, e: usize, c: usize) -> Corner {
        decode(self.corner_dofs[8 * e + c])
    }

    /// Number of constraint rows: the distinct hanging local nodes.
    pub fn n_hanging(&self) -> usize {
        self.constraints.offsets.len().saturating_sub(1)
    }

    /// The `(local dof, weight)` terms of constraint row `r < n_hanging()`.
    #[inline]
    pub fn constraint_row(&self, r: usize) -> &[(usize, f64)] {
        let offsets = &self.constraints.offsets;
        &self.constraints.terms[offsets[r]..offsets[r + 1]]
    }

    /// Gather element `e`'s corner values from an owned+ghost vector with
    /// `NC` interleaved components per dof (`v[d·NC + k]`): an independent
    /// corner copies its dof's components, a hanging corner takes its
    /// constraint row's weighted sum, terms in row order, one component
    /// at a time. Every trip count is a constant.
    #[inline(always)]
    pub fn gather<const NC: usize>(&self, e: usize, v: &[f64], out: &mut [[f64; NC]; 8]) {
        let dofs = &self.corner_dofs[e * 8..e * 8 + 8];
        for (&d, o) in dofs.iter().zip(out.iter_mut()) {
            match decode(d) {
                Corner::Dof(d) => o.copy_from_slice(&v[d * NC..d * NC + NC]),
                Corner::Hanging(r) => {
                    let terms = self.constraint_row(r);
                    for k in 0..NC {
                        o[k] = terms.iter().map(|&(d, w)| w * v[d * NC + k]).sum();
                    }
                }
            }
        }
    }

    /// Add element `e`'s corner contributions (the layout of
    /// [`Mesh::gather`]) into an owned+ghost vector with the constraint
    /// transpose, terms in row order.
    #[inline(always)]
    pub fn scatter<const NC: usize>(&self, e: usize, contrib: &[[f64; NC]; 8], v: &mut [f64]) {
        let dofs = &self.corner_dofs[e * 8..e * 8 + 8];
        for (&d, c) in dofs.iter().zip(contrib) {
            match decode(d) {
                Corner::Dof(d) => {
                    for k in 0..NC {
                        v[d * NC + k] += c[k];
                    }
                }
                Corner::Hanging(r) => {
                    for &(d, w) in self.constraint_row(r) {
                        for k in 0..NC {
                            v[d * NC + k] += w * c[k];
                        }
                    }
                }
            }
        }
    }

    /// Resolve the 8 corner values of element `e` from a scalar local
    /// field vector (owned + ghost layout), applying hanging-node
    /// constraints.
    pub fn corner_values(&self, e: usize, v: &[f64]) -> [f64; 8] {
        let mut out = [[0.0]; 8];
        self.gather(e, v, &mut out);
        out.map(|[value]| value)
    }
}

/// Decode one entry of [`Mesh::corner_dofs`].
#[inline]
fn decode(d: u32) -> Corner {
    if d & HANGING_BIT == 0 {
        Corner::Dof(d as usize)
    } else {
        Corner::Hanging((d & !HANGING_BIT) as usize)
    }
}

/// The local nodes of `elements`: their keys in ascending order, each
/// node's first corner `8e + c` (its smallest), and the node of every
/// corner `8e + c`.
pub(crate) struct NodeTable {
    pub keys: Vec<NodeKey>,
    pub first_corner: Vec<u32>,
    pub node_of: Vec<u32>,
}

/// Build the [`NodeTable`] without ordering the corners: one scan in
/// `(e, c)` order looks each corner key up in a hash table, where the
/// key's first insertion fixes its first corner; then only the distinct
/// keys are sorted and the corners renumbered. The table starts with
/// room for 2 keys per element (a conforming mesh has about one node per
/// element) and grows to the 8 per element a segment of disconnected
/// leaves needs; growth keeps every key's number, so the table's size
/// never shows in the mesh.
pub(crate) fn number_nodes(elements: &[Octant]) -> NodeTable {
    let mut ids = KeyTable::with_capacity(2 * elements.len());
    // Distinct keys with their first corners, in scan order: the index
    // is the node's provisional number.
    let mut nodes: Vec<(NodeKey, u32)> = Vec::new();
    let mut node_of = Vec::with_capacity(8 * elements.len());
    for (e, o) in elements.iter().enumerate() {
        for (c, k) in o.vertex_keys().into_iter().enumerate() {
            let id = ids.get_or_insert(k, nodes.len() as u32);
            if id as usize == nodes.len() {
                nodes.push((k, (8 * e + c) as u32));
            }
            node_of.push(id);
        }
    }
    // A node's first corner names its provisional number.
    sort_distinct(&mut nodes);
    let mut number = vec![0u32; nodes.len()];
    for (n, &(_, ec)) in nodes.iter().enumerate() {
        number[node_of[ec as usize] as usize] = n as u32;
    }
    for id in &mut node_of {
        *id = number[*id as usize];
    }
    let (keys, first_corner) = nodes.into_iter().unzip();
    NodeTable {
        keys,
        first_corner,
        node_of,
    }
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
/// are skipped. On a tie the local leaf wins, which keeps the
/// constraint chain local.
///
/// The leaf holding a probe is found by table lookups, in `at` (view
/// leaf → index), of the probe's ancestors at levels `l − 1`, `l` and
/// `l + 1`: under full (corner) 2:1 balance one of them is a leaf. If
/// none is, the view is searched, and a leaf two or more levels coarser
/// than `o` panics with the node and both levels.
fn corner_master(
    view: &LocalGhostView<Octant>,
    at: &KeyTable,
    o: &Octant,
    c: usize,
) -> Option<usize> {
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
        let key = morton_key(x, y, z);
        let near = (l - 1..=(l + 1).min(MAX_LEVEL)).find_map(|lv| {
            let s = 3 * (MAX_LEVEL - lv) as u32;
            at.get(Octant::from_key_level(key >> s << s, lv).raw())
        });
        let i = near
            .map(|i| i as usize)
            .or_else(|| view.containing(&Octant::new(x, y, z, MAX_LEVEL)))
            .unwrap_or_else(|| panic!("incident cell of node {p:?} missing from local+ghost view"));
        let leaf = view.leaves[i];
        assert!(
            leaf.level() + 1 >= l,
            "ExtractMesh needs full 2:1 balance: node {p:?} of a level-{l} element \
             touches a level-{} leaf",
            leaf.level()
        );
        let local = |j: usize| view.origins[j].is_local();
        if leaf.level() + 1 == l && master.is_none_or(|j| !local(j) && local(i)) {
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
    extract_mesh_with_ghosts(tree, domain, &tree.ghosts().entries)
}

/// [`extract_mesh`] with a caller-supplied ghost layer (as produced by
/// the tree's `ghosts` or its grow-only `ghost_layer_into` variant), so
/// AMR loops that already maintain a ghost workspace do not rebuild — or
/// reallocate — the layer here (collective). The tree must be balanced
/// with `BalanceKind::Full`.
pub fn extract_mesh_with_ghosts(
    tree: &DistOctree,
    domain: [f64; 3],
    ghosts: &[GhostEntry<Octant>],
) -> Mesh {
    let comm = tree.comm();
    let me = comm.rank();
    let p = comm.size();
    let local = &tree.local;
    let view = LocalGhostView::new(local, ghosts);

    // ---- Node table: distinct corner keys, ascending ----------------
    // `node_of` is rewritten in place into the corner table once the
    // nodes are resolved.
    let NodeTable {
        keys: node_keys,
        first_corner,
        node_of,
    } = number_nodes(local);
    let n_nodes = node_keys.len();

    // ---- Classification: each node once, from its first corner -------
    // The view's table has room for twice its leaves: most nodes miss at
    // level `l − 1`, and a miss walks to an empty slot.
    let mut at = KeyTable::with_capacity(2 * view.leaves.len());
    for (i, leaf) in view.leaves.iter().enumerate() {
        at.get_or_insert(leaf.raw(), i as u32);
    }
    let master: Vec<u32> = first_corner
        .iter()
        .map(|&ec| {
            let (e, c) = (ec as usize / 8, ec as usize % 8);
            corner_master(&view, &at, &local[e], c).map_or(INDEPENDENT, |i| i as u32)
        })
        .collect();
    drop((at, first_corner));

    // ---- Expansion in ascending master level -------------------------
    // An independent node expands to itself. A hanging node expands
    // through its master's corners: a foreign master's corners are left
    // to its owner; a local master's corners are local nodes that hang,
    // if at all, on a strictly coarser leaf — so in ascending master
    // level their expansions are complete when read. Each node's terms
    // are one span of `indep` (independent local node, weight) and one of
    // `foreign` (owner, key, weight).
    let mut indep: Vec<(u32, f64)> = Vec::with_capacity(n_nodes);
    let mut foreign: Vec<(usize, NodeKey, f64)> = Vec::new();
    let mut spans: Vec<(Range<usize>, Range<usize>)> = vec![(0..0, 0..0); n_nodes];
    let mut hanging: Vec<(u8, usize)> = Vec::new();
    for (n, &mi) in master.iter().enumerate() {
        if mi == INDEPENDENT {
            spans[n].0 = indep.len()..indep.len() + 1;
            indep.push((n as u32, 1.0));
        } else {
            hanging.push((view.leaves[mi as usize].level(), n));
        }
    }
    hanging.sort_unstable();
    for &(_, n) in &hanging {
        let mi = master[n] as usize;
        let (mo, origin) = (view.leaves[mi], view.origins[mi]);
        let (i0, f0) = (indep.len(), foreign.len());
        let mkeys = mo.vertex_keys();
        for (ci, w) in master_weights(&mo, node_coords(node_keys[n])) {
            let LeafOrigin::Local(e) = origin else {
                foreign.push((origin.owner(me, ghosts), mkeys[ci], w));
                continue;
            };
            let (si, sf) = spans[node_of[8 * e as usize + ci] as usize].clone();
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
                answers[src].extend(
                    indep[si]
                        .iter()
                        .map(|&(m, w)| term(node_keys[m as usize], w, u64::MAX)),
                );
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
    // `node_entry` becomes the corner table's entry of each node: owned
    // dofs now, ghost dofs of `foreign_nodes` and rows below.
    let mut node_entry = vec![0u32; n_nodes];
    let mut owned_keys: Vec<NodeKey> = Vec::new();
    let mut foreign_keys: Vec<NodeKey> = Vec::new();
    let mut foreign_nodes: Vec<usize> = Vec::new();
    for (n, &k) in node_keys.iter().enumerate() {
        if master[n] == INDEPENDENT {
            if node_owner(tree, node_coords(k)) == me {
                node_entry[n] = owned_keys.len() as u32;
                owned_keys.push(k);
            } else {
                foreign_nodes.push(n);
                foreign_keys.push(k);
            }
        }
    }
    // The gid offsets, from every rank's owned count gathered once.
    let (n_owned, mut offsets) = (owned_keys.len(), Vec::new());
    comm.offsets_into(n_owned as u64, &mut offsets);
    let (global_offset, n_global) = (offsets[me], offsets[p]);

    // ---- Foreign gid lookup + exchange pattern -----------------------
    // Foreign independent keys: the non-owned ones above plus every
    // non-owned key a remote constraint term names (a local term names a
    // local independent node, sorted above already).
    foreign_keys.extend(
        remote
            .iter()
            .map(|t| t.1)
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
    let mut send = Vec::new();
    for (src, qs) in gid_incoming.iter().enumerate() {
        for &k in qs {
            let li = owned_keys
                .binary_search(&k)
                .unwrap_or_else(|_| panic!("rank {me} asked for non-owned node {k}"));
            gid_answers[src].push(global_offset + li as u64);
            send.push(li as u32);
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

    // ---- Corner table and constraint arena over local dof indices ----
    // Foreign independent nodes come in key order: one cursor walks the
    // foreign keys. A constraint row is the node's local terms then its
    // remote ones, stably sorted by key with duplicate keys summed. Rows
    // follow node order, so hanging corners of one node share one row.
    let mut fc = 0;
    for &n in &foreign_nodes {
        while foreign_keys[fc] < node_keys[n] {
            fc += 1;
        }
        debug_assert_eq!(foreign_keys[fc], node_keys[n]);
        node_entry[n] = ghost_slot[fc] as u32;
    }
    let lookup_dof = |k: NodeKey| -> u32 {
        owned_keys.binary_search(&k).unwrap_or_else(|_| {
            let fi = foreign_keys
                .binary_search(&k)
                .unwrap_or_else(|_| panic!("unresolved node key {k}"));
            ghost_slot[fi]
        }) as u32
    };
    debug_assert!(n_owned + n_ghost < HANGING_BIT as usize);
    let mut constraints = Constraints {
        offsets: vec![0],
        terms: Vec::new(),
    };
    let mut row: Vec<(NodeKey, u32, f64)> = Vec::new();
    let mut rc = 0;
    for n in (0..n_nodes).filter(|&n| master[n] != INDEPENDENT) {
        row.clear();
        row.extend(indep[spans[n].0.clone()].iter().map(|&(m, w)| {
            let m = m as usize;
            (node_keys[m], node_entry[m], w)
        }));
        while remote.get(rc).is_some_and(|t| t.0 < n) {
            rc += 1;
        }
        for &(_, k, w) in remote[rc..].iter().take_while(|t| t.0 == n) {
            row.push((k, lookup_dof(k), w));
        }
        row.sort_by_key(|t| t.0);
        row.dedup_by(|t, kept| {
            t.0 == kept.0 && {
                kept.2 += t.2;
                true
            }
        });
        // A row is a convex combination: weights in (0,1] summing to
        // 1. The cross-rank consistency checks live in `check`.
        debug_assert!(
            !scomm::checks_enabled()
                || (row.iter().map(|t| t.2).sum::<f64>() - 1.0).abs() < 1e-9
                    && row.iter().all(|t| t.2 > 0.0 && t.2 <= 1.0),
            "constraint row for node {:#x} is not a partition of unity: {row:?}",
            node_keys[n]
        );
        node_entry[n] = HANGING_BIT | (constraints.offsets.len() - 1) as u32;
        constraints
            .terms
            .extend(row.iter().map(|&(_, d, w)| (d as usize, w)));
        constraints.offsets.push(constraints.terms.len());
    }
    let mut corner_dofs = node_of;
    for entry in &mut corner_dofs {
        *entry = node_entry[*entry as usize];
    }

    // dof keys: owned then ghost (`owned_keys` is not needed again, so
    // move it instead of copying).
    let mut dof_keys = owned_keys;
    dof_keys.extend(gid_queries.iter().flatten());

    Mesh {
        domain,
        elements: tree.local.clone(),
        corner_dofs,
        constraints,
        n_nodes,
        n_owned,
        n_ghost,
        global_offset,
        n_global,
        offsets,
        ghost_gids,
        dof_keys,
        exchange: Halo {
            send,
            send_counts: gid_incoming.iter().map(Vec::len).collect(),
            recv_counts: gid_queries.iter().map(Vec::len).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::balance::BalanceKind;
    use scomm::{spmd, Comm};

    /// Add the ghost block of the scalar field `v` into its owners.
    fn reverse_accumulate(m: &Mesh, c: &Comm, v: &mut [f64]) {
        assert_eq!(v.len(), m.n_local());
        ExchangeBuffers::new().accumulate(c, &[&m.exchange], &mut [v], 1);
    }

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

    /// One four-component field and its three- and one-component parts
    /// give the same bits, component by component, through every step
    /// of an operator application: ghost exchange, element gather,
    /// element scatter and reverse accumulation. Adapted mesh, so
    /// hanging corners are gathered and scattered through their rows.
    #[test]
    fn four_components_move_like_three_and_one() {
        for p in [1, 2] {
            spmd::run(p, |c| {
                let mut t = DistOctree::new_uniform(c, 2);
                t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
                t.balance(BalanceKind::Full);
                t.partition();
                let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
                assert!(m.n_hanging() > 0, "rank {} sees no hanging node", c.rank());
                let (n, ex) = (m.n_local(), &m.exchange);
                let mut rng = scomm::rng::SplitMix64::new(c.rank() as u64);
                let split = |f4: &[f64]| -> (Vec<f64>, Vec<f64>) {
                    let f3 = f4
                        .chunks_exact(4)
                        .flat_map(|v| [v[0], v[1], v[2]])
                        .collect();
                    (f3, f4.chunks_exact(4).map(|v| v[3]).collect())
                };
                let same = |what: &str, f4: &[f64], f3: &[f64], f1: &[f64]| {
                    let (want3, want1) = split(f4);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&want3), bits(f3), "{what}: velocity, P = {p}");
                    assert_eq!(bits(&want1), bits(f1), "{what}: pressure, P = {p}");
                };

                // Ghost exchange: owned values in, ghosts filled.
                let mut x4: Vec<f64> = (0..4 * n).map(|_| rng.unit() - 0.5).collect();
                x4[4 * m.n_owned..].fill(0.0);
                let (mut x3, mut x1) = split(&x4);
                let mut buf = ExchangeBuffers::new();
                for (v, nc) in [(&mut x4, 4), (&mut x3, 3), (&mut x1, 1)] {
                    buf.fill(c, &[ex], &mut [v], nc);
                }
                same("exchange", &x4, &x3, &x1);

                // Gather and scatter, element by element in element order.
                let (mut y4, mut y3, mut y1) = (vec![0.0; 4 * n], vec![0.0; 3 * n], vec![0.0; n]);
                for e in 0..m.elements.len() {
                    let (mut g4, mut g3, mut g1) = ([[0.0; 4]; 8], [[0.0; 3]; 8], [[0.0; 1]; 8]);
                    m.gather(e, &x4, &mut g4);
                    m.gather(e, &x3, &mut g3);
                    m.gather(e, &x1, &mut g1);
                    same(
                        "gather",
                        g4.as_flattened(),
                        g3.as_flattened(),
                        g1.as_flattened(),
                    );
                    let r4: [[f64; 4]; 8] = std::array::from_fn(|_| [0; 4].map(|_| rng.unit()));
                    let (r3, r1) = split(r4.as_flattened());
                    m.scatter(e, &r4, &mut y4);
                    m.scatter::<3>(e, r3.as_chunks().0.try_into().unwrap(), &mut y3);
                    m.scatter::<1>(e, r1.as_chunks().0.try_into().unwrap(), &mut y1);
                }
                same("scatter", &y4, &y3, &y1);

                // Reverse accumulation of the ghost contributions.
                for (v, nc) in [(&mut y4, 4), (&mut y3, 3), (&mut y1, 1)] {
                    buf.accumulate(c, &[ex], &mut [v], nc);
                }
                same("reverse accumulation", &y4, &y3, &y1);
            });
        }
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
            for r in 0..m.n_hanging() {
                let terms = m.constraint_row(r);
                let s: f64 = terms.iter().map(|t| t.1).sum();
                assert!((s - 1.0).abs() < 1e-12, "weights sum to {s}");
                assert!(
                    terms.len() == 2 || terms.len() == 4,
                    "face/edge hanging nodes have 2 or 4 masters, got {}",
                    terms.len()
                );
            }
            let total = c.allreduce_sum(&[m.n_hanging() as u64])[0];
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
                let keys = o.vertex_keys();
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
            reverse_accumulate(&m, c, &mut w);
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
        // component.
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
            buf.fill_begin(c, &[&m.exchange], &[&v], ncomp);
            assert!(buf.in_flight());
            buf.fill_end(c, &[&m.exchange], &mut [&mut v], ncomp);
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
                reverse_accumulate(&m, c, &mut scratch);
                for i in 0..n_local {
                    w_ref[i * ncomp + k] = scratch[i];
                }
            }
            buf.accumulate_begin(c, &[&m.exchange], &mut [&mut w], ncomp);
            buf.accumulate_end(c, &[&m.exchange], &mut [&mut w], ncomp);
            assert_eq!(w, w_ref, "accumulated values must be bitwise identical");
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
                // The corners of one node hold one entry: the dof of its
                // key, or the next row in key order.
                let nodes = number_nodes(&m.elements);
                assert!(nodes.keys.windows(2).all(|w| w[0] < w[1]));
                for (ec, &n) in nodes.node_of.iter().enumerate() {
                    let first = nodes.first_corner[n as usize];
                    assert_eq!(m.corner_dofs[ec], m.corner_dofs[first as usize]);
                }
                let mut rows = 0;
                for (&key, &first) in nodes.keys.iter().zip(&nodes.first_corner) {
                    let first = first as usize;
                    match m.corner(first / 8, first % 8) {
                        Corner::Dof(d) => assert_eq!(m.dof_keys[d], key),
                        Corner::Hanging(r) => {
                            assert_eq!(r, rows, "node {key:#x}");
                            rows += 1;
                        }
                    }
                }
                assert_eq!(rows, m.n_hanging());
            });
        }
    }

    /// The hashed node table is a plain sort of every `(corner key,
    /// 8e + c)` pair, bitwise: its keys are the distinct keys, each
    /// node's first corner leads its run, and `node_of` names the run of
    /// every corner. On empty and one-leaf segments, on 64 leaves that
    /// share no corner (8 nodes per element, the table's capacity), and
    /// on seeded adapted trees with leaves on the root's upper faces
    /// (node coordinate `ROOT_LEN`) and `MAX_LEVEL` leaves, at
    /// P ∈ {1, 4, 8}.
    #[test]
    fn sorted_corners_equal_a_sort_of_all_corner_pairs() {
        let check = |elements: &[Octant]| {
            let mut pairs: Vec<(NodeKey, u32)> = Vec::new();
            for (e, o) in elements.iter().enumerate() {
                for (c, k) in o.vertex_keys().into_iter().enumerate() {
                    pairs.push((k, (8 * e + c) as u32));
                }
            }
            pairs.sort_unstable();
            let mut want = (Vec::new(), Vec::new(), vec![0; pairs.len()]);
            for (n, run) in pairs.chunk_by(|a, b| a.0 == b.0).enumerate() {
                want.0.push(run[0].0);
                want.1.push(run[0].1);
                for &(_, ec) in run {
                    want.2[ec as usize] = n as u32;
                }
            }
            let got = number_nodes(elements);
            assert_eq!((got.keys, got.first_corner, got.node_of), want);
        };
        let mut apart: Vec<Octant> = (0..64u32)
            .map(|i| {
                let at = |b: u32| ((i >> b) & 3) * ROOT_LEN / 4;
                Octant::new(at(0), at(2), at(4), 3)
            })
            .collect();
        apart.sort_unstable();
        check(&apart);
        let far = Octant::new(ROOT_LEN - 1, ROOT_LEN - 1, ROOT_LEN - 1, MAX_LEVEL);
        let near = Octant::new(0, ROOT_LEN / 2, 1, MAX_LEVEL);
        for p in [1, 4, 8] {
            spmd::run(p, |c| {
                // Root only (every rank but rank 0 empty), then one leaf
                // per rank at P = 8.
                for level in [0, 1] {
                    let t = DistOctree::new_uniform(c, level);
                    assert!(t.local.len() <= 1 || p < 8);
                    check(&t.local);
                }
                let mut rng = scomm::rng::SplitMix64::new(17);
                let mut t = DistOctree::new_uniform(c, 2);
                for _ in 0..3 {
                    // The same draws on every rank: one per leaf of the
                    // level-2 grid, so the refinement is rank-independent.
                    let marks: Vec<u64> = (0..64).map(|_| rng.below(4)).collect();
                    let at_2 = |o: &Octant| {
                        std::iter::successors(Some(*o), |a| Some(a.parent()))
                            .find(|a| a.level() == 2)
                            .expect("leaves at level 2 or finer")
                    };
                    t.refine(|o| marks[at_2(o).uniform_index() as usize] == 0);
                }
                for _ in 0..MAX_LEVEL {
                    t.refine(|o| o.level() < MAX_LEVEL && (o.contains(&far) || o.contains(&near)));
                }
                t.balance(BalanceKind::Full);
                t.partition();
                let finest = t.local.iter().map(|o| o.level() as u64).max();
                assert_eq!(c.allreduce_max(&[finest.unwrap_or(0)]), [MAX_LEVEL as u64]);
                check(&t.local);
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

    #[test]
    #[should_panic(expected = "of a level-4 element touches a level-1 leaf")]
    fn neighbour_three_levels_coarser_panics() {
        // Unbalanced: octant 1 refined three times toward the origin's
        // edge, next to octant 0 at level 1. The first node that breaks
        // the balance in key order, (½, 1/16, 0), is a level-4 corner on
        // a parent edge: none of the three lookups hits, and the search
        // finds octant 0.
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 1);
            let inner = Octant::root().child(1).child(0).child(0);
            for _ in 0..3 {
                t.refine(|o| o.contains(&inner));
            }
            extract_mesh(&t, [1.0, 1.0, 1.0]);
        });
    }

    #[test]
    fn extraction_gathers_the_rank_offsets_once() {
        // Outside its resolution rounds (an allreduce and two all-to-alls
        // each, then the allreduce that finds none pending) extraction
        // runs the gid lookup's two all-to-alls and one allgatherv, the
        // owned counts the offsets come from: no exscan, no other gather.
        for p in [1, 2, 4] {
            spmd::run(p, move |c| {
                let mut t = DistOctree::new_uniform(c, 2);
                t.refine(|o| o.x() == 0 && o.y() == 0 && o.z() == 0);
                t.balance(BalanceKind::Full);
                t.partition();
                let ghosts = t.ghosts();
                let s0 = c.stats();
                let m = extract_mesh_with_ghosts(&t, [1.0, 1.0, 1.0], &ghosts.entries);
                let s1 = c.stats();
                let d = |f: fn(&scomm::CommStats) -> u64| f(&s1) - f(&s0);
                assert_eq!(d(|s| s.exscans), 0, "P = {p}");
                assert_eq!(d(|s| s.allgathers), 1, "P = {p}");
                assert_eq!(d(|s| s.alltoalls), 2 * d(|s| s.allreduces), "P = {p}");
                assert_eq!(d(|s| s.collectives()), 3 * d(|s| s.allreduces) + 1);
                let owned = c.allgatherv(&[m.n_owned as u64]);
                let offsets: Vec<u64> = (0..=p).map(|r| owned[..r].iter().sum()).collect();
                assert_eq!(m.offsets, offsets, "P = {p}");
                assert_eq!(
                    (m.global_offset, m.n_global),
                    (offsets[c.rank()], offsets[p])
                );
            });
        }
    }
}
