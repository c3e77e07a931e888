//! Reference implementations the production paths are compared against.
//!
//! The rule (DESIGN.md §10): per invariant one production path, in its
//! own crate, plus at most one oracle that is *independent by
//! construction* — a different algorithm or a different transport, not
//! an older draft of the same code — and lives here, outside the public
//! API of the crate it checks. The layer sections of DESIGN.md (§4–§9)
//! name each production path with the oracle and test that pin it.

use fem::op::DofMap;
use forest::{Forest, ForestLeaf};
use mesh::extract::{node_coords, Corner, Mesh, NodeKey};
use octree::balance::BalanceKind;
use octree::curve::CurveLeaf;
use octree::ghost::GhostEntry;
use octree::ops::find_containing;
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};

pub mod amg;
pub mod element;
pub mod unpacked;

/// This rank's leaves (owned by `me`) and its ghost layer as one
/// curve-sorted list of `(leaf, owner)`, built by concatenating and
/// sorting: the oracle of the one-pass merge of
/// `octree::ghost::LocalGhostView`.
pub fn sorted_local_ghost_view<L: CurveLeaf>(
    local: &[L],
    ghosts: &[GhostEntry<L>],
    me: usize,
) -> Vec<(L, usize)> {
    let mut entries: Vec<(L, usize)> = local.iter().map(|&l| (l, me)).collect();
    entries.extend(ghosts.iter().map(|g| (g.leaf, g.owner as usize)));
    entries.sort_by_key(|e| e.0);
    entries
}

/// Corner-incidence classification of lattice node `p`: resolve each of
/// the up-to-8 finest-level cells touching `p` through the sorted
/// `(leaf, owner)` view of [`sorted_local_ghost_view`] and report
///
/// * `None` — some incident cell is missing from the view (the node is
///   outside this rank's local + ghost coverage),
/// * `Some(None)` — `p` is a vertex of every incident leaf, i.e. an
///   independent node,
/// * `Some(Some(i))` — `p` hangs on view leaf `i`: the coarsest incident
///   leaf that does not have `p` as a vertex (the first in probe order on
///   a level tie).
///
/// Independent of `mesh::extract`'s parent-midpoint rule: it reads the
/// definition of a hanging node off all incident leaves and assumes no
/// balance at all.
pub fn hanging_master_probes(
    view: &[(Octant, usize)],
    p: (u32, u32, u32),
) -> Option<Option<usize>> {
    let containing = |probe: &Octant| {
        let i = view.partition_point(|e| e.0 <= *probe).checked_sub(1)?;
        view[i].0.contains(probe).then_some(i)
    };
    let is_vertex = |o: &Octant| {
        let l = o.len();
        [(p.0, o.x()), (p.1, o.y()), (p.2, o.z())]
            .iter()
            .all(|&(v, lo)| v == lo || v == lo + l)
    };
    let mut coarsest: Option<usize> = None;
    for i in 0..8u32 {
        let (Some(x), Some(y), Some(z)) = (
            p.0.checked_sub(i & 1),
            p.1.checked_sub((i >> 1) & 1),
            p.2.checked_sub((i >> 2) & 1),
        ) else {
            continue;
        };
        if x >= ROOT_LEN || y >= ROOT_LEN || z >= ROOT_LEN {
            continue;
        }
        let idx = containing(&Octant::new(x, y, z, MAX_LEVEL))?;
        let leaf = view[idx].0;
        if !is_vertex(&leaf) {
            coarsest = match coarsest {
                Some(cur) if view[cur].0.level() <= leaf.level() => Some(cur),
                _ => Some(idx),
            };
        }
    }
    Some(coarsest)
}

/// Every corner of `elements` as `(key, 8e + c)`, in one sort: the
/// corners of one node form one run, the node's first corner leading
/// it, and the runs' keys in order are the mesh's local nodes. The
/// oracle of `mesh::extract`'s hashed node table.
pub fn sorted_corners(elements: &[Octant]) -> Vec<(NodeKey, u32)> {
    let mut corners: Vec<(NodeKey, u32)> = Vec::with_capacity(8 * elements.len());
    for (e, o) in elements.iter().enumerate() {
        for (c, k) in o.vertex_keys().into_iter().enumerate() {
            corners.push((k, (8 * e + c) as u32));
        }
    }
    corners.sort_unstable();
    corners
}

/// Keys of the local nodes of `mesh` whose corner-table entry disagrees
/// with [`hanging_master_probes`] over `tree`'s local + ghost leaves: a
/// node's first corner must be [`Corner::Hanging`] iff the oracle says
/// it hangs. A node outside the view's coverage counts as a
/// disagreement. Collective (it builds the ghost layer).
pub fn hanging_disagreements(tree: &DistOctree, mesh: &Mesh) -> Vec<NodeKey> {
    let me = tree.comm().rank();
    let view = sorted_local_ghost_view(&tree.local, &tree.ghosts().entries, me);
    sorted_corners(&mesh.elements)
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| run[0])
        .filter(|&(k, ec)| {
            let corner = mesh.corner(ec as usize / 8, ec as usize % 8);
            let hanging = matches!(corner, Corner::Hanging(_));
            hanging_master_probes(&view, node_coords(k)).map(|m| m.is_some()) != Some(hanging)
        })
        .map(|(k, _)| k)
        .collect()
}

/// Naive 2:1 balance: find the first leaf that is too coarse for some
/// finer leaf's same-size neighbor position, split it, rescan from
/// scratch. The minimal balanced refinement is unique, so the result
/// must equal `octree::balance::balance_local_kind` bitwise. Returns the
/// number of leaves added.
pub fn balance_local_naive_kind(leaves: &mut Vec<Octant>, kind: BalanceKind) -> usize {
    let dirs = kind.direction_slice();
    let before = leaves.len();
    let first_violator = |leaves: &[Octant]| {
        let mut first: Option<usize> = None;
        for o in leaves {
            for &(dx, dy, dz) in dirs {
                let Some(n) = o.neighbor(dx, dy, dz) else {
                    continue;
                };
                if let Some(idx) = find_containing(leaves, &n) {
                    if leaves[idx].level() + 1 < o.level() && first.is_none_or(|f| idx < f) {
                        first = Some(idx);
                    }
                }
            }
        }
        first
    };
    while let Some(i) = first_violator(leaves) {
        let o = leaves[i];
        leaves.splice(i..=i, o.children());
    }
    leaves.len() - before
}

/// Naive forest 2:1 balance over the gathered leaf union: a neighbour
/// fixpoint. Every sweep flags each leaf that is too coarse for some
/// finer leaf's same-size neighbour region under `relation` (which
/// overwrites its output with the regions of a leaf in a direction), then
/// refines the flagged leaves; sweeps repeat until none is flagged.
/// Serial, over one array, with no seed propagation, no rank boundaries
/// and no tree seam of its own. With the composed relation
/// (`adjacent_regions` over `Forest::seam`, DESIGN.md §5) the minimal
/// balanced refinement is unique, so `Forest::balance` must equal it
/// bitwise. Returns the number of leaves added.
pub fn forest_balance_naive(
    union: &mut Vec<ForestLeaf>,
    kind: BalanceKind,
    mut relation: impl FnMut(&ForestLeaf, (i32, i32, i32), &mut Vec<ForestLeaf>),
) -> usize {
    let before = union.len();
    let mut regions = Vec::new();
    loop {
        let mut flags = vec![false; union.len()];
        for l in union.iter() {
            for &d in kind.direction_slice() {
                relation(l, d, &mut regions);
                for n in &regions {
                    if let Some(i) = find_containing(union, n) {
                        flags[i] |= union[i].oct.level() + 1 < l.oct.level();
                    }
                }
            }
        }
        if !flags.contains(&true) {
            return union.len() - before;
        }
        let mut i = 0;
        octree::ops::refine_with(union, &mut Vec::new(), |_| {
            i += 1;
            flags[i - 1]
        });
    }
}

/// Some ≤1-face-transform neighbor region of `leaf` intersects the
/// calling rank's owned range — the receiver predicate of
/// [`forest_ghosts_flat`].
pub fn forest_flat_adjacent(forest: &Forest, leaf: &ForestLeaf) -> bool {
    let me = forest.comm().rank();
    Octant::neighbor_directions().any(|(dx, dy, dz)| {
        forest.neighbor(leaf, dx, dy, dz).is_some_and(|n| {
            let (rlo, rhi) = forest.owner_range(&n);
            rlo <= me && me <= rhi
        })
    })
}

/// Flat per-leaf ghost scan: every local leaf is sent to each rank that
/// owns part of one of its 26 same-size neighbor regions (within the
/// tree or across one tree face); receivers keep what is
/// [`forest_flat_adjacent`]. Returns `(owner, leaf)` sorted by leaf.
/// The recursive ghost layer (`octree::ghost`), restricted to
/// [`forest_flat_adjacent`] entries, must equal this bitwise; what it
/// adds beyond are inter-tree edge/corner ghosts only, so on one tree it
/// must equal this entry for entry. Collective.
pub fn forest_ghosts_flat(forest: &Forest) -> Vec<(usize, ForestLeaf)> {
    let comm = forest.comm();
    let (p, me) = (comm.size(), comm.rank());
    let mut outgoing: Vec<Vec<ForestLeaf>> = vec![Vec::new(); p];
    for l in &forest.local {
        let mut sent = Vec::new();
        for (dx, dy, dz) in Octant::neighbor_directions() {
            let Some(n) = forest.neighbor(l, dx, dy, dz) else {
                continue;
            };
            let (rlo, rhi) = forest.owner_range(&n);
            for r in rlo..=rhi.min(p - 1) {
                if r != me && !sent.contains(&r) {
                    sent.push(r);
                    outgoing[r].push(*l);
                }
            }
        }
    }
    let incoming = comm.alltoallv(&outgoing);
    let mut ghosts: Vec<(usize, ForestLeaf)> = Vec::new();
    for (src, leaves) in incoming.iter().enumerate() {
        for l in leaves {
            if forest_flat_adjacent(forest, l) {
                ghosts.push((src, *l));
            }
        }
    }
    ghosts.sort_by_key(|a| a.1);
    ghosts.dedup();
    ghosts
}

/// `y = A x` on owned vectors, rebuilt as an allocating sweep: `to_local`
/// → gather / mat-vec / scatter over the local elements in element order
/// into fresh vectors → `reverse_accumulate`, with the same symmetric
/// Dirichlet elimination as `DistOp`. Its independence is the sweep —
/// no workspace, no kernel trait, no AVX2 build, runtime element sizes,
/// masking by index — not the transport: both sides ship ghosts through the one split-phase round,
/// which `check/tests/exchange_analytic.rs` pins to a closed form. Same
/// floating-point accumulation order, so `DistOp::apply_owned` must
/// agree bitwise. Collective.
pub fn dist_apply_reference(
    map: &DofMap,
    elem_matrix: &dyn Fn(usize, &mut [f64]),
    bc_mask: Option<&[bool]>,
    x: &[f64],
) -> Vec<f64> {
    let masked = |i: usize| bc_mask.is_some_and(|m| m[i]);
    let xw: Vec<f64> = (0..x.len())
        .map(|i| if masked(i) { 0.0 } else { x[i] })
        .collect();
    let xl = map.to_local(&xw);
    let mut yl = vec![0.0; map.n_local()];
    let dim = 8 * map.ncomp;
    let (mut mat, mut ue, mut re) = (vec![0.0; dim * dim], vec![0.0; dim], vec![0.0; dim]);
    for e in 0..map.mesh.elements.len() {
        elem_matrix(e, &mut mat);
        map.gather_element(e, &xl, &mut ue);
        for (r, row) in re.iter_mut().zip(mat.chunks_exact(dim)) {
            *r = row.iter().zip(&ue).fold(0.0, |acc, (a, u)| acc + a * u);
        }
        map.scatter_element(e, &re, &mut yl);
    }
    map.reverse_accumulate(&mut yl);
    (0..x.len())
        .map(|i| if masked(i) { x[i] } else { yl[i] })
        .collect()
}
