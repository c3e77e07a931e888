//! Invariant checkers for the extracted distributed FEM mesh:
//! hanging-node constraints and the global dof numbering.
//!
//! Same contract as [`crate::curve_checks`]: collective, read-only,
//! data-independent collective schedule.

use std::collections::HashMap;

use mesh::extract::{node_coords, Corner, Mesh};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};

use crate::oracles::sorted_corners;
use crate::{violation, Violation};

/// Owner rank of the node at `key`: the owner of the Morton-smallest
/// finest-level cell incident to the node — the same arbitration rule
/// `extract_mesh` uses, recomputed here from the partition markers.
fn node_owner(tree: &DistOctree, key: u64) -> usize {
    let (px, py, pz) = node_coords(key);
    let lim = ROOT_LEN as i64;
    let mut smallest: Option<Octant> = None;
    for dz in 0..2i64 {
        for dy in 0..2i64 {
            for dx in 0..2i64 {
                let (x, y, z) = (px as i64 - dx, py as i64 - dy, pz as i64 - dz);
                if x >= 0 && y >= 0 && z >= 0 && x < lim && y < lim && z < lim {
                    let probe = Octant::new(x as u32, y as u32, z as u32, MAX_LEVEL);
                    smallest = match smallest {
                        Some(cur) if cur <= probe => Some(cur),
                        _ => Some(probe),
                    };
                }
            }
        }
    }
    tree.owner_of(&smallest.expect("node has at least one incident cell"))
}

/// Map a local dof index to its global id.
fn gid_of(mesh: &Mesh, dof: usize) -> u64 {
    if dof < mesh.n_owned {
        mesh.global_offset + dof as u64
    } else {
        mesh.ghost_gids[dof - mesh.n_owned]
    }
}

/// Wire record of one constraint term, shipped to the node's arbiter.
#[derive(Clone, Copy)]
#[repr(C)]
struct ResWire {
    key: u64,
    gid: u64,
    weight: f64,
}
// SAFETY: repr(C), all fields plain 8-byte scalars, no padding.
unsafe impl scomm::Pod for ResWire {}

/// Hanging-node constraint row-sum and cross-rank consistency.
/// Cost: O(local log local) to sort the element corners into nodes +
/// one alltoallv of the interface resolutions (O(shared nodes)).
///
/// A node is read through its first corner in [`Mesh::corner_dofs`].
/// Structurally, every constrained node must name a row that combines
/// 2–8 masters with positive weights summing to 1 (a face node has 4, an
/// edge node 2; chain closure can merge more), and every dof and row
/// reference must be in range. For consistency, each rank ships its
/// resolution of every node — in global-id space — to the node's
/// arbiter (its owner by the smallest-incident-cell rule); the arbiter
/// verifies that all ranks seeing a node resolved it to the identical
/// dof/weight combination.
pub fn constraints(tree: &DistOctree, mesh: &Mesh) -> Vec<Violation> {
    const NAME: &str = "constraints";
    let comm = tree.comm();
    let me = comm.rank();
    let p = comm.size();
    let n_local = mesh.n_owned + mesh.n_ghost;
    let mut out = Vec::new();

    // ---- Local structural checks --------------------------------------
    // Each local node's key and its first corner, in key order.
    let corners = sorted_corners(&mesh.elements);
    let nodes: Vec<(u64, Corner)> = corners
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run[0].1 as usize))
        .map(|(key, ec)| (key, mesh.corner(ec / 8, ec % 8)))
        .collect();
    for &(key, first) in &nodes {
        match first {
            Corner::Dof(d) => {
                if d >= n_local {
                    out.push(violation(
                        NAME,
                        me,
                        format!("node {key:#x}: dof index {d} out of range (n_local {n_local})"),
                    ));
                }
            }
            Corner::Hanging(r) if r >= mesh.n_hanging() => out.push(violation(
                NAME,
                me,
                format!("node {key:#x}: constraint row {r} out of range"),
            )),
            Corner::Hanging(r) => {
                let terms = mesh.constraint_row(r);
                if terms.len() < 2 || terms.len() > 8 {
                    out.push(violation(
                        NAME,
                        me,
                        format!(
                            "node {key:#x}: {} constraint terms (expected 2..=8)",
                            terms.len()
                        ),
                    ));
                }
                let mut sum = 0.0;
                for &(d, w) in terms {
                    if d >= n_local {
                        out.push(violation(
                            NAME,
                            me,
                            format!("node {key:#x}: master dof {d} out of range"),
                        ));
                    }
                    if !(w > 0.0 && w <= 1.0) {
                        out.push(violation(
                            NAME,
                            me,
                            format!("node {key:#x}: constraint weight {w} outside (0, 1]"),
                        ));
                    }
                    sum += w;
                }
                if (sum - 1.0).abs() > 1e-9 {
                    out.push(violation(
                        NAME,
                        me,
                        format!("node {key:#x}: constraint row sum {sum} != 1"),
                    ));
                }
            }
        }
    }

    // ---- Cross-rank consistency ---------------------------------------
    // Resolution of each node in gid space, sorted by gid.
    let resolve = |first: Corner| -> Vec<(u64, f64)> {
        let mut terms: Vec<(u64, f64)> = match first {
            Corner::Dof(d) if d < n_local => vec![(gid_of(mesh, d), 1.0)],
            Corner::Hanging(r) if r < mesh.n_hanging() => mesh
                .constraint_row(r)
                .iter()
                .filter(|&&(d, _)| d < n_local)
                .map(|&(d, w)| (gid_of(mesh, d), w))
                .collect(),
            _ => Vec::new(), // out of range, reported above
        };
        terms.sort_by_key(|t| t.0);
        terms
    };
    let mut outgoing: Vec<Vec<ResWire>> = vec![Vec::new(); p];
    for &(key, first) in &nodes {
        let arbiter = node_owner(tree, key);
        for (gid, weight) in resolve(first) {
            outgoing[arbiter].push(ResWire { key, gid, weight });
        }
    }
    let incoming = comm.alltoallv(&outgoing);
    // Group each source's records by node key (keys are unique per rank).
    let mut by_key: HashMap<u64, Vec<(usize, Vec<(u64, f64)>)>> = HashMap::new();
    for (src, records) in incoming.iter().enumerate() {
        let mut per_key: HashMap<u64, Vec<(u64, f64)>> = HashMap::new();
        for r in records {
            per_key.entry(r.key).or_default().push((r.gid, r.weight));
        }
        for (key, terms) in per_key {
            by_key.entry(key).or_default().push((src, terms));
        }
    }
    for (key, mut sources) in by_key {
        sources.sort_by_key(|s| s.0);
        let (r0, ref base) = sources[0];
        for (r1, terms) in &sources[1..] {
            let same = base.len() == terms.len()
                && base
                    .iter()
                    .zip(terms)
                    .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < 1e-9);
            if !same {
                out.push(violation(
                    NAME,
                    me,
                    format!(
                        "node {key:#x}: ranks {r0} and {r1} disagree on its \
                         resolution ({base:?} vs {terms:?})"
                    ),
                ));
            }
        }
    }
    out
}

/// Global dof numbering and exchange-pattern symmetry.
/// Cost: O(local) + three O(P) collectives + one count alltoallv.
///
/// Verifies that the owned count metadata matches an independent
/// exscan/allreduce, that owned node keys are sorted, deduplicated, and
/// owned by this rank under the arbitration rule, that ghost gids are
/// sorted, foreign, in range, and grouped consistently with
/// `recv_counts`, and that the exchange pattern is symmetric: what rank
/// i expects to receive from rank j is exactly what j plans to send.
pub fn dof_numbering(tree: &DistOctree, mesh: &Mesh) -> Vec<Violation> {
    const NAME: &str = "dof_numbering";
    let comm = tree.comm();
    let me = comm.rank();
    let p = comm.size();
    let mut out = Vec::new();

    let n_owned = mesh.n_owned as u64;
    let total = comm.allreduce_sum(&[n_owned])[0];
    if mesh.n_global != total {
        out.push(violation(
            NAME,
            me,
            format!("n_global {} != sum of owned counts {total}", mesh.n_global),
        ));
    }
    let offset = comm.exscan_sum(n_owned);
    if mesh.global_offset != offset {
        out.push(violation(
            NAME,
            me,
            format!(
                "global_offset {} != exclusive prefix sum {offset}",
                mesh.global_offset
            ),
        ));
    }

    // Owned keys: sorted, unique, arbitrated to me.
    let owned_keys = &mesh.dof_keys[..mesh.n_owned];
    for w in owned_keys.windows(2) {
        if w[0] >= w[1] {
            out.push(violation(
                NAME,
                me,
                format!(
                    "owned dof keys not strictly sorted: {:#x} then {:#x}",
                    w[0], w[1]
                ),
            ));
        }
    }
    for &k in owned_keys {
        let owner = node_owner(tree, k);
        if owner != me {
            out.push(violation(
                NAME,
                me,
                format!("owned dof {k:#x} is arbitrated to rank {owner}, not to me"),
            ));
        }
    }

    // Ghost gids: sorted, foreign, in range; counts grouped per owner.
    if mesh.ghost_gids.len() != mesh.n_ghost {
        out.push(violation(
            NAME,
            me,
            format!(
                "ghost_gids length {} != n_ghost {}",
                mesh.ghost_gids.len(),
                mesh.n_ghost
            ),
        ));
    }
    for w in mesh.ghost_gids.windows(2) {
        if w[0] >= w[1] {
            out.push(violation(
                NAME,
                me,
                format!("ghost gids not strictly sorted: {} then {}", w[0], w[1]),
            ));
        }
    }
    let offsets = comm.allgatherv(&[mesh.global_offset, n_owned]);
    for &g in &mesh.ghost_gids {
        if g >= mesh.global_offset && g < mesh.global_offset + n_owned {
            out.push(violation(
                NAME,
                me,
                format!("ghost gid {g} lies in my own range"),
            ));
        }
        if g >= mesh.n_global {
            out.push(violation(
                NAME,
                me,
                format!("ghost gid {g} >= n_global {}", mesh.n_global),
            ));
        }
    }
    let mut per_owner = vec![0usize; p];
    for &g in &mesh.ghost_gids {
        // Owner of gid g by the gathered (offset, count) table.
        let mut owner = usize::MAX;
        for r in 0..p {
            let (off, cnt) = (offsets[2 * r], offsets[2 * r + 1]);
            if g >= off && g < off + cnt {
                owner = r;
                break;
            }
        }
        if owner == usize::MAX {
            out.push(violation(
                NAME,
                me,
                format!("ghost gid {g} belongs to no rank's owned range"),
            ));
        } else {
            per_owner[owner] += 1;
        }
    }
    let halo = &mesh.exchange;
    if halo.recv_counts != per_owner {
        let got = &halo.recv_counts;
        let msg = format!("recv_counts {got:?} but ghost gids fall {per_owner:?} per rank");
        out.push(violation(NAME, me, msg));
    }

    // The flat send list: its counts cover it; each rank's rows are
    // owned and distinct.
    if halo.send_counts.iter().sum::<usize>() != halo.send.len() {
        let n = halo.send.len();
        let msg = format!(
            "send_counts {:?} do not cover {n} send rows",
            halo.send_counts
        );
        out.push(violation(NAME, me, msg));
    } else {
        let mut rest = &halo.send[..];
        for (r, &count) in halo.send_counts.iter().enumerate() {
            let mut rows = rest[..count].to_vec();
            rest = &rest[count..];
            rows.sort_unstable();
            rows.dedup();
            if rows.len() != count || rows.last().is_some_and(|&i| i as usize >= mesh.n_owned) {
                let msg = format!("send rows for rank {r} repeat a dof or name a non-owned one");
                out.push(violation(NAME, me, msg));
            }
        }
    }

    // Exchange symmetry: ship "I expect recv_counts[r] values from you"
    // to each peer; each peer compares against its planned send length.
    let expect: Vec<Vec<u64>> = (0..p)
        .map(|r| vec![halo.recv_counts.get(r).copied().unwrap_or(0) as u64])
        .collect();
    let expects = comm.alltoallv(&expect);
    for (src, e) in expects.iter().enumerate() {
        if src == me {
            continue;
        }
        let planned = halo.send_counts.get(src).copied().unwrap_or(0) as u64;
        if e[0] != planned {
            out.push(violation(
                NAME,
                me,
                format!(
                    "exchange asymmetry: rank {src} expects {} values from me \
                     but I plan to send {planned}",
                    e[0]
                ),
            ));
        }
    }
    out
}
