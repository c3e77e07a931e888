//! Invariant checkers for the distributed forest of octrees.
//!
//! Same contract as [`crate::octree_checks`]: collective, read-only,
//! data-independent collective schedule. Leaf identity lives in the
//! `(tree, Morton key)` curve space, and adjacency follows the
//! connectivity's inter-tree face transforms via [`Forest::neighbor`].

use forest::{Forest, ForestLeaf, GhostKind, GhostLayer, DIRS};
use octree::balance::BalanceKind;
use octree::curve::{CurveKey, CurveLeaf};
use octree::ops::find_containing;
use octree::ROOT_LEN;

use crate::{violation, Violation};

/// Leaf curve ordering and non-overlap within and across trees and
/// ranks. Cost: O(local) + one allgather of four limbs per rank.
pub fn morton_order(forest: &Forest) -> Vec<Violation> {
    const NAME: &str = "morton_order";
    let comm = forest.comm();
    let me = comm.rank();
    let mut out = Vec::new();
    for (i, w) in forest.local.windows(2).enumerate() {
        if w[0].curve_end() >= w[1].curve_key() {
            out.push(violation(
                NAME,
                me,
                format!(
                    "local forest leaves {i} and {} out of order or overlapping: \
                     {:?} then {:?}",
                    i + 1,
                    w[0],
                    w[1]
                ),
            ));
        }
    }
    let first = forest.local.first().map_or(u128::MAX, |l| l.curve_key());
    let last = forest.local.last().map_or(0, |l| l.curve_end());
    let limbs = comm.allgatherv(&[first.to_words(), last.to_words()].concat());
    let mut prev: Option<(usize, u128)> = None;
    for (r, limbs) in limbs.chunks_exact(4).enumerate() {
        let (f, l) = (u128::from_words(limbs), u128::from_words(&limbs[2..]));
        if f == u128::MAX {
            continue;
        }
        if let Some((pr, pl)) = prev {
            if f <= pl && r == me {
                out.push(violation(
                    NAME,
                    me,
                    format!(
                        "rank {r} first curve key not after rank {pr} last: \
                         global forest order/overlap broken"
                    ),
                ));
            }
        }
        prev = Some((r, l.max(prev.map(|(_, pl)| pl).unwrap_or(0))));
    }
    out
}

/// Partition ownership completeness on the forest curve. Cost: O(local)
/// + two collectives.
///
/// Mirrors [`crate::octree_checks::partition`]: (1) every local leaf
/// maps back to this rank under the marker-based ownership search,
/// (2) the replicated count metadata matches the actual local count,
/// (3) the leaf regions exactly tile all trees of the connectivity by
/// volume (no gap, no double coverage).
pub fn partition(forest: &Forest) -> Vec<Violation> {
    const NAME: &str = "partition";
    let comm = forest.comm();
    let me = comm.rank();
    let mut out = Vec::new();
    for l in &forest.local {
        let owner = forest.owner_of(l);
        if owner != me {
            out.push(violation(
                NAME,
                me,
                format!("local forest leaf {l:?} maps to owner {owner}, not to me"),
            ));
        }
    }
    if forest.rank_counts()[me] != forest.local.len() as u64 {
        out.push(violation(
            NAME,
            me,
            format!(
                "replicated count {} disagrees with actual local count {}",
                forest.rank_counts()[me],
                forest.local.len()
            ),
        ));
    }
    let total = comm.allreduce_sum(&[forest.local.len() as u64])[0];
    if total != forest.global_count() && me == 0 {
        out.push(violation(
            NAME,
            me,
            format!(
                "global count metadata {} disagrees with actual total {total}",
                forest.global_count()
            ),
        ));
    }
    // Exact volume completeness over all trees in u128 via a two-limb
    // u64 transfer.
    let vol: u128 = forest
        .local
        .iter()
        .map(|l| {
            let s = l.oct.len() as u128;
            s * s * s
        })
        .sum();
    let limbs = comm.allgatherv(&[(vol >> 64) as u64, vol as u64]);
    let mut total_vol: u128 = 0;
    for c in limbs.chunks(2) {
        total_vol += ((c[0] as u128) << 64) | c[1] as u128;
    }
    let want = (ROOT_LEN as u128).pow(3) * forest.connectivity().num_trees() as u128;
    if total_vol != want && me == 0 {
        out.push(violation(
            NAME,
            me,
            format!(
                "forest leaf regions do not tile the trees: covered volume \
                 {total_vol} of {want} (missing or duplicated leaves)"
            ),
        ));
    }
    out
}

/// Wire form of one ghost claim shipped back to its recorded owner.
#[derive(Clone, Copy)]
#[repr(C)]
struct GhostClaim {
    leaf: ForestLeaf,
    /// 0 = face, 1 = edge, 2 = corner (the `GhostKind` discriminant);
    /// as wide as the leaf's alignment, so the record has no tail padding.
    kind: u64,
}

const _: () = assert!(
    std::mem::size_of::<GhostClaim>()
        == std::mem::size_of::<ForestLeaf>() + std::mem::size_of::<u64>()
);

// SAFETY: repr(C) of a padding-free `Pod` leaf and a u64, with no padding
// (asserted above).
unsafe impl scomm::Pod for GhostClaim {}

fn kind_code(k: GhostKind) -> u64 {
    match k {
        GhostKind::Face => 0,
        GhostKind::Edge => 1,
        GhostKind::Corner => 2,
    }
}

/// Minimal-codimension adjacency class of leaf `l` (owned by this rank)
/// with respect to peer rank `j`, through the same composed-transform
/// neighborhoods the recursive ghost constructor uses: `Some(kind)` iff
/// some region of some direction's neighborhood intersects `j`'s curve
/// range, faces probed first.
fn mirror_kind(
    forest: &Forest,
    l: &ForestLeaf,
    j: usize,
    scratch: &mut Vec<ForestLeaf>,
) -> Option<u64> {
    for (d, &(dx, dy, dz)) in DIRS.iter().enumerate() {
        forest.neighbors_full(l, dx, dy, dz, scratch);
        let hit = scratch.iter().any(|n| {
            let (rlo, rhi) = forest.owner_range(n);
            rlo <= j && j <= rhi
        });
        if hit {
            return Some(if d < 6 {
                0
            } else if d < 18 {
                1
            } else {
                2
            });
        }
    }
    None
}

/// Ghost-layer symmetry for the recursive face/edge/corner constructor:
/// rank i's ghost entries of rank j — leaf, owner, *and* adjacency kind
/// — must be exactly the mirror list rank j independently recomputes
/// from its own leaves and the partition markers. Extends the PR 2
/// octree checker with kind awareness: a face ghost misclassified as an
/// edge ghost is a violation even though the leaf sets agree.
/// Cost: O(boundary · 26) + one alltoallv.
pub fn ghost_symmetry(forest: &Forest, ghosts: &GhostLayer) -> Vec<Violation> {
    const NAME: &str = "ghost_symmetry";
    let comm = forest.comm();
    let me = comm.rank();
    let p = comm.size();
    let mut out = Vec::new();

    let mut outgoing: Vec<Vec<GhostClaim>> = vec![Vec::new(); p];
    for e in &ghosts.entries {
        let owner = e.owner as usize;
        if owner >= p || owner == me {
            out.push(violation(
                NAME,
                me,
                format!("ghost {:?} recorded with invalid owner {owner}", e.leaf),
            ));
            continue;
        }
        outgoing[owner].push(GhostClaim {
            leaf: e.leaf,
            kind: kind_code(e.kind),
        });
    }
    let claimed = comm.alltoallv(&outgoing);

    // Expected mirror per peer: for each of my leaves, the minimal
    // codimension over the composed 26-direction neighborhoods whose
    // owner range includes that peer.
    let mut scratch: Vec<ForestLeaf> = Vec::new();
    let mut expected: Vec<Vec<(ForestLeaf, u64)>> = vec![Vec::new(); p];
    for l in &forest.local {
        // A peer's kind is its *first* hit over the dir scan; collect
        // per-peer minima in one pass.
        let mut seen: Vec<(usize, u64)> = Vec::new();
        for (d, &(dx, dy, dz)) in DIRS.iter().enumerate() {
            forest.neighbors_full(l, dx, dy, dz, &mut scratch);
            let code = if d < 6 {
                0
            } else if d < 18 {
                1
            } else {
                2
            };
            for n in &scratch {
                let (rlo, rhi) = forest.owner_range(n);
                for r in rlo..=rhi.min(p - 1) {
                    if r != me && !seen.iter().any(|&(s, _)| s == r) {
                        seen.push((r, code));
                        expected[r].push((*l, code));
                    }
                }
            }
        }
    }

    for j in 0..p {
        if j == me {
            continue;
        }
        let mut have: Vec<(ForestLeaf, u64)> =
            claimed[j].iter().map(|c| (c.leaf, c.kind)).collect();
        have.sort();
        have.dedup();
        let mut want = expected[j].clone();
        want.sort();
        for &(g, kind) in &have {
            if forest.local.binary_search(&g).is_err() {
                out.push(violation(
                    NAME,
                    me,
                    format!("rank {j} ghosts {g:?}, which is not a leaf I own"),
                ));
            } else if want.binary_search(&(g, kind)).is_err() {
                // Distinguish wrong-kind from spurious for the report.
                match mirror_kind(forest, &g, j, &mut scratch) {
                    Some(k) => out.push(violation(
                        NAME,
                        me,
                        format!(
                            "rank {j} holds ghost {g:?} with kind code {kind}, \
                             but its adjacency class is {k}"
                        ),
                    )),
                    None => out.push(violation(
                        NAME,
                        me,
                        format!("rank {j} holds spurious ghost {g:?} (not adjacent to its range)"),
                    )),
                }
            }
        }
        for &(g, kind) in &want {
            if have.binary_search(&(g, kind)).is_err() && !have.iter().any(|&(h, _)| h == g) {
                out.push(violation(
                    NAME,
                    me,
                    format!(
                        "rank {j} is missing the mirror of my boundary leaf {g:?} \
                         (expected kind code {kind})"
                    ),
                ));
            }
        }
    }
    out
}

/// 2:1 balance across the forest, including inter-tree face transforms.
/// Cost: O(collective) — gathers the global leaf union.
pub fn balance21(forest: &Forest, kind: BalanceKind) -> Vec<Violation> {
    const NAME: &str = "balance21";
    let comm = forest.comm();
    let me = comm.rank();
    let mut union: Vec<ForestLeaf> = comm.allgatherv(&forest.local);
    union.sort();
    let dirs = kind.direction_slice();
    let mut out = Vec::new();
    for l in &forest.local {
        for &(dx, dy, dz) in dirs {
            let Some(n) = forest.neighbor(l, dx, dy, dz) else {
                continue;
            };
            if let Some(i) = find_containing(&union, &n) {
                if union[i].oct.level() + 1 < l.oct.level() {
                    out.push(violation(
                        NAME,
                        me,
                        format!(
                            "2:1 violated across the forest: leaf {l:?} (level {}) \
                             touches {:?} (level {}) in direction ({dx},{dy},{dz})",
                            l.oct.level(),
                            union[i],
                            union[i].oct.level()
                        ),
                    ));
                }
            }
        }
    }
    out
}
