//! Invariant checkers for the distributed forest of octrees.
//!
//! Same contract as [`crate::octree_checks`]: collective, read-only,
//! data-independent collective schedule. Leaf identity lives in the
//! `(tree, Morton key)` curve space, and adjacency follows the
//! connectivity's composed inter-tree crossings
//! ([`Forest::neighbors_full`]). The ghost-symmetry checker serves both
//! tree types: a single octree is the one-tree case, with no seam.

use std::fmt::Debug;

use forest::{Forest, ForestLeaf, GhostEntry, GhostKind, DIRS};
use octree::balance::BalanceKind;
use octree::curve::{adjacent_regions, CurveKey, CurveLeaf, LeafCurve, TreeSeam};
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

/// The adjacency class of the first of the [`DIRS`] (faces first) whose
/// same-size regions around my leaf `l` reach rank `j`'s curve range.
fn mirror_kind<L: CurveLeaf, S: TreeSeam<L>>(
    curve: &LeafCurve<L>,
    seam: &S,
    l: &L,
    j: usize,
    scratch: &mut Vec<L>,
) -> Option<GhostKind> {
    DIRS.iter()
        .position(|&d| {
            adjacent_regions(seam, l, d, scratch);
            scratch.iter().any(|n| {
                let (rlo, rhi) = curve.owner_range(n);
                rlo <= j && j <= rhi
            })
        })
        .map(GhostKind::of_dir)
}

/// Ghost-layer symmetry, for either tree type: rank i's ghost entries of
/// rank j — leaf, owner, *and* adjacency kind — must be exactly the
/// mirror list rank j independently recomputes from its own leaves, the
/// partition markers and the tree seam (each leaf against the 26
/// directions, one at a time). A face ghost misclassified as an edge
/// ghost is a violation even though the leaf sets agree. Cost:
/// O(boundary · 26) + two alltoallvs.
pub fn ghost_symmetry<L, S>(
    curve: &LeafCurve<L>,
    local: &[L],
    seam: &S,
    ghosts: &[GhostEntry<L>],
) -> Vec<Violation>
where
    L: CurveLeaf + Debug,
    S: TreeSeam<L>,
{
    const NAME: &str = "ghost_symmetry";
    let comm = curve.comm();
    let (p, me) = (comm.size(), comm.rank());
    let mut out = Vec::new();

    // Each claim goes back to its recorded owner: the leaf, and its kind
    // in a second exchange of the same shape.
    let mut leaves: Vec<Vec<L>> = vec![Vec::new(); p];
    let mut kinds: Vec<Vec<u64>> = vec![Vec::new(); p];
    for e in ghosts {
        let owner = e.owner as usize;
        if owner >= p || owner == me {
            out.push(violation(
                NAME,
                me,
                format!("ghost {:?} recorded with invalid owner {owner}", e.leaf),
            ));
            continue;
        }
        leaves[owner].push(e.leaf);
        kinds[owner].push(e.kind as u64);
    }
    let (leaves, kinds) = (comm.alltoallv(&leaves), comm.alltoallv(&kinds));

    // Expected mirror per peer: for each of my leaves, the kind of the
    // first direction whose regions reach that peer.
    let mut scratch = Vec::new();
    let mut expected: Vec<Vec<(L, u64)>> = vec![Vec::new(); p];
    for l in local {
        let mut seen: Vec<usize> = Vec::new();
        for (d, &dir) in DIRS.iter().enumerate() {
            adjacent_regions(seam, l, dir, &mut scratch);
            for n in &scratch {
                let (rlo, rhi) = curve.owner_range(n);
                for r in rlo..=rhi.min(p - 1) {
                    if r != me && !seen.contains(&r) {
                        seen.push(r);
                        expected[r].push((*l, GhostKind::of_dir(d) as u64));
                    }
                }
            }
        }
    }

    for j in (0..p).filter(|&j| j != me) {
        let mut have: Vec<(L, u64)> = leaves[j]
            .iter()
            .copied()
            .zip(kinds[j].iter().copied())
            .collect();
        have.sort();
        have.dedup();
        let want = &mut expected[j];
        want.sort();
        for &(g, kind) in &have {
            if local.binary_search(&g).is_err() {
                out.push(violation(
                    NAME,
                    me,
                    format!("rank {j} ghosts {g:?}, which is not a leaf I own"),
                ));
            } else if want.binary_search(&(g, kind)).is_err() {
                // Distinguish wrong-kind from spurious for the report.
                let detail = match mirror_kind(curve, seam, &g, j, &mut scratch) {
                    Some(k) => format!(
                        "rank {j} holds ghost {g:?} with kind code {kind}, \
                         but its adjacency class is {k:?}"
                    ),
                    None => {
                        format!("rank {j} holds spurious ghost {g:?} (not adjacent to its range)")
                    }
                };
                out.push(violation(NAME, me, detail));
            }
        }
        for &(g, kind) in want.iter() {
            if !have.iter().any(|&(h, _)| h == g) {
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

/// 2:1 balance across the forest over the relation production enforces:
/// every same-size region of every direction, across tree faces, edges
/// and corners through composed face transforms. Cost: O(collective) —
/// gathers the global leaf union.
pub fn balance21(forest: &Forest, kind: BalanceKind) -> Vec<Violation> {
    const NAME: &str = "balance21";
    let comm = forest.comm();
    let me = comm.rank();
    let mut union: Vec<ForestLeaf> = comm.allgatherv(&forest.local);
    union.sort();
    let dirs = kind.direction_slice();
    let mut out = Vec::new();
    let mut regions = Vec::new();
    for l in &forest.local {
        for &(dx, dy, dz) in dirs {
            forest.neighbors_full(l, dx, dy, dz, &mut regions);
            for i in regions.iter().filter_map(|n| find_containing(&union, n)) {
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
