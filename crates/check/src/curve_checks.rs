//! Invariant checkers for the distributed tree, [`LeafCurve`]: the single
//! octree (`DistOctree`, a one-tree curve with [`NoSeam`]) and the forest
//! of octrees (`Forest`, the `(tree, Morton)` curve whose seam is the
//! connectivity's composed face transforms). Each checker is written
//! once over the tree: its local leaves, its curve metadata and, where
//! adjacency matters, the [`TreeSeam`] it owns.
//!
//! Every checker is collective — all ranks of the curve's communicator
//! must enter it together — and the sequence of collective operations
//! inside never depends on the (possibly corrupted) data, so a broken
//! structure produces violations, not a hang.
//!
//! [`NoSeam`]: octree::curve::NoSeam

use std::fmt::Debug;

use octree::balance::BalanceKind;
use octree::curve::{adjacent_regions, CurveKey, CurveLeaf, LeafCurve, TreeSeam};
use octree::ghost::{GhostEntry, GhostKind, DIRS};
use octree::ops::find_containing;
use octree::ROOT_LEN;

use crate::{violation, Violation};

/// Leaf curve order and non-overlap, within the rank and across rank
/// boundaries. Cost: O(local) + one allgather of two keys per rank.
///
/// Within a rank, a valid linear curve has strictly increasing, disjoint
/// intervals `[curve_key, curve_end]`; any out-of-order pair and any
/// ancestor/descendant pair violates that. Across ranks the same test is
/// applied to the gathered per-rank extremes. Cross-rank violations are
/// attributed to the later-indexed rank so each is reported exactly once.
pub fn morton_order<L, S>(tree: &LeafCurve<L, S>) -> Vec<Violation>
where
    L: CurveLeaf + Debug,
    S: TreeSeam<L>,
{
    const NAME: &str = "morton_order";
    let (comm, local) = (tree.comm(), &tree.local);
    let me = comm.rank();
    let mut out = Vec::new();
    for (i, w) in local.windows(2).enumerate() {
        if w[0].curve_end() >= w[1].curve_key() {
            out.push(violation(
                NAME,
                me,
                format!(
                    "local leaves {i} and {} out of order or overlapping: {:?} then {:?}",
                    i + 1,
                    w[0],
                    w[1]
                ),
            ));
        }
    }
    let w = L::Key::WORDS;
    let first = local.first().map_or(L::Key::MAX, L::curve_key);
    let last = local.last().map_or(L::Key::MAX, L::curve_end);
    let words = comm.allgatherv(&[&first.to_words()[..w], &last.to_words()[..w]].concat());
    let mut prev: Option<(usize, L::Key)> = None;
    for (r, rec) in words.chunks_exact(2 * w).enumerate() {
        let (f, l) = (L::Key::from_words(rec), L::Key::from_words(&rec[w..]));
        if f == L::Key::MAX {
            continue; // empty rank
        }
        if let Some((pr, pl)) = prev {
            if f <= pl && r == me {
                out.push(violation(
                    NAME,
                    me,
                    format!(
                        "rank {r} first curve key not after rank {pr} last \
                         descendant: global order/overlap broken"
                    ),
                ));
            }
        }
        prev = Some((r, prev.map_or(l, |(_, pl)| pl.max(l))));
    }
    out
}

/// Partition ownership completeness. Cost: O(local) + two collectives.
///
/// Checks that (1) every local leaf maps back to this rank under the
/// marker-based ownership search, (2) the replicated count metadata
/// matches the actual local count, and (3) the leaf regions exactly tile
/// every tree of the curve by volume (no gap, no double coverage).
pub fn partition<L, S>(tree: &LeafCurve<L, S>) -> Vec<Violation>
where
    L: CurveLeaf + Debug,
    S: TreeSeam<L>,
{
    const NAME: &str = "partition";
    let (comm, local) = (tree.comm(), &tree.local);
    let me = comm.rank();
    let mut out = Vec::new();
    for l in local {
        let owner = tree.owner_of(l);
        if owner != me {
            out.push(violation(
                NAME,
                me,
                format!("local leaf {l:?} maps to owner {owner}, not to me"),
            ));
        }
    }
    if tree.rank_counts()[me] != local.len() as u64 {
        out.push(violation(
            NAME,
            me,
            format!(
                "replicated count {} disagrees with actual local count {}",
                tree.rank_counts()[me],
                local.len()
            ),
        ));
    }
    let total = comm.allreduce_sum(&[local.len() as u64])[0];
    if total != tree.global_count() && me == 0 {
        out.push(violation(
            NAME,
            me,
            format!(
                "global count metadata {} disagrees with actual total {total}",
                tree.global_count()
            ),
        ));
    }
    // Exact volume completeness in u128 via a two-limb u64 transfer.
    let vol: u128 = local
        .iter()
        .map(|l| {
            let s = l.oct().len() as u128;
            s * s * s
        })
        .sum();
    let limbs = comm.allgatherv(&vol.to_words());
    let covered: u128 = limbs.chunks_exact(2).map(u128::from_words).sum();
    let want = (ROOT_LEN as u128).pow(3) * tree.ntrees() as u128;
    if covered != want && me == 0 {
        out.push(violation(
            NAME,
            me,
            format!(
                "leaf regions do not tile the trees: covered volume {covered} \
                 of {want} (missing or duplicated leaves)"
            ),
        ));
    }
    out
}

/// The adjacency class of the first of the [`DIRS`] (faces first) whose
/// same-size regions around my leaf `l` reach rank `j`'s curve range.
fn mirror_kind<L: CurveLeaf, S: TreeSeam<L>>(
    tree: &LeafCurve<L, S>,
    l: &L,
    j: usize,
    scratch: &mut Vec<L>,
) -> Option<GhostKind> {
    DIRS.iter()
        .position(|&d| {
            adjacent_regions(tree.seam(), l, d, scratch);
            scratch.iter().any(|n| {
                let (rlo, rhi) = tree.owner_range(n);
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
pub fn ghost_symmetry<L, S>(tree: &LeafCurve<L, S>, ghosts: &[GhostEntry<L>]) -> Vec<Violation>
where
    L: CurveLeaf + Debug,
    S: TreeSeam<L>,
{
    const NAME: &str = "ghost_symmetry";
    let (comm, local) = (tree.comm(), &tree.local);
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
            adjacent_regions(tree.seam(), l, dir, &mut scratch);
            for n in &scratch {
                let (rlo, rhi) = tree.owner_range(n);
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
                let detail = match mirror_kind(tree, &g, j, &mut scratch) {
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

/// 2:1 balance over the neighbourhood of `kind`, through the relation
/// production enforces: every same-size region of every direction,
/// across tree faces, edges and corners through the seam. Cost:
/// O(collective) — gathers the full global leaf union, so this is a
/// test/debug checker.
///
/// Each rank checks its own leaves against the union: a leaf at level
/// `l` whose adjacent region is covered by a leaf coarser than `l − 1` is
/// a violation. Too-*fine* neighbours are caught from the fine side by
/// the rank owning the fine leaf, so the sweep over all ranks covers both
/// directions.
pub fn balance21<L, S>(tree: &LeafCurve<L, S>, kind: BalanceKind) -> Vec<Violation>
where
    L: CurveLeaf + Debug,
    S: TreeSeam<L>,
{
    const NAME: &str = "balance21";
    let (comm, local) = (tree.comm(), &tree.local);
    let me = comm.rank();
    let mut union: Vec<L> = comm.allgatherv(local);
    union.sort();
    let mut out = Vec::new();
    let mut regions = Vec::new();
    for l in local {
        for &d in kind.direction_slice() {
            adjacent_regions(tree.seam(), l, d, &mut regions);
            for i in regions.iter().filter_map(|n| find_containing(&union, n)) {
                if union[i].oct().level() + 1 < l.oct().level() {
                    out.push(violation(
                        NAME,
                        me,
                        format!(
                            "2:1 violated: leaf {l:?} (level {}) touches {:?} \
                             (level {}) in direction {d:?}",
                            l.oct().level(),
                            union[i],
                            union[i].oct().level()
                        ),
                    ));
                }
            }
        }
    }
    out
}
