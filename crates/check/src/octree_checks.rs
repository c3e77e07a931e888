//! Invariant checkers for the distributed linear octree.
//!
//! Every checker is collective — all ranks of the tree's communicator
//! must enter it together — and the sequence of collective operations
//! inside never depends on the (possibly corrupted) data, so a broken
//! structure produces violations, not a hang.

use octree::balance::BalanceKind;
use octree::ops::find_containing;
use octree::parallel::DistOctree;
use octree::{Octant, ROOT_LEN};

use crate::{violation, Violation};

/// Leaf Morton ordering and non-overlap, within the rank and across rank
/// boundaries. Cost: O(local) + one `allgather` of two keys per rank.
///
/// Within a rank, a valid linear octree has strictly increasing,
/// disjoint descendant-key intervals `[key, last_descendant_key]`; any
/// out-of-order pair and any ancestor/descendant pair violates that.
/// Across ranks the same interval test is applied to the gathered
/// per-rank extremes. Cross-rank violations are attributed to the
/// later-indexed rank so each is reported exactly once.
pub fn morton_order(tree: &DistOctree) -> Vec<Violation> {
    const NAME: &str = "morton_order";
    let comm = tree.comm();
    let me = comm.rank();
    let mut out = Vec::new();
    for (i, w) in tree.local.windows(2).enumerate() {
        if w[0].last_descendant().key() >= w[1].key() {
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
    let first = tree.local.first().map(|o| o.key()).unwrap_or(u64::MAX);
    let last = tree
        .local
        .last()
        .map(|o| o.last_descendant().key())
        .unwrap_or(0);
    let extremes = comm.allgatherv(&[first, last]);
    let mut prev: Option<(usize, u64)> = None;
    for r in 0..comm.size() {
        let (f, l) = (extremes[2 * r], extremes[2 * r + 1]);
        if f == u64::MAX {
            continue; // empty rank
        }
        if let Some((pr, pl)) = prev {
            if f <= pl && r == me {
                out.push(violation(
                    NAME,
                    me,
                    format!(
                        "rank {r} first key {f:#x} not after rank {pr} last \
                         descendant key {pl:#x}: global order/overlap broken"
                    ),
                ));
            }
        }
        prev = Some((r, l.max(prev.map(|(_, pl)| pl).unwrap_or(0))));
    }
    out
}

/// Partition ownership completeness. Cost: O(local) + two collectives.
///
/// Checks that (1) every local leaf maps back to this rank under the
/// marker-based ownership search, (2) the replicated count metadata
/// matches the actual local count, and (3) the leaf regions exactly
/// tile the root domain (no gap, no double coverage by volume).
pub fn partition(tree: &DistOctree) -> Vec<Violation> {
    const NAME: &str = "partition";
    let comm = tree.comm();
    let me = comm.rank();
    let mut out = Vec::new();
    for o in &tree.local {
        let owner = tree.owner_of(o);
        if owner != me {
            out.push(violation(
                NAME,
                me,
                format!("local leaf {o:?} maps to owner {owner}, not to me"),
            ));
        }
    }
    if tree.rank_counts()[me] != tree.local.len() as u64 {
        out.push(violation(
            NAME,
            me,
            format!(
                "replicated count {} disagrees with actual local count {}",
                tree.rank_counts()[me],
                tree.local.len()
            ),
        ));
    }
    let total = comm.allreduce_sum(&[tree.local.len() as u64])[0];
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
    let vol: u128 = tree
        .local
        .iter()
        .map(|o| {
            let s = o.len() as u128;
            s * s * s
        })
        .sum();
    let limbs = comm.allgatherv(&[(vol >> 64) as u64, vol as u64]);
    let mut total_vol: u128 = 0;
    for c in limbs.chunks(2) {
        total_vol += ((c[0] as u128) << 64) | c[1] as u128;
    }
    let root_vol = (ROOT_LEN as u128).pow(3);
    if total_vol != root_vol && me == 0 {
        out.push(violation(
            NAME,
            me,
            format!(
                "leaf regions do not tile the domain: covered volume {total_vol} \
                 of {root_vol} (missing or duplicated leaves)"
            ),
        ));
    }
    out
}

/// 2:1 balance over the neighborhood of `kind`. Cost: O(collective) —
/// gathers the full global leaf union, so this is a test/debug checker.
///
/// Each rank checks its own leaves against the union: a leaf at level
/// `l` whose same-size neighbor region is covered by a leaf coarser
/// than `l − 1` is a violation. Too-*fine* neighbors are caught from
/// the fine side by the rank owning the fine leaf, so the sweep over
/// all ranks covers both directions.
pub fn balance21(tree: &DistOctree, kind: BalanceKind) -> Vec<Violation> {
    const NAME: &str = "balance21";
    let comm = tree.comm();
    let me = comm.rank();
    let mut union: Vec<Octant> = comm.allgatherv(&tree.local);
    union.sort();
    let dirs = kind.direction_slice();
    let mut out = Vec::new();
    for o in &tree.local {
        for &(dx, dy, dz) in dirs {
            let Some(n) = o.neighbor(dx, dy, dz) else {
                continue;
            };
            if let Some(i) = find_containing(&union, &n) {
                if union[i].level() + 1 < o.level() {
                    out.push(violation(
                        NAME,
                        me,
                        format!(
                            "2:1 violated: leaf {o:?} (level {}) touches {:?} \
                             (level {}) in direction ({dx},{dy},{dz})",
                            o.level(),
                            union[i],
                            union[i].level()
                        ),
                    ));
                }
            }
        }
    }
    out
}
