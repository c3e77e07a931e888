//! 2:1 balance (`BalanceTree`): enforce that neighboring leaves differ by
//! at most one refinement level.
//!
//! The paper balances across faces and edges ("edge lengths of face- and
//! edge-neighboring elements may differ by at most a factor of two"); we
//! support face, edge, and full corner balance via [`BalanceKind`] and use
//! the full 26-neighbor balance by default, which implies the weaker two
//! and keeps hanging-node constraints local to faces and edges.
//!
//! Balance only ever *refines* (adds leaves), and the minimal balanced
//! refinement of a complete linear octree is unique.
//! [`balance_local_kind`] computes it by recursive sorted-merge *seed-set
//! propagation*. Every input leaf seeds a demand "this region holds
//! leaves at level ≥ k"; demands propagate coarser one level at a time
//! through the closure rule `w ∈ D at level k ⟹ parent(w).neighbor(d) ∈ D
//! at level k−1` for every direction `d` of the balance kind. The output
//! is rebuilt in one pass by recursively splitting each input leaf
//! wherever a strictly finer demand lands inside it (binary-searched
//! ranges over the sorted demand array). No per-octant neighbor probes
//! against the leaf array, no fixpoint sweeps over the whole tree.
//!
//! Uniqueness means any other correct algorithm must agree *bitwise*;
//! `check::oracles::balance_local_naive_kind` (one violator at a time,
//! full rescan) is that other algorithm, compared by `check`'s oracle
//! tests and every `check::fuzz_amr` cycle.

use crate::curve::CurveLeaf;
use crate::morton::{raw_keys, Octant, ALL_DIRS, LEVEL_MASK, MAX_LEVEL};
use crate::ops::find_containing;
use crate::simd;

/// Which neighbor set participates in the 2:1 condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceKind {
    /// 6 face neighbors.
    Face,
    /// 6 face + 12 edge neighbors (the paper's condition).
    FaceEdge,
    /// Full 26-neighborhood (faces, edges, corners).
    Full,
}

const fn filter_dirs<const N: usize>(max_order: i32) -> [(i32, i32, i32); N] {
    let mut out = [(0, 0, 0); N];
    let mut n = 0;
    let mut i = 0;
    while i < 26 {
        let (dx, dy, dz) = ALL_DIRS[i];
        if dx.abs() + dy.abs() + dz.abs() <= max_order {
            out[n] = ALL_DIRS[i];
            n += 1;
        }
        i += 1;
    }
    out
}

const FACE_DIRS: [(i32, i32, i32); 6] = filter_dirs::<6>(1);
const FACE_EDGE_DIRS: [(i32, i32, i32); 18] = filter_dirs::<18>(2);

impl BalanceKind {
    /// The displacement triples of this neighbor set, as a static slice
    /// (allocation-free; in [`Octant::neighbor_directions`] order).
    pub fn direction_slice(self) -> &'static [(i32, i32, i32)] {
        match self {
            BalanceKind::Face => &FACE_DIRS,
            BalanceKind::FaceEdge => &FACE_EDGE_DIRS,
            BalanceKind::Full => &ALL_DIRS,
        }
    }
}

/// Grow-only scratch buffers for [`balance_local_kind_ws`]. Reusing one
/// workspace across adapt cycles makes warm balance calls allocation-free
/// once the buffers have reached their steady-state capacity.
#[derive(Default)]
pub struct BalanceWorkspace {
    /// Per-level demand buckets (index = level).
    buckets: Vec<Vec<Octant>>,
    /// Merged, sorted demand set.
    demands: Vec<Octant>,
    /// Output leaf buffer; swapped with the caller's vector on return.
    out: Vec<Octant>,
    /// Parent-deduplicated demand anchors of the current level (batch
    /// input to the neighbor kernel).
    parents: Vec<Octant>,
    /// Neighbor-kernel output buffer (one entry per parent, per direction).
    nbrs: Vec<Octant>,
    /// Packed-key needles for the batched demand range queries.
    needles: Vec<u64>,
    /// Per-leaf demand range starts (batched `upper_bounds_into` output).
    q_lo: Vec<u32>,
    /// Per-leaf demand range ends.
    q_hi: Vec<u32>,
}

impl BalanceWorkspace {
    pub fn new() -> BalanceWorkspace {
        BalanceWorkspace::default()
    }

    /// Total heap capacity currently held, in bytes. The `amr.alloc_bytes`
    /// counter reports growth of this value across a warm adapt cycle.
    pub fn capacity_bytes(&self) -> u64 {
        let oct = std::mem::size_of::<Octant>() as u64;
        let mut b = (self.demands.capacity()
            + self.out.capacity()
            + self.parents.capacity()
            + self.nbrs.capacity()) as u64
            * oct;
        b += self.needles.capacity() as u64 * 8;
        b += (self.q_lo.capacity() + self.q_hi.capacity()) as u64 * 4;
        b += (self.buckets.capacity() * std::mem::size_of::<Vec<Octant>>()) as u64;
        for v in &self.buckets {
            b += v.capacity() as u64 * oct;
        }
        b
    }
}

/// Recursively rebuild the subtree of `v` (in `leaf`'s tree): split
/// wherever a demand in `demands` (all strict descendants of `v`, sorted)
/// forces finer leaves.
fn emit_completed<L: CurveLeaf>(leaf: &L, v: Octant, demands: &[Octant], out: &mut Vec<L>) {
    if demands.is_empty() {
        out.push(leaf.with_oct(v));
        return;
    }
    debug_assert!(v.level() < MAX_LEVEL, "demand below MAX_LEVEL leaf");
    let mut rest = demands;
    for i in 0..8u8 {
        let c = v.child(i);
        // Demands belonging to child `c` occupy a contiguous key range
        // [c.key(), c.last_descendant().key()]; children are visited in
        // Morton order, so a moving split point suffices. On packed keys
        // "Morton key ≤ last_key" is a plain u64 compare against the
        // level-saturated last descendant.
        let last_raw = c.last_descendant().raw() | LEVEL_MASK;
        let hi = rest.partition_point(|s| s.raw() <= last_raw);
        let (mine, tail) = rest.split_at(hi);
        rest = tail;
        // Entries at or above c's level share c's anchor and cannot force
        // a split of c; they sort first within the range.
        let mut lo = 0;
        while lo < mine.len() && mine[lo].level() <= c.level() {
            lo += 1;
        }
        emit_completed(leaf, c, &mine[lo..], out);
    }
}

/// Fast balance of a complete local octree in place: seed-set propagation
/// plus recursive completion (see module docs). Scratch comes from `ws`;
/// warm calls with a retained workspace do not allocate. Returns the
/// number of leaves added.
pub fn balance_local_kind_ws(
    leaves: &mut Vec<Octant>,
    kind: BalanceKind,
    ws: &mut BalanceWorkspace,
) -> usize {
    let mut out = std::mem::take(&mut ws.out);
    out.clear();
    let added = balance_run_into(leaves, kind, ws, &mut out);
    std::mem::swap(leaves, &mut out);
    ws.out = out;
    added
}

/// Seed propagation over one tree's sorted run of leaves (a whole tree
/// or one rank's segment of it), appending the balanced run to `out`:
/// the body of [`balance_local_kind_ws`] and of every local pass of the
/// distributed balance. Returns the number of leaves added.
pub(crate) fn balance_run_into<L: CurveLeaf>(
    run: &[L],
    kind: BalanceKind,
    ws: &mut BalanceWorkspace,
    out: &mut Vec<L>,
) -> usize {
    let before = out.len();
    if run.len() <= 1 {
        // A root-only (or empty) run is trivially balanced.
        out.extend_from_slice(run);
        return 0;
    }
    let dirs = kind.direction_slice();

    while ws.buckets.len() <= MAX_LEVEL as usize {
        ws.buckets.push(Vec::new());
    }
    for b in &mut ws.buckets {
        b.clear();
    }
    ws.demands.clear();

    // Seed: every input leaf demands its own level over its own region.
    let mut max_level = 0u8;
    for o in run.iter().map(L::oct) {
        if o.level() >= 2 {
            ws.buckets[o.level() as usize].push(o);
        }
        max_level = max_level.max(o.level());
    }

    // Propagate finest → coarsest. A demand `w` at level k forces every
    // kind-neighbor of parent(w) to hold leaves at level ≥ k−1: octree
    // completeness refines the whole parent region to ≥ k, and every
    // neighbor of a level-k leaf inside it resolves to one of those
    // parent-neighbors (the parent rule also covers leaves created
    // *collaterally* by completion, which a same-level neighbor rule
    // misses).
    let mut k = max_level as usize;
    while k >= 2 {
        let (lower, upper) = ws.buckets.split_at_mut(k);
        let cur = &mut upper[0];
        let down = &mut lower[k - 1];
        cur.sort_unstable();
        cur.dedup();
        // Siblings propagate identically; sorted order keeps them
        // adjacent, so deduplicate by parent on the fly. The demand set
        // per level is order-insensitive (sorted before use), so the
        // closure runs direction-major: one batched neighbor-kernel call
        // per direction over the whole parent set.
        ws.parents.clear();
        let mut last_parent: Option<Octant> = None;
        for w in cur.iter() {
            let p = w.parent();
            if last_parent == Some(p) {
                continue;
            }
            last_parent = Some(p);
            ws.parents.push(p);
        }
        for &(dx, dy, dz) in dirs {
            ws.nbrs.clear();
            simd::neighbor_keys_into(&ws.parents, dx, dy, dz, &mut ws.nbrs);
            down.extend(ws.nbrs.iter().copied().filter(|&n| n != Octant::INVALID));
        }
        k -= 1;
    }

    // Merge the per-level buckets into one demand array sorted in octree
    // pre-order (key, then level) for range queries.
    for b in &ws.buckets {
        ws.demands.extend_from_slice(b);
    }
    ws.demands.sort_unstable();
    ws.demands.dedup();

    // Rebuild: each input leaf is split exactly where a strictly finer
    // demand lands inside it. Demands strictly inside leaf L are exactly
    // those sorting after L (u64 compare on the packed key) with Morton
    // keys ≤ L's last-descendant key (u64 compare against the
    // level-saturated last descendant). Both bounds are batched across
    // all leaves through the vectorized upper-bound kernel.
    ws.needles.clear();
    ws.needles.extend(run.iter().map(|l| l.oct().raw()));
    ws.q_lo.clear();
    simd::upper_bounds_into(raw_keys(&ws.demands), &ws.needles, &mut ws.q_lo);
    ws.needles.clear();
    ws.needles.extend(
        run.iter()
            .map(|l| l.oct().last_descendant().raw() | LEVEL_MASK),
    );
    ws.q_hi.clear();
    simd::upper_bounds_into(raw_keys(&ws.demands), &ws.needles, &mut ws.q_hi);
    for (i, leaf) in run.iter().enumerate() {
        let (lo, hi) = (ws.q_lo[i] as usize, ws.q_hi[i] as usize);
        emit_completed(leaf, leaf.oct(), &ws.demands[lo..hi], out);
    }
    out.len() - before - run.len()
}

/// Balance a complete local octree in place with the given neighbor set.
/// Returns the number of leaves added. Convenience wrapper over
/// [`balance_local_kind_ws`] with a throwaway workspace.
pub fn balance_local_kind(leaves: &mut Vec<Octant>, kind: BalanceKind) -> usize {
    let mut ws = BalanceWorkspace::new();
    balance_local_kind_ws(leaves, kind, &mut ws)
}

/// Balance with the default full 26-neighbor condition.
pub fn balance_local(leaves: &mut Vec<Octant>) -> usize {
    balance_local_kind(leaves, BalanceKind::Full)
}

/// Check the 2:1 condition for the given neighbor set.
pub fn is_balanced_kind(leaves: &[Octant], kind: BalanceKind) -> bool {
    let dirs = kind.direction_slice();
    for o in leaves {
        for &(dx, dy, dz) in dirs {
            let Some(n) = o.neighbor(dx, dy, dz) else {
                continue;
            };
            if let Some(idx) = find_containing(leaves, &n) {
                if leaves[idx].level() + 1 < o.level() {
                    return false;
                }
            }
        }
    }
    true
}

/// Check the full 26-neighbor 2:1 condition.
pub fn is_balanced(leaves: &[Octant]) -> bool {
    is_balanced_kind(leaves, BalanceKind::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{new_tree, refine};
    use crate::{is_complete, is_valid_linear};

    /// Refine toward the domain center several levels deep. Unlike a
    /// domain-corner spike (which grades itself), the leaves hugging the
    /// center planes end up adjacent to level-1 leaves across those
    /// planes, violating 2:1 for depth ≥ 3.
    fn center_spike(depth: u8) -> Vec<Octant> {
        use crate::morton::{MAX_LEVEL, ROOT_LEN};
        let target = Octant::new(
            ROOT_LEN / 2 - 1,
            ROOT_LEN / 2 - 1,
            ROOT_LEN / 2 - 1,
            MAX_LEVEL,
        );
        let mut t = new_tree(1);
        for _ in 1..depth {
            refine(&mut t, |o| o.contains(&target));
        }
        t
    }

    #[test]
    fn uniform_tree_is_balanced() {
        assert!(is_balanced(&new_tree(3)));
        let mut t = new_tree(3);
        assert_eq!(balance_local(&mut t), 0);
    }

    #[test]
    fn spike_is_unbalanced_then_balanced() {
        let mut t = center_spike(5);
        assert!(!is_balanced(&t));
        let added = balance_local(&mut t);
        assert!(added > 0);
        assert!(is_balanced(&t));
        assert!(is_complete(&t));
        assert!(is_valid_linear(&t));
    }

    #[test]
    fn balance_only_refines() {
        let orig = center_spike(6);
        let mut t = orig.clone();
        balance_local(&mut t);
        // Every new leaf must be contained in exactly one original leaf.
        for leaf in &t {
            let n = orig.iter().filter(|o| o.contains(leaf)).count();
            assert_eq!(n, 1, "leaf {leaf:?} not covered exactly once");
        }
        assert!(t.len() >= orig.len());
    }

    #[test]
    fn face_balance_weaker_than_full() {
        let mut a = center_spike(6);
        let mut b = a.clone();
        balance_local_kind(&mut a, BalanceKind::Face);
        balance_local_kind(&mut b, BalanceKind::Full);
        assert!(is_balanced_kind(&a, BalanceKind::Face));
        assert!(is_balanced_kind(&b, BalanceKind::Full));
        // Full balance implies face balance.
        assert!(is_balanced_kind(&b, BalanceKind::Face));
        assert!(b.len() >= a.len());
    }

    #[test]
    fn fast_balance_warm_calls_do_not_grow_workspace() {
        // The output buffer is swapped with the caller's vector, so the
        // zero-allocation contract is on the closed system {leaf vector,
        // workspace}: its total capacity stops growing once warm.
        let sys_cap = |t: &Vec<Octant>, ws: &BalanceWorkspace| {
            ws.capacity_bytes() + (t.capacity() * std::mem::size_of::<Octant>()) as u64
        };
        let mut ws = BalanceWorkspace::new();
        let mut t = center_spike(6);
        balance_local_kind_ws(&mut t, BalanceKind::Full, &mut ws);
        balance_local_kind_ws(&mut t, BalanceKind::Full, &mut ws);
        let cap = sys_cap(&t, &ws);
        balance_local_kind_ws(&mut t, BalanceKind::Full, &mut ws);
        balance_local_kind_ws(&mut t, BalanceKind::Full, &mut ws);
        assert_eq!(sys_cap(&t, &ws), cap, "warm balance must not allocate");
    }

    #[test]
    fn direction_counts() {
        assert_eq!(BalanceKind::Face.direction_slice().len(), 6);
        assert_eq!(BalanceKind::FaceEdge.direction_slice().len(), 18);
        assert_eq!(BalanceKind::Full.direction_slice().len(), 26);
        // Static slices match the iterator-derived sets order-for-order.
        let all: Vec<_> = Octant::neighbor_directions().collect();
        assert_eq!(BalanceKind::Full.direction_slice(), &all[..]);
    }
}
