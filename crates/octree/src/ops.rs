//! Serial (per-rank local) octree operations: `NewTree`, `RefineTree`,
//! `CoarsenTree`, linearization, and leaf search.
//!
//! All functions preserve the linear-octree invariant (Morton-sorted,
//! non-overlapping); refinement replaces a leaf by its eight children *in
//! place* in the sorted order, which is valid because the children occupy
//! exactly the parent's Morton range.

use crate::curve::CurveLeaf;
use crate::morton::{Octant, MAX_LEVEL};

/// Build a uniform octree refined to `level` (the paper's `NewTree` grows
/// a coarse tree; here the serial version enumerates the `8^level` leaves
/// directly in Morton order).
pub fn new_tree(level: u8) -> Vec<Octant> {
    assert!(level <= MAX_LEVEL);
    let n = 1u64 << (3 * level as u64);
    (0..n)
        .map(|i| Octant::from_uniform_index(level, i))
        .collect()
}

/// Refine every leaf for which `should_refine` returns true, replacing it
/// by its eight children. Leaves already at `MAX_LEVEL` are never refined.
/// Returns the number of leaves refined.
pub fn refine<F: FnMut(&Octant) -> bool>(leaves: &mut Vec<Octant>, should_refine: F) -> usize {
    let mut scratch = Vec::with_capacity(leaves.len());
    refine_with(leaves, &mut scratch, should_refine)
}

/// [`refine`] writing through a caller-provided scratch buffer, which is
/// swapped with `leaves` on return. Reusing one scratch across calls keeps
/// the {leaves, scratch} pair grow-only: warm calls never allocate.
/// Generic over the leaf type, so a forest's leaves refine here too.
pub fn refine_with<L: CurveLeaf, F: FnMut(&L) -> bool>(
    leaves: &mut Vec<L>,
    scratch: &mut Vec<L>,
    mut should_refine: F,
) -> usize {
    scratch.clear();
    let mut count = 0;
    for &l in leaves.iter() {
        // Evaluate the predicate exactly once per leaf, in order, so that
        // index-driven closures stay aligned even for depth-capped leaves.
        if should_refine(&l) && l.oct().level() < MAX_LEVEL {
            scratch.extend(l.oct().children().map(|c| l.with_oct(c)));
            count += 1;
        } else {
            scratch.push(l);
        }
    }
    std::mem::swap(leaves, scratch);
    count
}

/// Coarsen complete sibling families in which *all eight* leaves are marked
/// by `should_coarsen`, replacing them by their parent. Only same-level
/// leaf families are eligible (matching the paper's `CoarsenTree`, which
/// removes all children of a common parent). Returns the number of
/// families coarsened. `should_coarsen` is evaluated exactly once per leaf,
/// in order.
pub fn coarsen<F: FnMut(&Octant) -> bool>(leaves: &mut Vec<Octant>, should_coarsen: F) -> usize {
    let marks: Vec<bool> = leaves.iter().map(should_coarsen).collect();
    coarsen_marked_with(leaves, &mut Vec::with_capacity(leaves.len()), &marks)
}

/// [`coarsen`] with precomputed per-leaf marks (one per leaf, in order),
/// writing through a caller-provided scratch buffer that is swapped with
/// `leaves` on return (see [`refine_with`]).
pub fn coarsen_marked_with<L: CurveLeaf>(
    leaves: &mut Vec<L>,
    scratch: &mut Vec<L>,
    marks: &[bool],
) -> usize {
    assert_eq!(leaves.len(), marks.len());
    scratch.clear();
    let mut count = 0;
    let mut i = 0;
    while i < leaves.len() {
        let l = leaves[i];
        if is_family(leaves, i) && marks[i..i + 8].iter().all(|&m| m) {
            scratch.push(l.with_oct(l.oct().parent()));
            count += 1;
            i += 8;
        } else {
            scratch.push(l);
            i += 1;
        }
    }
    std::mem::swap(leaves, scratch);
    count
}

/// Whether `leaves[i..i + 8]` is one complete sibling family: a child 0
/// followed by the other seven children of its parent, all in one tree.
/// A family occupies eight consecutive curve positions, so this is the
/// only place coarsening and marking look for one.
#[inline]
pub fn is_family<L: CurveLeaf>(leaves: &[L], i: usize) -> bool {
    let first = leaves[i];
    let o = first.oct();
    if o.level() == 0 || o.child_id() != 0 || i + 8 > leaves.len() {
        return false;
    }
    let parent = o.parent();
    (1..8).all(|k| {
        let l = leaves[i + k];
        l.tree() == first.tree() && l.oct() == parent.child(k as u8)
    })
}

/// Binary-search the sorted leaf array for the leaf that contains `target`
/// (i.e. equals it or is its ancestor in the same tree). Returns its
/// index, or `None` if the containing region is not present locally.
pub fn find_containing<L: CurveLeaf>(leaves: &[L], target: &L) -> Option<usize> {
    // partition_point gives the first leaf > target; the candidate is the
    // one before it (ancestors sort before descendants).
    let idx = leaves.partition_point(|l| l <= target);
    let cand = leaves[..idx].last()?;
    (cand.tree() == target.tree() && cand.oct().contains(&target.oct())).then_some(idx - 1)
}

/// Split a curve-ordered packed-key slice into the eight child subranges
/// of `node`: after the call `ends[k]` holds the number of keys that
/// belong to children `0..=k`, so child `k` covers `keys[start..ends[k]]`
/// with `start = if k == 0 { 0 } else { ends[k - 1] }`. `keys` must be
/// the `Octant::raw()` keys of sorted leaves that all lie inside `node`
/// (then `ends[7] == keys.len()`); `node.level()` must be below
/// [`MAX_LEVEL`]. The eight bound tests run through the batched
/// [`crate::simd::upper_bounds_into`] range-query kernel, which is what
/// lets the recursive forest traversals descend without touching
/// individual leaves. `needles` and `ends` are grow-only caller scratch;
/// both are overwritten.
pub fn child_split(keys: &[u64], node: &Octant, needles: &mut Vec<u64>, ends: &mut Vec<u32>) {
    debug_assert!(node.level() < MAX_LEVEL);
    needles.clear();
    for child in node.children() {
        // Any descendant D of child k obeys D.raw() <= last_descendant
        // (both key and level bits are maximal there), and every leaf of
        // child k+1 has a strictly larger Morton key, hence a strictly
        // larger raw. So "count of keys <= last_descendant(k)" is exactly
        // the end offset of child k's subrange.
        needles.push(child.last_descendant().raw());
    }
    ends.clear();
    crate::simd::upper_bounds_into(keys, needles, ends);
}

/// Leaf counts per level, `0..=MAX_LEVEL` (used by the Fig. 5 right panel).
pub fn level_histogram(leaves: &[Octant]) -> [u64; MAX_LEVEL as usize + 1] {
    let mut hist = [0u64; MAX_LEVEL as usize + 1];
    for o in leaves {
        hist[o.level() as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_complete, is_valid_linear};

    #[test]
    fn new_tree_sizes() {
        assert_eq!(new_tree(0).len(), 1);
        assert_eq!(new_tree(1).len(), 8);
        assert_eq!(new_tree(3).len(), 512);
        assert!(is_complete(&new_tree(3)));
    }

    #[test]
    fn refine_all_equals_next_level() {
        let mut t = new_tree(1);
        let n = refine(&mut t, |_| true);
        assert_eq!(n, 8);
        assert_eq!(t, new_tree(2));
    }

    #[test]
    fn refine_preserves_completeness_and_order() {
        let mut t = new_tree(2);
        refine(&mut t, |o| {
            (o.x() ^ o.y() ^ o.z()) & 1 == 0 || o.center_unit()[0] < 0.5
        });
        assert!(is_valid_linear(&t));
        assert!(is_complete(&t));
    }

    #[test]
    fn coarsen_undoes_refine() {
        let mut t = new_tree(2);
        let orig = t.clone();
        refine(&mut t, |o| o.x() == 0 && o.y() == 0 && o.z() == 0);
        assert_ne!(t, orig);
        let n = coarsen(&mut t, |o| o.level() == 3);
        assert_eq!(n, 1);
        assert_eq!(t, orig);
    }

    #[test]
    fn coarsen_requires_full_family() {
        let mut t = new_tree(1);
        // Mark only 7 of 8 leaves: nothing may coarsen.
        let n = coarsen(&mut t, |o| o.child_id() != 7);
        assert_eq!(n, 0);
        assert_eq!(t.len(), 8);
        // Mark all: collapses to root.
        let n = coarsen(&mut t, |_| true);
        assert_eq!(n, 1);
        assert_eq!(t, vec![Octant::root()]);
    }

    #[test]
    fn coarsen_skips_mixed_level_families() {
        let mut t = new_tree(1);
        refine(&mut t, |o| o.child_id() == 0); // child 0 becomes 8 finer leaves
        let before = t.len();
        // Marking everything must not merge the mixed-level "family" at the
        // root, but the level-2 family inside child 0 does merge.
        let n = coarsen(&mut t, |_| true);
        assert_eq!(n, 1);
        assert_eq!(t.len(), before - 7);
        assert!(is_complete(&t));
    }

    #[test]
    fn find_containing_hits_and_misses() {
        let mut t = new_tree(1);
        refine(&mut t, |o| o.child_id() == 0);
        let probe = Octant::root().child(0).child(5).first_descendant();
        let idx = find_containing(&t, &probe).unwrap();
        assert!(t[idx].contains(&probe));
        assert_eq!(t[idx].level(), 2);
        // Remove the region and the probe must miss.
        let t2: Vec<Octant> = t.iter().copied().filter(|o| !o.contains(&probe)).collect();
        assert!(find_containing(&t2, &probe).is_none());
    }

    #[test]
    fn child_split_matches_ancestor_scan() {
        let mut t = new_tree(2);
        refine(&mut t, |o| o.child_id() % 3 == 0);
        refine(&mut t, |o| o.level() == 3 && o.child_id() == 5);
        for node in [
            Octant::root(),
            Octant::root().child(3),
            Octant::root().child(0),
        ] {
            let lo = t.partition_point(|o| o < &node);
            let hi = t.partition_point(|o| o <= &node.last_descendant());
            let keys: Vec<u64> = t[lo..hi].iter().map(|o| o.raw()).collect();
            let (mut needles, mut ends) = (Vec::new(), Vec::new());
            child_split(&keys, &node, &mut needles, &mut ends);
            assert_eq!(ends.len(), 8);
            assert_eq!(*ends.last().unwrap() as usize, keys.len());
            let mut start = 0usize;
            for (k, child) in node.children().into_iter().enumerate() {
                let end = ends[k] as usize;
                for o in &t[lo + start..lo + end] {
                    assert!(child.contains(o), "child {k} range holds a stray leaf");
                }
                start = end;
            }
        }
    }

    #[test]
    fn level_histogram_counts() {
        let mut t = new_tree(1);
        refine(&mut t, |o| o.child_id() == 0);
        let h = level_histogram(&t);
        assert_eq!(h[1], 7);
        assert_eq!(h[2], 8);
        assert_eq!(h.iter().sum::<u64>(), t.len() as u64);
    }
}
