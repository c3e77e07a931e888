//! # octree — linear Morton-ordered parallel octrees (the ALPS core)
//!
//! This crate implements the octree layer of the paper's ALPS library
//! (Section IV): a *linear* octree that stores only the leaves, totally
//! ordered by the Morton (z-order) space-filling curve, distributed across
//! simulated MPI ranks by contiguous curve segments.
//!
//! The AMR functions of the paper's Fig. 4 map to:
//!
//! | paper          | here |
//! |----------------|------|
//! | `NewTree`      | [`ops::new_tree`] / [`parallel::DistOctree::new_uniform`] |
//! | `RefineTree`   | [`ops::refine`] / [`parallel::DistOctree::refine`] |
//! | `CoarsenTree`  | [`ops::coarsen`] / [`parallel::DistOctree::coarsen`] |
//! | `BalanceTree`  | [`balance::balance_local`] / [`parallel::DistOctree::balance`] |
//! | `PartitionTree`| [`parallel::DistOctree::partition`] |
//! | `MarkElements` | [`mark::mark_elements_into`] / [`parallel::DistOctree::adapt_to_target`] |
//!
//! The distributed bookkeeping that does not depend on the tree type —
//! rank markers, ownership, refine/coarsen, mark application, 2:1
//! balance, partition, validation — lives in [`curve`], and the ghost
//! layer in [`ghost`], both generic over the leaf type; they serve the
//! forest of octrees too, which adds only its [`curve::TreeSeam`].
//!
//! A leaf octant is an axis-aligned cube identified by its anchor corner in
//! integer coordinates on a `2^MAX_LEVEL`-wide lattice plus a refinement
//! level ([`Octant`]). The one-to-one correspondence between leaves and
//! hexahedral finite elements is established by the `mesh` crate.
//!
//! ## Example
//!
//! ```
//! use octree::ops;
//!
//! // Uniform level-2 tree: 64 leaves covering the unit cube.
//! let mut leaves = ops::new_tree(2);
//! assert_eq!(leaves.len(), 64);
//!
//! // Refine every leaf touching the origin, then re-establish 2:1 balance.
//! ops::refine(&mut leaves, |o| o.x() == 0 && o.y() == 0 && o.z() == 0);
//! octree::balance::balance_local(&mut leaves);
//! assert!(octree::balance::is_balanced(&leaves));
//! ```

pub mod balance;
pub mod curve;
pub mod ghost;
pub mod mark;
pub mod morton;
pub mod ops;
pub mod parallel;
pub mod simd;

pub use morton::{Octant, MAX_LEVEL, ROOT_LEN};

/// Check the linear-octree invariants: strictly Morton-sorted and
/// non-overlapping (no leaf is an ancestor of another). Runs the
/// vectorized adjacent-pair sweep when available.
pub fn is_valid_linear(leaves: &[Octant]) -> bool {
    simd::find_invalid_pair(leaves).is_none()
}

/// Check that `leaves` form a complete linear octree covering the root
/// cube: validity plus total volume equal to the root volume.
pub fn is_complete(leaves: &[Octant]) -> bool {
    if !is_valid_linear(leaves) {
        return false;
    }
    // Volumes measured in units of the finest lattice cell; the root cube
    // has (2^MAX_LEVEL)^3 of them. u128 avoids overflow.
    let total: u128 = leaves
        .iter()
        .map(|o| {
            let s = o.len() as u128;
            s * s * s
        })
        .sum();
    total == (ROOT_LEN as u128).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::Octant;

    #[test]
    fn root_is_complete() {
        assert!(is_complete(&[Octant::root()]));
    }

    #[test]
    fn missing_leaf_is_incomplete() {
        let mut leaves = ops::new_tree(1);
        leaves.remove(3);
        assert!(is_valid_linear(&leaves));
        assert!(!is_complete(&leaves));
    }

    #[test]
    fn overlap_is_invalid() {
        let root = Octant::root();
        let child = root.child(0);
        assert!(!is_valid_linear(&[root, child]));
    }
}
