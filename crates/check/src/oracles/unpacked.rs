//! Coordinate-arithmetic reference octants: the `(x, y, z, level)`
//! struct representation, the oracle for the packed-key arithmetic in
//! `octree::morton`.
//!
//! Every operation here computes with explicit anchor coordinates and is
//! compared bitwise against the branchless packed-key implementation by
//! the tests below, the seeded property test
//! `packed_ops_agree_with_unpacked_reference` in `tests/oracles.rs`, and
//! [`crate::fuzz_amr`] (which replays whole adapt cycles through
//! [`balance_naive_unpacked`] at P ∈ {1, 2, 4, 8}): slow, obvious, and
//! independent of the representation under test.

use octree::balance::BalanceKind;
use octree::morton::morton_key;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};

/// The struct-of-coordinates octant representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Unpacked {
    pub x: u32,
    pub y: u32,
    pub z: u32,
    pub level: u8,
}

impl Unpacked {
    /// The root octant covering the whole domain.
    pub fn root() -> Unpacked {
        Unpacked {
            x: 0,
            y: 0,
            z: 0,
            level: 0,
        }
    }

    /// Edge length in lattice units.
    pub fn len(&self) -> u32 {
        1 << (MAX_LEVEL - self.level)
    }

    /// Morton key of the anchor (coordinate interleave, not packed).
    pub fn key(&self) -> u64 {
        morton_key(self.x, self.y, self.z)
    }

    /// Which child of its parent this octant is (0–7, Morton order),
    /// from the coordinate bits at this octant's level.
    pub fn child_id(&self) -> u8 {
        debug_assert!(self.level > 0);
        let len = self.len();
        let bx = (self.x / len) & 1;
        let by = (self.y / len) & 1;
        let bz = (self.z / len) & 1;
        (bx | (by << 1) | (bz << 2)) as u8
    }

    /// Parent octant by masking the anchor down to the coarser lattice.
    pub fn parent(&self) -> Unpacked {
        debug_assert!(self.level > 0, "root has no parent");
        let plen = self.len() << 1;
        Unpacked {
            x: self.x & !(plen - 1),
            y: self.y & !(plen - 1),
            z: self.z & !(plen - 1),
            level: self.level - 1,
        }
    }

    /// The `i`-th child (0–7 in Morton order) by coordinate offsets.
    pub fn child(&self, i: u8) -> Unpacked {
        debug_assert!(self.level < MAX_LEVEL);
        debug_assert!(i < 8);
        let clen = self.len() >> 1;
        Unpacked {
            x: self.x + (i as u32 & 1) * clen,
            y: self.y + ((i as u32 >> 1) & 1) * clen,
            z: self.z + ((i as u32 >> 2) & 1) * clen,
            level: self.level + 1,
        }
    }

    /// All eight children in Morton order.
    pub fn children(&self) -> [Unpacked; 8] {
        std::array::from_fn(|i| self.child(i as u8))
    }

    /// `self == other` or `self` is an ancestor of `other`, by
    /// coordinate-interval inclusion.
    pub fn contains(&self, other: &Unpacked) -> bool {
        let len = self.len();
        self.level <= other.level
            && other.x >= self.x
            && other.x < self.x + len
            && other.y >= self.y
            && other.y < self.y + len
            && other.z >= self.z
            && other.z < self.z + len
    }

    /// Last (Morton-largest) descendant at `MAX_LEVEL`: the far corner.
    pub fn last_descendant(&self) -> Unpacked {
        let len = self.len();
        Unpacked {
            x: self.x + len - 1,
            y: self.y + len - 1,
            z: self.z + len - 1,
            level: MAX_LEVEL,
        }
    }

    /// Same-size neighbor by signed coordinate arithmetic with explicit
    /// domain bounds checks.
    pub fn neighbor(&self, dx: i32, dy: i32, dz: i32) -> Option<Unpacked> {
        let len = self.len() as i64;
        let nx = self.x as i64 + dx as i64 * len;
        let ny = self.y as i64 + dy as i64 * len;
        let nz = self.z as i64 + dz as i64 * len;
        let lim = ROOT_LEN as i64;
        if nx < 0 || ny < 0 || nz < 0 || nx >= lim || ny >= lim || nz >= lim {
            return None;
        }
        Some(Unpacked {
            x: nx as u32,
            y: ny as u32,
            z: nz as u32,
            level: self.level,
        })
    }
}

/// Pre-order traversal order: Morton key first, ancestors before
/// descendants — the order the packed `u64` must reproduce.
impl Ord for Unpacked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key()
            .cmp(&other.key())
            .then(self.level.cmp(&other.level))
    }
}

impl PartialOrd for Unpacked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<Octant> for Unpacked {
    fn from(o: Octant) -> Unpacked {
        Unpacked {
            x: o.x(),
            y: o.y(),
            z: o.z(),
            level: o.level(),
        }
    }
}

impl From<Unpacked> for Octant {
    fn from(u: Unpacked) -> Octant {
        Octant::new(u.x, u.y, u.z, u.level)
    }
}

/// Binary-search the sorted unpacked leaf array for the leaf containing
/// `target` (coordinate-arithmetic twin of `ops::find_containing`).
fn find_containing_unpacked(leaves: &[Unpacked], target: &Unpacked) -> Option<usize> {
    let idx = leaves.partition_point(|o| o <= target);
    if idx == 0 {
        return None;
    }
    let cand = idx - 1;
    if leaves[cand].contains(target) {
        Some(cand)
    } else {
        None
    }
}

/// One violator scan in pure coordinate arithmetic.
fn first_violator_unpacked(leaves: &[Unpacked], dirs: &[(i32, i32, i32)]) -> Option<usize> {
    let mut first: Option<usize> = None;
    for o in leaves {
        for &(dx, dy, dz) in dirs {
            let Some(n) = o.neighbor(dx, dy, dz) else {
                continue;
            };
            if let Some(idx) = find_containing_unpacked(leaves, &n) {
                if leaves[idx].level + 1 < o.level && first.is_none_or(|f| idx < f) {
                    first = Some(idx);
                }
            }
        }
    }
    first
}

/// Naive one-violator-at-a-time 2:1 balance computed entirely in the
/// coordinate representation: packed leaves are converted to [`Unpacked`]
/// structs, balanced with coordinate arithmetic, and converted back.
/// Because the minimal balanced refinement is unique, the result must be
/// bitwise identical to `octree::balance::balance_local_kind` on packed
/// keys — the packed-vs-struct gate [`crate::fuzz_amr`] replays every
/// adapt cycle. Returns the number of leaves added.
pub fn balance_naive_unpacked(leaves: &mut Vec<Octant>, kind: BalanceKind) -> usize {
    let mut u: Vec<Unpacked> = leaves.iter().map(|&o| Unpacked::from(o)).collect();
    let dirs = kind.direction_slice();
    let before = u.len();
    while let Some(i) = first_violator_unpacked(&u, dirs) {
        let o = u[i];
        u.splice(i..=i, o.children());
    }
    leaves.clear();
    leaves.extend(u.into_iter().map(Octant::from));
    leaves.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::balance::balance_local_kind;
    use octree::ops::{new_tree, refine};

    fn exhaustive_octants(max_level: u8) -> Vec<Octant> {
        let mut v = Vec::new();
        for level in 0..=max_level {
            let n = 1u64 << (3 * level);
            for idx in 0..n {
                v.push(Octant::from_uniform_index(level, idx));
            }
        }
        v
    }

    #[test]
    fn conversions_roundtrip_exhaustively() {
        for o in exhaustive_octants(2) {
            let u = Unpacked::from(o);
            assert_eq!(Octant::from(u), o);
            assert_eq!((u.x, u.y, u.z, u.level), (o.x(), o.y(), o.z(), o.level()));
        }
    }

    #[test]
    fn packed_ops_match_unpacked_exhaustively() {
        // Every packed-key operation against its coordinate twin, over
        // every octant of levels 0..=2 (plus deep corner cases below).
        let all = exhaustive_octants(2);
        for &o in &all {
            let u = Unpacked::from(o);
            assert_eq!(o.len(), u.len());
            assert_eq!(o.key(), u.key());
            if o.level() > 0 {
                assert_eq!(o.child_id(), u.child_id());
                assert_eq!(o.parent(), Octant::from(u.parent()));
            }
            if o.level() < MAX_LEVEL {
                for i in 0..8 {
                    assert_eq!(o.child(i), Octant::from(u.child(i)));
                }
            }
            assert_eq!(
                o.last_descendant(),
                Octant::from(u.last_descendant()),
                "last_descendant of {o:?}"
            );
            for (dx, dy, dz) in Octant::neighbor_directions() {
                assert_eq!(
                    o.neighbor(dx, dy, dz),
                    u.neighbor(dx, dy, dz).map(Octant::from),
                    "neighbor({dx},{dy},{dz}) of {o:?}"
                );
            }
            for &b in &all {
                let ub = Unpacked::from(b);
                assert_eq!(o.contains(&b), u.contains(&ub));
                assert_eq!(o.cmp(&b), u.cmp(&ub), "order of {o:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn packed_ops_match_unpacked_at_max_level_corners() {
        let m = ROOT_LEN - 1;
        for (x, y, z) in [(0, 0, 0), (m, m, m), (m, 0, m), (0, m, 0)] {
            let o = Octant::new(x, y, z, MAX_LEVEL);
            let u = Unpacked::from(o);
            assert_eq!(o.parent(), Octant::from(u.parent()));
            assert_eq!(o.child_id(), u.child_id());
            for (dx, dy, dz) in Octant::neighbor_directions() {
                assert_eq!(
                    o.neighbor(dx, dy, dz),
                    u.neighbor(dx, dy, dz).map(Octant::from)
                );
            }
        }
    }

    #[test]
    fn naive_unpacked_balance_matches_packed_fast_balance() {
        for kind in [BalanceKind::Face, BalanceKind::FaceEdge, BalanceKind::Full] {
            let mut t = new_tree(1);
            let target = Octant::new(
                ROOT_LEN / 2 - 1,
                ROOT_LEN / 2 - 1,
                ROOT_LEN / 2 - 1,
                MAX_LEVEL,
            );
            for _ in 0..4 {
                refine(&mut t, |o| o.contains(&target));
            }
            let mut packed = t.clone();
            let mut oracle = t;
            let n_packed = balance_local_kind(&mut packed, kind);
            let n_oracle = balance_naive_unpacked(&mut oracle, kind);
            assert_eq!(packed, oracle, "packed vs unpacked oracle ({kind:?})");
            assert_eq!(n_packed, n_oracle);
        }
    }
}
