//! Octants, the Morton (z-order) space-filling curve, and the packed
//! 64-bit quadrant key.
//!
//! An octant lives on an integer lattice of side `2^MAX_LEVEL`. Its anchor
//! is the corner with the smallest coordinates; its edge length is
//! `2^(MAX_LEVEL - level)` lattice units.
//!
//! ## Packed key layout (PR 7)
//!
//! An [`Octant`] is a single `u64` (`repr(transparent)`), following the
//! Morton-index quadrant representation of Kirilin & Burstedde 2023:
//!
//! ```text
//!   bit 63    62........5    4....0
//!   unused    morton (57)    level (5)
//! ```
//!
//! The 57 Morton bits are the 3 × 19 interleaved anchor coordinate bits
//! (`x` in the least significant position of each triple, matching the
//! paper's `(z,y,x)` traversal); the level occupies the five *low* bits.
//! With the level in the low bits, plain `u64` order compares the Morton
//! key first and breaks ties ancestor-first — exactly the lexicographic
//! `(morton_key, level)` order, i.e. the pre-order traversal of the
//! octree (the red curve of the paper's Fig. 3). Sorting, searching and
//! deduplicating octants are therefore raw integer operations over what
//! is effectively a `Vec<u64>` SoA key array, and the inter-rank wire
//! format is the padding-free 8-byte key (the old `repr(C)` struct
//! shipped 3 uninitialized padding bytes after `level`).
//!
//! Parent/child/ancestor/descendant relations are mask-and-shift
//! operations on the key; same-size neighbors use branchless dilated
//! integer arithmetic per axis (add/subtract within the interleaved bit
//! lanes, no decode). The coordinate-arithmetic reference implementation
//! of every operation lives in `check::oracles::unpacked` and is
//! differentially tested against this module.

/// Maximum refinement depth. `3 * MAX_LEVEL = 57` interleaved bits plus
/// the 5 level bits fit a `u64` with the top bit to spare. The paper's
/// deepest run uses 14 levels (Section VI).
pub const MAX_LEVEL: u8 = 19;

/// Side length of the root cube in lattice units.
pub const ROOT_LEN: u32 = 1 << MAX_LEVEL;

/// Number of low bits holding the refinement level.
pub const LEVEL_BITS: u32 = 5;

/// Mask of the level field in a packed key.
pub const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;

/// Dilated-bit mask of the x axis: bit `3*i` for `i in 0..21` (19
/// coordinate bits plus two overflow lanes used for bounds detection).
pub(crate) const DIL_X: u64 = 0x1249_2492_4924_9249;
/// Dilated-bit mask of the y axis.
pub(crate) const DIL_Y: u64 = DIL_X << 1;
/// Dilated-bit mask of the z axis.
pub(crate) const DIL_Z: u64 = DIL_X << 2;

/// Overflow lanes: Morton bits of coordinate bits 19 and 20 on all three
/// axes (bits 57..=62). A same-size neighbor step that leaves the root
/// cube — overflow past `ROOT_LEN` or two's-complement underflow — sets
/// at least one of these bits.
pub(crate) const DIL_HI: u64 = 0x3f << 57;

/// Raw value of [`Octant::INVALID`]: the out-of-domain marker produced
/// by the batch neighbor kernels.
pub(crate) const INVALID_RAW: u64 = u64::MAX;

/// A leaf or interior octant of a single octree, stored as a packed
/// 64-bit Morton key (see the module docs for the bit layout).
///
/// Derived comparison on the raw `u64` equals the pre-order traversal
/// order: Morton key first, ancestors before descendants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Octant(u64);

// Octants are exchanged between simulated ranks as raw bytes.
// SAFETY: repr(transparent) over u64 — no padding, any bit pattern
// produced by a valid Octant round-trips exactly.
unsafe impl scomm::Pod for Octant {}

/// Spread the low 21 bits of `v` so that each bit lands every third
/// position (classic 3D Morton bit-interleaving helper). Branchless and
/// `const`: keys of static octants evaluate at compile time.
#[inline]
pub const fn spread3(v: u32) -> u64 {
    let mut x = v as u64 & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread3`]: compact every third bit into the low bits.
#[inline]
pub const fn compact3(v: u64) -> u32 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

/// Interleave `(x, y, z)` into a Morton key. `x` occupies the least
/// significant position of each bit triple, matching the paper's `(z,y,x)`
/// triple traversal.
#[inline]
pub const fn morton_key(x: u32, y: u32, z: u32) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Invert [`morton_key`].
#[inline]
pub const fn morton_decode(key: u64) -> (u32, u32, u32) {
    (compact3(key), compact3(key >> 1), compact3(key >> 2))
}

/// Bit shift of a level-`level` octant's child triple inside the Morton
/// key: everything below it is the within-octant suffix.
#[inline]
pub(crate) const fn key_shift(level: u8) -> u32 {
    3 * (MAX_LEVEL - level) as u32
}

/// One dilated step along an axis: add or subtract `delta` (a dilated
/// value whose bits lie inside `mask`) to the `mask` lanes of `part`.
/// The classic trick: filling the foreign lanes with ones lets carries
/// ripple across the gaps; masking afterwards discards them. Borrows in
/// the subtractive direction ripple through the zeroed gaps unaided.
#[inline]
const fn dilated_step(part: u64, delta: u64, d: i32, mask: u64) -> u64 {
    match d {
        0 => part,
        1 => (part | !mask).wrapping_add(delta) & mask,
        _ => part.wrapping_sub(delta) & mask,
    }
}

/// Branchless same-size neighbor of a packed key for a unit direction
/// (`dx`, `dy`, `dz` each in `-1..=1`). Returns [`INVALID_RAW`] if the
/// neighbor leaves the root cube: the overflow lanes ([`DIL_HI`]) catch
/// both overflow past `ROOT_LEN` and underflow wrap.
#[inline]
pub(crate) const fn neighbor_raw_unit(raw: u64, dx: i32, dy: i32, dz: i32) -> u64 {
    let lvl = raw & LEVEL_MASK;
    let key = raw >> LEVEL_BITS;
    let step = 1u64 << key_shift(lvl as u8); // dilated edge length, x lanes
    let nx = dilated_step(key & DIL_X, step, dx, DIL_X);
    let ny = dilated_step(key & DIL_Y, step << 1, dy, DIL_Y);
    let nz = dilated_step(key & DIL_Z, step << 2, dz, DIL_Z);
    let nk = nx | ny | nz;
    if nk & DIL_HI != 0 {
        INVALID_RAW
    } else {
        (nk << LEVEL_BITS) | lvl
    }
}

/// The 26 displacement triples of [`Octant::neighbor_directions`], z
/// outermost and x innermost, computed at compile time.
pub(crate) const ALL_DIRS: [(i32, i32, i32); 26] = build_all_dirs();

const fn build_all_dirs() -> [(i32, i32, i32); 26] {
    let mut out = [(0, 0, 0); 26];
    let mut n = 0;
    let mut dz = -1;
    while dz <= 1 {
        let mut dy = -1;
        while dy <= 1 {
            let mut dx = -1;
            while dx <= 1 {
                if !(dx == 0 && dy == 0 && dz == 0) {
                    out[n] = (dx, dy, dz);
                    n += 1;
                }
                dx += 1;
            }
            dy += 1;
        }
        dz += 1;
    }
    out
}

impl Octant {
    /// Out-of-domain marker used by the batch neighbor kernels in
    /// [`crate::simd`]; not a valid octant (level field = 31).
    pub const INVALID: Octant = Octant(INVALID_RAW);

    /// The root octant covering the whole domain.
    #[inline]
    pub const fn root() -> Octant {
        Octant(0)
    }

    /// Construct an octant, checking lattice alignment in debug builds.
    #[inline]
    pub fn new(x: u32, y: u32, z: u32, level: u8) -> Octant {
        debug_assert!(level <= MAX_LEVEL);
        let len = 1u32 << (MAX_LEVEL - level);
        debug_assert!(x.is_multiple_of(len) && y.is_multiple_of(len) && z.is_multiple_of(len));
        debug_assert!(x < ROOT_LEN && y < ROOT_LEN && z < ROOT_LEN);
        Octant::from_key_level(morton_key(x, y, z), level)
    }

    /// Assemble a packed octant from an anchor Morton key and a level.
    #[inline]
    pub const fn from_key_level(key: u64, level: u8) -> Octant {
        Octant((key << LEVEL_BITS) | level as u64)
    }

    /// The raw packed 64-bit key (the wire and storage representation).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct from a raw packed key (inverse of [`Octant::raw`]).
    #[inline]
    pub const fn from_raw(raw: u64) -> Octant {
        Octant(raw)
    }

    /// Refinement level: 0 = root, `MAX_LEVEL` = finest.
    #[inline]
    pub const fn level(&self) -> u8 {
        (self.0 & LEVEL_MASK) as u8
    }

    /// Anchor x coordinate in lattice units (decoded from the key).
    #[inline]
    pub const fn x(&self) -> u32 {
        compact3(self.key())
    }

    /// Anchor y coordinate in lattice units.
    #[inline]
    pub const fn y(&self) -> u32 {
        compact3(self.key() >> 1)
    }

    /// Anchor z coordinate in lattice units.
    #[inline]
    pub const fn z(&self) -> u32 {
        compact3(self.key() >> 2)
    }

    /// Edge length in lattice units.
    #[inline]
    pub const fn len(&self) -> u32 {
        1 << (MAX_LEVEL - self.level())
    }

    /// Morton key of the anchor.
    #[inline]
    pub const fn key(&self) -> u64 {
        self.0 >> LEVEL_BITS
    }

    /// Which child of its parent this octant is (0–7, Morton order): the
    /// key's bit triple at this octant's level.
    #[inline]
    pub fn child_id(&self) -> u8 {
        debug_assert!(self.level() > 0);
        ((self.key() >> key_shift(self.level())) & 7) as u8
    }

    /// Parent octant: clear the within-parent key suffix, decrement the
    /// level. Panics at the root in debug builds.
    #[inline]
    pub fn parent(&self) -> Octant {
        debug_assert!(self.level() > 0, "root has no parent");
        let level = self.level() - 1;
        Octant::from_key_level(self.key() & !0u64 << key_shift(level), level)
    }

    /// The `i`-th child (0–7 in Morton order: x fastest, then y, then z):
    /// deposit the child triple one level down.
    #[inline]
    pub fn child(&self, i: u8) -> Octant {
        debug_assert!(self.level() < MAX_LEVEL, "cannot refine beyond MAX_LEVEL");
        debug_assert!(i < 8);
        let level = self.level() + 1;
        Octant::from_key_level(self.key() | (i as u64) << key_shift(level), level)
    }

    /// All eight children in Morton order.
    #[inline]
    pub fn children(&self) -> [Octant; 8] {
        std::array::from_fn(|i| self.child(i as u8))
    }

    /// `self == other` or `self` is an ancestor of `other`.
    #[inline]
    pub fn contains(&self, other: &Octant) -> bool {
        self.level() <= other.level() && (self.key() ^ other.key()) >> key_shift(self.level()) == 0
    }

    /// First (Morton-smallest) descendant at `MAX_LEVEL`: shares the anchor.
    #[inline]
    pub const fn first_descendant(&self) -> Octant {
        Octant((self.0 & !LEVEL_MASK) | MAX_LEVEL as u64)
    }

    /// Last (Morton-largest) descendant at `MAX_LEVEL`: fill the key
    /// suffix with ones.
    #[inline]
    pub const fn last_descendant(&self) -> Octant {
        let ones = (1u64 << key_shift(self.level())) - 1;
        Octant::from_key_level(self.key() | ones, MAX_LEVEL)
    }

    /// Same-size neighbor displaced by `(dx, dy, dz)` octant widths.
    /// Returns `None` if it would leave the root cube (single-tree case;
    /// the forest layer handles inter-tree transforms). Unit steps take
    /// the branchless dilated-arithmetic path; larger displacements fall
    /// back to coordinate arithmetic.
    #[inline]
    pub fn neighbor(&self, dx: i32, dy: i32, dz: i32) -> Option<Octant> {
        if dx.unsigned_abs() <= 1 && dy.unsigned_abs() <= 1 && dz.unsigned_abs() <= 1 {
            let raw = neighbor_raw_unit(self.0, dx, dy, dz);
            return if raw == INVALID_RAW {
                None
            } else {
                Some(Octant(raw))
            };
        }
        let len = self.len() as i64;
        let nx = self.x() as i64 + dx as i64 * len;
        let ny = self.y() as i64 + dy as i64 * len;
        let nz = self.z() as i64 + dz as i64 * len;
        let lim = ROOT_LEN as i64;
        if nx < 0 || ny < 0 || nz < 0 || nx >= lim || ny >= lim || nz >= lim {
            return None;
        }
        Some(Octant::new(nx as u32, ny as u32, nz as u32, self.level()))
    }

    /// Morton keys of the eight vertices in z-order (`x` fastest): the
    /// anchor key with the dilated edge length added on each axis lane, as
    /// [`neighbor_raw_unit`] steps, with no coordinate interleaved again.
    /// A vertex coordinate may equal `ROOT_LEN`; its bit lands in lane 19,
    /// which the dilated masks cover.
    #[inline]
    pub fn vertex_keys(&self) -> [u64; 8] {
        let key = self.key();
        let step = 1u64 << key_shift(self.level());
        let lanes = |mask: u64, delta: u64| [key & mask, dilated_step(key & mask, delta, 1, mask)];
        let (x, y, z) = (
            lanes(DIL_X, step),
            lanes(DIL_Y, step << 1),
            lanes(DIL_Z, step << 2),
        );
        std::array::from_fn(|c| x[c & 1] | y[(c >> 1) & 1] | z[c >> 2])
    }

    /// Iterate the 26 `(dx,dy,dz)` displacement triples of the full
    /// face/edge/corner neighborhood (z outermost, x innermost).
    pub fn neighbor_directions() -> impl Iterator<Item = (i32, i32, i32)> {
        ALL_DIRS.into_iter()
    }

    /// Geometric anchor in the unit cube `[0,1)^3`.
    #[inline]
    pub fn anchor_unit(&self) -> [f64; 3] {
        let s = 1.0 / ROOT_LEN as f64;
        [
            self.x() as f64 * s,
            self.y() as f64 * s,
            self.z() as f64 * s,
        ]
    }

    /// Geometric edge length in the unit cube.
    #[inline]
    pub fn len_unit(&self) -> f64 {
        self.len() as f64 / ROOT_LEN as f64
    }

    /// Geometric center in the unit cube.
    #[inline]
    pub fn center_unit(&self) -> [f64; 3] {
        let a = self.anchor_unit();
        let h = 0.5 * self.len_unit();
        [a[0] + h, a[1] + h, a[2] + h]
    }

    /// Global Morton index among the `8^level` octants of a uniform
    /// refinement at this octant's level: the key prefix.
    #[inline]
    pub fn uniform_index(&self) -> u64 {
        self.key() >> key_shift(self.level())
    }

    /// Inverse of [`uniform_index`](Octant::uniform_index): the `idx`-th
    /// octant (Morton order) of the uniform refinement at `level`.
    #[inline]
    pub fn from_uniform_index(level: u8, idx: u64) -> Octant {
        Octant::from_key_level(idx << key_shift(level), level)
    }
}

impl std::fmt::Debug for Octant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == INVALID_RAW {
            return f.write_str("Octant(INVALID)");
        }
        f.debug_struct("Octant")
            .field("x", &self.x())
            .field("y", &self.y())
            .field("z", &self.z())
            .field("level", &self.level())
            .finish()
    }
}

/// View a slice of octants as their raw packed keys (zero-copy; valid
/// because `Octant` is `repr(transparent)` over `u64`).
#[inline]
pub fn raw_keys(octs: &[Octant]) -> &[u64] {
    // SAFETY: Octant is repr(transparent) over u64 — identical layout.
    unsafe { std::slice::from_raw_parts(octs.as_ptr() as *const u64, octs.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_key_is_const_evaluable() {
        const K: u64 = morton_key(5, 3, 1);
        const D: (u32, u32, u32) = morton_decode(K);
        // 5 = 101b, 3 = 011b, 1 = 001b interleaved (z y x) per bit:
        // bit0 triple (1,1,1)=7, bit1 (0,1,0)=2, bit2 (0,0,1)=1 → 0b001_010_111.
        assert_eq!(K, 0b001_010_111);
        assert_eq!(D, (5, 3, 1));
    }

    #[test]
    fn morton_roundtrip() {
        for &(x, y, z) in &[
            (0, 0, 0),
            (1, 2, 3),
            (1023, 511, 255),
            (ROOT_LEN - 1, 0, ROOT_LEN - 1),
        ] {
            let k = morton_key(x, y, z);
            assert_eq!(morton_decode(k), (x, y, z));
        }
    }

    #[test]
    fn packed_layout_and_accessors() {
        assert_eq!(std::mem::size_of::<Octant>(), 8);
        assert_eq!(std::mem::align_of::<Octant>(), 8);
        let o = Octant::new(ROOT_LEN - 1, 12, ROOT_LEN / 2, MAX_LEVEL);
        assert_eq!(o.x(), ROOT_LEN - 1);
        assert_eq!(o.y(), 12);
        assert_eq!(o.z(), ROOT_LEN / 2);
        assert_eq!(o.level(), MAX_LEVEL);
        assert_eq!(o.raw() & LEVEL_MASK, MAX_LEVEL as u64);
        assert_eq!(o.raw() >> LEVEL_BITS, o.key());
        assert_eq!(Octant::from_raw(o.raw()), o);
        // The top bit is never used by a valid octant.
        assert_eq!(o.raw() >> 63, 0);
    }

    #[test]
    fn morton_order_of_children_is_child_id_order() {
        let o = Octant::new(0, 0, 0, 3);
        let kids = o.children();
        for i in 0..7 {
            assert!(kids[i] < kids[i + 1]);
        }
        for (i, k) in kids.iter().enumerate() {
            assert_eq!(k.child_id() as usize, i);
            assert_eq!(k.parent(), o);
        }
    }

    #[test]
    fn ancestor_ordering_precedes_descendants() {
        let o = Octant::new(0, 0, 0, 2);
        for k in o.children() {
            assert!(o < k, "ancestor must sort before descendants");
            assert!(o.contains(&k));
            assert!(!k.contains(&o));
            for g in k.children() {
                assert!(o < g && o.contains(&g) && !g.contains(&o));
            }
        }
        assert!(o.contains(&o));
    }

    #[test]
    fn descendant_range() {
        let o = Octant::new(ROOT_LEN / 2, 0, 0, 1);
        let f = o.first_descendant();
        let l = o.last_descendant();
        assert_eq!(f.key(), o.key());
        assert!(o.contains(&f) && o.contains(&l));
        assert!(f <= l);
        // A leaf just before / after the range is not contained.
        let before = Octant::new(o.x() - 1, ROOT_LEN - 1, ROOT_LEN - 1, MAX_LEVEL);
        assert!(!o.contains(&before));
    }

    #[test]
    fn neighbors_and_domain_boundary() {
        let o = Octant::new(0, 0, 0, 1);
        assert!(o.neighbor(-1, 0, 0).is_none());
        let n = o.neighbor(1, 0, 0).unwrap();
        assert_eq!(n.x(), o.len());
        assert_eq!(n.level(), o.level());
        let far = Octant::new(ROOT_LEN / 2, ROOT_LEN / 2, ROOT_LEN / 2, 1);
        assert!(far.neighbor(1, 0, 0).is_none(), "past +x face");
        assert_eq!(Octant::neighbor_directions().count(), 26);
    }

    /// The dilated vertex keys equal the interleaved vertex coordinates at
    /// every level, at the root's far corner (whose upper vertices sit at
    /// `ROOT_LEN`, lane 19), at the origin and one step inside each.
    #[test]
    fn vertex_keys_interleave_the_vertex_coordinates() {
        for level in 0..=MAX_LEVEL {
            let len = 1u32 << (MAX_LEVEL - level);
            let (far, near) = (ROOT_LEN - len, len.min(ROOT_LEN - len));
            for a in [
                (far, far, far),
                (0, 0, 0),
                (near, 0, far),
                (far, near, near),
            ] {
                let o = Octant::new(a.0, a.1, a.2, level);
                let oracle: [u64; 8] = std::array::from_fn(|c| {
                    let bit = |d: usize| ((c >> d) & 1) as u32 * len;
                    morton_key(a.0 + bit(0), a.1 + bit(1), a.2 + bit(2))
                });
                assert_eq!(o.vertex_keys(), oracle, "{o:?}");
            }
        }
    }

    #[test]
    fn neighbor_multi_step_falls_back_to_coordinates() {
        let o = Octant::new(0, 0, 0, 3);
        let n = o.neighbor(3, 2, 0).unwrap();
        assert_eq!((n.x(), n.y(), n.z()), (3 * o.len(), 2 * o.len(), 0));
        assert!(o.neighbor(8, 0, 0).is_none(), "past the domain");
    }

    #[test]
    fn uniform_index_roundtrip() {
        for level in [0u8, 1, 3, 5] {
            let n = 1u64 << (3 * level);
            for idx in (0..n).step_by((n as usize / 64).max(1)) {
                let o = Octant::from_uniform_index(level, idx);
                assert_eq!(o.uniform_index(), idx);
                assert_eq!(o.level(), level);
            }
        }
    }

    #[test]
    fn uniform_index_is_morton_sorted() {
        let level = 2u8;
        let octs: Vec<Octant> = (0..64)
            .map(|i| Octant::from_uniform_index(level, i))
            .collect();
        for w in octs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn geometry_maps_to_unit_cube() {
        let o = Octant::new(ROOT_LEN / 4, ROOT_LEN / 2, 0, 2);
        assert_eq!(o.anchor_unit(), [0.25, 0.5, 0.0]);
        assert_eq!(o.len_unit(), 0.25);
        assert_eq!(o.center_unit(), [0.375, 0.625, 0.125]);
    }

    #[test]
    fn ancestor_at_levels() {
        let leaf = Octant::new(ROOT_LEN - 1, ROOT_LEN - 1, ROOT_LEN - 1, MAX_LEVEL);
        // The ancestors by repeated `parent`, finest first.
        let line: Vec<Octant> =
            std::iter::successors(Some(leaf), |o| (o.level() > 0).then(|| o.parent())).collect();
        assert_eq!(line.len(), MAX_LEVEL as usize + 1);
        let at = |level: u8| line[(MAX_LEVEL - level) as usize];
        assert_eq!(at(0), Octant::root());
        let a1 = at(1);
        assert_eq!(a1.level(), 1);
        assert_eq!(
            (a1.x(), a1.y(), a1.z()),
            (ROOT_LEN / 2, ROOT_LEN / 2, ROOT_LEN / 2)
        );
        assert!(line
            .windows(2)
            .all(|w| w[1].contains(&w[0]) && w[1] != w[0]));
    }
}
