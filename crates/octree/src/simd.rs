//! Vectorized octree kernels over packed Morton keys, with scalar
//! fallbacks.
//!
//! The packed `u64` representation of [`crate::morton`] turns the three
//! hot adaptation kernels — batch same-size neighbor computation (balance
//! closure, ghost candidates), batched sorted-array range queries
//! (partition ownership, demand ranges), and adjacent-pair invariant
//! sweeps — into straight-line integer arithmetic on `u64` lanes. This
//! module provides each kernel twice:
//!
//! * a **scalar** body, a private function, used on non-x86 targets and
//!   when AVX2 is absent at runtime;
//! * an **AVX2** body (4 × u64 lanes, `core::arch::x86_64` intrinsics —
//!   `std::simd` is nightly-only) compiled on every x86-64 build and
//!   selected by `is_x86_feature_detected!`.
//!
//! The AVX2 bodies stay: with only the scalar ones `amr_front_p2` ran
//! 1.364× slower in 8 of 8 pairs (EXPERIMENTS.md, "Why the two AVX2
//! builds stay").
//!
//! Both bodies compute bit-identical results. The choice is made here,
//! by what the target and the CPU offer, never by the caller. The unit
//! tests run the dispatching kernel and the scalar body side by side
//! against the plain `Octant::neighbor` / `partition_point` /
//! `windows(2)` expression, so one build covers both.
//!
//! AVX2 notes: u64 lanes have no unsigned compare, so operands are
//! sign-biased (`x ^ i64::MIN`) before `_mm256_cmpgt_epi64`; per-lane
//! variable shifts use `_mm256_sllv_epi64`/`_mm256_srlv_epi64`; the
//! batched binary search gathers probe values with
//! `_mm256_i64gather_epi64` so four searches advance in lockstep (the
//! probe schedule depends only on the haystack length).

use crate::morton::{neighbor_raw_unit, Octant};

/// True when the CPU supports AVX2 (always false off x86-64). Kernels
/// fall back to their scalar body when false.
#[inline]
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Kernel 1: batch same-size neighbors in one direction.
// ---------------------------------------------------------------------

/// Append, for every octant in `octs`, its same-size neighbor displaced
/// by the unit direction `(dx, dy, dz)` — or [`Octant::INVALID`] when the
/// neighbor leaves the root cube. One output per input, in order.
///
/// This is the inner loop of the balance closure (parent-neighbor
/// demands) and of ghost-candidate generation, batched so a whole level
/// bucket is processed per call.
pub fn neighbor_keys_into(octs: &[Octant], dx: i32, dy: i32, dz: i32, out: &mut Vec<Octant>) {
    debug_assert!(dx.unsigned_abs() <= 1 && dy.unsigned_abs() <= 1 && dz.unsigned_abs() <= 1);
    out.reserve(octs.len());
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence checked above.
        unsafe { avx2::neighbor_keys_into(octs, dx, dy, dz, out) };
        return;
    }
    neighbor_keys_scalar(octs, dx, dy, dz, out);
}

fn neighbor_keys_scalar(octs: &[Octant], dx: i32, dy: i32, dz: i32, out: &mut Vec<Octant>) {
    for o in octs {
        out.push(Octant::from_raw(neighbor_raw_unit(o.raw(), dx, dy, dz)));
    }
}

// ---------------------------------------------------------------------
// Kernel 2: batched upper bound (sorted range queries).
// ---------------------------------------------------------------------

/// Branchless scalar upper bound: number of elements of sorted `a` that
/// are `<= key`. Identical probe schedule to the vector path.
#[inline]
fn upper_bound(a: &[u64], key: u64) -> usize {
    let mut base = 0usize;
    let mut len = a.len();
    while len > 1 {
        let half = len / 2;
        base += usize::from(a[base + half - 1] <= key) * half;
        len -= half;
    }
    if len == 1 {
        base += usize::from(a[base] <= key);
    }
    base
}

/// For every needle, append the number of elements of the sorted
/// `haystack` that are `<= needle` (i.e. `partition_point(|h| h <=
/// needle)`). One `u32` per needle, in order.
///
/// Serves the partition/ownership range queries (`owner_of` over the
/// rank markers) and the per-leaf demand range queries of the balance
/// rebuild — four binary searches advance in lockstep in the AVX2 path.
pub fn upper_bounds_into(haystack: &[u64], needles: &[u64], out: &mut Vec<u32>) {
    debug_assert!(haystack.len() < u32::MAX as usize);
    out.reserve(needles.len());
    if haystack.is_empty() {
        out.extend(std::iter::repeat_n(0u32, needles.len()));
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence checked above.
        unsafe { avx2::upper_bounds_into(haystack, needles, out) };
        return;
    }
    upper_bounds_scalar(haystack, needles, out);
}

fn upper_bounds_scalar(haystack: &[u64], needles: &[u64], out: &mut Vec<u32>) {
    for &n in needles {
        out.push(upper_bound(haystack, n) as u32);
    }
}

// ---------------------------------------------------------------------
// Kernel 3: adjacent-pair linear-invariant sweep.
// ---------------------------------------------------------------------

/// Scalar check of one adjacent pair of packed keys: sorted strictly
/// ascending and the first not an ancestor of the second.
#[inline]
fn pair_invalid(a: u64, b: u64) -> bool {
    use crate::morton::{key_shift, LEVEL_BITS, LEVEL_MASK};
    if a >= b {
        return true;
    }
    let (la, lb) = (a & LEVEL_MASK, b & LEVEL_MASK);
    la < lb && ((a ^ b) >> LEVEL_BITS) >> key_shift(la as u8) == 0
}

/// Index of the first adjacent pair violating the linear-octree
/// invariant (strictly Morton-sorted, non-overlapping), or `None` if the
/// array is a valid linear octree. Drives `is_valid_linear` and the
/// distributed `validate` sweeps.
pub fn find_invalid_pair(octs: &[Octant]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence checked above.
        return unsafe { avx2::find_invalid_pair(octs) };
    }
    find_invalid_pair_scalar(octs)
}

fn find_invalid_pair_scalar(octs: &[Octant]) -> Option<usize> {
    octs.windows(2)
        .position(|w| pair_invalid(w[0].raw(), w[1].raw()))
}

// ---------------------------------------------------------------------
// AVX2 implementations.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use crate::morton::{raw_keys, DIL_HI, DIL_X, DIL_Y, DIL_Z, LEVEL_BITS, LEVEL_MASK, MAX_LEVEL};
    use std::arch::x86_64::*;

    /// Sign bias for unsigned 64-bit compares via signed `cmpgt`.
    const BIAS: i64 = i64::MIN;

    #[inline]
    unsafe fn splat(v: u64) -> __m256i {
        _mm256_set1_epi64x(v as i64)
    }

    /// Per-lane `a <= b` for unsigned u64 lanes (all-ones mask where true).
    #[inline]
    unsafe fn le_u64(a: __m256i, b: __m256i, bias: __m256i) -> __m256i {
        // a <= b  ⟺  !(a > b); compare sign-biased operands.
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
        _mm256_xor_si256(gt, _mm256_set1_epi64x(-1))
    }

    /// One dilated axis step on 4 lanes: `d` selects identity / add /
    /// subtract of the per-lane `delta` within the `mask` lanes.
    #[inline]
    unsafe fn dilated_step4(part: __m256i, delta: __m256i, d: i32, mask: __m256i) -> __m256i {
        match d {
            0 => part,
            1 => {
                let not_mask = _mm256_andnot_si256(mask, _mm256_set1_epi64x(-1));
                _mm256_and_si256(
                    _mm256_add_epi64(_mm256_or_si256(part, not_mask), delta),
                    mask,
                )
            }
            _ => _mm256_and_si256(_mm256_sub_epi64(part, delta), mask),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn neighbor_keys_into(
        octs: &[Octant],
        dx: i32,
        dy: i32,
        dz: i32,
        out: &mut Vec<Octant>,
    ) {
        let raws = raw_keys(octs);
        let n = raws.len();
        let lvl_mask = splat(LEVEL_MASK);
        let mx = splat(DIL_X);
        let my = splat(DIL_Y);
        let mz = splat(DIL_Z);
        let hi = splat(DIL_HI);
        let max_shift = splat(3 * MAX_LEVEL as u64);
        let one = splat(1);
        let zero = _mm256_setzero_si256();
        let invalid = _mm256_set1_epi64x(-1);
        let mut i = 0;
        while i + 4 <= n {
            let raw = _mm256_loadu_si256(raws.as_ptr().add(i) as *const __m256i);
            let lvl = _mm256_and_si256(raw, lvl_mask);
            let key = _mm256_srli_epi64(raw, LEVEL_BITS as i32);
            // key_shift(level) = 3*MAX_LEVEL - 3*level, per lane.
            let lvl3 = _mm256_add_epi64(lvl, _mm256_add_epi64(lvl, lvl));
            let shift = _mm256_sub_epi64(max_shift, lvl3);
            let step = _mm256_sllv_epi64(one, shift);
            let nx = dilated_step4(_mm256_and_si256(key, mx), step, dx, mx);
            let ny = dilated_step4(
                _mm256_and_si256(key, my),
                _mm256_slli_epi64(step, 1),
                dy,
                my,
            );
            let nz = dilated_step4(
                _mm256_and_si256(key, mz),
                _mm256_slli_epi64(step, 2),
                dz,
                mz,
            );
            let nk = _mm256_or_si256(nx, _mm256_or_si256(ny, nz));
            let oob = _mm256_xor_si256(
                _mm256_cmpeq_epi64(_mm256_and_si256(nk, hi), zero),
                _mm256_set1_epi64x(-1),
            );
            let packed = _mm256_or_si256(_mm256_slli_epi64(nk, LEVEL_BITS as i32), lvl);
            let res = _mm256_blendv_epi8(packed, invalid, oob);
            let dst = out.spare_capacity_mut().as_mut_ptr() as *mut __m256i;
            _mm256_storeu_si256(dst, res);
            out.set_len(out.len() + 4);
            i += 4;
        }
        for &r in &raws[i..] {
            out.push(Octant::from_raw(neighbor_raw_unit(r, dx, dy, dz)));
        }
    }

    /// Haystacks at or below this length skip the gathered binary search
    /// for a broadcast-compare count: every element is compared against
    /// 8 needles per step with pure ALU ops. This is the `owner_of` case
    /// (one marker per rank), where `vpgatherqq` latency would eat the
    /// entire win.
    const LINEAR_MAX: usize = 16;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn upper_bounds_into(haystack: &[u64], needles: &[u64], out: &mut Vec<u32>) {
        let n = needles.len();
        let bias = _mm256_set1_epi64x(BIAS);
        let mut i = 0;
        if haystack.len() <= LINEAR_MAX {
            // upper_bound == count of elements <= needle: accumulate the
            // `le` masks (each -1) over the whole haystack, two vectors
            // of needles at a time for latency hiding.
            while i + 8 <= n {
                let k0 = _mm256_loadu_si256(needles.as_ptr().add(i) as *const __m256i);
                let k1 = _mm256_loadu_si256(needles.as_ptr().add(i + 4) as *const __m256i);
                let mut c0 = _mm256_setzero_si256();
                let mut c1 = _mm256_setzero_si256();
                for &h in haystack {
                    let hv = splat(h);
                    c0 = _mm256_sub_epi64(c0, le_u64(hv, k0, bias));
                    c1 = _mm256_sub_epi64(c1, le_u64(hv, k1, bias));
                }
                store_counts(out, c0);
                store_counts(out, c1);
                i += 8;
            }
        } else {
            let ptr = haystack.as_ptr() as *const i64;
            // All searches share the probe schedule: it depends only on
            // `len`, so the lanes advance in lockstep with gathers — two
            // independent 4-lane searches per iteration so the second
            // gather issues while the first is still in flight.
            while i + 8 <= n {
                let k0 = _mm256_loadu_si256(needles.as_ptr().add(i) as *const __m256i);
                let k1 = _mm256_loadu_si256(needles.as_ptr().add(i + 4) as *const __m256i);
                let mut b0 = _mm256_setzero_si256();
                let mut b1 = _mm256_setzero_si256();
                let mut len = haystack.len();
                while len > 1 {
                    let half = len / 2;
                    let probe = splat(half as u64 - 1);
                    let halfv = splat(half as u64);
                    let v0 = _mm256_i64gather_epi64::<8>(ptr, _mm256_add_epi64(b0, probe));
                    let v1 = _mm256_i64gather_epi64::<8>(ptr, _mm256_add_epi64(b1, probe));
                    b0 = _mm256_add_epi64(b0, _mm256_and_si256(le_u64(v0, k0, bias), halfv));
                    b1 = _mm256_add_epi64(b1, _mm256_and_si256(le_u64(v1, k1, bias), halfv));
                    len -= half;
                }
                // len == 1 tail: add one where a[base] <= key.
                let one = splat(1);
                let v0 = _mm256_i64gather_epi64::<8>(ptr, b0);
                let v1 = _mm256_i64gather_epi64::<8>(ptr, b1);
                b0 = _mm256_add_epi64(b0, _mm256_and_si256(le_u64(v0, k0, bias), one));
                b1 = _mm256_add_epi64(b1, _mm256_and_si256(le_u64(v1, k1, bias), one));
                store_counts(out, b0);
                store_counts(out, b1);
                i += 8;
            }
        }
        for &k in &needles[i..] {
            out.push(upper_bound(haystack, k) as u32);
        }
    }

    /// Append the four `u64` lanes of `v` to `out` narrowed to `u32`.
    /// Capacity was reserved by the caller.
    #[inline]
    unsafe fn store_counts(out: &mut Vec<u32>, v: __m256i) {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        let len = out.len();
        let dst = out.spare_capacity_mut().as_mut_ptr() as *mut u32;
        for (j, &b) in lanes.iter().enumerate() {
            dst.add(j).write(b as u32);
        }
        out.set_len(len + 4);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn find_invalid_pair(octs: &[Octant]) -> Option<usize> {
        let raws = raw_keys(octs);
        if raws.len() < 2 {
            return None;
        }
        let n = raws.len() - 1; // number of adjacent pairs
        let bias = _mm256_set1_epi64x(BIAS);
        let lvl_mask = splat(LEVEL_MASK);
        let max_shift = splat(3 * MAX_LEVEL as u64);
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let a = _mm256_loadu_si256(raws.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(raws.as_ptr().add(i + 1) as *const __m256i);
            // Sorted strictly ascending: a < b ⟺ !(b <= a).
            let sorted = _mm256_xor_si256(le_u64(b, a, bias), _mm256_set1_epi64x(-1));
            // Ancestor test: level(a) < level(b) and the keys agree above
            // a's level — (a^b) >> 5 >> key_shift(level(a)) == 0.
            let la = _mm256_and_si256(a, lvl_mask);
            let lb = _mm256_and_si256(b, lvl_mask);
            let lvl_lt = _mm256_cmpgt_epi64(lb, la); // small values: signed ok
            let la3 = _mm256_add_epi64(la, _mm256_add_epi64(la, la));
            let shift = _mm256_sub_epi64(max_shift, la3);
            let xk = _mm256_srli_epi64(_mm256_xor_si256(a, b), LEVEL_BITS as i32);
            let prefix_eq = _mm256_cmpeq_epi64(_mm256_srlv_epi64(xk, shift), zero);
            let ancestor = _mm256_and_si256(lvl_lt, prefix_eq);
            let ok = _mm256_andnot_si256(ancestor, sorted);
            let bad = _mm256_movemask_epi8(ok) != -1i32;
            if bad {
                for j in i..i + 4 {
                    if pair_invalid(raws[j], raws[j + 1]) {
                        return Some(j);
                    }
                }
                unreachable!("vector lane flagged a pair the scalar check accepts");
            }
            i += 4;
        }
        (i..n).find(|&j| pair_invalid(raws[j], raws[j + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::{MAX_LEVEL, ROOT_LEN};
    use crate::ops::{new_tree, refine};
    use scomm::rng::SplitMix64;

    fn random_octants(n: usize, max_level: u8, seed: u64) -> Vec<Octant> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let level = rng.below(max_level as u64 + 1) as u8;
                Octant::from_uniform_index(level, rng.below(1u64 << (3 * level)))
            })
            .collect()
    }

    /// The kernel's contract spelled with the `Octant` API, one at a time.
    fn plain_neighbors(octs: &[Octant], dx: i32, dy: i32, dz: i32) -> Vec<Octant> {
        octs.iter()
            .map(|o| o.neighbor(dx, dy, dz).unwrap_or(Octant::INVALID))
            .collect()
    }

    // Each test runs the dispatching kernel (AVX2 on an AVX2 host) and the
    // scalar body, so one build covers both.
    type NeighborFn = fn(&[Octant], i32, i32, i32, &mut Vec<Octant>);
    type UpperBoundsFn = fn(&[u64], &[u64], &mut Vec<u32>);
    type InvalidPairFn = fn(&[Octant]) -> Option<usize>;
    const NEIGHBORS: [(&str, NeighborFn); 2] = [
        ("dispatch", neighbor_keys_into),
        ("scalar", neighbor_keys_scalar),
    ];
    const UPPER_BOUNDS: [(&str, UpperBoundsFn); 2] = [
        ("dispatch", upper_bounds_into),
        ("scalar", upper_bounds_scalar),
    ];
    const INVALID_PAIR: [(&str, InvalidPairFn); 2] = [
        ("dispatch", find_invalid_pair),
        ("scalar", find_invalid_pair_scalar),
    ];

    #[test]
    fn avx2_is_used_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            simd_available(),
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!simd_available());
    }

    #[test]
    fn neighbor_kernel_matches_octant_api() {
        let octs = random_octants(257, MAX_LEVEL, 42);
        for (name, kernel) in NEIGHBORS {
            for (dx, dy, dz) in Octant::neighbor_directions() {
                let mut out = Vec::new();
                kernel(&octs, dx, dy, dz, &mut out);
                assert_eq!(
                    out,
                    plain_neighbors(&octs, dx, dy, dz),
                    "{name} dir ({dx},{dy},{dz})"
                );
            }
        }
    }

    #[test]
    fn neighbor_kernel_handles_domain_edges() {
        // Octants hugging every domain face at the finest level: the
        // out-of-domain detection must flag exactly the outward steps.
        let m = ROOT_LEN - 1;
        let octs = vec![
            Octant::new(0, 0, 0, MAX_LEVEL),
            Octant::new(m, m, m, MAX_LEVEL),
            Octant::new(0, m, 0, MAX_LEVEL),
            Octant::new(m, 0, m, MAX_LEVEL),
            Octant::root(),
        ];
        for (name, kernel) in NEIGHBORS {
            for (dx, dy, dz) in Octant::neighbor_directions() {
                let mut out = Vec::new();
                kernel(&octs, dx, dy, dz, &mut out);
                for (o, n) in octs.iter().zip(&out) {
                    assert_eq!(
                        o.neighbor(dx, dy, dz),
                        (*n != Octant::INVALID).then_some(*n),
                        "{name}: octant {o:?} dir ({dx},{dy},{dz})"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bounds_match_partition_point() {
        let mut rng = SplitMix64::new(7);
        // 16/17 straddle the AVX2 linear-count vs gathered-search cutoff.
        for hay_len in [0usize, 1, 2, 3, 7, 16, 17, 64, 1000] {
            let mut hay: Vec<u64> = (0..hay_len).map(|_| rng.below(500)).collect();
            hay.sort_unstable();
            let needles: Vec<u64> = (0..131).map(|_| rng.below(600)).collect();
            let want: Vec<u32> = needles
                .iter()
                .map(|k| hay.partition_point(|h| h <= k) as u32)
                .collect();
            for (name, kernel) in UPPER_BOUNDS {
                let mut out = Vec::new();
                kernel(&hay, &needles, &mut out);
                assert_eq!(out, want, "{name}, hay_len {hay_len}");
            }
        }
    }

    #[test]
    fn upper_bounds_with_duplicates_and_extremes() {
        let hay = vec![5u64, 5, 5, 9, 9, u64::MAX];
        let needles = vec![0u64, 4, 5, 6, 9, 10, u64::MAX, u64::MAX - 1];
        let want: Vec<u32> = needles
            .iter()
            .map(|k| hay.partition_point(|h| h <= k) as u32)
            .collect();
        for (name, kernel) in UPPER_BOUNDS {
            let mut out = Vec::new();
            kernel(&hay, &needles, &mut out);
            assert_eq!(out, want, "{name}");
        }
    }

    /// The invariant spelled with the `Octant` API, one pair at a time.
    fn first_invalid_window(octs: &[Octant]) -> Option<usize> {
        octs.windows(2)
            .position(|w| w[0] >= w[1] || w[0].contains(&w[1]))
    }

    #[test]
    fn find_invalid_pair_matches_window_scan() {
        let mut t = new_tree(2);
        refine(&mut t, |o| o.x() == 0);
        assert_eq!(first_invalid_window(&t), None);
        let mut bad = t.clone();
        bad.swap(10, 11);
        assert_eq!(first_invalid_window(&bad), Some(10));
        for (name, kernel) in INVALID_PAIR {
            assert_eq!(kernel(&t), None, "{name}");
            // Break sortedness mid-array.
            assert_eq!(kernel(&bad), Some(10), "{name}");
            // Insert an ancestor overlap at every position, so the
            // violation lands in every vector lane and in the scalar tail.
            for at in 0..t.len() {
                let mut overlap = t.clone();
                let anc = overlap[at].parent();
                overlap.insert(at, anc);
                let vi = kernel(&overlap);
                assert!(vi.is_some());
                assert_eq!(vi, first_invalid_window(&overlap), "{name}: insert at {at}");
            }
        }
    }

    #[test]
    fn find_invalid_pair_short_arrays() {
        let pair = [Octant::root(), Octant::root().child(0)];
        for (name, kernel) in INVALID_PAIR {
            assert_eq!(kernel(&[]), None, "{name}");
            assert_eq!(kernel(&[Octant::root()]), None, "{name}");
            assert_eq!(kernel(&pair), Some(0), "{name}");
        }
    }

    #[test]
    fn kernels_accept_unaligned_tails() {
        // Exercise every remainder length around the 4-lane width.
        for n in 0..13usize {
            let octs = random_octants(n, 6, n as u64 + 1);
            for (name, kernel) in NEIGHBORS {
                let mut out = Vec::new();
                kernel(&octs, 1, 0, -1, &mut out);
                assert_eq!(out, plain_neighbors(&octs, 1, 0, -1), "{name}, n = {n}");
            }
        }
    }
}
