//! Plain-old-data marker trait used for zero-copy message payloads.
//!
//! Messages travel between simulated ranks as `Vec<u8>` buffers. To send a
//! typed slice without a serialization framework we require the element type
//! to be [`Pod`]: `Copy`, with no padding-sensitive invariants, valid for
//! any bit pattern that another rank could have produced from a value of the
//! same type. All payloads originate from real values of `T` on the sending
//! rank, so round-tripping through bytes is always reading back bytes that
//! were a valid `T`.

/// Marker for types that can be sent between ranks as raw bytes.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]` (or a primitive), contain no
/// references, pointers, or non-`Pod` fields, and have no padding bytes:
/// [`as_bytes`] reads every byte of a value, and a padding byte is
/// uninitialised memory. Every byte pattern produced by `as_bytes` of a
/// valid value must be accepted by `from_bytes`.
pub unsafe trait Pod: Copy + Send + 'static {
    /// Evaluated by [`as_bytes`] for every type it views: the tuple
    /// impls below turn a tuple whose fields leave padding into a compile
    /// error there.
    #[doc(hidden)]
    const NO_PADDING: () = ();
}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
// SAFETY (tuples): the fields are `Pod`, and `NO_PADDING` rejects any
// tuple whose size exceeds the sum of its fields' sizes.
unsafe impl<A: Pod, B: Pod> Pod for (A, B) {
    const NO_PADDING: () = assert!(
        std::mem::size_of::<(A, B)>() == std::mem::size_of::<A>() + std::mem::size_of::<B>(),
        "a tuple with padding bytes is not Pod"
    );
}
unsafe impl<A: Pod, B: Pod, C: Pod> Pod for (A, B, C) {
    const NO_PADDING: () = assert!(
        std::mem::size_of::<(A, B, C)>()
            == std::mem::size_of::<A>() + std::mem::size_of::<B>() + std::mem::size_of::<C>(),
        "a tuple with padding bytes is not Pod"
    );
}
// SAFETY: an array of `Pod` elements has no bytes besides theirs.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// View a slice of `Pod` values as raw bytes.
pub fn as_bytes<T: Pod>(data: &[T]) -> &[u8] {
    let () = T::NO_PADDING;
    // SAFETY: `T: Pod` guarantees the representation is plain,
    // initialised bytes with no padding. Lifetime and length are preserved.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// Copy raw bytes (produced by [`as_bytes`] on the same type) back into a
/// typed vector.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
pub fn from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    extend_from_bytes(&mut out, bytes);
    out
}

/// Read back the one value (a `[T; N]` reads `N`) whose bytes [`as_bytes`]
/// produced: the heap-free counterpart of [`from_bytes`].
///
/// # Panics
///
/// Panics if `bytes.len()` is not `size_of::<T>()`.
pub(crate) fn read_bytes<T: Pod>(bytes: &[u8]) -> T {
    let size = std::mem::size_of::<T>();
    assert_eq!(
        bytes.len(),
        size,
        "byte buffer length does not match the value's size"
    );
    // SAFETY: the length matches, and bytes `as_bytes` made of a valid `T`
    // form a valid `T` (`T: Pod`); a byte buffer is read unaligned.
    unsafe { std::ptr::read_unaligned(bytes.as_ptr().cast::<T>()) }
}

/// Append typed values decoded from raw bytes onto `out`, reusing its
/// spare capacity. The allocation-free counterpart of [`from_bytes`] for
/// hot paths that recycle their receive buffers.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
pub fn extend_from_bytes<T: Pod>(out: &mut Vec<T>, bytes: &[u8]) {
    let size = std::mem::size_of::<T>();
    assert!(
        size == 0 || bytes.len().is_multiple_of(size),
        "byte buffer length {} not a multiple of element size {}",
        bytes.len(),
        size
    );
    if size == 0 {
        return;
    }
    let n = bytes.len() / size;
    out.reserve(n);
    let old_len = out.len();
    // SAFETY: `reserve` guarantees capacity for `old_len + n` elements;
    // the source bytes were produced from valid `T`s by `as_bytes`, and
    // `T: Pod` means any such bytes form valid values. The destination
    // region starts past the initialized prefix, so it cannot overlap
    // the source slice.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            (out.as_mut_ptr() as *mut u8).add(old_len * size),
            bytes.len(),
        );
        out.set_len(old_len + n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let data = vec![1.5f64, -2.25, 1e300, 0.0];
        let bytes = as_bytes(&data);
        assert_eq!(bytes.len(), 32);
        let back: Vec<f64> = from_bytes(bytes);
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_tuple() {
        let data = vec![(1u64, 2.5f64), (3, 4.5)];
        let back: Vec<(u64, f64)> = from_bytes(as_bytes(&data));
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_empty() {
        let data: Vec<u32> = vec![];
        let back: Vec<u32> = from_bytes(as_bytes(&data));
        assert!(back.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_length_panics() {
        let bytes = [0u8; 7];
        let _: Vec<u32> = from_bytes(&bytes);
    }

    #[test]
    fn roundtrip_array() {
        let data = vec![[1u32, 2, 3], [4, 5, 6]];
        let back: Vec<[u32; 3]> = from_bytes(as_bytes(&data));
        assert_eq!(back, data);
    }

    #[test]
    fn read_bytes_roundtrips_an_array() {
        let data = [1.5f64, -0.0, 1e300];
        let back: [f64; 3] = read_bytes(as_bytes(&data[..]));
        assert_eq!(back.map(f64::to_bits), data.map(f64::to_bits));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn read_bytes_bad_length_panics() {
        let _: [u32; 2] = read_bytes(&[0u8; 7]);
    }

    #[test]
    fn extend_reuses_capacity_and_appends() {
        let mut out: Vec<f64> = Vec::with_capacity(8);
        out.push(9.0);
        let ptr = out.as_ptr();
        let data = [1.5f64, -2.25, 1e300];
        extend_from_bytes(&mut out, as_bytes(&data));
        assert_eq!(out, vec![9.0, 1.5, -2.25, 1e300]);
        assert_eq!(out.as_ptr(), ptr, "must reuse existing capacity");
        extend_from_bytes::<f64>(&mut out, &[]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn extend_bad_length_panics() {
        let mut out: Vec<u32> = Vec::new();
        extend_from_bytes(&mut out, &[0u8; 7]);
    }
}
