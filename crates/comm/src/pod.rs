//! Plain-old-data marker for message payloads.
//!
//! Messages are stored type-erased as byte buffers; only types whose every
//! bit pattern is meaningful and which carry no pointers/drop glue may
//! travel through the mailbox. The trait is sealed to the numeric types the
//! SpMV engine actually sends (values, indices, counts).

/// Marker for types that can be transported as raw bytes.
///
/// # Safety
/// Implementors must be `Copy`, have no padding-dependent invariants beyond
/// what `Copy` guarantees, no drop glue, and every aligned byte pattern of
/// `size_of::<Self>()` bytes must be a valid value.
///
/// # Aliasing contract for borrowed sends
/// [`crate::Comm::isend`] copies the payload eagerly, so the source slice
/// is free the moment the call returns. [`crate::Comm::isend_ref`] instead
/// transports a *pointer* to the caller's slice: the receiver reads the
/// bytes directly out of the sender's buffer when it completes the matching
/// receive, on the receiver's thread. That cross-thread read is sound for
/// `Pod` types precisely because of the rules above — any byte snapshot is
/// a valid value, so a plain `memcpy` with no synchronization beyond the
/// mailbox lock suffices — **provided the buffer is neither mutated nor
/// freed while the message is in flight**. The returned request enforces
/// this at compile time by holding the borrow until [`crate::Comm::wait`]
/// (its `Drop` blocks as a last resort). Padding bytes, if a future
/// implementor had any, would leak their current contents to the receiver;
/// the sealed numeric impls below have none.
pub unsafe trait Pod: Copy + Send + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        // SAFETY: a primitive numeric type — `Copy`, no drop glue, no
        // padding, and every bit pattern is a valid value.
        unsafe impl Pod for $t {}
    )*};
}
impl_pod!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Reinterprets a slice of `T` as bytes.
pub(crate) fn as_bytes<T: Pod>(data: &[T]) -> &[u8] {
    // SAFETY: Pod types are valid as raw bytes; lifetime and length are
    // carried over from the input slice.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// Copies `bytes` into the `T`-typed destination slice.
///
/// # Panics
/// If the byte length does not match the destination exactly.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn copy_to_typed<T: Pod>(bytes: &[u8], dst: &mut [T]) {
    assert_eq!(
        bytes.len(),
        std::mem::size_of_val(dst),
        "message size mismatch: {} bytes received into a {}-byte buffer",
        bytes.len(),
        std::mem::size_of_val(dst)
    );
    // SAFETY: lengths match and T is Pod.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_mut_ptr() as *mut u8, bytes.len());
    }
}

/// Builds a `Vec<T>` back from a byte buffer.
///
/// # Panics
/// If the byte length is not a multiple of `size_of::<T>()`.
pub(crate) fn from_bytes_vec<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert_eq!(
        bytes.len() % sz,
        0,
        "byte length {} not a multiple of {}",
        bytes.len(),
        sz
    );
    let n = bytes.len() / sz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved; T is Pod; lengths match.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let data = [1.5f64, -2.25, 1e300];
        let bytes = as_bytes(&data);
        assert_eq!(bytes.len(), 24);
        let mut out = [0.0f64; 3];
        copy_to_typed(bytes, &mut out);
        assert_eq!(out, data);
        let v: Vec<f64> = from_bytes_vec(bytes);
        assert_eq!(v, data);
    }

    #[test]
    fn roundtrip_u32() {
        let data = [7u32, 0, u32::MAX];
        let v: Vec<u32> = from_bytes_vec(as_bytes(&data));
        assert_eq!(v, data);
    }

    #[test]
    fn empty_slices() {
        let data: [f64; 0] = [];
        assert!(as_bytes(&data).is_empty());
        let v: Vec<f64> = from_bytes_vec(&[]);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut out = [0.0f64; 2];
        copy_to_typed(&[0u8; 8], &mut out);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let _: Vec<f64> = from_bytes_vec(&[0u8; 12]);
    }
}
