//! 64-byte-aligned `f32` buffers for the kernel memory plan.
//!
//! Every buffer that can reach the microkernels — tape node storage,
//! arena scratch, serving scratch, packed plan weights — is backed by an
//! [`AlignedVec`] so its base address sits on a cache-line (and AVX-512
//! friendly) 64-byte boundary. The SIMD kernels use unaligned loads and
//! are correct either way; alignment buys the fast path on every load
//! and keeps accumulator tiles from straddling cache lines. The
//! alignment contract is enforced at the *sources* (allocation here,
//! adoption in [`crate::tensor::Tensor`] and [`crate::arena::Arena`])
//! with debug assertions, rather than at every kernel entry, because
//! kernels legitimately receive interior row panels at arbitrary
//! offsets.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of every buffer handed to the kernels.
pub const BUF_ALIGN: usize = 64;

/// Whether a slice's base address honors the 64-byte contract. Empty
/// slices are trivially aligned (no load ever dereferences them).
#[inline]
pub fn is_aligned(buf: &[f32]) -> bool {
    buf.is_empty() || (buf.as_ptr() as usize).is_multiple_of(BUF_ALIGN)
}

/// A heap `f32` buffer whose base address is always 64-byte aligned.
///
/// Supports exactly the operations the tape/arena/serving memory plan
/// needs: zero-filled construction, `Vec::resize`-compatible reshaping
/// (existing prefix preserved, growth zero-filled), and slice access via
/// `Deref`. It is **not** a growable vector — no `push`; lengths are
/// always known up front.
pub struct AlignedVec {
    ptr: NonNull<f32>,
    len: usize,
    cap: usize,
}

// SAFETY: the buffer is plain `f32` data owned by this value alone, like
// a `Vec<f32>`'s, so moving it to another thread is sound.
unsafe impl Send for AlignedVec {}
// SAFETY: `&AlignedVec` only gives out `&[f32]`; mutation needs `&mut`.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// An empty buffer (no allocation; dangling but aligned pointer).
    pub fn new() -> AlignedVec {
        AlignedVec {
            ptr: NonNull::new(BUF_ALIGN as *mut f32).expect("BUF_ALIGN is nonzero"),
            len: 0,
            cap: 0,
        }
    }

    /// Layout of a `cap`-element buffer. Panics when the byte size
    /// overflows `isize`, so a slice can never claim more memory than
    /// was allocated.
    fn layout(cap: usize) -> Layout {
        Layout::array::<f32>(cap)
            .and_then(|l| l.align_to(BUF_ALIGN))
            .expect("aligned buffer layout")
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> AlignedVec {
        if len == 0 {
            return AlignedVec::new();
        }
        let layout = Self::layout(len);
        // Zeroed pages are what `vec![0.0; len]` produced before; the OS
        // gives them back pre-zeroed for large buffers, so cost matches.
        // SAFETY: `layout` has a nonzero size (`len > 0`); a null result
        // is handled below.
        let raw = unsafe { alloc_zeroed(layout) } as *mut f32;
        let ptr = NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout));
        AlignedVec { ptr, len, cap: len }
    }

    /// A buffer filled with `v`.
    pub fn filled(len: usize, v: f32) -> AlignedVec {
        let mut b = AlignedVec::zeroed(len);
        if v != 0.0 {
            b.fill(v);
        }
        b
    }

    /// Copy `src` into a fresh aligned buffer.
    pub fn from_slice(src: &[f32]) -> AlignedVec {
        let mut b = AlignedVec::zeroed(src.len());
        b.copy_from_slice(src);
        b
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in elements (never shrinks).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// `Vec::resize(len, 0.0)`-compatible: keeps the existing prefix,
    /// zero-fills any growth, reuses the allocation whenever capacity
    /// suffices.
    pub fn resize_zeroed(&mut self, len: usize) {
        if len <= self.cap {
            if len > self.len {
                // SAFETY: `self.len < len <= self.cap`, so the written
                // range lies inside the allocation.
                unsafe {
                    std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, len - self.len);
                }
            }
            self.len = len;
            return;
        }
        let mut grown = AlignedVec::zeroed(len);
        grown[..self.len].copy_from_slice(self);
        *self = grown;
    }

    /// Take the buffer out, leaving `self` empty.
    pub fn take(&mut self) -> AlignedVec {
        std::mem::take(self)
    }
}

impl Default for AlignedVec {
    fn default() -> AlignedVec {
        AlignedVec::new()
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: `cap > 0` means `ptr` came from `alloc_zeroed` with
            // this very layout, and it is freed only here.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

impl Deref for AlignedVec {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        // SAFETY: `ptr` is aligned and non-null (dangling only when
        // `len == 0`), and its first `len <= cap` floats are allocated and
        // initialized (zero-filled on allocation and on growth).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> AlignedVec {
        AlignedVec::from_slice(self)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &AlignedVec) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec[{}]", self.len)
    }
}

impl FromIterator<f32> for AlignedVec {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> AlignedVec {
        // Collect through a Vec first (iterator length may be unknown),
        // then copy into aligned storage; used on cold construction
        // paths only.
        let v: Vec<f32> = iter.into_iter().collect();
        AlignedVec::from_slice(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_64_byte_aligned() {
        for len in [1, 3, 8, 17, 64, 1000] {
            let b = AlignedVec::zeroed(len);
            assert!(is_aligned(&b), "len {len} base not 64-byte aligned");
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&x| x == 0.0));
        }
        assert!(is_aligned(&AlignedVec::new()));
    }

    #[test]
    fn resize_matches_vec_semantics() {
        let mut b = AlignedVec::filled(4, 7.0);
        b.resize_zeroed(8);
        assert_eq!(&b[..4], &[7.0; 4]);
        assert_eq!(&b[4..], &[0.0; 4]);
        assert!(is_aligned(&b));
        let cap = b.capacity();
        b.resize_zeroed(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), cap, "shrinking keeps the allocation");
        // Growing back within capacity zero-fills the re-exposed tail.
        b[0] = 1.0;
        b[1] = 2.0;
        b.resize_zeroed(8);
        assert_eq!(&b[..2], &[1.0, 2.0]);
        assert_eq!(&b[2..], &[0.0; 6]);
    }

    #[test]
    fn clone_and_eq() {
        let a = AlignedVec::from_slice(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        assert!(is_aligned(&b));
        assert_eq!(a, b);
        assert_ne!(a, AlignedVec::from_slice(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "aligned buffer layout")]
    fn an_overflowing_length_is_refused() {
        // 4·(2^62 + 1) bytes wraps to 4 in a `usize` multiply.
        let _ = AlignedVec::zeroed((1 << 62) + 1);
    }

    #[test]
    fn take_leaves_empty() {
        let mut a = AlignedVec::from_slice(&[5.0; 9]);
        let b = a.take();
        assert_eq!(b.len(), 9);
        assert!(a.is_empty());
    }
}
