//! Size-classed buffer recycling behind the tape's memory plan.
//!
//! The [`Arena`] owns two things: a free list of `f32` buffers keyed by
//! exact element count (training replays the same op sequence every
//! epoch, so lengths repeat exactly — no rounding classes needed), and
//! the allocation accounting the `tape.alloc_bytes` / `tape.arena_reuse`
//! metrics report. Everything that allocates or recycles a tape tensor
//! funnels its bookkeeping through here, which is what lets
//! `validate_trace` assert that steady-state epochs allocate nothing.
//!
//! Two allocation flavors keep the steady state exactly zero-alloc:
//! [`Arena::take`] (transient scratch — recycled through the free list
//! via [`Arena::give`] within the same pass) and
//! [`Arena::take_persistent`] (buffers adopted into long-lived node
//! slots — allocated directly so they can never starve the scratch pool;
//! their reuse happens at the node level across passes, not here).

use std::collections::BTreeMap;

/// Buffer pool + allocation accounting for one [`crate::tape::Tape`].
#[derive(Default)]
pub struct Arena {
    /// Free buffers by exact length. `BTreeMap` over `HashMap` because
    /// the handful of distinct size classes makes ordered lookup cheap
    /// and deterministic.
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    alloc_bytes: u64,
    reuse_count: u64,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::default()
    }

    /// A transient buffer of exactly `len` elements with **unspecified
    /// contents** (recycled buffers keep their previous values); the
    /// caller must fully overwrite it and return it with [`Arena::give`]
    /// before the pass ends.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if let Some(bufs) = self.free.get_mut(&len) {
            if let Some(buf) = bufs.pop() {
                self.reuse_count += 1;
                return buf;
            }
        }
        self.alloc_bytes += (len * std::mem::size_of::<f32>()) as u64;
        vec![0.0; len]
    }

    /// Like [`Arena::take`] but zero-filled (for accumulation targets).
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// A buffer destined for a long-lived node slot (grad/aux storage).
    /// Always allocates, deliberately bypassing the free list: these
    /// one-time adoptions happen mid-pass, and letting them consume a
    /// scratch buffer some op returns and re-takes every pass would push
    /// one stray allocation into the first replay.
    pub fn take_persistent(&mut self, len: usize) -> Vec<f32> {
        self.alloc_bytes += (len * std::mem::size_of::<f32>()) as u64;
        vec![0.0; len]
    }

    /// Return a buffer to the free list for later reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if !buf.is_empty() {
            self.free.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Record `bytes` of heap allocation done on the arena's behalf
    /// (node buffers and op metadata the tape manages directly).
    pub fn note_alloc(&mut self, bytes: usize) {
        self.alloc_bytes += bytes as u64;
    }

    /// Record one buffer served from recycled storage.
    pub fn note_reuse(&mut self) {
        self.reuse_count += 1;
    }

    /// Total bytes heap-allocated through this arena since creation.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Total buffers served from recycled storage since creation.
    pub fn reuse_count(&self) -> u64 {
        self.reuse_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_then_reuses() {
        let mut a = Arena::new();
        let b1 = a.take(64);
        assert_eq!(b1.len(), 64);
        assert_eq!(a.alloc_bytes(), 256);
        assert_eq!(a.reuse_count(), 0);
        a.give(b1);
        let b2 = a.take(64);
        assert_eq!(b2.len(), 64);
        assert_eq!(a.alloc_bytes(), 256, "second take must not allocate");
        assert_eq!(a.reuse_count(), 1);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut a = Arena::new();
        let mut b = a.take(8);
        b.fill(7.5);
        a.give(b);
        assert!(a.take_zeroed(8).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn distinct_lengths_use_distinct_classes() {
        let mut a = Arena::new();
        a.give(vec![1.0; 4]);
        let b = a.take(8);
        assert_eq!(b.len(), 8);
        assert_eq!(a.reuse_count(), 0, "length mismatch must not reuse");
        assert_eq!(a.alloc_bytes(), 32);
    }

    #[test]
    fn persistent_take_leaves_free_list_untouched() {
        let mut a = Arena::new();
        a.give(vec![1.0; 8]);
        let p = a.take_persistent(8);
        assert_eq!(p.len(), 8);
        assert_eq!(a.alloc_bytes(), 32, "persistent take always allocates");
        // The free-listed buffer is still there for a transient take.
        let t = a.take(8);
        assert_eq!(t.len(), 8);
        assert_eq!(a.reuse_count(), 1);
        assert_eq!(a.alloc_bytes(), 32);
    }
}
