//! Live heap bytes, counted by a global allocator that forwards to the
//! system allocator. The benchmark reports memory as what the program
//! holds: the resident set also holds what the allocator keeps after
//! frees, and that moved by a fifth between identical cold runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

/// Bytes allocated and not yet freed. A statistic: it publishes no other
/// data, so relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Live heap bytes now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// counter update that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are System's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from System,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_is_held() {
        // Other tests allocate concurrently, so compare generously.
        let before = live_bytes();
        let block = std::hint::black_box(vec![7u8; 64 << 20]);
        let held = live_bytes();
        assert!(held >= before + (32 << 20), "{before} -> {held}");
        drop(block);
        assert!(live_bytes() < held - (32 << 20));
    }
}
