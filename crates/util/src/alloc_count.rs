//! A counting global allocator for zero-allocation assertions.
//!
//! The batched datapath (DESIGN.md §11) claims a steady state with no
//! heap allocation per datagram. That claim is only worth having if it
//! is *checked*, so the tests that pin it (`crates/io/tests/zero_alloc.rs`)
//! install [`CountingAlloc`] as the global allocator and read the
//! per-thread counters around the hot loop:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mpquic_util::alloc_count::CountingAlloc =
//!     mpquic_util::alloc_count::CountingAlloc;
//!
//! alloc_count::reset_thread_counts();
//! hot_loop();
//! assert_eq!(alloc_count::thread_counts().allocs, 0);
//! ```
//!
//! Counters are thread-local: an allocation is charged to the thread
//! that performed it, so a measurement on the datapath thread is not
//! polluted by other test threads. The allocator itself just forwards
//! to [`std::alloc::System`]; it adds two `Cell` bumps per allocation
//! and nothing on the free path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation counters for the current thread since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Number of allocation calls (`alloc`, `alloc_zeroed`, and the
    /// allocating half of `realloc`).
    pub allocs: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

/// Reads the current thread's counters.
pub fn thread_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Resets the current thread's counters to zero.
pub fn reset_thread_counts() {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
}

/// A [`GlobalAlloc`] that counts allocations per thread and forwards to
/// the system allocator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    fn charge(layout: Layout) {
        // `try_with` instead of `with`: the allocator can be called
        // during thread teardown after the thread-locals are gone, and
        // must not panic there.
        let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
        let _ = BYTES.try_with(|c| c.set(c.get().wrapping_add(layout.size() as u64)));
    }
}

// SAFETY: defers entirely to `System`; the counter updates have no
// effect on the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract (`layout` has
    // non-zero size); the same `layout` is forwarded to `System`
    // unchanged, and counting does not touch the returned memory.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout);
        System.alloc(layout)
    }

    // SAFETY: as `alloc` — the contract is forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; since every allocation path forwards to `System`,
    // handing the pair back to `System` is exactly its contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as `dealloc` for the (`ptr`, `layout`) pair; `new_size`
    // passes through to `System`, which checks its own layout math.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is one allocator round-trip; charge the new size.
        if let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) {
            Self::charge(new_layout);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(unsafe_code)]
    fn counts_and_resets_per_thread() {
        reset_thread_counts();
        assert_eq!(thread_counts(), AllocCounts::default());

        let layout = Layout::from_size_align(64, 8).unwrap();
        let a = CountingAlloc;
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        let counts = thread_counts();
        assert_eq!(counts.allocs, 1);
        assert_eq!(counts.bytes, 64);

        // Another thread starts from zero.
        let other = std::thread::spawn(|| thread_counts().allocs)
            .join()
            .unwrap();
        assert_eq!(other, 0);

        reset_thread_counts();
        assert_eq!(thread_counts().allocs, 0);
    }
}
