//! The counting global allocator behind the workspace's allocation-free
//! guards: `tests/alloc_free.rs` and `perf_suite`'s `allocations`
//! column both install it and read [`allocations`] around the region
//! they measure.
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: count_alloc::CountingAllocator = count_alloc::CountingAllocator;
//!
//! let before = count_alloc::allocations();
//! let v = vec![0u8; 64];
//! assert!(count_alloc::allocations() > before);
//! drop(v);
//! ```
//!
//! The count is one process-global counter: every `alloc`, `realloc` and
//! `alloc_zeroed` on any thread bumps it, so a measuring window also
//! sees whatever other threads allocate meanwhile (per-scope accounting
//! is ROADMAP P0's open half).

// The only unsafe code outside the SIMD kernel: a `GlobalAlloc` impl is
// unsafe by signature. Every unsafe operation inside it must be
// explicit and carry its own SAFETY justification.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting every allocating call. Install with
/// `#[global_allocator]` in the test or binary that measures.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocating calls (`alloc`, `realloc`, `alloc_zeroed`) made through
/// an installed [`CountingAllocator`] since process start, on all
/// threads. Stays 0 when the allocator is not installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method counts, then forwards to `System` verbatim — the
// allocator upholds `GlobalAlloc`'s contract iff `System` does, and the
// caller-provided layout/pointer obligations pass through unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, forwarded unmodified; the
        // caller guarantees it is non-zero-sized per `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (all our methods
        // delegate to it) with this same `layout`, per the caller's
        // `dealloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block (see
        // `dealloc`), and the caller guarantees `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same forwarding argument as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}
