//! Feature-gated counting global allocator (`count-alloc`).
//!
//! [`CountingAlloc`] wraps the system allocator and tallies every
//! allocation into a per-thread counter, so a test can pin an
//! allocation-free steady state exactly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dismastd_obs::alloc::CountingAlloc = dismastd_obs::alloc::CountingAlloc;
//!
//! warm_up();
//! let before = dismastd_obs::alloc::allocation_count();
//! hot_loop();
//! assert_eq!(dismastd_obs::alloc::allocation_count(), before);
//! ```
//!
//! Counters are thread-local: each cluster rank audits its own loop
//! without cross-thread noise.  Only allocations count — `dealloc` is
//! free, so dropping a warm buffer never trips the audit.
//!
//! Beside the call count runs a byte count ([`allocated_bytes`]): the
//! sizes requested, a `realloc` counting its whole new size.  Where the
//! call count pins "nothing allocates", the byte count pins "what
//! allocates does not scale with X" — two runs that differ only in X must
//! request the same bytes.
//!
//! [`exempt`] suspends counting for one closure on the current thread.
//! It scopes out infrastructure the audit deliberately ignores — the
//! channel-node allocation inside a transport send — while everything
//! around it stays counted.  Production code calls the crate-root
//! [`crate::alloc_exempt`], which compiles to a plain call when the
//! feature is off.
//!
//! The thread-locals are `const`-initialised: their first access from
//! inside the allocator cannot itself allocate, so the hook never
//! re-enters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations observed on this thread while not [`exempt`].
    static COUNT: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Nesting depth of [`exempt`] scopes; counting is off above zero.
    static EXEMPT_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// System-allocator wrapper that counts per-thread allocations.
pub struct CountingAlloc;

#[inline]
fn record(bytes: usize) {
    EXEMPT_DEPTH.with(|d| {
        if d.get() == 0 {
            COUNT.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: defers every operation to `System`; the bookkeeping around it
// touches only const-initialised thread-local `Cell`s, which never
// allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations counted on the current thread so far (monotone; exempt
/// scopes and `dealloc` excluded).
pub fn allocation_count() -> u64 {
    COUNT.with(Cell::get)
}

/// Bytes requested by the allocations [`allocation_count`] counted
/// (monotone; a `realloc` adds its full new size).
pub fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Resets the current thread's allocation and byte counters to zero.
pub fn reset_allocation_count() {
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
}

/// Runs `f` with allocation counting suspended on this thread.  Nests;
/// the counter resumes when the outermost scope exits, even on unwind.
pub fn exempt<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            EXEMPT_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    EXEMPT_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    // No `#[global_allocator]` here — installing one is the binary's
    // choice, and the test crate's harness should stay on the system
    // allocator.  These tests exercise the counter plumbing directly.

    #[test]
    fn exempt_scopes_nest_and_restore() {
        let base = (allocation_count(), allocated_bytes());
        exempt(|| {
            record(8); // suppressed
            exempt(|| record(8)); // suppressed, nested
            record(8); // still suppressed after inner scope
        });
        assert_eq!((allocation_count(), allocated_bytes()), base);
        record(24);
        assert_eq!(
            (allocation_count(), allocated_bytes()),
            (base.0 + 1, base.1 + 24)
        );
    }

    #[test]
    fn reset_zeroes_the_thread_counter() {
        record(16);
        assert!(allocation_count() > 0 && allocated_bytes() >= 16);
        reset_allocation_count();
        assert_eq!((allocation_count(), allocated_bytes()), (0, 0));
    }
}
