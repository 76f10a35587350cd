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
//! A third reading is process-wide: [`live_bytes`], the bytes allocated
//! and not yet freed on any thread, and [`peak_live_bytes`], its
//! high-water mark since [`reset_peak_live_bytes`].  Where the two
//! counters above say what a phase *asked for*, the gauge says what it
//! *holds* — the number that explains a resident-set size.  It follows
//! `dealloc` and both directions of `realloc`, ignores [`exempt`] (an
//! exempted block is still memory), and is shared by all threads, so a
//! test that reads it must be the only thing allocating while it does.
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
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`CountingAlloc`], all threads.
/// `Relaxed` throughout: the gauges are statistics and publish no data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak_live_bytes`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

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

/// Moves the live gauge from a block of `old` bytes to one of `new`
/// (`0` for "no block"), raising the high-water mark when it grows.
#[inline]
fn resize_live(old: usize, new: usize) {
    if new >= old {
        let live = LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old);
        PEAK.fetch_max(live, Ordering::Relaxed);
    } else {
        LIVE.fetch_sub(old - new, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System`; the bookkeeping around it
// touches only const-initialised thread-local `Cell`s and two atomics,
// which never allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            resize_live(0, layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            resize_live(0, layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            resize_live(layout.size(), new_size);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        resize_live(layout.size(), 0);
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

/// Bytes allocated and not yet freed, across all threads (exempt scopes
/// included).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The highest [`live_bytes`] has stood since the process started or
/// [`reset_peak_live_bytes`] was last called.
pub fn peak_live_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Lowers the high-water mark to the current [`live_bytes`], so the next
/// [`peak_live_bytes`] reads the peak of what follows.
pub fn reset_peak_live_bytes() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
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
    fn live_gauge_follows_frees_and_keeps_its_high_water_mark() {
        // The only test here that moves the process-wide gauge.
        let base = live_bytes();
        resize_live(0, 100); // alloc
        resize_live(100, 400); // growing realloc
        assert_eq!(live_bytes(), base + 400);
        resize_live(400, 50); // shrinking realloc
        assert_eq!(live_bytes(), base + 50);
        assert_eq!(peak_live_bytes(), base + 400);
        reset_peak_live_bytes();
        assert_eq!(peak_live_bytes(), base + 50);
        resize_live(50, 0); // dealloc
        assert_eq!((live_bytes(), peak_live_bytes()), (base, base + 50));
    }

    #[test]
    fn reset_zeroes_the_thread_counter() {
        record(16);
        assert!(allocation_count() > 0 && allocated_bytes() >= 16);
        reset_allocation_count();
        assert_eq!((allocation_count(), allocated_bytes()), (0, 0));
    }
}
