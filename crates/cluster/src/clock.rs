//! Time sources for the cluster runtime.
//!
//! Every sleep and receive deadline in the runtime consumes time through
//! the [`Clock`] trait instead of calling `std::time` directly: the
//! production implementation ([`RealClock`]) is wall-clock time, while the
//! deterministic simulator (`cluster::sim`) substitutes a virtual clock so
//! chaos delays, retransmission timeouts, and the barrier backstop cost
//! zero wall-clock and replay identically from a seed.
//!
//! This module is the **only** place in `cluster`/`core` allowed to touch
//! `Instant`/`thread::sleep` directly — the clock-hygiene lint (xtask L5)
//! enforces the boundary.

use std::sync::Arc;
// lint:allow(determinism): the clock module is the audited wall-clock boundary
use std::time::{Duration, Instant};

/// A monotonic time source plus a way to spend time on it.
///
/// `now_ns` is nanoseconds since an arbitrary per-run epoch (process start
/// for the real clock, zero for the simulated one); it is only ever used
/// for durations, never as an absolute timestamp.  `sleep` takes the
/// calling worker's rank so the simulated implementation can park exactly
/// that task on its virtual-time queue.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock's epoch.
    fn now_ns(&self) -> u64;

    /// Blocks worker `rank` for `d` (virtual time under simulation).
    fn sleep(&self, rank: usize, d: Duration);
}

/// The production clock: a monotonic reading anchored at construction,
/// and real `thread::sleep`s.
pub struct RealClock {
    // lint:allow(determinism): monotonic epoch for deadline bookkeeping only
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock {
            // lint:allow(determinism): monotonic epoch for deadline bookkeeping only
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        // Saturate instead of wrapping: 2^64 ns ≈ 584 years of uptime.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep(&self, _rank: usize, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A driver-side virtual clock: `sleep` advances `now_ns` instantly
/// instead of blocking.  The supervision layer's heal backoff routes
/// through this under test, so an exponential-backoff ladder that would
/// cost seconds of wall-clock replays in microseconds while still being
/// *accounted* — `now_ns` reflects every nanosecond spent.
///
/// Unlike the simulator's clock (which parks exactly one worker task on a
/// scheduler queue), this clock has no scheduler: it serves the *driver*
/// thread, which sleeps between whole cluster runs, outside any simulation.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: std::sync::atomic::AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn sleep(&self, _rank: usize, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.now_ns
            .fetch_add(ns, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Shared handle for a caller-installed clock (the supervisor's backoff).
pub type SharedClock = Arc<dyn Clock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_spends_time_without_blocking() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.sleep(0, Duration::from_secs(600)); // ten virtual minutes, no wall-clock
        assert_eq!(c.now_ns(), 600_000_000_000);
        c.sleep(3, Duration::from_nanos(5));
        assert_eq!(c.now_ns(), 600_000_000_005);
    }

    #[test]
    fn real_clock_is_monotone_and_sleeps() {
        let c = RealClock::new();
        let a = c.now_ns();
        c.sleep(0, Duration::from_millis(2));
        let b = c.now_ns();
        assert!(b >= a + 1_000_000, "slept 2ms but advanced {}ns", b - a);
    }
}
