//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a *pure function of its seed*: whether a given
//! message is dropped, duplicated, or delayed depends only on
//! `(seed, src, dst, msg_id)`, so a chaos run replays bit-identically —
//! the property the recovery tests rely on.  Worker crashes are armed
//! counters keyed on the collective sequence number, and fire a bounded
//! number of times, so a retried step does not re-crash forever.
//!
//! Injected message faults are *masked* faults: a dropped first copy is
//! retransmitted by the sender after a short timeout, and a spurious
//! duplicate is suppressed by the receiver's per-sender sequence check.
//! Logical traffic totals in [`CommStats`](crate::CommStats) are therefore
//! unchanged; the wire overhead lands in the separate `retransmits` /
//! `retransmit_bytes` / `duplicates_suppressed` counters.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// What the simulated network does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Hold the message for the given duration, then deliver.
    Delay(Duration),
    /// Lose the first copy; the sender retransmits after its timeout.
    DropThenRetransmit,
    /// Deliver twice (spurious retransmit); the receiver must suppress
    /// the second copy.
    Duplicate,
}

/// An armed crash: worker `rank` fails on entry to its collective number
/// `at_collective`, at most `remaining` times across the plan's lifetime.
#[derive(Debug)]
struct CrashPoint {
    rank: usize,
    at_collective: u64,
    remaining: AtomicU32,
}

/// A seeded, reproducible schedule of injected faults.
///
/// Build one with [`FaultPlan::seeded`] plus the builder methods, wrap it
/// in an `Arc`, and hand it to the cluster via
/// [`ClusterOptions`](crate::ClusterOptions).  Sharing the *same* `Arc`
/// across retries is what makes one-shot crashes one-shot.
///
/// ```
/// use dismastd_cluster::FaultPlan;
/// use std::time::Duration;
/// let plan = FaultPlan::seeded(7)
///     .with_message_drops(100)            // 10% of messages lose a copy
///     .with_duplicates(50)                // 5% arrive twice
///     .with_delays(100, Duration::from_micros(200))
///     .crash_worker_at_collective(1, 3);  // worker 1 dies once, at its 4th collective
/// assert_eq!(plan.remaining_crashes(), 1);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_permille: u32,
    duplicate_permille: u32,
    delay_permille: u32,
    delay: Duration,
    retransmit_delay: Duration,
    crashes: Vec<CrashPoint>,
}

/// Plans compare by configuration; armed-crash *state* (how many times a
/// crash has already fired) is deliberately ignored.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.drop_permille == other.drop_permille
            && self.duplicate_permille == other.duplicate_permille
            && self.delay_permille == other.delay_permille
            && self.delay == other.delay
            && self.retransmit_delay == other.retransmit_delay
            && self.crashes.len() == other.crashes.len()
            && self
                .crashes
                .iter()
                .zip(&other.crashes)
                .all(|(a, b)| a.rank == b.rank && a.at_collective == b.at_collective)
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// A fault-free plan with the given seed; add faults via the builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            retransmit_delay: Duration::from_micros(100),
            ..Self::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drops the first copy of roughly `permille`/1000 of all remote
    /// messages (each is retransmitted after [`Self::with_retransmit_delay`]).
    pub fn with_message_drops(mut self, permille: u32) -> Self {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Delivers roughly `permille`/1000 of all remote messages twice.
    pub fn with_duplicates(mut self, permille: u32) -> Self {
        self.duplicate_permille = permille.min(1000);
        self
    }

    /// Delays roughly `permille`/1000 of all remote messages by `delay`.
    pub fn with_delays(mut self, permille: u32, delay: Duration) -> Self {
        self.delay_permille = permille.min(1000);
        self.delay = delay;
        self
    }

    /// Simulated retransmission timeout for dropped messages.
    pub fn with_retransmit_delay(mut self, delay: Duration) -> Self {
        self.retransmit_delay = delay;
        self
    }

    /// Arms a one-shot crash: worker `rank` fails on entry to collective
    /// number `k` (its internal sequence counter), the first time it gets
    /// there.  Subsequent runs sharing this plan proceed normally — the
    /// recovery driver relies on that to make a replayed step succeed.
    pub fn crash_worker_at_collective(self, rank: usize, k: u64) -> Self {
        self.crash_worker_at_collective_times(rank, k, 1)
    }

    /// Like [`Self::crash_worker_at_collective`] but firing up to `times`
    /// times (e.g. to exhaust a bounded retry budget in tests).
    pub fn crash_worker_at_collective_times(mut self, rank: usize, k: u64, times: u32) -> Self {
        self.crashes.push(CrashPoint {
            rank,
            at_collective: k,
            remaining: AtomicU32::new(times),
        });
        self
    }

    /// Total crash firings still armed across all crash points.
    pub fn remaining_crashes(&self) -> u32 {
        self.crashes
            .iter()
            .map(|c| c.remaining.load(Ordering::SeqCst))
            .sum()
    }

    /// True when the plan can never inject anything (the fast-path check
    /// the runtime uses to skip per-message bookkeeping).
    pub fn is_inert(&self) -> bool {
        self.drop_permille == 0
            && self.duplicate_permille == 0
            && self.delay_permille == 0
            && self.crashes.is_empty()
    }

    /// Consumes one armed firing of a crash point matching `(rank, seq)`.
    /// Returns `true` exactly `times` times per matching point, then
    /// permanently `false` — deterministic across identical call orders.
    pub(crate) fn take_crash(&self, rank: usize, seq: u64) -> bool {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank && c.at_collective == seq)
            .any(|c| {
                c.remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            })
    }

    /// The fate of message `id` from `src` to `dst` — a pure function of
    /// the plan's seed and the message coordinates.
    pub(crate) fn fate(&self, src: usize, dst: usize, id: u64) -> MessageFate {
        if self.drop_permille == 0 && self.duplicate_permille == 0 && self.delay_permille == 0 {
            return MessageFate::Deliver;
        }
        let h =
            splitmix64(self.seed ^ splitmix64(((src as u64) << 32) | dst as u64) ^ splitmix64(id));
        let roll = (h % 1000) as u32;
        if roll < self.drop_permille {
            MessageFate::DropThenRetransmit
        } else if roll < self.drop_permille + self.duplicate_permille {
            MessageFate::Duplicate
        } else if roll < self.drop_permille + self.duplicate_permille + self.delay_permille {
            MessageFate::Delay(self.delay)
        } else {
            MessageFate::Deliver
        }
    }

    /// Simulated retransmission timeout (see [`Self::with_retransmit_delay`]).
    pub(crate) fn retransmit_delay(&self) -> Duration {
        self.retransmit_delay
    }
}

/// SplitMix64 finaliser — a well-mixed 64-bit hash, enough to make fate
/// decisions look random while staying a pure function of the inputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic() {
        let a = FaultPlan::seeded(42)
            .with_message_drops(200)
            .with_duplicates(100);
        let b = FaultPlan::seeded(42)
            .with_message_drops(200)
            .with_duplicates(100);
        for id in 0..500u64 {
            assert_eq!(a.fate(0, 1, id), b.fate(0, 1, id));
        }
    }

    #[test]
    fn fate_rates_roughly_match_permille() {
        let plan = FaultPlan::seeded(1).with_message_drops(250);
        let drops = (0..4000u64)
            .filter(|&id| plan.fate(0, 1, id) == MessageFate::DropThenRetransmit)
            .count();
        // 25% ± generous slack.
        assert!((600..1400).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1).with_message_drops(500);
        let b = FaultPlan::seeded(2).with_message_drops(500);
        let differs = (0..200u64).any(|id| a.fate(0, 1, id) != b.fate(0, 1, id));
        assert!(differs);
    }

    #[test]
    fn crash_points_are_consumed() {
        let plan = FaultPlan::seeded(0).crash_worker_at_collective(2, 5);
        assert!(!plan.take_crash(1, 5), "wrong rank must not fire");
        assert!(!plan.take_crash(2, 4), "wrong collective must not fire");
        assert!(plan.take_crash(2, 5), "armed crash fires once");
        assert!(!plan.take_crash(2, 5), "one-shot crash must not re-fire");
        assert_eq!(plan.remaining_crashes(), 0);
    }

    #[test]
    fn multi_shot_crashes_fire_n_times() {
        let plan = FaultPlan::seeded(0).crash_worker_at_collective_times(0, 1, 3);
        for _ in 0..3 {
            assert!(plan.take_crash(0, 1));
        }
        assert!(!plan.take_crash(0, 1));
    }

    #[test]
    fn inert_plan_detection() {
        assert!(FaultPlan::seeded(9).is_inert());
        assert!(!FaultPlan::seeded(9).with_message_drops(1).is_inert());
        assert!(!FaultPlan::seeded(9)
            .crash_worker_at_collective(0, 0)
            .is_inert());
    }

    #[test]
    fn plans_compare_by_configuration() {
        let a = FaultPlan::seeded(3).crash_worker_at_collective(1, 2);
        let b = FaultPlan::seeded(3).crash_worker_at_collective(1, 2);
        assert_eq!(a, b);
        a.take_crash(1, 2);
        assert_eq!(a, b, "armed state is ignored by equality");
        assert_ne!(a, FaultPlan::seeded(4).crash_worker_at_collective(1, 2));
    }
}
