//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a *pure function of its seed*: whether a given
//! message is dropped, duplicated, or delayed depends only on
//! `(seed, src, dst, msg_id)`, so a chaos run replays bit-identically —
//! the property the recovery tests rely on.  Worker crashes are armed
//! counters keyed on the collective sequence number, and fire a bounded
//! number of times, so a retried step does not re-crash forever.
//!
//! This is the only place a fault is armed.  A crash point may also carry
//! a *rejoin delay* ([`FaultPlan::crash_and_rejoin`]): on the run after
//! the crash fires, the respawned rank starts late by that much time on
//! the run's [`Clock`](crate::Clock) — virtual under the simulator, a real
//! sleep on threads — so one plan drives both transports.
//!
//! Injected message faults are *masked* faults: a dropped first copy is
//! retransmitted by the sender after a short timeout, and a spurious
//! duplicate is suppressed by the receiver's per-sender sequence check.
//! Logical traffic totals in [`CommStats`](crate::CommStats) are therefore
//! unchanged; the wire overhead lands in the separate `retransmits` /
//! `retransmit_bytes` / `duplicates_suppressed` counters.  The fate of a
//! message is drawn and applied here (`FaultPlan::send`); the runtime
//! only hands over its remote sends.

use crate::comm::{CommStats, Payload};
use crate::error::ClusterResult;
use crate::transport::{Msg, Transport};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// What the simulated network does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MessageFate {
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
/// A crash-and-rejoin point also owes one rejoin delay of `rejoin_ns`
/// (`rejoins` is 1 until the run after the crash spends it; 0 for a plain
/// crash).
#[derive(Debug)]
struct CrashPoint {
    rank: usize,
    at_collective: u64,
    remaining: AtomicU32,
    rejoin_ns: u64,
    rejoins: AtomicU32,
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
///     .crash_worker_at_collective(1, 3)   // worker 1 dies once, at its 4th collective
///     .crash_and_rejoin(2, 5, 0);         // worker 2 dies at its 6th, then rejoins late
/// assert_eq!(plan.remaining_crashes(), 2);
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
            && self.crashes.iter().zip(&other.crashes).all(|(a, b)| {
                (a.rank, a.at_collective, a.rejoin_ns) == (b.rank, b.at_collective, b.rejoin_ns)
            })
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
            rejoin_ns: 0,
            rejoins: AtomicU32::new(0),
        });
        self
    }

    /// Arms a one-shot crash-and-rejoin: worker `rank` crashes on entry to
    /// collective `k`, and on the next run sharing this plan (the replay
    /// the supervision layer drives) it rejoins `recover_delay_ns` late —
    /// its peers already wait in the first collective.  A delay of `0`
    /// draws one from the plan's seed.
    pub fn crash_and_rejoin(mut self, rank: usize, k: u64, recover_delay_ns: u64) -> Self {
        let rejoin_ns = if recover_delay_ns > 0 {
            recover_delay_ns
        } else {
            // Seeded draw, pure in (seed, rank, k): replays reproduce it.
            1 + splitmix64(self.seed ^ (rank as u64).rotate_left(24) ^ k) % 100_000
        };
        self.crashes.push(CrashPoint {
            rank,
            at_collective: k,
            remaining: AtomicU32::new(1),
            rejoin_ns,
            rejoins: AtomicU32::new(1),
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

    /// Consumes one armed firing of a crash point matching `(rank, seq)`
    /// and names its kind (`"crash"` or `"crash-and-rejoin"`, for the
    /// error's cause).  Fires exactly `times` times per matching point,
    /// then permanently `None` — deterministic across identical call
    /// orders.
    pub(crate) fn take_crash(&self, rank: usize, seq: u64) -> Option<&'static str> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank && c.at_collective == seq)
            .find(|c| take_one(&c.remaining))
            .map(|c| {
                if c.rejoin_ns > 0 {
                    "crash-and-rejoin"
                } else {
                    "crash"
                }
            })
    }

    /// The rejoin delay `rank` owes at the start of this run: `Some` once,
    /// on the first run after its crash-and-rejoin point fired.
    pub(crate) fn take_rejoin(&self, rank: usize) -> Option<Duration> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank && c.remaining.load(Ordering::SeqCst) == 0)
            .find(|c| take_one(&c.rejoins))
            .map(|c| Duration::from_nanos(c.rejoin_ns))
    }

    /// The fate of message `id` from `src` to `dst` — a pure function of
    /// the plan's seed and the message coordinates.
    fn fate(&self, src: usize, dst: usize, id: u64) -> MessageFate {
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

    /// Sends remote message `msg` to `dst` over `transport` under the fate
    /// this plan draws for it.  A delay or a retransmission timeout is
    /// spent by the sender on the run's clock — the synchronous send
    /// models the network holding the message, in virtual time under sim
    /// — and an extra wire copy is tallied in `stats` apart from the
    /// logical bytes.
    pub(crate) fn send(
        &self,
        transport: &Transport,
        dst: usize,
        msg: Msg,
        stats: &CommStats,
    ) -> ClusterResult<()> {
        let src = msg.src;
        let bytes = msg.body.as_ref().map_or(0, Payload::size_bytes);
        match self.fate(src, dst, msg.id) {
            MessageFate::Deliver => transport.post(dst, msg),
            MessageFate::Delay(d) => {
                transport.clock().sleep(src, d);
                transport.post(dst, msg)
            }
            MessageFate::DropThenRetransmit => {
                // First copy lost in flight: never enqueued.  The sender
                // notices (simulated RTO) and retransmits the same id.
                stats.record_retransmit(bytes);
                transport.clock().sleep(src, self.retransmit_delay);
                transport.post(dst, msg)
            }
            MessageFate::Duplicate => {
                // Spurious retransmit: both copies hit the wire; the
                // receiver's sequence check discards the second.
                stats.record_retransmit(bytes);
                // lint:allow(alloc_hygiene): fault-injection duplicate delivery, test-plan only
                let first = transport.post(dst, msg.clone());
                if first.is_ok() {
                    // The receiver owes a recv only for the logical copy,
                    // so it may consume that and exit before the spurious
                    // one lands — a dead-letter on the simulated wire, not
                    // a peer failure.
                    let _ = transport.post(dst, msg);
                }
                first
            }
        }
    }
}

/// Decrements an armed counter; `false` once it is spent.
fn take_one(armed: &AtomicU32) -> bool {
    armed
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// SplitMix64 finaliser — a well-mixed 64-bit hash, enough to make fate
/// decisions and the simulator's schedule look random while staying a
/// pure function of the inputs.
pub(crate) fn splitmix64(x: u64) -> u64 {
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
        assert!(plan.take_crash(1, 5).is_none(), "wrong rank must not fire");
        assert!(
            plan.take_crash(2, 4).is_none(),
            "wrong collective must not fire"
        );
        assert_eq!(
            plan.take_crash(2, 5),
            Some("crash"),
            "armed crash fires once"
        );
        assert!(
            plan.take_crash(2, 5).is_none(),
            "one-shot crash must not re-fire"
        );
        assert_eq!(plan.remaining_crashes(), 0);
        assert_eq!(plan.take_rejoin(2), None, "a plain crash owes no rejoin");
    }

    #[test]
    fn multi_shot_crashes_fire_n_times() {
        let plan = FaultPlan::seeded(0).crash_worker_at_collective_times(0, 1, 3);
        for _ in 0..3 {
            assert!(plan.take_crash(0, 1).is_some());
        }
        assert_eq!(plan.take_crash(0, 1), None);
    }

    // Historical name: the plan's `is_inert` probe is gone; this pins the
    // fate fast path a fault-free plan takes instead.
    #[test]
    fn inert_plan_detection() {
        let plan = FaultPlan::seeded(9);
        assert!((0..200u64).all(|id| plan.fate(0, 1, id) == MessageFate::Deliver));
        assert_eq!(plan.remaining_crashes(), 0);
        let drops = FaultPlan::seeded(9).with_message_drops(1000);
        assert_eq!(drops.fate(0, 1, 0), MessageFate::DropThenRetransmit);
    }

    #[test]
    fn crash_and_rejoin_owes_one_delay_after_it_fires() {
        let plan = FaultPlan::seeded(5).crash_and_rejoin(1, 2, 40_000);
        assert_eq!(plan.take_rejoin(1), None, "no rejoin before the crash");
        assert_eq!(plan.take_crash(1, 2), Some("crash-and-rejoin"));
        assert_eq!(plan.take_rejoin(0), None, "wrong rank owes nothing");
        assert_eq!(plan.take_rejoin(1), Some(Duration::from_nanos(40_000)));
        assert_eq!(plan.take_rejoin(1), None, "the delay is spent once");
        assert_eq!(plan.take_crash(1, 2), None);
    }

    #[test]
    fn a_zero_rejoin_delay_is_drawn_from_the_seed() {
        let delay = |seed| {
            let plan = FaultPlan::seeded(seed).crash_and_rejoin(1, 0, 0);
            plan.take_crash(1, 0);
            plan.take_rejoin(1).unwrap()
        };
        assert_eq!(delay(3), delay(3));
        assert!(delay(3) > Duration::ZERO && delay(3) <= Duration::from_nanos(100_000));
        assert_ne!(
            FaultPlan::seeded(3).crash_and_rejoin(1, 0, 0),
            FaultPlan::seeded(3).crash_and_rejoin(1, 0, 7),
            "the rejoin delay is part of the configuration"
        );
    }

    #[test]
    fn plans_compare_by_configuration() {
        let a = FaultPlan::seeded(3).crash_worker_at_collective(1, 2);
        let b = FaultPlan::seeded(3).crash_worker_at_collective(1, 2);
        assert_eq!(a, b);
        let _ = a.take_crash(1, 2);
        assert_eq!(a, b, "armed state is ignored by equality");
        assert_ne!(a, FaultPlan::seeded(4).crash_worker_at_collective(1, 2));
    }
}
