//! The supervision layer: turns crash handling from caller-driven replay
//! into an automatic heal loop.
//!
//! Without a supervisor fault tolerance is the *caller's* job: a cluster
//! fault surfaces as a typed error and it is up to the caller to retry.
//! The [`Supervisor`] instead executes a [`HealPolicy`] **ladder** per
//! detected worker death (panic, `PeerCrashed`, or sim-injected crash
//! fate, all delivered through the existing abort fan-out):
//!
//! 1. **Respawn-and-rejoin** — restart the rank from the pre-step
//!    state and readmit it at the step boundary (the identity case of
//!    the elastic-membership join: same world, ownership re-derived from
//!    the global pre-step factors).  Each rank has a bounded respawn
//!    budget, and every attempt is preceded by seeded exponential backoff
//!    spent through the [`Clock`] trait so virtual time covers it.
//! 2. **Degraded-world fallback** — once a rank's budget is exhausted,
//!    shrink the world through the `request_leave` path and continue the
//!    stream at reduced parallelism, recording a typed `Degraded`
//!    transition instead of failing the run.
//! 3. **Give up** — only when degradation is disallowed or the world is
//!    already at its configured floor does the fault become terminal.
//!
//! The supervisor itself is transport-agnostic: it decides *what* to do
//! with a fault (`HealAction`) and spends the backoff; the session layer
//! in `dismastd-core` owns the replay and membership plumbing that
//! carries the decision out.

use crate::clock::{Clock, RealClock, SharedClock};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Key under which faults with no attributable rank share a budget.
const UNATTRIBUTED: usize = usize::MAX;

/// How the heal ladder is parameterised.  Build with the `with_*` methods;
/// the defaults give every rank two respawns, 10ms base backoff, and allow
/// degradation down to a single worker.
#[derive(Clone)]
pub struct HealPolicy {
    /// Respawn attempts granted to each rank before the ladder moves to
    /// degradation.  A degrade transition refreshes the culprit's budget —
    /// the new, smaller world is a new regime.
    pub max_respawns_per_rank: u32,
    /// Base backoff before the first respawn of a rank; attempt `n` waits
    /// `base * 2^(n-1)` plus seeded jitter in `[0, base/2)`.
    pub backoff_base: Duration,
    /// Seed for the backoff jitter (deterministic per `(rank, attempt)`).
    pub backoff_seed: u64,
    /// Whether rung 2 (shrink the world, keep streaming) is allowed at
    /// all; `false` makes budget exhaustion terminal immediately.
    pub allow_degraded: bool,
    /// Degradation floor: the world is never shrunk below this size.
    pub min_world: usize,
    /// Clock the backoff is spent through.  `None` uses the wall clock;
    /// tests install a [`crate::clock::VirtualClock`] so an exponential
    /// ladder costs zero wall-clock while staying fully accounted.
    pub clock: Option<SharedClock>,
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy {
            max_respawns_per_rank: 2,
            backoff_base: Duration::from_millis(10),
            backoff_seed: 0,
            allow_degraded: true,
            min_world: 1,
            clock: None,
        }
    }
}

// Manual impl: `dyn Clock` is not Debug, and which clock is installed is
// all a debug dump needs to say.
impl fmt::Debug for HealPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealPolicy")
            .field("max_respawns_per_rank", &self.max_respawns_per_rank)
            .field("backoff_base", &self.backoff_base)
            .field("backoff_seed", &self.backoff_seed)
            .field("allow_degraded", &self.allow_degraded)
            .field("min_world", &self.min_world)
            .field("clock", &self.clock.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl HealPolicy {
    /// Sets the per-rank respawn budget.
    pub fn with_max_respawns(mut self, n: u32) -> Self {
        self.max_respawns_per_rank = n;
        self
    }

    /// Sets the base backoff of the exponential ladder.
    pub fn with_backoff_base(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Sets the backoff-jitter seed.
    pub fn with_backoff_seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Enables or disables the degraded-world rung.
    pub fn with_degraded(mut self, allow: bool) -> Self {
        self.allow_degraded = allow;
        self
    }

    /// Sets the degradation floor (clamped to at least 1).
    pub fn with_min_world(mut self, min_world: usize) -> Self {
        self.min_world = min_world.max(1);
        self
    }

    /// Installs the clock backoff is spent through.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }
}

/// What the ladder decided for one observed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealAction {
    /// Rung 1: restore the pre-step checkpoint and replay — the crashed
    /// rank rejoins at the step boundary after `backoff`.
    Respawn {
        /// The rank being respawned (`None`: unattributable fault).
        rank: Option<usize>,
        /// 1-based respawn attempt for this rank in the current world.
        attempt: u32,
        /// Backoff to spend before the replay.
        backoff: Duration,
    },
    /// Rung 2: shrink the world by one worker and continue degraded.
    Degrade {
        /// The rank whose exhausted budget triggered the shrink.
        rank: Option<usize>,
    },
    /// Rung 3: the fault is terminal.
    GiveUp {
        /// The rank whose fault could not be healed.
        rank: Option<usize>,
    },
}

/// Executes the [`HealPolicy`] ladder across the lifetime of a stream:
/// per-rank attempt counts survive between steps, so a rank that keeps
/// dying walks down the ladder instead of resetting it every step.
#[derive(Debug)]
pub struct Supervisor {
    policy: HealPolicy,
    /// Respawn attempts per rank in the *current* world (BTreeMap: the
    /// determinism lint forbids hash-ordered containers).
    attempts: BTreeMap<usize, u32>,
    respawns: u64,
    degrades: u64,
    backoff_ns: u64,
}

impl Supervisor {
    /// A supervisor executing `policy`.
    pub fn new(policy: HealPolicy) -> Self {
        Supervisor {
            policy,
            attempts: BTreeMap::new(),
            respawns: 0,
            degrades: 0,
            backoff_ns: 0,
        }
    }

    /// The policy being executed.
    pub fn policy(&self) -> &HealPolicy {
        &self.policy
    }

    /// Total respawn decisions taken.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Total degrade decisions taken.
    pub fn degrades(&self) -> u64 {
        self.degrades
    }

    /// Virtual/wall nanoseconds spent backing off so far.
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns
    }

    /// Decides the next rung for a fault attributed to `rank` while the
    /// cluster had `world` workers.  Pure decision — the caller performs
    /// the restore/leave and spends the backoff via
    /// [`Supervisor::back_off`].
    pub fn on_fault(&mut self, rank: Option<usize>, world: usize) -> HealAction {
        let key = rank.unwrap_or(UNATTRIBUTED);
        let attempt = self.attempts.entry(key).or_insert(0);
        if *attempt < self.policy.max_respawns_per_rank {
            *attempt += 1;
            let n = *attempt;
            self.respawns += 1;
            dismastd_obs::counter_add("heal/respawn", 1);
            return HealAction::Respawn {
                rank,
                attempt: n,
                backoff: self.backoff_for(key, n),
            };
        }
        if self.policy.allow_degraded && world > self.policy.min_world {
            // The smaller world is a new regime: the culprit's budget (and
            // everyone else's — the rank numbering shifts) starts over.
            self.attempts.clear();
            self.degrades += 1;
            dismastd_obs::counter_add("heal/degraded", 1);
            return HealAction::Degrade { rank };
        }
        dismastd_obs::counter_add("heal/giveup", 1);
        HealAction::GiveUp { rank }
    }

    /// Spends `backoff` through the policy's clock and tallies it.
    pub fn back_off(&mut self, backoff: Duration) {
        let ns = u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX);
        match &self.policy.clock {
            Some(c) => c.sleep(0, backoff),
            None => RealClock::new().sleep(0, backoff),
        }
        self.backoff_ns = self.backoff_ns.saturating_add(ns);
        dismastd_obs::counter_add("heal/backoff_ns", ns);
    }

    /// Exponential backoff with seeded jitter: attempt `n` (1-based) waits
    /// `base * 2^(n-1) + jitter`, `jitter ∈ [0, base/2)` drawn as a pure
    /// function of `(seed, rank, attempt)` so replays reproduce it.
    fn backoff_for(&self, rank_key: usize, attempt: u32) -> Duration {
        let base = u64::try_from(self.policy.backoff_base.as_nanos()).unwrap_or(u64::MAX);
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
        let jitter_span = base / 2;
        let jitter = if jitter_span == 0 {
            0
        } else {
            splitmix64(
                self.policy
                    .backoff_seed
                    .wrapping_add((rank_key as u64).rotate_left(32))
                    .wrapping_add(attempt as u64),
            ) % jitter_span
        };
        Duration::from_nanos(exp.saturating_add(jitter))
    }
}

/// Backoff jitter needs nothing fancier than the same SplitMix64
/// finaliser the fault plan and simulator use.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::Arc;

    #[test]
    fn ladder_respawns_then_degrades_then_gives_up() {
        let mut sup = Supervisor::new(HealPolicy::default().with_max_respawns(2));
        // Two respawns for rank 1...
        assert!(matches!(
            sup.on_fault(Some(1), 3),
            HealAction::Respawn {
                rank: Some(1),
                attempt: 1,
                ..
            }
        ));
        assert!(matches!(
            sup.on_fault(Some(1), 3),
            HealAction::Respawn { attempt: 2, .. }
        ));
        // ...then the budget is spent: degrade.
        assert_eq!(
            sup.on_fault(Some(1), 3),
            HealAction::Degrade { rank: Some(1) }
        );
        // Degrading reset the budgets; the same rank gets fresh respawns in
        // the smaller world, and only at the floor does the ladder end.
        assert!(matches!(
            sup.on_fault(Some(1), 2),
            HealAction::Respawn { attempt: 1, .. }
        ));
        assert!(matches!(
            sup.on_fault(Some(1), 2),
            HealAction::Respawn { .. }
        ));
        assert_eq!(
            sup.on_fault(Some(1), 1),
            HealAction::GiveUp { rank: Some(1) }
        );
        assert_eq!(sup.respawns(), 4);
        assert_eq!(sup.degrades(), 1);
    }

    #[test]
    fn budgets_are_per_rank() {
        let mut sup = Supervisor::new(HealPolicy::default().with_max_respawns(1));
        assert!(matches!(
            sup.on_fault(Some(0), 4),
            HealAction::Respawn { .. }
        ));
        // A different rank draws from its own budget.
        assert!(matches!(
            sup.on_fault(Some(2), 4),
            HealAction::Respawn { .. }
        ));
        assert!(matches!(
            sup.on_fault(Some(0), 4),
            HealAction::Degrade { .. }
        ));
    }

    #[test]
    fn degradation_can_be_disabled_and_floored() {
        let mut off = Supervisor::new(
            HealPolicy::default()
                .with_max_respawns(0)
                .with_degraded(false),
        );
        assert_eq!(
            off.on_fault(Some(0), 4),
            HealAction::GiveUp { rank: Some(0) }
        );

        let mut floored =
            Supervisor::new(HealPolicy::default().with_max_respawns(0).with_min_world(3));
        assert_eq!(
            floored.on_fault(Some(0), 3),
            HealAction::GiveUp { rank: Some(0) }
        );
        assert_eq!(
            floored.on_fault(Some(0), 4),
            HealAction::Degrade { rank: Some(0) }
        );
    }

    #[test]
    fn backoff_is_exponential_seeded_and_virtual() {
        let clock = Arc::new(VirtualClock::new());
        let policy = HealPolicy::default()
            .with_backoff_base(Duration::from_millis(10))
            .with_backoff_seed(7)
            .with_clock(clock.clone() as SharedClock);
        let mut sup = Supervisor::new(policy.clone());
        let (b1, b2) = match (sup.on_fault(Some(0), 2), sup.on_fault(Some(0), 2)) {
            (HealAction::Respawn { backoff: b1, .. }, HealAction::Respawn { backoff: b2, .. }) => {
                (b1, b2)
            }
            other => panic!("expected two respawns, got {other:?}"),
        };
        // Attempt 2 doubles the exponential part; jitter stays < base/2.
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(15));
        assert!(b2 >= Duration::from_millis(20) && b2 < Duration::from_millis(25));
        // Deterministic: a fresh supervisor with the same seed draws the
        // same backoffs.
        let mut replay = Supervisor::new(policy);
        match replay.on_fault(Some(0), 2) {
            HealAction::Respawn { backoff, .. } => assert_eq!(backoff, b1),
            other => panic!("expected respawn, got {other:?}"),
        }
        // Spending backoff through the virtual clock costs zero wall-clock
        // but is fully accounted.
        sup.back_off(b1);
        sup.back_off(b2);
        assert_eq!(sup.backoff_ns(), (b1 + b2).as_nanos() as u64);
        assert_eq!(clock.now_ns(), (b1 + b2).as_nanos() as u64);
    }

    #[test]
    fn unattributed_faults_share_one_budget() {
        let mut sup = Supervisor::new(HealPolicy::default().with_max_respawns(1));
        assert!(matches!(
            sup.on_fault(None, 2),
            HealAction::Respawn { rank: None, .. }
        ));
        assert!(matches!(
            sup.on_fault(None, 2),
            HealAction::Degrade { rank: None }
        ));
    }
}
