//! Deterministic simulation harness (DST) for the cluster runtime.
//!
//! [`SimNet`] runs the existing worker closures as cooperatively-scheduled
//! tasks over a **virtual clock**: at any instant exactly one worker
//! thread holds the run token, every hand-off point (message post, receive
//! block, sleep, exit) consults a seeded RNG, and when no task is runnable
//! the scheduler's `run_until_idle` loop advances virtual time straight to
//! the next event — a pending message delivery, a sleep expiry, or a
//! receive deadline.  Chaos tests therefore stop burning wall-clock (a 30s
//! backstop expires instantly) and a failing run replays exactly from its
//! seed: same seed ⇒ identical event trace ⇒ bit-identical factors.
//!
//! One `u64` seed drives everything:
//!
//! * **scheduler interleaving** — which runnable task resumes next, and
//!   whether a sender is preempted right after posting a message;
//! * **per-link latency** — each message's virtual flight time, clamped so
//!   links stay FIFO (the duplicate-suppression invariant of the runtime
//!   relies on per-sender id monotonicity *per channel*);
//! * **partitions and heals** — seeded link-down windows hold traffic
//!   until the heal instant (explicit windows can be given too);
//! * **fault fates** — not this module's: every injected fault is armed
//!   in [`crate::fault::FaultPlan`] and drawn from the plan's own seed;
//!   its message delays, retransmission timeouts and respawn delays
//!   consume virtual time through the [`Clock`] trait.  The simulator is
//!   only a scheduler and a virtual network.
//!
//! A genuine deadlock — every task blocked with nothing in flight — wakes
//! all blocked receivers with a typed timeout instead of hanging.
//!
//! The harness keeps the real OS threads of [`crate::Cluster`] (so worker
//! closures need no rewrite) but serialises them completely; the run is
//! single-threaded in effect, which is what makes the trace reproducible.

use crate::clock::Clock;
use crate::fault::splitmix64;
use crate::transport::Msg;
use crossbeam::channel::Sender;
// The vendored parking_lot shim's guard is a std MutexGuard, so the std
// Condvar composes with it; waits re-assign the guard (consume-and-return
// style) and strip poisoning, matching the shim's non-poisoning contract.
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Condvar;
use std::time::Duration;

/// A link outage: messages crossing the link while `start_ns <= now <
/// end_ns` are held and delivered after the heal.
///
/// `b == usize::MAX` isolates worker `a` from everyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One endpoint of the partitioned link.
    pub a: usize,
    /// The other endpoint, or `usize::MAX` to isolate `a` entirely.
    pub b: usize,
    /// Virtual time the outage starts.
    pub start_ns: u64,
    /// Virtual time the link heals.
    pub end_ns: u64,
}

impl PartitionWindow {
    /// Whether a message from `src` to `dst` at virtual time `now` is
    /// caught by this window.
    fn holds(&self, src: usize, dst: usize, now: u64) -> bool {
        if now < self.start_ns || now >= self.end_ns {
            return false;
        }
        if self.b == usize::MAX {
            self.a == src || self.a == dst
        } else {
            (self.a == src && self.b == dst) || (self.a == dst && self.b == src)
        }
    }
}

/// Read-out of a finished simulation: the event-trace fingerprint, the
/// event count, and the final virtual time.  Create one, put it in
/// [`SimOptions::probe`], and read it after the run — two runs with the
/// same seed must agree on all three.
#[derive(Debug, Default)]
pub struct SimProbe {
    fingerprint: AtomicU64,
    events: AtomicU64,
    virtual_ns: AtomicU64,
}

impl SimProbe {
    /// A fresh probe.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Order-sensitive hash over every scheduler event of the run.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.load(Ordering::SeqCst)
    }

    /// Number of scheduler events folded into the fingerprint.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Virtual nanoseconds the run consumed.
    pub fn virtual_ns(&self) -> u64 {
        self.virtual_ns.load(Ordering::SeqCst)
    }
}

/// Configuration of one simulated run; install via
/// [`crate::ClusterOptions::with_sim`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Drives interleaving, latencies, and seeded partitions.
    pub seed: u64,
    /// Per-message latency is drawn uniformly from `[1, max_latency_ns]`
    /// virtual nanoseconds (0 behaves as 1: links are never instantaneous,
    /// which keeps delivery strictly after the post).
    pub max_latency_ns: u64,
    /// Explicit link outages, on top of any seeded ones.
    pub partitions: Vec<PartitionWindow>,
    /// Number of additional partition windows derived from the seed.
    pub seeded_partitions: u32,
    /// Virtual horizon within which seeded partitions start; their
    /// duration is drawn from `[horizon/8, horizon/4]`.
    pub partition_horizon_ns: u64,
    /// Optional probe receiving the trace fingerprint when the run ends.
    pub probe: Option<Arc<SimProbe>>,
}

impl SimOptions {
    /// Defaults for `seed`: microsecond-scale latencies, no partitions.
    pub fn from_seed(seed: u64) -> Self {
        SimOptions {
            seed,
            max_latency_ns: 1_000,
            partitions: Vec::new(),
            seeded_partitions: 0,
            partition_horizon_ns: 1_000_000,
            probe: None,
        }
    }

    /// Adds an explicit partition window.
    pub fn with_partition(mut self, w: PartitionWindow) -> Self {
        self.partitions.push(w);
        self
    }

    /// Derives `n` partition windows from the seed, starting within
    /// `horizon_ns` of virtual time.
    pub fn with_seeded_partitions(mut self, n: u32, horizon_ns: u64) -> Self {
        self.seeded_partitions = n;
        self.partition_horizon_ns = horizon_ns.max(8);
        self
    }

    /// Installs a probe for the run's trace fingerprint.
    pub fn with_probe(mut self, probe: Arc<SimProbe>) -> Self {
        self.probe = Some(probe);
        self
    }
}

/// Why a blocked receive resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitOutcome {
    /// A message was delivered to this worker's channel — retry the recv.
    Delivered,
    /// The virtual deadline passed (`deadlock` marks the no-events case
    /// where the scheduler woke every blocked task to avoid a hang).
    TimedOut { deadlock: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Thread spawned but not yet admitted by the scheduler.
    Idle,
    /// Holds the run token.
    Running,
    /// Wants the token.
    Ready,
    /// Parked in a receive; `deadline` is virtual.
    Recv { deadline: Option<u64> },
    /// Parked in a virtual sleep.
    Sleep { wake_at: u64 },
    /// Worker closure finished.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Task {
    state: TaskState,
    /// Why the last wake happened; read by the resuming thread.
    wake: Option<WaitOutcome>,
}

/// A message in virtual flight.
struct InFlight {
    deliver_at: u64,
    /// Tie-break so the heap order is total and seed-stable.
    uid: u64,
    dst: usize,
    msg: Msg,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.uid) == (other.deliver_at, other.uid)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.uid).cmp(&(other.deliver_at, other.uid))
    }
}

// Event codes folded into the trace fingerprint.
const EV_PICK: u64 = 1;
const EV_POST: u64 = 2;
const EV_FLUSH: u64 = 3;
const EV_ADVANCE: u64 = 4;
const EV_SLEEP: u64 = 5;
const EV_RECV_BLOCK: u64 = 6;
const EV_TIMEOUT: u64 = 7;
const EV_DEADLOCK: u64 = 8;
const EV_DONE: u64 = 9;

struct SimState {
    now_ns: u64,
    rng: u64,
    fingerprint: u64,
    events: u64,
    running: Option<usize>,
    live: usize,
    tasks: Vec<Task>,
    queue: BinaryHeap<Reverse<InFlight>>,
    next_uid: u64,
    /// Earliest virtual time the next message on link `src*world+dst` may
    /// arrive — keeps each link FIFO under random latencies.
    link_clock: Vec<u64>,
    senders: Vec<Sender<Msg>>,
    partitions: Vec<PartitionWindow>,
    max_latency_ns: u64,
}

impl SimState {
    fn fold(&mut self, code: u64, a: u64, b: u64) {
        self.fingerprint =
            splitmix64(self.fingerprint ^ splitmix64(code.rotate_left(17) ^ a.rotate_left(31) ^ b));
        self.events += 1;
    }

    fn next_rng(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.rng)
    }

    /// Uniform draw in `[0, n)` (n >= 1).
    fn rng_below(&mut self, n: u64) -> u64 {
        self.next_rng() % n.max(1)
    }
}

/// The scheduler + virtual network shared by all workers of one simulated
/// run.  Public API surface is crate-internal: the runtime routes through
/// it when [`SimOptions`] are installed.
pub(crate) struct SimNet {
    world: usize,
    state: Mutex<SimState>,
    cv: Condvar,
    probe: Option<Arc<SimProbe>>,
}

impl SimNet {
    pub(crate) fn new(world: usize, senders: Vec<Sender<Msg>>, opts: &SimOptions) -> Self {
        let mut state = SimState {
            now_ns: 0,
            rng: splitmix64(opts.seed ^ 0xD15_A57D),
            fingerprint: splitmix64(opts.seed),
            events: 0,
            running: None,
            live: 0,
            tasks: vec![
                Task {
                    state: TaskState::Idle,
                    wake: None,
                };
                world
            ],
            queue: BinaryHeap::new(),
            next_uid: 0,
            link_clock: vec![0; world * world],
            senders,
            partitions: opts.partitions.clone(),
            max_latency_ns: opts.max_latency_ns.max(1),
        };
        // Seeded partition windows: random link (or full isolation of one
        // worker), start within the horizon, duration horizon/8..horizon/4.
        let h = opts.partition_horizon_ns.max(8);
        for _ in 0..opts.seeded_partitions {
            let a = state.rng_below(world as u64) as usize;
            let b = state.rng_below(world as u64 + 1) as usize;
            let b = if b == a || b == world { usize::MAX } else { b };
            let start_ns = state.rng_below(h);
            let dur = h / 8 + state.rng_below(h / 8 + 1);
            state.partitions.push(PartitionWindow {
                a,
                b,
                start_ns,
                end_ns: start_ns.saturating_add(dur.max(1)),
            });
        }
        SimNet {
            world,
            state: Mutex::new(state),
            cv: Condvar::new(),
            probe: opts.probe.clone(),
        }
    }

    /// Blocks until every worker has registered and the scheduler hands
    /// this task the run token.  Must be the first sim call of a worker.
    pub(crate) fn worker_start(&self, rank: usize) {
        let mut st = self.state.lock();
        st.tasks[rank].state = TaskState::Ready;
        st.live += 1;
        if st.live == self.world {
            self.schedule(&mut st);
            self.cv.notify_all();
        }
        while st.running != Some(rank) {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Releases the token for good; the scheduler moves on.  Must be the
    /// last sim call of a worker.
    pub(crate) fn worker_done(&self, rank: usize) {
        let mut st = self.state.lock();
        st.tasks[rank].state = TaskState::Done;
        st.running = None;
        let now = st.now_ns;
        st.fold(EV_DONE, rank as u64, now);
        self.schedule(&mut st);
        if st.tasks.iter().all(|t| t.state == TaskState::Done) {
            if let Some(p) = &self.probe {
                p.fingerprint.store(st.fingerprint, Ordering::SeqCst);
                p.events.store(st.events, Ordering::SeqCst);
                p.virtual_ns.store(st.now_ns, Ordering::SeqCst);
            }
        }
        self.cv.notify_all();
    }

    /// Posts `msg` onto the virtual wire.  Delivery happens at
    /// `now + latency` (later if a partition window holds the link),
    /// clamped to keep the link FIFO.  With seeded probability the sender
    /// is preempted afterwards, letting another runnable task interleave.
    pub(crate) fn post(&self, src: usize, dst: usize, msg: Msg) {
        let mut st = self.state.lock();
        let max_latency_ns = st.max_latency_ns;
        let latency = 1 + st.rng_below(max_latency_ns);
        let now = st.now_ns;
        let mut deliver_at = now.saturating_add(latency);
        let mut held = false;
        for w in &st.partitions {
            if w.holds(src, dst, now) {
                deliver_at = deliver_at.max(w.end_ns.saturating_add(latency));
                held = true;
            }
        }
        if held {
            dismastd_obs::counter_add("sim/held_messages", 1);
        }
        let link = src * self.world + dst;
        deliver_at = deliver_at.max(st.link_clock[link].saturating_add(1));
        st.link_clock[link] = deliver_at;
        let uid = st.next_uid;
        st.next_uid += 1;
        st.queue.push(Reverse(InFlight {
            deliver_at,
            uid,
            dst,
            msg,
        }));
        st.fold(EV_POST, ((src as u64) << 32) | dst as u64, deliver_at);
        dismastd_obs::counter_add("sim/messages", 1);
        // Seeded preemption point: 1-in-4 posts hand the token over.
        if st.rng_below(4) == 0 {
            st.tasks[src].state = TaskState::Ready;
            self.schedule(&mut st);
            self.cv.notify_all();
            while st.running != Some(src) {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.tasks[src].wake = None;
        }
    }

    /// Parks `rank` until a message lands in its channel or the virtual
    /// `deadline_ns` passes.  The caller drains its channel non-blockingly
    /// before and after.
    pub(crate) fn wait_for_delivery(&self, rank: usize, deadline_ns: Option<u64>) -> WaitOutcome {
        let mut st = self.state.lock();
        st.tasks[rank].state = TaskState::Recv {
            deadline: deadline_ns,
        };
        st.tasks[rank].wake = None;
        st.running = None;
        let now = st.now_ns;
        st.fold(EV_RECV_BLOCK, rank as u64, now);
        self.schedule(&mut st);
        self.cv.notify_all();
        loop {
            if st.running == Some(rank) {
                if let Some(outcome) = st.tasks[rank].wake.take() {
                    return outcome;
                }
                // Token without a wake reason cannot happen for a parked
                // task; treat it as a delivery retry to stay safe.
                return WaitOutcome::Delivered;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The scheduler core — also the `run_until_idle` driver: picks the
    /// next runnable task (seeded), and when none exists advances virtual
    /// time to the earliest pending event (message delivery, sleep expiry,
    /// receive deadline), flushing and waking as it goes.  A state with no
    /// runnable task **and** no future event is a deadlock: every parked
    /// receiver is woken with a typed timeout instead of hanging.
    fn schedule(&self, st: &mut SimState) {
        loop {
            let ready: Vec<usize> = (0..self.world)
                .filter(|&r| st.tasks[r].state == TaskState::Ready)
                .collect();
            if !ready.is_empty() {
                let pick = ready[st.rng_below(ready.len() as u64) as usize];
                st.tasks[pick].state = TaskState::Running;
                st.running = Some(pick);
                let now = st.now_ns;
                st.fold(EV_PICK, pick as u64, now);
                return;
            }
            // No runnable task: find the earliest future event.
            let mut next: Option<u64> = st.queue.peek().map(|Reverse(m)| m.deliver_at);
            for t in &st.tasks {
                let wake = match t.state {
                    TaskState::Sleep { wake_at } => Some(wake_at),
                    TaskState::Recv {
                        deadline: Some(d), ..
                    } => Some(d),
                    _ => None,
                };
                if let Some(w) = wake {
                    next = Some(next.map_or(w, |n| n.min(w)));
                }
            }
            let Some(next) = next else {
                // Nothing in flight and nothing scheduled.  If every task
                // is done we are idle; otherwise the blocked receivers are
                // deadlocked — wake them all with a timeout so the run
                // surfaces a typed error instead of hanging forever.
                let mut woke = 0u64;
                for r in 0..self.world {
                    if matches!(st.tasks[r].state, TaskState::Recv { .. }) {
                        st.tasks[r].state = TaskState::Ready;
                        st.tasks[r].wake = Some(WaitOutcome::TimedOut { deadlock: true });
                        woke += 1;
                    }
                }
                if woke == 0 {
                    st.running = None;
                    return; // all done (or nothing started yet)
                }
                let now = st.now_ns;
                st.fold(EV_DEADLOCK, woke, now);
                dismastd_obs::counter_add("sim/deadlock_wakes", woke);
                continue;
            };
            st.now_ns = st.now_ns.max(next);
            let now = st.now_ns;
            st.fold(EV_ADVANCE, now, 0);
            dismastd_obs::counter_add("sim/time_advances", 1);
            // Flush every message due by now; wake parked receivers.
            while st
                .queue
                .peek()
                .is_some_and(|Reverse(m)| m.deliver_at <= now)
            {
                let Some(Reverse(inflight)) = st.queue.pop() else {
                    break;
                };
                let dst = inflight.dst;
                // The send fails only when the receiver thread has already
                // exited and dropped its channel — a dead letter.  The drop
                // races real time (it happens after `worker_done`), so the
                // fingerprint folds the same event either way: the *logical*
                // schedule is identical, only the OS-level drop timing
                // differs, and a Done task is never woken regardless.
                let _ = st.senders[dst].send(inflight.msg);
                st.fold(EV_FLUSH, dst as u64, inflight.uid);
                if matches!(st.tasks[dst].state, TaskState::Recv { .. }) {
                    st.tasks[dst].state = TaskState::Ready;
                    st.tasks[dst].wake = Some(WaitOutcome::Delivered);
                }
            }
            // Wake expired sleepers and receive deadlines.
            for r in 0..self.world {
                match st.tasks[r].state {
                    TaskState::Sleep { wake_at } if wake_at <= now => {
                        st.tasks[r].state = TaskState::Ready;
                        st.tasks[r].wake = None;
                    }
                    TaskState::Recv {
                        deadline: Some(d), ..
                    } if d <= now => {
                        st.tasks[r].state = TaskState::Ready;
                        st.tasks[r].wake = Some(WaitOutcome::TimedOut { deadlock: false });
                        st.fold(EV_TIMEOUT, r as u64, now);
                    }
                    _ => {}
                }
            }
        }
    }
}

impl Clock for SimNet {
    fn now_ns(&self) -> u64 {
        self.state.lock().now_ns
    }

    /// Virtual sleep: parks the task and lets the scheduler jump time
    /// forward — zero wall-clock regardless of `d`.
    fn sleep(&self, rank: usize, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut st = self.state.lock();
        let wake_at = st.now_ns.saturating_add(ns.max(1));
        st.tasks[rank].state = TaskState::Sleep { wake_at };
        st.tasks[rank].wake = None;
        st.running = None;
        st.fold(EV_SLEEP, rank as u64, wake_at);
        self.schedule(&mut st);
        self.cv.notify_all();
        while st.running != Some(rank) {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.tasks[rank].wake = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_window_matches_links_and_isolation() {
        let w = PartitionWindow {
            a: 1,
            b: 2,
            start_ns: 10,
            end_ns: 20,
        };
        assert!(w.holds(1, 2, 10));
        assert!(w.holds(2, 1, 19));
        assert!(!w.holds(1, 2, 20));
        assert!(!w.holds(0, 2, 15));
        let iso = PartitionWindow {
            a: 1,
            b: usize::MAX,
            start_ns: 0,
            end_ns: 5,
        };
        assert!(iso.holds(1, 0, 0));
        assert!(iso.holds(3, 1, 4));
        assert!(!iso.holds(0, 2, 1));
    }

    #[test]
    fn seeded_options_are_reproducible() {
        let a = SimOptions::from_seed(7);
        let b = SimOptions::from_seed(7);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.max_latency_ns, b.max_latency_ns);
    }

    #[test]
    fn splitmix_is_stable() {
        // Pin the constant so a refactor cannot silently change every
        // seed's schedule (which would invalidate recorded repro seeds).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
