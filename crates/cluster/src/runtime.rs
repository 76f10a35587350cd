//! The SPMD worker runtime.
//!
//! [`Cluster::run`] runs the same closure on every rank (Single Program,
//! Multiple Data — the execution model of the paper's Spark
//! implementation): one OS thread per rank, or the caller's thread for a
//! one-rank run, under the same panic guard.  A rank's [`WorkerCtx`]
//! holds its identity, the tag-matched receive under every collective and
//! its fault state: a failing rank fans its [`ClusterError`] out to every peer, and
//! a context that has observed one fails fast thereafter.
//!
//! The rest sits behind one seam each: the collectives in
//! `collectives.rs`, the channels-or-simulator transport and the run's
//! [`Clock`](crate::Clock) in `transport.rs`, and message fates in
//! [`FaultPlan`].  DESIGN.md ("Wire format & collective algorithms",
//! "Fault model & recovery") names the module that owns each decision.

use crate::comm::{BufferPool, CommStats, CommStatsSnapshot, Payload};
use crate::error::{ClusterError, ClusterResult};
use crate::fault::FaultPlan;
use crate::sim::SimOptions;
use crate::transport::{Msg, Transport};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

pub use crate::collectives::PendingExchange;

/// Perturbation point ids for [`loom_pause`], one per coordination edge
/// whose ordering the barrier-abort protocol must tolerate.
mod pause_point {
    /// Entry into a blocking receive (barrier token or data wait).
    pub const RECV: u32 = 1;
    /// Just before a control-plane token send (barrier arrive/release).
    pub const CONTROL_SEND: u32 = 2;
    /// Just before the abort fan-out to peers.
    pub const ABORT_FANOUT: u32 = 3;
    /// An injected crash firing at a collective entry.
    pub const CRASH: u32 = 4;
}

/// Schedule-perturbation hook for the loom audit (`dismastd-xtask audit`
/// runs the model with `RUSTFLAGS="--cfg loom"`).  Under `--cfg loom`
/// each call consults the model's seeded schedule and may yield or
/// micro-sleep, reordering token sends, abort fan-outs, and blocking
/// receives against each other; in ordinary builds it compiles to
/// nothing.
#[inline]
fn loom_pause(_point: u32) {
    #[cfg(loom)]
    loom::explore::pause(_point);
}

/// Runtime knobs for a cluster run: the receive-deadline backstop and an
/// optional fault-injection plan.
///
/// The default timeout converts any would-be deadlock (a worker waiting
/// for a message that can never arrive) into a typed
/// [`ClusterError::Timeout`] instead of a hang; the abort protocol makes
/// genuine crashes surface far faster than that.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Deadline applied to every blocking receive; `None` waits forever
    /// (the seed behaviour).
    pub default_timeout: Option<Duration>,
    /// Deterministic fault schedule; `None` runs fault-free.  Shared via
    /// `Arc` so one-shot crash points stay consumed across retries.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Run under the deterministic simulator (virtual time, seeded
    /// interleaving/latency/partitions); `None` uses real threads + clock.
    pub sim: Option<SimOptions>,
}

/// The receive backstop: 30s unless `DISMASTD_TEST_TIMEOUT_MS` overrides
/// it (`0` disables the deadline entirely; unparsable values fall back to
/// the 30s default).  Test suites set a short value so failing chaos runs
/// surface in milliseconds instead of hanging for half a minute.
fn default_timeout_from_env() -> Option<Duration> {
    match std::env::var("DISMASTD_TEST_TIMEOUT_MS").map(|ms| ms.trim().parse::<u64>()) {
        Ok(Ok(0)) => None,
        Ok(Ok(ms)) => Some(Duration::from_millis(ms)),
        _ => Some(Duration::from_secs(30)),
    }
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            default_timeout: default_timeout_from_env(),
            fault_plan: None,
            sim: None,
        }
    }
}

impl ClusterOptions {
    /// Options with no receive deadline and no faults.
    pub fn no_timeout() -> Self {
        ClusterOptions {
            default_timeout: None,
            ..Self::default()
        }
    }

    /// Sets the receive-deadline backstop.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// Installs a fault plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs the cluster under the deterministic simulator.
    pub fn with_sim(mut self, sim: SimOptions) -> Self {
        self.sim = Some(sim);
        self
    }
}

/// Entry point for running SPMD programs on the simulated cluster.
///
/// ```
/// use dismastd_cluster::Cluster;
/// // Every worker contributes its rank; the all-reduce sums them.
/// let results = Cluster::try_run(4, |ctx| {
///     let mut sum = [ctx.rank() as f64];
///     ctx.try_allreduce_sum(&mut sum)?;
///     Ok(sum[0])
/// })
/// .unwrap();
/// assert_eq!(results, vec![6.0; 4]);
/// ```
pub struct Cluster;

impl Cluster {
    /// Runs `f` on `world` simulated worker nodes and returns each worker's
    /// result, ordered by rank.
    ///
    /// A worker that panics no longer hangs its peers: the abort protocol
    /// wakes everyone and the call returns [`ClusterError::PeerCrashed`]
    /// with the failing rank and panic message.
    ///
    /// # Errors
    /// Returns the originating [`ClusterError`] when any worker fails.
    ///
    /// # Panics
    /// Panics if `world == 0` (a caller bug, not a runtime fault).
    pub fn run<T, F>(world: usize, f: F) -> ClusterResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> T + Sync,
    {
        Self::try_run(world, |ctx| Ok(f(ctx)))
    }

    /// Fallible-closure variant: workers return [`ClusterResult`] and the
    /// first failure aborts the whole run.
    ///
    /// # Errors
    /// Returns the originating [`ClusterError`] when any worker fails.
    pub fn try_run<T, F>(world: usize, f: F) -> ClusterResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> ClusterResult<T> + Sync,
    {
        Self::try_run_with_opts(world, &ClusterOptions::default(), f).map(|(r, _)| r)
    }

    /// Full-control entry point: fallible closure, explicit
    /// [`ClusterOptions`] (timeouts, fault injection), and comm stats.
    ///
    /// # Errors
    /// Returns the originating [`ClusterError`] when any worker fails.
    ///
    /// # Panics
    /// Panics if `world == 0`.
    pub fn try_run_with_opts<T, F>(
        world: usize,
        opts: &ClusterOptions,
        f: F,
    ) -> ClusterResult<(Vec<T>, CommStatsSnapshot)>
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> ClusterResult<T> + Sync,
    {
        assert!(world > 0, "cluster needs at least one worker");
        let stats = Arc::new(CommStats::with_world(world));
        let mut ranks = Vec::with_capacity(world);
        for (rank, transport) in Transport::connect(world, opts).into_iter().enumerate() {
            // A rank respawned after a crash-and-rejoin owes its delay on
            // this run only; counted here, on the calling thread, so the
            // caller's metrics see it.
            let plan = opts.fault_plan.clone();
            let rejoin = plan.as_ref().and_then(|p| p.take_rejoin(rank));
            if rejoin.is_some() {
                dismastd_obs::counter_add("sim/rejoin_delays", 1);
            }
            let ctx = WorkerCtx {
                rank,
                world,
                transport,
                pending: VecDeque::new(),
                seq: 0,
                next_msg_id: 0,
                last_seen_id: vec![0; world],
                abort: None,
                plan,
                default_timeout: opts.default_timeout,
                stats: Arc::clone(&stats),
                pool: BufferPool::new(true),
            };
            ranks.push((ctx, rejoin));
        }
        let results: Vec<ClusterResult<T>> = if world == 1 {
            // One rank has no peer to run beside: a function call on this
            // thread, under the same guard a spawned rank runs in.
            ranks
                .into_iter()
                .map(|(ctx, rejoin)| run_rank(ctx, rejoin, &f))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let f = &f;
                let handles: Vec<_> = ranks
                    .into_iter()
                    .map(|(ctx, rejoin)| scope.spawn(move || run_rank(ctx, rejoin, f)))
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(rank, h)| match h.join() {
                        Ok(result) => result,
                        // Unreachable: the closure is fully guarded by
                        // catch_unwind; kept as a typed error for safety.
                        Err(_) => Err(ClusterError::PeerCrashed {
                            rank,
                            cause: "worker thread died outside the runtime guard".into(),
                        }),
                    })
                    .collect()
            })
        };
        let snapshot = stats.snapshot();

        let mut values = Vec::with_capacity(world);
        let mut first_err: Option<ClusterError> = None;
        for r in results {
            match r {
                Ok(v) => values.push(v),
                Err(e) => {
                    // Prefer a root-cause error over a peer's timeout that
                    // merely raced the abort fan-out.
                    let replace = match (&first_err, &e) {
                        (None, _) => true,
                        (Some(ClusterError::Timeout { .. }), ClusterError::Timeout { .. }) => false,
                        (Some(ClusterError::Timeout { .. }), _) => true,
                        _ => false,
                    };
                    if replace {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((values, snapshot)),
        }
    }
}

/// One rank's run of `f`: admission to the transport (the simulator's
/// token, under sim), a rejoin delay, then `f` under `catch_unwind` — a
/// failing rank wakes its peers with the abort fan-out instead of
/// poisoning the join.
fn run_rank<T, F>(mut ctx: WorkerCtx, rejoin: Option<Duration>, f: &F) -> ClusterResult<T>
where
    F: Fn(&mut WorkerCtx) -> ClusterResult<T>,
{
    let rank = ctx.rank;
    ctx.transport.start();
    // The respawned rank starts late while its peers already wait in the
    // first collective (virtual time under sim).
    if let Some(delay) = rejoin {
        ctx.transport.clock().sleep(rank, delay);
    }
    let result = match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(err)) => Err(err),
        Err(panic) => Err(error_from_panic(rank, panic)),
    };
    if let Err(err) = &result {
        if ctx.abort.is_none() {
            // This worker is the origin of the failure — tell everyone
            // before going down.
            ctx.abort_peers(err.clone());
        }
    }
    ctx.transport.done();
    result
}

/// Turns a caught panic payload into a typed error naming the rank.
fn error_from_panic(rank: usize, panic: Box<dyn std::any::Any + Send>) -> ClusterError {
    let cause = if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    };
    ClusterError::PeerCrashed { rank, cause }
}

/// A worker's handle to the simulated cluster: identity, messaging, and
/// collectives.
pub struct WorkerCtx {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    /// This rank's mailbox on the run's wire, and the run's clock.
    transport: Transport,
    /// Out-of-order messages awaiting a matching `recv`.
    pending: VecDeque<Msg>,
    /// Collective sequence number; advances in lock-step on all workers.
    pub(crate) seq: u64,
    /// Last message id handed to this worker's sends (1-based).
    next_msg_id: u64,
    /// Highest message id delivered per source rank; anything at or below
    /// is a duplicate and is suppressed.
    last_seen_id: Vec<u64>,
    /// Set once a failure is observed; poisons all further communication.
    abort: Option<ClusterError>,
    plan: Option<Arc<FaultPlan>>,
    pub(crate) default_timeout: Option<Duration>,
    pub(crate) stats: Arc<CommStats>,
    /// Recycles `f64` payload capacity across this worker's collectives:
    /// staging copies for sends and received contributions both cycle
    /// through here, so steady-state allreduces run allocation-free.
    pub(crate) pool: BufferPool,
}

impl WorkerCtx {
    /// This worker's rank in `[0, world)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of workers `M`.
    #[inline]
    pub fn world(&self) -> usize {
        self.world
    }

    /// Live communication statistics (shared across all workers).
    pub fn stats(&self) -> CommStatsSnapshot {
        self.stats.snapshot()
    }

    // ---- internal message plumbing --------------------------------------

    /// Fails fast once this context is poisoned.
    fn check_live(&self) -> ClusterResult<()> {
        match &self.abort {
            // lint:allow(alloc_hygiene): poisoned-context fail-fast — the run is already over
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// The next message from this rank, under a fresh per-sender id.
    fn stamp(&mut self, tag: u64, body: Result<Payload, ClusterError>) -> Msg {
        self.next_msg_id += 1;
        Msg {
            src: self.rank,
            tag,
            id: self.next_msg_id,
            body,
        }
    }

    /// Sends on the data plane: counted in [`CommStats`] and, when remote,
    /// subject to the fault plan's message fates.
    pub(crate) fn try_send_raw(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Payload,
    ) -> ClusterResult<()> {
        self.check_live()?;
        let remote = dst != self.rank;
        if remote {
            self.stats
                .record_message_from(self.rank, payload.size_bytes());
            dismastd_obs::histogram_record("comm/msg_bytes", payload.size_bytes());
        }
        let msg = self.stamp(tag, Ok(payload));
        let sent = match &self.plan {
            Some(plan) if remote => plan.send(&self.transport, dst, msg, &self.stats),
            _ => self.transport.post(dst, msg),
        };
        sent.map_err(|e| self.root_cause_for_send_failure(e))
    }

    /// A failed send means the destination already exited.  Workers only
    /// exit early after fanning out an abort, and the fan-out enqueues our
    /// copy of the abort *before* the peer can observe its own and drop its
    /// receiver — so when a send fails, the root cause is already sitting
    /// in our inbox.  Surface it instead of the secondary channel-closed
    /// symptom (which names the wrong rank).
    fn root_cause_for_send_failure(&mut self, err: ClusterError) -> ClusterError {
        while let Some(msg) = self.transport.try_take() {
            match msg.body {
                Err(root) => return self.poisoned_by(root),
                Ok(_) => self.pending.push_back(msg),
            }
        }
        err
    }

    /// Poisons this context with the error an abort notice carried and
    /// hands it back for the caller to return.
    fn poisoned_by(&mut self, err: ClusterError) -> ClusterError {
        // lint:allow(alloc_hygiene): abort teardown — the run is already over
        self.abort = Some(err.clone());
        err
    }

    /// Sends on the control plane (barrier tokens): no stats, no fault
    /// injection, failures ignored — a dead peer is discovered via its
    /// abort message, not via our send.
    pub(crate) fn send_control(&mut self, dst: usize, tag: u64) {
        loom_pause(pause_point::CONTROL_SEND);
        let msg = self.stamp(tag, Ok(Payload::Empty));
        let _ = self.transport.post(dst, msg);
    }

    /// Fans the failure out to every peer and poisons this context.
    /// Idempotent by construction: callers check `abort` first.
    pub(crate) fn abort_peers(&mut self, err: ClusterError) {
        loom_pause(pause_point::ABORT_FANOUT);
        for dst in 0..self.world {
            if dst == self.rank {
                continue;
            }
            // Tag 0 is never matched: receivers recognise the notice by
            // its `Err` body.
            // lint:allow(alloc_hygiene): abort fan-out — teardown path, the run is over
            let msg = self.stamp(0, Err(err.clone()));
            let _ = self.transport.post(dst, msg);
        }
        self.abort = Some(err);
    }

    /// Core receive: matches `(src, tag)`, buffers everything else,
    /// converts aborts into typed errors, suppresses duplicate deliveries,
    /// and enforces the run's deadline.
    pub(crate) fn try_recv_raw(&mut self, src: usize, tag: u64) -> ClusterResult<Payload> {
        loom_pause(pause_point::RECV);
        self.check_live()?;
        // Check buffered messages first.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            if let Some(msg) = self.pending.remove(pos) {
                return msg.body;
            }
        }
        let started_ns = self.transport.clock().now_ns();
        let deadline_ns = self
            .default_timeout
            .map(|t| started_ns.saturating_add(u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)));
        loop {
            let msg = match self.transport.wait(deadline_ns)? {
                Some(Msg { body: Err(err), .. }) => return Err(self.poisoned_by(err)),
                Some(msg) => msg,
                None => {
                    let waited_ns = self.transport.clock().now_ns().saturating_sub(started_ns);
                    return Err(ClusterError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                        waited_ms: waited_ns / 1_000_000,
                    });
                }
            };
            // Duplicate suppression: per-sender ids are monotone and each
            // channel is FIFO, so a non-increasing id is a replayed copy.
            if msg.id <= self.last_seen_id[msg.src] {
                self.stats.record_duplicate_suppressed();
                continue;
            }
            self.last_seen_id[msg.src] = msg.id;
            if msg.src == src && msg.tag == tag {
                return msg.body;
            }
            self.pending.push_back(msg);
        }
    }

    /// Injected-crash checkpoint at every collective entry: if the fault
    /// plan has an armed crash for `(rank, seq)`, this worker fails here.
    /// (A crash-and-rejoin point's delay is spent at the next run's start.)
    pub(crate) fn maybe_crash(&mut self) -> ClusterResult<()> {
        self.check_live()?;
        if let Some(kind) = self
            .plan
            .as_ref()
            .and_then(|p| p.take_crash(self.rank, self.seq))
        {
            loom_pause(pause_point::CRASH);
            return Err(ClusterError::PeerCrashed {
                rank: self.rank,
                // lint:allow(alloc_hygiene): injected-crash teardown, test-plan only
                cause: format!("fault injection: {kind} at collective {}", self.seq),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{PartitionWindow, SimProbe};
    use crate::wire::AllreduceAlgo;
    use std::time::Instant;

    /// A default-options run that also returns the traffic counters.
    fn allreduce_scalar(ctx: &mut WorkerCtx, x: f64) -> ClusterResult<f64> {
        let mut sum = [x];
        ctx.try_allreduce_sum(&mut sum)?;
        Ok(sum[0])
    }

    fn run_counted<T: Send>(
        world: usize,
        f: impl Fn(&mut WorkerCtx) -> ClusterResult<T> + Sync,
    ) -> ClusterResult<(Vec<T>, CommStatsSnapshot)> {
        Cluster::try_run_with_opts(world, &ClusterOptions::default(), f)
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Cluster::run(0, |_| ());
    }

    #[test]
    fn single_worker_runs() {
        let out = Cluster::try_run(1, |ctx| {
            ctx.try_barrier()?;
            let s = allreduce_scalar(ctx, 5.0)?;
            Ok((ctx.rank(), s))
        })
        .unwrap();
        assert_eq!(out, vec![(0, 5.0)]);
    }

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let out = Cluster::run(4, |ctx| ctx.rank()).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn point_to_point_round_trip() {
        // Rank 0's values cross to rank 1 in one exchange, and come back
        // doubled in the next.
        let out = Cluster::try_run(2, |ctx| {
            let there = if ctx.rank() == 0 {
                vec![Payload::Empty, Payload::F64(vec![1.0, 2.0])]
            } else {
                vec![Payload::Empty, Payload::Empty]
            };
            let got = ctx.try_exchange(there)?;
            let back = if ctx.rank() == 1 {
                let doubled: Vec<f64> = got[0]
                    .clone()
                    .try_into_f64()?
                    .iter()
                    .map(|x| x * 2.0)
                    .collect();
                vec![Payload::F64(doubled), Payload::Empty]
            } else {
                vec![Payload::Empty, Payload::Empty]
            };
            let returned = ctx.try_exchange(back)?;
            if ctx.rank() == 0 {
                returned[1].clone().try_into_f64()
            } else {
                got[0].clone().try_into_f64()
            }
        })
        .unwrap();
        assert_eq!(out[0], vec![2.0, 4.0]);
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        // Two exchanges posted, completed in reverse order: the first
        // one's payloads arrive first and wait in the buffer.
        let out = Cluster::try_run(2, |ctx| {
            let me = ctx.rank() as f64;
            let mut one = vec![Payload::F64(vec![10.0 + me]); 2];
            let first = ctx.post_exchange(&mut one)?;
            let mut two = vec![Payload::F64(vec![20.0 + me]); 2];
            let second = ctx.post_exchange(&mut two)?;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ctx.complete_exchange(second, &mut b)?;
            ctx.complete_exchange(first, &mut a)?;
            let peer = 1 - ctx.rank();
            Ok(vec![
                a[peer].clone().try_into_f64()?[0],
                b[peer].clone().try_into_f64()?[0],
            ])
        })
        .unwrap();
        assert_eq!(out[0], vec![11.0, 21.0]);
        assert_eq!(out[1], vec![10.0, 20.0]);
    }

    #[test]
    fn allreduce_sums_across_workers() {
        let out = Cluster::try_run(4, |ctx| {
            let mut buf = vec![ctx.rank() as f64, 1.0];
            ctx.try_allreduce_sum(&mut buf)?;
            Ok(buf)
        })
        .unwrap();
        for r in out {
            assert_eq!(r, vec![6.0, 4.0]); // 0+1+2+3, 1*4
        }
    }

    // A one-value all-reduce, the scalar case; max went with
    // `try_allreduce_max_scalar`.  The test keeps the name the tier-1 floor
    // list knows it by.
    #[test]
    fn allreduce_scalar_and_max() {
        let sums =
            Cluster::try_run(3, |ctx| allreduce_scalar(ctx, ctx.rank() as f64 + 1.0)).unwrap();
        assert!(sums.iter().all(|&s| s == 6.0));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Cluster::try_run(3, |ctx| {
            ctx.try_gather(2, Payload::F64(vec![ctx.rank() as f64 * 10.0]))
        })
        .unwrap();
        assert!(out[0].is_none());
        assert!(out[1].is_none());
        let gathered = out[2].as_ref().unwrap();
        let vals: Vec<f64> = gathered
            .iter()
            .map(|p| match p {
                Payload::F64(v) => v[0],
                _ => panic!("wrong payload"),
            })
            .collect();
        assert_eq!(vals, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn exchange_routes_by_destination() {
        let out = Cluster::try_run(3, |ctx| {
            // Worker r sends value 100*r + d to destination d.
            let outgoing: Vec<Payload> = (0..3)
                .map(|d| Payload::F64(vec![(100 * ctx.rank() + d) as f64]))
                .collect();
            let incoming = ctx.try_exchange(outgoing)?;
            Ok(incoming
                .into_iter()
                .map(|p| p.try_into_f64().unwrap()[0])
                .collect::<Vec<f64>>())
        })
        .unwrap();
        // Worker d receives 100*s + d from each source s.
        assert_eq!(out[0], vec![0.0, 100.0, 200.0]);
        assert_eq!(out[1], vec![1.0, 101.0, 201.0]);
        assert_eq!(out[2], vec![2.0, 102.0, 202.0]);
    }

    #[test]
    fn self_messages_cost_nothing() {
        let (_, stats) = run_counted(1, |ctx| {
            let incoming = ctx.try_exchange(vec![Payload::F64(vec![1.0; 100])])?;
            assert_eq!(incoming[0].size_bytes(), 800);
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn remote_traffic_is_counted() {
        // Rank 0 ships 80 bytes to rank 1; rank 1's empty reply is a
        // message of no bytes.
        let (_, stats) = run_counted(2, |ctx| {
            let outgoing = if ctx.rank() == 0 {
                vec![Payload::Empty, Payload::F64(vec![0.0; 10])]
            } else {
                vec![Payload::Empty, Payload::Empty]
            };
            ctx.try_exchange(outgoing)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.bytes, 80);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes_by_sender, vec![80, 0]);
    }

    #[test]
    fn bytes_and_empty_payloads_account_their_wire_size() {
        // Opaque blobs count their length; Empty crosses as a zero-byte
        // message (still one logical message).
        let (_, stats) = run_counted(2, |ctx| {
            let blob = Payload::Bytes(bytes::Bytes::from(vec![7u8; 123]));
            let outgoing = if ctx.rank() == 0 {
                vec![Payload::Empty, blob]
            } else {
                vec![Payload::Empty, Payload::Empty]
            };
            let incoming = ctx.try_exchange(outgoing)?;
            if ctx.rank() == 1 {
                assert_eq!(incoming[0].size_bytes(), 123);
            } else {
                assert_eq!(incoming[1], Payload::Empty);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.bytes, 123);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes_by_sender, vec![123, 0]);
    }

    #[test]
    fn collectives_sequence_without_crosstalk() {
        // Two back-to-back allreduces must not mix, even with skewed timing.
        let out = Cluster::try_run(4, |ctx| {
            if ctx.rank() == 3 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let a = allreduce_scalar(ctx, 1.0)?;
            let b = allreduce_scalar(ctx, 10.0)?;
            Ok((a, b))
        })
        .unwrap();
        for (a, b) in out {
            assert_eq!(a, 4.0);
            assert_eq!(b, 40.0);
        }
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Cluster::try_run(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.try_barrier()?;
            // After the barrier everyone must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn barrier_is_control_plane_traffic() {
        // Barriers synchronise via channel tokens now, but must stay
        // invisible to the logical traffic counters (seed parity).
        let (_, stats) = run_counted(4, |ctx| {
            ctx.try_barrier()?;
            ctx.try_barrier()
        })
        .unwrap();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.collectives, 2);
    }

    fn skewed(rank: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((rank * 31 + i) as f64).sin() * 1e3 + i as f64 * 0.01)
            .collect()
    }

    #[test]
    fn ring_allreduce_is_bit_identical_to_flat() {
        // `skewed` values, then a column that is `−0.0` on every rank (its
        // sum is `−0.0`, which a sum started from `+0.0` would lose) and a
        // column of subnormals of either sign.
        let operands = |rank: usize, len: usize| {
            let mut buf = skewed(rank, len);
            let sign = [1.0, -1.0][rank % 2];
            for (i, x) in buf.iter_mut().enumerate() {
                match i % 8 {
                    0 => *x = -0.0,
                    1 => *x = sign * f64::from_bits(rank as u64 + 1),
                    _ => {}
                }
            }
            buf
        };
        for world in [2usize, 3, 4, 5] {
            for len in [0usize, 1, 7, 64, 257] {
                let run = |algo| {
                    Cluster::run(world, move |ctx| {
                        let mut buf = operands(ctx.rank(), len);
                        ctx.try_allreduce_sum_with(&mut buf, algo).unwrap();
                        buf
                    })
                    .unwrap()
                };
                let (flat, ring) = (run(AllreduceAlgo::Flat), run(AllreduceAlgo::Ring));
                for (f, r) in flat.iter().zip(&ring) {
                    let fb: Vec<u64> = f.iter().map(|x| x.to_bits()).collect();
                    let rb: Vec<u64> = r.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(fb, rb, "world {world}, len {len}");
                    if let Some(zero) = fb.first() {
                        assert_eq!(*zero, (-0.0f64).to_bits(), "world {world}, len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn ring_moves_the_same_bytes_as_flat() {
        let run = |algo| {
            let (_, stats) = run_counted(4, move |ctx| {
                let mut buf = skewed(ctx.rank(), 100);
                ctx.try_allreduce_sum_with(&mut buf, algo)
            })
            .unwrap();
            stats
        };
        let flat = run(AllreduceAlgo::Flat);
        let ring = run(AllreduceAlgo::Ring);
        // Total volume matches (2(w−1)·b both ways) but the ring spreads
        // it: the busiest sender carries far less than the flat root.
        assert_eq!(flat.bytes, ring.bytes);
        let busiest = |s: &CommStatsSnapshot| s.bytes_by_sender.iter().max().copied();
        assert!(busiest(&ring) < busiest(&flat));
        assert!(ring.reconciles() && flat.reconciles());
    }

    // Historical name: the size-picking `Auto` algorithm is gone; the test
    // now holds the default `try_allreduce_sum` to the ring, bit for bit.
    #[test]
    fn auto_allreduce_matches_flat_results() {
        let run = |algo| {
            Cluster::try_run(4, move |ctx| {
                let mut buf = skewed(ctx.rank(), 2048);
                let mut small = [ctx.rank() as f64];
                match algo {
                    Some(algo) => {
                        ctx.try_allreduce_sum_with(&mut buf, algo)?;
                        ctx.try_allreduce_sum_with(&mut small, algo)?;
                    }
                    None => {
                        ctx.try_allreduce_sum(&mut buf)?;
                        ctx.try_allreduce_sum(&mut small)?;
                    }
                }
                let bits: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
                Ok((bits, small[0]))
            })
            .unwrap()
        };
        let (ring, default) = (run(Some(AllreduceAlgo::Ring)), run(None));
        assert_eq!(ring, default);
        for (_, scalar) in &default {
            assert_eq!(*scalar, 6.0);
        }
    }

    // The ring is the only chunked allreduce left; the test keeps the name
    // the tier-1 floor list knows it by.
    #[test]
    fn allreduce_length_disagreement_aborts_ring_and_halving() {
        let err = Cluster::try_run(4, |ctx| {
            let len = if ctx.rank() == 2 { 8 } else { 10 };
            let mut buf = vec![1.0; len];
            ctx.try_allreduce_sum_with(&mut buf, AllreduceAlgo::Ring)?;
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(err, ClusterError::SizeMismatch { rank: 2, .. }),
            "the ring must surface a typed mismatch naming rank 2, got {err:?}"
        );
    }

    #[test]
    fn posted_exchange_overlaps_and_matches_combined() {
        let out = Cluster::run(3, |ctx| {
            let mut outgoing: Vec<Payload> = (0..3)
                .map(|d| Payload::F64(vec![(100 * ctx.rank() + d) as f64]))
                .collect();
            let pending = ctx.post_exchange(&mut outgoing).unwrap();
            // Local "compute" while the messages are in flight.
            let local: u64 = (0..100).sum();
            let mut incoming = Vec::new();
            ctx.complete_exchange(pending, &mut incoming).unwrap();
            (
                local,
                incoming
                    .into_iter()
                    .map(|p| p.try_into_f64().unwrap()[0])
                    .collect::<Vec<f64>>(),
            )
        })
        .unwrap();
        assert_eq!(out[0].1, vec![0.0, 100.0, 200.0]);
        assert_eq!(out[1].1, vec![1.0, 101.0, 201.0]);
        assert_eq!(out[2].1, vec![2.0, 102.0, 202.0]);
    }

    #[test]
    fn two_posted_exchanges_in_flight_do_not_cross() {
        // Post two exchanges back-to-back, complete them out of order
        // relative to their posting — tags keep the payloads apart.
        let out = Cluster::run(2, |ctx| {
            let frames = |base: f64| -> Vec<Payload> {
                (0..2)
                    .map(|d| Payload::F64(vec![base + d as f64]))
                    .collect()
            };
            let p1 = ctx.post_exchange(&mut frames(0.0)).unwrap();
            let p2 = ctx.post_exchange(&mut frames(10.0)).unwrap();
            let (mut got1, mut got2) = (Vec::new(), Vec::new());
            ctx.complete_exchange(p2, &mut got2).unwrap();
            ctx.complete_exchange(p1, &mut got1).unwrap();
            (
                got1.into_iter()
                    .map(|p| p.try_into_f64().unwrap()[0])
                    .collect::<Vec<_>>(),
                got2.into_iter()
                    .map(|p| p.try_into_f64().unwrap()[0])
                    .collect::<Vec<_>>(),
            )
        })
        .unwrap();
        for (r, (g1, g2)) in out.into_iter().enumerate() {
            assert_eq!(g1, vec![r as f64, r as f64]);
            assert_eq!(g2, vec![10.0 + r as f64, 10.0 + r as f64]);
        }
    }

    // ---- fault-path tests ------------------------------------------------

    #[test]
    fn panicking_worker_returns_error_not_hang() {
        let started = Instant::now();
        let err = Cluster::try_run(4, |ctx| {
            if ctx.rank() == 2 {
                panic!("boom at rank 2");
            }
            // Peers block on a collective the panicking worker never joins.
            allreduce_scalar(ctx, 1.0)
        })
        .unwrap_err();
        match err {
            ClusterError::PeerCrashed { rank, cause } => {
                assert_eq!(rank, 2);
                assert!(cause.contains("boom"), "cause = {cause}");
            }
            other => panic!("expected PeerCrashed, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "abort must beat the timeout backstop"
        );
    }

    #[test]
    fn closure_error_aborts_all_ranks() {
        let err = Cluster::try_run(3, |ctx| {
            if ctx.rank() == 1 {
                return Err(ClusterError::PeerCrashed {
                    rank: 1,
                    cause: "synthetic failure".into(),
                });
            }
            allreduce_scalar(ctx, 1.0)
        })
        .unwrap_err();
        assert_eq!(
            err,
            ClusterError::PeerCrashed {
                rank: 1,
                cause: "synthetic failure".into(),
            }
        );
    }

    /// The abort notice carries the error value itself: every peer, blocked
    /// in a receive when the origin fails, returns exactly the origin's
    /// error — each variant, field for field, on threads and under sim.
    #[test]
    fn every_peer_observes_the_originating_error_value() {
        let variants = [
            ClusterError::PeerCrashed {
                rank: 0,
                cause: "réplica perdue — 節点 ✗".into(),
            },
            ClusterError::Timeout {
                rank: 0,
                src: 2,
                tag: u64::MAX - 1,
                waited_ms: 12_345,
            },
            ClusterError::TypeMismatch {
                expected: "F64".into(),
                found: "Bytes".into(),
            },
            ClusterError::SizeMismatch {
                rank: 2,
                expected: usize::MAX,
                found: 7,
            },
        ];
        for sim in [None, Some(SimOptions::from_seed(5))] {
            for origin in &variants {
                let opts = ClusterOptions {
                    sim: sim.clone(),
                    ..ClusterOptions::default()
                };
                let seen = std::sync::Mutex::new(Vec::new());
                let err = Cluster::try_run_with_opts(3, &opts, |ctx| {
                    if ctx.rank() == 0 {
                        return Err(origin.clone());
                    }
                    let err = ctx.try_barrier().expect_err("rank 0 never arrives");
                    seen.lock().unwrap().push((ctx.rank(), err.clone()));
                    Err::<(), _>(err)
                })
                .expect_err("the origin fails the run");
                assert_eq!(&err, origin);
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|(rank, _)| *rank);
                assert_eq!(
                    seen,
                    vec![(1, origin.clone()), (2, origin.clone())],
                    "sim = {}",
                    sim.is_some()
                );
            }
        }
    }

    /// One `crash_and_rejoin` point on real threads, no simulator: the
    /// first run crashes, the next pays the rejoin delay once (a real
    /// sleep) and matches a clean run bit for bit, and later runs pay
    /// nothing.
    #[test]
    fn crash_and_rejoin_heals_on_real_threads() {
        const DELAY: Duration = Duration::from_millis(20);
        let body = |ctx: &mut WorkerCtx| {
            let mut acc = 0.0;
            for round in 0..3u32 {
                acc += allreduce_scalar(ctx, f64::from(round) + ctx.rank() as f64 / 3.0)?;
            }
            Ok(acc)
        };
        let plan = Arc::new(FaultPlan::seeded(1).crash_and_rejoin(2, 1, DELAY.as_nanos() as u64));
        let opts = ClusterOptions::default().with_fault_plan(Arc::clone(&plan));
        let run = || {
            let collector = dismastd_obs::begin();
            let started = Instant::now();
            let out = Cluster::try_run_with_opts(3, &opts, body).map(|(r, _)| r);
            let delays = collector.finish().counter_value("sim/rejoin_delays");
            (out, delays, started.elapsed())
        };

        let (crashed, delays, _) = run();
        match crashed {
            Err(ClusterError::PeerCrashed { rank, cause }) => {
                assert_eq!(rank, 2);
                assert!(cause.contains("crash-and-rejoin"), "{cause}");
            }
            other => panic!("expected the injected crash, got {other:?}"),
        }
        assert_eq!(delays, 0, "no delay is owed before the crash fires");

        let clean = Cluster::try_run(3, body).unwrap();
        let (healed, delays, elapsed) = run();
        let healed = healed.expect("the respawned run completes");
        assert_eq!(delays, 1, "the respawn pays the delay once");
        assert!(elapsed >= DELAY, "the delay is a real sleep: {elapsed:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&healed), bits(&clean));

        let (later, delays, _) = run();
        assert_eq!(bits(&later.unwrap()), bits(&clean));
        assert_eq!(delays, 0, "later runs pay no delay");
    }

    #[test]
    fn recv_timeout_surfaces_typed_error() {
        // The closure handles the error itself, so the run succeeds and the
        // typed Timeout is the worker's plain return value.
        let opts = ClusterOptions::default().with_timeout(Duration::from_millis(20));
        let (out, _) = Cluster::try_run_with_opts(2, &opts, |ctx| {
            Ok(if ctx.rank() == 1 {
                // Rank 0 never arrives, so its release never comes.
                ctx.try_barrier()
            } else {
                Ok(())
            })
        })
        .unwrap();
        match &out[1] {
            Err(ClusterError::Timeout { rank, src, .. }) => {
                assert_eq!(*rank, 1);
                assert_eq!(*src, 0);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_context_fails_fast() {
        // Once a worker observes an abort, every later operation on its
        // context must fail immediately with the same error.
        let err = Cluster::try_run(2, |ctx| {
            if ctx.rank() == 0 {
                Err(ClusterError::PeerCrashed {
                    rank: 0,
                    cause: "origin".into(),
                })
            } else {
                // This barrier wakes up with rank 0's abort...
                let first = ctx.try_barrier().unwrap_err();
                assert!(matches!(first, ClusterError::PeerCrashed { rank: 0, .. }));
                // ...and the context is now poisoned: no blocking, same error.
                let second = ctx
                    .try_exchange(vec![Payload::Empty, Payload::Empty])
                    .unwrap_err();
                assert_eq!(first, second);
                let third = ctx.try_barrier().unwrap_err();
                assert_eq!(first, third);
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, ClusterError::PeerCrashed { rank: 0, .. }));
    }

    // ---- deterministic-simulation tests ----------------------------------

    /// A workload exercising every collective the runtime offers — the
    /// posted exchange halves and a ring all-reduce with an empty chunk
    /// included — so the scheduler has real interleaving decisions to
    /// make, and threads and the simulator are compared over the whole surface.
    fn sim_workload(ctx: &mut WorkerCtx) -> ClusterResult<Vec<f64>> {
        let me = ctx.rank() as f64;
        let world = ctx.world();
        let sum = allreduce_scalar(ctx, me + 1.0)?;
        ctx.try_barrier()?;
        let mut buf = vec![me; 8];
        ctx.try_allreduce_sum(&mut buf)?;
        let mut ring: Vec<f64> = (0..world - 1).map(|i| me * 0.5 + i as f64).collect();
        ctx.try_allreduce_sum_with(&mut ring, AllreduceAlgo::Ring)?;
        let parts: Vec<Payload> = (0..world)
            .map(|d| Payload::F64(vec![me, d as f64]))
            .collect();
        let swapped = ctx.try_exchange(parts)?;
        let mut outgoing: Vec<Payload> = (0..world)
            .map(|d| Payload::F64(vec![me * 10.0 + d as f64]))
            .collect();
        let pending = ctx.post_exchange(&mut outgoing)?;
        let mut posted = Vec::new();
        ctx.complete_exchange(pending, &mut posted)?;
        let gathered = ctx.try_gather(world - 1, Payload::F64(vec![me * me]))?;
        let mut out = vec![sum, buf[0]];
        out.extend(ring);
        for p in swapped
            .into_iter()
            .chain(posted)
            .chain(gathered.into_iter().flatten())
        {
            out.extend(p.try_into_f64()?);
        }
        Ok(out)
    }

    fn run_sim(
        seed: u64,
        opts_extra: impl Fn(SimOptions) -> SimOptions,
    ) -> (Vec<Vec<f64>>, u64, u64) {
        let probe = SimProbe::new();
        let sim = opts_extra(SimOptions::from_seed(seed)).with_probe(Arc::clone(&probe));
        let opts = ClusterOptions::default().with_sim(sim);
        let (results, _) = Cluster::try_run_with_opts(4, &opts, sim_workload).unwrap();
        (results, probe.fingerprint(), probe.events())
    }

    #[test]
    fn sim_same_seed_is_bit_identical_and_same_trace() {
        let (r1, f1, e1) = run_sim(42, |s| s);
        let (r2, f2, e2) = run_sim(42, |s| s);
        assert!(e1 > 0, "probe recorded no events");
        assert_eq!(f1, f2, "same seed must replay the exact event trace");
        assert_eq!(e1, e2);
        assert_eq!(r1, r2, "same seed must produce bit-identical results");
    }

    #[test]
    fn sim_different_seeds_change_the_trace_not_the_values() {
        let (r1, f1, _) = run_sim(1, |s| s);
        let (r2, f2, _) = run_sim(2, |s| s);
        assert_ne!(f1, f2, "seeds are folded into the fingerprint");
        // Interleaving may differ but the SPMD results cannot.
        assert_eq!(r1, r2);
    }

    #[test]
    fn sim_results_match_real_execution_bitwise() {
        let (sim_results, _, _) = run_sim(7, |s| s);
        let real = Cluster::try_run(4, sim_workload).unwrap();
        assert_eq!(sim_results, real);
    }

    #[test]
    fn sim_partition_heals_and_run_completes() {
        // Cut rank 0 off from everyone for the first chunk of virtual
        // time: collectives stall behind held messages, then the heal
        // releases them and the run completes with correct values.
        let (r, _, _) = run_sim(11, |s| {
            s.with_partition(PartitionWindow {
                a: 0,
                b: usize::MAX,
                start_ns: 0,
                end_ns: 50_000,
            })
        });
        let real = Cluster::try_run(4, sim_workload).unwrap();
        assert_eq!(r, real);
    }

    #[test]
    fn sim_chaos_fates_stay_bit_identical_to_fault_free() {
        let plan = Arc::new(
            FaultPlan::seeded(99)
                .with_message_drops(150)
                .with_duplicates(150)
                .with_delays(150, Duration::from_millis(40)),
        );
        let probe = SimProbe::new();
        let opts = ClusterOptions::default()
            .with_fault_plan(plan)
            .with_sim(SimOptions::from_seed(5).with_probe(Arc::clone(&probe)));
        let (chaos, _) = Cluster::try_run_with_opts(4, &opts, sim_workload).unwrap();
        let (clean, _, _) = run_sim(5, |s| s);
        assert_eq!(chaos, clean, "fault fates must not change logical results");
        assert!(probe.events() > 0);
    }

    #[test]
    fn sim_deadlock_surfaces_typed_timeout_instead_of_hanging() {
        // Rank 1 waits at a barrier rank 0 never enters, with NO
        // deadline: under the simulator that is a detected deadlock (no
        // runnable task, nothing in flight) and wakes as a typed Timeout
        // in zero wall-clock.
        let opts = ClusterOptions::no_timeout().with_sim(SimOptions::from_seed(3));
        let (results, _) = Cluster::try_run_with_opts(2, &opts, |ctx| {
            if ctx.rank() == 1 {
                Ok(ctx.try_barrier().unwrap_err())
            } else {
                Err(ClusterError::PeerCrashed {
                    rank: 0,
                    cause: "unused".into(),
                })
                .or(Ok(ClusterError::Timeout {
                    rank: 0,
                    src: 0,
                    tag: 0,
                    waited_ms: 0,
                }))
            }
        })
        .unwrap();
        assert!(
            matches!(results[1], ClusterError::Timeout { rank: 1, .. }),
            "expected typed timeout, got {:?}",
            results[1]
        );
    }

    #[test]
    fn sim_virtual_sleep_costs_no_wall_clock() {
        // A 10-minute delay fate would hang a real run; under the
        // simulator it is a virtual-time jump.
        let probe = SimProbe::new();
        let plan = Arc::new(FaultPlan::seeded(1).with_delays(1000, Duration::from_secs(600)));
        // No receive deadline: the 10-minute virtual delay must not trip
        // the (virtual) 30s backstop, and must still cost no wall-clock.
        let opts = ClusterOptions::no_timeout()
            .with_fault_plan(plan)
            .with_sim(SimOptions::from_seed(9).with_probe(Arc::clone(&probe)));
        let started = Instant::now();
        let (results, _) = Cluster::try_run_with_opts(2, &opts, |ctx| {
            let sent = Payload::F64(vec![4.25 * (1 - ctx.rank()) as f64]);
            let got = ctx.try_exchange(vec![sent.clone(), sent])?;
            Ok(got[0].clone().try_into_f64()?[0])
        })
        .unwrap();
        assert_eq!(results[1], 4.25);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "virtual delays must not consume wall-clock"
        );
        assert!(
            probe.virtual_ns() >= 600_000_000_000,
            "the 10-minute delay must appear in virtual time (got {}ns)",
            probe.virtual_ns()
        );
    }
}
