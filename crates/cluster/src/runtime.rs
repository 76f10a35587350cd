//! The SPMD worker runtime.
//!
//! [`Cluster::run`] spawns one OS thread per simulated worker node and runs
//! the same closure on each (Single Program, Multiple Data — the execution
//! model of the paper's Spark implementation).  Workers coordinate only
//! through [`WorkerCtx`]: tagged point-to-point messages over unbounded
//! channels, plus the collectives DisMASTD needs (barrier, broadcast,
//! gather, all-reduce of `f64` buffers, all-to-all exchange).
//!
//! Collectives are sequenced by an internal counter that advances
//! identically on every worker (valid because the program is SPMD), so
//! messages from different phases can never be confused even though the
//! channels are shared.  All remote traffic is tallied in [`CommStats`].
//!
//! ## Fault model
//!
//! The runtime is fault-tolerant: every communication primitive is
//! fallible and returns [`ClusterResult`].  When a worker fails — its
//! closure panics, returns an error, or a fault plan crashes it — the
//! runtime fans an **abort message** carrying the encoded
//! [`ClusterError`] out to every peer.  Peers blocked in any receive wake
//! up with the originating error instead of deadlocking, and
//! [`Cluster::run`] returns `Err` naming the failing rank and cause.
//! A context that has observed an abort is poisoned: all further
//! communication on it fails fast with the same error.
//!
//! Deterministic chaos is injected via [`FaultPlan`] (see
//! [`ClusterOptions`]): seeded per-message delays, drops with
//! retransmission, duplicate deliveries (suppressed by a per-sender
//! sequence check), and crash-at-collective-k worker failures.  Control
//! traffic — barrier tokens and abort fan-outs — bypasses both fault
//! injection and [`CommStats`], so logical traffic totals under chaos stay
//! bit-identical to a fault-free run.

use crate::clock::{Clock, RealClock};
use crate::comm::{BufferPool, CommStats, CommStatsSnapshot, Payload};
use crate::error::{ClusterError, ClusterResult};
use crate::fault::{FaultPlan, MessageFate};
use crate::sim::{SimNet, SimOptions, WaitOutcome};
use crate::wire::{AllreduceAlgo, WireMeta};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Tags below this are reserved for internally sequenced collectives;
/// user point-to-point tags are offset into the upper half.
const USER_TAG_BASE: u64 = 1 << 63;

/// Reserved control tag carrying an encoded [`ClusterError`] from a
/// failing worker to its peers.
const ABORT_TAG: u64 = u64::MAX;

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

pub(crate) struct Msg {
    src: usize,
    tag: u64,
    /// Per-sender sequence number (1-based, monotone per channel); lets
    /// receivers suppress duplicate deliveries under fault injection.
    id: u64,
    payload: Payload,
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
    match std::env::var("DISMASTD_TEST_TIMEOUT_MS") {
        Ok(ms) => match ms.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => Some(Duration::from_secs(30)),
        },
        Err(_) => Some(Duration::from_secs(30)),
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
            fault_plan: None,
            sim: None,
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
/// let results =
///     Cluster::try_run(4, |ctx| ctx.try_allreduce_sum_scalar(ctx.rank() as f64)).unwrap();
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

        // One inbound channel per worker; every worker holds all senders
        // (including its own, so its receiver can never disconnect).
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(world);
        let mut receivers: Vec<Receiver<Msg>> = Vec::with_capacity(world);
        for _ in 0..world {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }

        // Under simulation, one SimNet serialises every worker onto a
        // virtual clock; it doubles as the run's Clock.  Otherwise the
        // workers share a RealClock and run genuinely concurrent.
        let sim = opts
            .sim
            .as_ref()
            .map(|s| Arc::new(SimNet::new(world, senders.clone(), s)));
        let clock: Arc<dyn Clock> = match &sim {
            Some(s) => Arc::clone(s) as Arc<dyn Clock>,
            None => Arc::new(RealClock::new()),
        };

        let results: Vec<ClusterResult<T>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(world);
            for (rank, receiver) in receivers.drain(..).enumerate() {
                let senders = senders.clone();
                let stats = Arc::clone(&stats);
                let plan = opts.fault_plan.clone();
                let default_timeout = opts.default_timeout;
                let sim = sim.clone();
                let clock = Arc::clone(&clock);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut ctx = WorkerCtx {
                        rank,
                        world,
                        senders,
                        receiver,
                        pending: VecDeque::new(),
                        seq: 0,
                        next_msg_id: 0,
                        last_seen_id: vec![0; world],
                        abort: None,
                        plan,
                        default_timeout,
                        stats,
                        clock,
                        sim,
                        pool: BufferPool::new(true),
                    };
                    // Under sim: wait until every worker registered and the
                    // scheduler hands this task the run token.
                    if let Some(sim) = ctx.sim.clone() {
                        sim.worker_start(rank);
                    }
                    // Catch panics so one worker's death cannot poison the
                    // join; surviving peers are woken via the abort fan-out.
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    let result = match outcome {
                        Ok(Ok(value)) => Ok(value),
                        Ok(Err(err)) => Err(err),
                        Err(panic) => Err(error_from_panic(rank, panic)),
                    };
                    if let Err(err) = &result {
                        if ctx.abort.is_none() {
                            // This worker is the origin of the failure —
                            // tell everyone before going down.
                            ctx.abort_peers(err.clone());
                        }
                    }
                    if let Some(sim) = ctx.sim.clone() {
                        sim.worker_done(rank);
                    }
                    result
                }));
            }
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
        });
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

/// Decodes the [`ClusterError`] carried by an abort notice, falling back
/// to a generic crash report naming the aborting sender.
fn decode_abort(msg: &Msg) -> ClusterError {
    match &msg.payload {
        Payload::Bytes(b) => ClusterError::decode(b),
        _ => None,
    }
    .unwrap_or(ClusterError::PeerCrashed {
        rank: msg.src,
        cause: "peer aborted".into(),
    })
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

/// A payload plus its accounting sidecar: `meta` is present iff the
/// payload is a compressed frame standing in for a larger flat payload,
/// in which case the logical counters record `meta.logical_bytes` and the
/// wire counters record the frame's encoded size.
#[derive(Debug, Clone)]
pub struct Framed {
    /// What goes on the wire.
    pub payload: Payload,
    /// Compression accounting; `None` for ordinary payloads.
    pub meta: Option<WireMeta>,
}

impl Framed {
    /// An uncompressed payload (wire size == logical size).
    pub fn plain(payload: Payload) -> Self {
        Framed {
            payload,
            meta: None,
        }
    }

    /// A compressed frame with its flat-equivalent accounting.
    pub fn compressed(payload: Payload, meta: WireMeta) -> Self {
        Framed {
            payload,
            meta: Some(meta),
        }
    }
}

/// Handle to an all-to-all exchange whose sends have been posted but whose
/// receives have not yet run — the overlap window.  Must be completed with
/// [`WorkerCtx::complete_exchange`] before the next collective that needs
/// the data; dropping it without completing leaves the peers' messages to
/// be drained by tag matching, but never corrupts later collectives (tags
/// are unique per collective).
#[must_use = "posted exchanges must be completed to receive the peers' payloads"]
pub struct PendingExchange {
    tag: u64,
    mine: Payload,
}

/// A worker's handle to the simulated cluster: identity, messaging, and
/// collectives.
pub struct WorkerCtx {
    rank: usize,
    world: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Out-of-order messages awaiting a matching `recv`.
    pending: VecDeque<Msg>,
    /// Collective sequence number; advances in lock-step on all workers.
    seq: u64,
    /// Last message id handed to this worker's sends (1-based).
    next_msg_id: u64,
    /// Highest message id delivered per source rank; anything at or below
    /// is a duplicate and is suppressed.
    last_seen_id: Vec<u64>,
    /// Set once a failure is observed; poisons all further communication.
    abort: Option<ClusterError>,
    plan: Option<Arc<FaultPlan>>,
    default_timeout: Option<Duration>,
    stats: Arc<CommStats>,
    /// Time source: real wall-clock in production, virtual under sim.
    clock: Arc<dyn Clock>,
    /// Set when running under the deterministic simulator; routes message
    /// hand-off and blocking through the virtual scheduler.
    sim: Option<Arc<SimNet>>,
    /// Recycles `f64` payload capacity across this worker's collectives:
    /// staging copies for sends and received contributions both cycle
    /// through here, so steady-state allreduces run allocation-free.
    pool: BufferPool,
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

    /// The poisoning error, if this context has observed a failure.
    pub fn abort_cause(&self) -> Option<&ClusterError> {
        self.abort.as_ref()
    }

    // ---- point-to-point --------------------------------------------------

    /// Sends `payload` to worker `dst` under a user tag.
    ///
    /// Only remote sends (`dst != rank`) count as network traffic.
    ///
    /// # Errors
    /// Fails fast with the poisoning error after an abort, or with
    /// [`ClusterError::PeerCrashed`] when `dst`'s inbound channel is gone.
    pub fn try_send(&mut self, dst: usize, tag: u64, payload: Payload) -> ClusterResult<()> {
        self.try_send_raw(dst, USER_TAG_BASE + tag, payload)
    }

    /// Receives the payload sent by `src` under a user tag, blocking until
    /// it arrives (bounded by the run's default timeout).  Messages with
    /// other tags are buffered, not lost.
    ///
    /// # Errors
    /// Returns [`ClusterError::Timeout`] past the deadline, the peer's
    /// error when the cluster aborts, or the poisoning error thereafter.
    pub fn try_recv(&mut self, src: usize, tag: u64) -> ClusterResult<Payload> {
        self.try_recv_raw(src, USER_TAG_BASE + tag, self.default_timeout)
    }

    /// Like [`WorkerCtx::try_recv`] with an explicit deadline.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_recv`].
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> ClusterResult<Payload> {
        self.try_recv_raw(src, USER_TAG_BASE + tag, Some(timeout))
    }

    // ---- internal message plumbing --------------------------------------

    fn fresh_msg_id(&mut self) -> u64 {
        self.next_msg_id += 1;
        self.next_msg_id
    }

    /// Copies `src` into a pool-recycled buffer — the allocation-free
    /// replacement for `src.to_vec()` on the collective staging paths.
    fn pooled_copy(&mut self, src: &[f64]) -> Vec<f64> {
        let mut v = self.pool.take();
        v.extend_from_slice(src);
        v
    }

    /// Sends on the data plane: counted in [`CommStats`] and subject to
    /// fault injection (remote messages only).
    fn try_send_raw(&mut self, dst: usize, tag: u64, payload: Payload) -> ClusterResult<()> {
        self.try_send_raw_with(dst, tag, payload, None)
    }

    /// [`WorkerCtx::try_send_raw`] with optional compression accounting:
    /// with `meta`, the logical counters record the flat-equivalent size
    /// (keeping compressed and flat runs byte-for-byte comparable) and the
    /// wire counters record what the frame actually cost.
    fn try_send_raw_with(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Payload,
        meta: Option<WireMeta>,
    ) -> ClusterResult<()> {
        if let Some(err) = &self.abort {
            // lint:allow(alloc_hygiene): poisoned-context fail-fast — the run is already over
            return Err(err.clone());
        }
        let remote = dst != self.rank;
        if remote {
            match &meta {
                Some(m) => {
                    let wire = payload.size_bytes();
                    self.stats.record_message_from(self.rank, m.logical_bytes);
                    self.stats
                        .record_compressed(wire, m.logical_bytes, m.downcast_rows);
                    dismastd_obs::histogram_record("comm/msg_bytes", m.logical_bytes);
                    dismastd_obs::histogram_record("comm/wire_bytes", wire);
                    dismastd_obs::counter_add("comm/compressed_bytes", wire);
                    dismastd_obs::counter_add("comm/downcast_rows", m.downcast_rows);
                }
                None => {
                    self.stats
                        .record_message_from(self.rank, payload.size_bytes());
                    dismastd_obs::histogram_record("comm/msg_bytes", payload.size_bytes());
                }
            }
        }
        let id = self.fresh_msg_id();
        let fate = match (&self.plan, remote) {
            (Some(plan), true) => plan.fate(self.rank, dst, id),
            _ => MessageFate::Deliver,
        };
        let sent = match fate {
            MessageFate::Deliver => self.deliver(dst, tag, id, payload),
            MessageFate::Corrupt => {
                // Silent in-flight corruption.  Only opaque byte frames are
                // tamperable on this typed transport; the frame decoder's
                // index-block validation is the detection layer.  The byte
                // flipped sits in the header/count region, so decoding
                // always surfaces a typed error rather than wrong values.
                let tampered = match payload {
                    Payload::Bytes(b) => {
                        // lint:allow(alloc_hygiene): fault-injection corruption path, test-plan only
                        let mut v = b.to_vec();
                        let pos = usize::from(v.len() > 1);
                        if let Some(byte) = v.get_mut(pos) {
                            *byte ^= 0x55;
                        }
                        Payload::Bytes(bytes::Bytes::from(v))
                    }
                    other => other,
                };
                self.deliver(dst, tag, id, tampered)
            }
            MessageFate::Delay(d) => {
                // The simulated network holds the message; the synchronous
                // sender models that by sleeping before handing it over.
                // Virtual time under sim — the delay costs zero wall-clock.
                self.clock.sleep(self.rank, d);
                self.deliver(dst, tag, id, payload)
            }
            MessageFate::DropThenRetransmit => {
                // First copy lost in flight: never enqueued.  The sender
                // notices (simulated RTO) and retransmits the same id; the
                // extra wire copy is tallied separately from logical bytes.
                self.stats.record_retransmit(payload.size_bytes());
                let rto = self
                    .plan
                    .as_ref()
                    .map(|p| p.retransmit_delay())
                    .unwrap_or_default();
                self.clock.sleep(self.rank, rto);
                self.deliver(dst, tag, id, payload)
            }
            MessageFate::Duplicate => {
                // Spurious retransmit: both copies hit the wire; the
                // receiver's sequence check discards the second.
                self.stats.record_retransmit(payload.size_bytes());
                // lint:allow(alloc_hygiene): fault-injection duplicate delivery, test-plan only
                let first = self.deliver(dst, tag, id, payload.clone());
                if first.is_ok() {
                    // The receiver owes a recv only for the logical copy,
                    // so it may consume that and exit before the spurious
                    // one lands — a dead-letter on the simulated wire, not
                    // a peer failure.
                    let _ = self.deliver(dst, tag, id, payload);
                }
                first
            }
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
        while let Ok(msg) = self.receiver.try_recv() {
            if msg.tag == ABORT_TAG {
                let root = decode_abort(&msg);
                // lint:allow(alloc_hygiene): abort teardown — the run is already over
                self.abort = Some(root.clone());
                return root;
            }
            self.pending.push_back(msg);
        }
        err
    }

    fn deliver(&self, dst: usize, tag: u64, id: u64, payload: Payload) -> ClusterResult<()> {
        let msg = Msg {
            src: self.rank,
            tag,
            id,
            payload,
        };
        if let Some(sim) = &self.sim {
            // The virtual wire: delivery happens at a seeded future
            // instant (later across a partition), FIFO per link.  Posts
            // never fail — a receiver that exits before the flush turns
            // the message into a dead letter, matched by the real wire's
            // "send to exited worker" dead-letter semantics.
            dismastd_obs::alloc_exempt(|| sim.post(self.rank, dst, msg));
            return Ok(());
        }
        // The channel's internal node allocation is transport
        // infrastructure, outside the payload-path allocation audit.
        dismastd_obs::alloc_exempt(|| self.senders[dst].send(msg)).map_err(|_| {
            ClusterError::PeerCrashed {
                rank: dst,
                cause: "inbound channel closed (worker exited)".into(),
            }
        })
    }

    /// Sends on the control plane (barrier tokens): no stats, no fault
    /// injection, failures ignored — a dead peer is discovered via its
    /// abort message, not via our send.
    fn send_control(&mut self, dst: usize, tag: u64) {
        loom_pause(pause_point::CONTROL_SEND);
        let id = self.fresh_msg_id();
        let msg = Msg {
            src: self.rank,
            tag,
            id,
            payload: Payload::Empty,
        };
        if let Some(sim) = &self.sim {
            dismastd_obs::alloc_exempt(|| sim.post(self.rank, dst, msg));
            return;
        }
        let _ = dismastd_obs::alloc_exempt(|| self.senders[dst].send(msg));
    }

    /// Fans the failure out to every peer and poisons this context.
    /// Idempotent by construction: callers check `abort` first.
    fn abort_peers(&mut self, err: ClusterError) {
        loom_pause(pause_point::ABORT_FANOUT);
        for dst in 0..self.world {
            if dst == self.rank {
                continue;
            }
            let id = self.fresh_msg_id();
            let msg = Msg {
                src: self.rank,
                tag: ABORT_TAG,
                id,
                payload: Payload::Bytes(bytes::Bytes::from(err.encode())),
            };
            if let Some(sim) = &self.sim {
                sim.post(self.rank, dst, msg);
            } else {
                let _ = self.senders[dst].send(msg);
            }
        }
        self.abort = Some(err);
    }

    /// Blocks until the next message lands in this worker's channel or the
    /// deadline (nanoseconds on the run's [`Clock`]) passes.  Under sim the
    /// block parks the task on the virtual scheduler — a 30s backstop costs
    /// zero wall-clock — and a genuine deadlock (nothing in flight, no
    /// future event) also surfaces as the typed timeout.
    fn recv_next(
        &mut self,
        src: usize,
        tag: u64,
        started_ns: u64,
        deadline_ns: Option<u64>,
    ) -> ClusterResult<Msg> {
        // lint:allow(alloc_hygiene): Arc refcount bump, not a heap allocation
        if let Some(sim) = self.sim.clone() {
            loop {
                if let Ok(m) = self.receiver.try_recv() {
                    return Ok(m);
                }
                match sim.wait_for_delivery(self.rank, deadline_ns) {
                    WaitOutcome::Delivered => continue,
                    WaitOutcome::TimedOut { .. } => {
                        return Err(ClusterError::Timeout {
                            rank: self.rank,
                            src,
                            tag,
                            waited_ms: self.clock.now_ns().saturating_sub(started_ns) / 1_000_000,
                        })
                    }
                }
            }
        }
        match deadline_ns {
            None => match self.receiver.recv() {
                Ok(m) => Ok(m),
                // Unreachable (we hold a sender to ourselves), but
                // mapped to a typed error rather than a panic.
                Err(_) => Err(ClusterError::PeerCrashed {
                    rank: self.rank,
                    cause: "own inbound channel closed".into(),
                }),
            },
            Some(d) => {
                let remaining = Duration::from_nanos(d.saturating_sub(self.clock.now_ns()));
                match self.receiver.recv_timeout(remaining) {
                    Ok(m) => Ok(m),
                    Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                        waited_ms: self.clock.now_ns().saturating_sub(started_ns) / 1_000_000,
                    }),
                    Err(RecvTimeoutError::Disconnected) => Err(ClusterError::PeerCrashed {
                        rank: self.rank,
                        cause: "own inbound channel closed".into(),
                    }),
                }
            }
        }
    }

    /// Core receive: matches `(src, tag)`, buffers everything else,
    /// converts aborts into typed errors, suppresses duplicate deliveries,
    /// and enforces the deadline.
    fn try_recv_raw(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> ClusterResult<Payload> {
        loom_pause(pause_point::RECV);
        if let Some(err) = &self.abort {
            // lint:allow(alloc_hygiene): poisoned-context fail-fast — the run is already over
            return Err(err.clone());
        }
        // Check buffered messages first.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            if let Some(msg) = self.pending.remove(pos) {
                return Ok(msg.payload);
            }
        }
        let started_ns = self.clock.now_ns();
        let deadline_ns = timeout
            .map(|t| started_ns.saturating_add(u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)));
        loop {
            let msg = self.recv_next(src, tag, started_ns, deadline_ns)?;
            if msg.tag == ABORT_TAG {
                let err = decode_abort(&msg);
                // lint:allow(alloc_hygiene): abort teardown — the run is already over
                self.abort = Some(err.clone());
                return Err(err);
            }
            // Duplicate suppression: per-sender ids are monotone and each
            // channel is FIFO, so a non-increasing id is a replayed copy.
            if msg.id <= self.last_seen_id[msg.src] {
                self.stats.record_duplicate_suppressed();
                continue;
            }
            self.last_seen_id[msg.src] = msg.id;
            if msg.src == src && msg.tag == tag {
                return Ok(msg.payload);
            }
            self.pending.push_back(msg);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Injected-crash checkpoint at every collective entry: if the fault
    /// plan has an armed crash for `(rank, seq)`, this worker fails here.
    fn maybe_crash(&mut self) -> ClusterResult<()> {
        if let Some(err) = &self.abort {
            // lint:allow(alloc_hygiene): poisoned-context fail-fast — the run is already over
            return Err(err.clone());
        }
        if let Some(plan) = &self.plan {
            if plan.take_crash(self.rank, self.seq) {
                loom_pause(pause_point::CRASH);
                return Err(ClusterError::PeerCrashed {
                    rank: self.rank,
                    // lint:allow(alloc_hygiene): injected-crash teardown, test-plan only
                    cause: format!("fault injection: crash at collective {}", self.seq),
                });
            }
        }
        // The simulator's crash-and-rejoin fates fire here too; the rejoin
        // half happens in `SimNet::worker_start` on the retry run.
        if let Some(sim) = &self.sim {
            if sim.take_crash(self.rank, self.seq) {
                loom_pause(pause_point::CRASH);
                return Err(ClusterError::PeerCrashed {
                    rank: self.rank,
                    // lint:allow(alloc_hygiene): injected-crash teardown, test-plan only
                    cause: format!(
                        "fault injection: crash-and-rejoin at collective {}",
                        self.seq
                    ),
                });
            }
        }
        Ok(())
    }

    // ---- collectives -----------------------------------------------------

    /// Blocks until every worker reaches the barrier.  Implemented over the
    /// message channels (gather-to-0 of empty tokens, then release) rather
    /// than a blocking `std::sync::Barrier`, so a crashed worker aborts the
    /// barrier instead of deadlocking it.  Token traffic is control-plane:
    /// it appears in no byte or message counter.
    ///
    /// # Errors
    /// Returns the peer's [`ClusterError`] when the cluster aborts.
    pub fn try_barrier(&mut self) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/barrier");
        self.maybe_crash()?;
        let tag = self.next_seq();
        if self.rank == 0 {
            self.stats.record_collective();
        }
        if self.world == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            for src in 1..self.world {
                self.try_recv_raw(src, tag, self.default_timeout)?;
            }
            for dst in 1..self.world {
                self.send_control(dst, tag);
            }
        } else {
            self.send_control(0, tag);
            self.try_recv_raw(0, tag, self.default_timeout)?;
        }
        Ok(())
    }

    /// All-to-all exchange: `outgoing[d]` is delivered to worker `d`; the
    /// return value holds, at position `s`, the payload worker `s` sent
    /// here.  Self-delivery is a local move (no traffic counted).
    ///
    /// This is the blocking convenience over [`WorkerCtx::post_exchange`] +
    /// [`WorkerCtx::complete_exchange`], the primitive behind the
    /// factor-row shuffles of Sec. IV-B1/B2; steady-state loops call the
    /// two halves directly so they can reuse their buffers and overlap
    /// compute with the in-flight messages.
    ///
    /// # Errors
    /// Returns the poisoning [`ClusterError`] when any peer fails or a
    /// receive times out.
    ///
    /// # Panics
    /// Panics unless `outgoing.len() == world` (a caller bug).
    pub fn try_exchange(&mut self, outgoing: Vec<Payload>) -> ClusterResult<Vec<Payload>> {
        let _span = dismastd_obs::span("comm/exchange");
        let mut frames: Vec<Framed> = outgoing.into_iter().map(Framed::plain).collect();
        let pending = self.post_exchange(&mut frames)?;
        let mut incoming = Vec::with_capacity(self.world);
        self.complete_exchange(pending, &mut incoming)?;
        Ok(incoming)
    }

    /// Posts the send half of an all-to-all exchange and returns without
    /// waiting for the peers' payloads — the receive half runs in
    /// [`WorkerCtx::complete_exchange`], letting callers overlap local
    /// compute with the in-flight messages.  Collective sequencing,
    /// crash-point and stats bookkeeping all happen here.  The frames
    /// (payload plus optional compression accounting, see [`Framed`]) are
    /// drained out but `outgoing` keeps its capacity, so a caller refilling
    /// the same `Vec` every iteration posts the whole exchange without
    /// allocating.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_exchange`].
    ///
    /// # Panics
    /// Panics unless `outgoing.len() == world` (a caller bug).
    pub fn post_exchange(&mut self, outgoing: &mut Vec<Framed>) -> ClusterResult<PendingExchange> {
        assert_eq!(outgoing.len(), self.world, "one payload per destination");
        let _span = dismastd_obs::span("comm/exchange_post");
        self.maybe_crash()?;
        let tag = self.next_seq();
        if self.rank == 0 {
            self.stats.record_collective();
        }
        // Keep the self-payload aside, send the rest.
        let mine = std::mem::replace(&mut outgoing[self.rank].payload, Payload::Empty);
        for (dst, framed) in outgoing.drain(..).enumerate() {
            if dst == self.rank {
                continue;
            }
            self.try_send_raw_with(dst, tag, framed.payload, framed.meta)?;
        }
        Ok(PendingExchange { tag, mine })
    }

    /// Receive half of a posted exchange: blocks for every peer's payload.
    /// `incoming` is cleared and refilled rank-ordered with the own payload
    /// at `rank` (same contract as [`WorkerCtx::try_exchange`]), keeping its
    /// capacity so the receive half of a steady-state exchange loop never
    /// allocates.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_exchange`].
    pub fn complete_exchange(
        &mut self,
        pending: PendingExchange,
        incoming: &mut Vec<Payload>,
    ) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/exchange_wait");
        let PendingExchange { tag, mine } = pending;
        incoming.clear();
        for src in 0..self.world {
            if src == self.rank {
                incoming.push(Payload::Empty); // placeholder, replaced below
            } else {
                incoming.push(self.try_recv_raw(src, tag, self.default_timeout)?);
            }
        }
        incoming[self.rank] = mine;
        Ok(())
    }

    /// Broadcast from `root`: the root passes `Some(payload)`, everyone else
    /// passes `None`; all workers (including the root) return the payload.
    ///
    /// # Errors
    /// Returns the poisoning [`ClusterError`] when any peer fails or the
    /// receive times out.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some` (a
    /// caller bug).
    pub fn try_broadcast(
        &mut self,
        root: usize,
        payload: Option<Payload>,
    ) -> ClusterResult<Payload> {
        let _span = dismastd_obs::span("comm/broadcast");
        self.maybe_crash()?;
        let tag = self.next_seq();
        if self.rank == 0 {
            self.stats.record_collective();
        }
        if self.rank == root {
            // lint:allow(panic_path): documented contract — root/payload misuse is a caller bug
            let payload = payload.expect("root must supply the broadcast payload");
            for dst in 0..self.world {
                if dst != root {
                    // lint:allow(alloc_hygiene): each send consumes one copy of the caller-owned payload; the gram path uses the pooled flat allreduce
                    self.try_send_raw(dst, tag, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            assert!(payload.is_none(), "only the root supplies a payload");
            self.try_recv_raw(root, tag, self.default_timeout)
        }
    }

    /// Gather to `root`: returns `Some(payloads_by_rank)` on the root,
    /// `None` elsewhere.
    ///
    /// # Errors
    /// Returns the poisoning [`ClusterError`] when any peer fails or a
    /// receive times out.
    pub fn try_gather(
        &mut self,
        root: usize,
        payload: Payload,
    ) -> ClusterResult<Option<Vec<Payload>>> {
        let _span = dismastd_obs::span("comm/gather");
        self.maybe_crash()?;
        let tag = self.next_seq();
        if self.rank == 0 {
            self.stats.record_collective();
        }
        if self.rank == root {
            // lint:allow(alloc_hygiene): O(world) result table owned by the caller — the gram path uses the pooled flat allreduce, not gather
            let mut all: Vec<Payload> = Vec::with_capacity(self.world);
            for src in 0..self.world {
                if src == root {
                    all.push(Payload::Empty); // placeholder, replaced below
                } else {
                    all.push(self.try_recv_raw(src, tag, self.default_timeout)?);
                }
            }
            all[root] = payload;
            Ok(Some(all))
        } else {
            self.try_send_raw(root, tag, payload)?;
            Ok(None)
        }
    }

    /// All-reduce (sum) of an `f64` buffer: after the call every worker's
    /// `buf` holds the element-wise sum over all workers.
    ///
    /// Implemented gather-to-0 + broadcast, the "All-to-All reduction …
    /// aggregate … and distribute among all partitions" of Sec. IV-B3.
    ///
    /// Buffer lengths are validated against the root's buffer; a mismatch
    /// aborts the run, so **every** rank observes the same
    /// [`ClusterError::SizeMismatch`] naming the offending rank (the seed
    /// runtime instead `assert_eq!`-ed on rank 0 and hung the rest).
    ///
    /// # Errors
    /// `SizeMismatch` on disagreeing lengths, `TypeMismatch` on protocol
    /// corruption, or the poisoning error when a peer fails.
    pub fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        self.try_allreduce_sum_with(buf, AllreduceAlgo::Flat)
    }

    /// [`WorkerCtx::try_allreduce_sum`] with an explicit algorithm choice.
    ///
    /// `Auto` resolves per call from payload size × worker count (see
    /// [`AllreduceAlgo::resolve`]).  `Ring` reproduces the flat path's
    /// per-element summation order exactly — rank-ordered chain reduction —
    /// so the two are bit-identical.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_allreduce_sum`].
    pub fn try_allreduce_sum_with(
        &mut self,
        buf: &mut [f64],
        algo: AllreduceAlgo,
    ) -> ClusterResult<()> {
        // The inner primitives record their own comm/* spans, which nest
        // inside this one; comm/* totals are therefore per-primitive, not
        // additive across the family.
        let _span = dismastd_obs::span("comm/allreduce");
        if self.world == 1 {
            self.maybe_crash()?;
            return Ok(());
        }
        let bytes = std::mem::size_of_val(buf) as u64;
        match algo.resolve(self.world, bytes) {
            AllreduceAlgo::Ring => self.allreduce_ring(buf),
            _ => self.allreduce_flat(buf),
        }
    }

    /// Seed algorithm: gather-to-0 + broadcast.  Two collectives' worth of
    /// sequencing and `2(w−1)·b` bytes through the root.
    ///
    /// The gather and broadcast halves are inlined (same spans, crash
    /// points, and sequence numbers as `try_gather` + `try_broadcast`) so
    /// contributions fold straight into `buf` as they arrive and every
    /// staging vector cycles through the worker's [`BufferPool`] — the
    /// steady-state gram reduction allocates nothing.  The fold runs in
    /// ascending rank order, bit-identical to the old gathered-table
    /// reduction.
    fn allreduce_flat(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        let root = 0usize;
        // Gather half.
        {
            let _span = dismastd_obs::span("comm/gather");
            self.maybe_crash()?;
            let tag = self.next_seq();
            if self.rank == 0 {
                self.stats.record_collective();
            }
            if self.rank == root {
                // Own contribution first (rank 0 == root), then peers in
                // ascending rank order — exactly the gathered table's
                // iteration order, so the FP sum is unchanged.
                let own = self.pooled_copy(buf);
                buf.iter_mut().for_each(|x| *x = 0.0);
                for (b, x) in buf.iter_mut().zip(&own) {
                    *b += *x;
                }
                self.pool.put(own);
                for src in 1..self.world {
                    let p = self.try_recv_raw(src, tag, self.default_timeout)?;
                    let v = match p.try_into_f64() {
                        Ok(v) => v,
                        Err(e) => {
                            // lint:allow(alloc_hygiene): mismatch fan-out — abort path, the run is over
                            self.abort_peers(e.clone());
                            return Err(e);
                        }
                    };
                    if v.len() != buf.len() {
                        let e = ClusterError::SizeMismatch {
                            rank: src,
                            expected: buf.len(),
                            found: v.len(),
                        };
                        // lint:allow(alloc_hygiene): mismatch fan-out — abort path, the run is over
                        self.abort_peers(e.clone());
                        return Err(e);
                    }
                    for (b, x) in buf.iter_mut().zip(&v) {
                        *b += *x;
                    }
                    self.pool.put(v);
                }
            } else {
                let own = self.pooled_copy(buf);
                self.try_send_raw(root, tag, Payload::F64(own))?;
            }
        }
        // Broadcast half.
        {
            let _span = dismastd_obs::span("comm/broadcast");
            self.maybe_crash()?;
            let tag = self.next_seq();
            if self.rank == 0 {
                self.stats.record_collective();
            }
            if self.rank == root {
                for dst in 0..self.world {
                    if dst != root {
                        let copy = self.pooled_copy(buf);
                        self.try_send_raw(dst, tag, Payload::F64(copy))?;
                    }
                }
            } else {
                let reduced = self
                    .try_recv_raw(root, tag, self.default_timeout)?
                    .try_into_f64()?;
                if reduced.len() != buf.len() {
                    // Can only happen on protocol corruption; still typed.
                    return Err(ClusterError::SizeMismatch {
                        rank: self.rank,
                        expected: buf.len(),
                        found: reduced.len(),
                    });
                }
                buf.copy_from_slice(&reduced);
                self.pool.put(reduced);
            }
        }
        Ok(())
    }

    /// Splits `0..len` into at most `world` contiguous, near-equal chunks
    /// (at least one, so zero-length reductions still flow through the
    /// chain and keep the message pattern uniform across ranks).
    fn ring_chunks(len: usize, world: usize) -> Vec<std::ops::Range<usize>> {
        let parts = world.min(len.max(1));
        let base = len / parts;
        let rem = len % parts;
        // lint:allow(alloc_hygiene): O(world) range table per call, independent of payload size
        let mut ranges = Vec::with_capacity(parts);
        let mut start = 0usize;
        for i in 0..parts {
            let extra = usize::from(i < rem);
            let end = start + base + extra;
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// Pipelined chain allreduce: chunks flow rank 0 → 1 → … → w−1
    /// accumulating contributions in rank order, then back down carrying
    /// the totals.  Per-rank traffic is ≈`2·b` bytes regardless of `w`
    /// (vs `2(w−1)·b` through the flat root), and because partial sums
    /// accumulate in exactly the flat path's rank order, results are
    /// bit-identical to [`WorkerCtx::allreduce_flat`].
    fn allreduce_ring(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/allreduce_ring");
        self.maybe_crash()?;
        let tag = self.next_seq();
        if self.rank == 0 {
            self.stats.record_collective();
        }
        let w = self.world;
        let me = self.rank;
        let chunks = Self::ring_chunks(buf.len(), w);
        // Upstream: receive the running sum from the left neighbour, fold
        // in the local contribution, forward right.  The last rank holds
        // each chunk's total the moment it arrives and starts it on its
        // way back down immediately, so the two waves pipeline.
        for range in &chunks {
            if me > 0 {
                let part = self
                    .try_recv_raw(me - 1, tag, self.default_timeout)?
                    .try_into_f64()?;
                if part.len() != range.len() {
                    let e = ClusterError::SizeMismatch {
                        rank: me - 1,
                        expected: range.len(),
                        found: part.len(),
                    };
                    // lint:allow(alloc_hygiene): mismatch fan-out — abort path, the run is over
                    self.abort_peers(e.clone());
                    return Err(e);
                }
                // lint:allow(alloc_hygiene): Range<usize> clone — a stack copy, no heap allocation
                for (b, x) in buf[range.clone()].iter_mut().zip(&part) {
                    *b += *x;
                }
                self.pool.put(part);
            }
            if me < w - 1 {
                // lint:allow(alloc_hygiene): Range<usize> clone — a stack copy, no heap allocation
                let copy = self.pooled_copy(&buf[range.clone()]);
                self.try_send_raw(me + 1, tag, Payload::F64(copy))?;
            } else if me > 0 {
                // Chunk total ready: start the downstream wave.
                // lint:allow(alloc_hygiene): Range<usize> clone — a stack copy, no heap allocation
                let copy = self.pooled_copy(&buf[range.clone()]);
                self.try_send_raw(me - 1, tag, Payload::F64(copy))?;
            }
        }
        // Downstream: totals flow w−1 → 0; everyone below the top copies
        // and forwards.  Channel FIFO per (src, tag) keeps the upstream
        // and downstream chunk streams from the right neighbour ordered.
        if me < w - 1 {
            for range in &chunks {
                let total = self
                    .try_recv_raw(me + 1, tag, self.default_timeout)?
                    .try_into_f64()?;
                if total.len() != range.len() {
                    let e = ClusterError::SizeMismatch {
                        rank: me + 1,
                        expected: range.len(),
                        found: total.len(),
                    };
                    // lint:allow(alloc_hygiene): mismatch fan-out — abort path, the run is over
                    self.abort_peers(e.clone());
                    return Err(e);
                }
                // lint:allow(alloc_hygiene): Range<usize> clone — a stack copy, no heap allocation
                buf[range.clone()].copy_from_slice(&total);
                if me > 0 {
                    // Forwarding moves the received buffer — no copy.
                    self.try_send_raw(me - 1, tag, Payload::F64(total))?;
                } else {
                    self.pool.put(total);
                }
            }
        }
        Ok(())
    }

    /// All-reduce of a single scalar.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_allreduce_sum`].
    pub fn try_allreduce_sum_scalar(&mut self, x: f64) -> ClusterResult<f64> {
        let mut buf = [x];
        self.try_allreduce_sum(&mut buf)?;
        Ok(buf[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{PartitionWindow, SimProbe};
    use std::time::Instant;

    /// A default-options run that also returns the traffic counters.
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
            let s = ctx.try_allreduce_sum_scalar(5.0)?;
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
        let out = Cluster::try_run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_send(1, 7, Payload::F64(vec![1.0, 2.0]))?;
                Ok(ctx.try_recv(1, 8)?.into_f64())
            } else {
                let got = ctx.try_recv(0, 7)?.into_f64();
                let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                ctx.try_send(0, 8, Payload::F64(doubled.clone()))?;
                Ok(doubled)
            }
        })
        .unwrap();
        assert_eq!(out[0], vec![2.0, 4.0]);
        assert_eq!(out[1], vec![2.0, 4.0]);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        // Worker 0 sends two tags; worker 1 receives them in reverse order.
        let out = Cluster::try_run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_send(1, 1, Payload::U64(vec![11]))?;
                ctx.try_send(1, 2, Payload::U64(vec![22]))?;
                Ok(vec![])
            } else {
                let second = ctx.try_recv(0, 2)?.into_u64();
                let first = ctx.try_recv(0, 1)?.into_u64();
                Ok(vec![first[0], second[0]])
            }
        })
        .unwrap();
        assert_eq!(out[1], vec![11, 22]);
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

    // Scalar sums only since `try_allreduce_max_scalar` went; the test keeps
    // the name the tier-1 floor list knows it by.
    #[test]
    fn allreduce_scalar_and_max() {
        let sums = Cluster::try_run(3, |ctx| {
            ctx.try_allreduce_sum_scalar(ctx.rank() as f64 + 1.0)
        })
        .unwrap();
        assert!(sums.iter().all(|&s| s == 6.0));
    }

    #[test]
    fn broadcast_delivers_to_everyone() {
        let out = Cluster::try_run(3, |ctx| {
            let payload = if ctx.rank() == 1 {
                Some(Payload::F64(vec![3.5]))
            } else {
                None
            };
            Ok(ctx.try_broadcast(1, payload)?.into_f64())
        })
        .unwrap();
        assert!(out.iter().all(|v| v == &vec![3.5]));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Cluster::try_run(3, |ctx| {
            ctx.try_gather(2, Payload::U64(vec![ctx.rank() as u64 * 10]))
        })
        .unwrap();
        assert!(out[0].is_none());
        assert!(out[1].is_none());
        let gathered = out[2].as_ref().unwrap();
        let vals: Vec<u64> = gathered
            .iter()
            .map(|p| match p {
                Payload::U64(v) => v[0],
                _ => panic!("wrong payload"),
            })
            .collect();
        assert_eq!(vals, vec![0, 10, 20]);
    }

    #[test]
    fn exchange_routes_by_destination() {
        let out = Cluster::try_run(3, |ctx| {
            // Worker r sends value 100*r + d to destination d.
            let outgoing: Vec<Payload> = (0..3)
                .map(|d| Payload::U64(vec![(100 * ctx.rank() + d) as u64]))
                .collect();
            let incoming = ctx.try_exchange(outgoing)?;
            Ok(incoming
                .into_iter()
                .map(|p| p.into_u64()[0])
                .collect::<Vec<u64>>())
        })
        .unwrap();
        // Worker d receives 100*s + d from each source s.
        assert_eq!(out[0], vec![0, 100, 200]);
        assert_eq!(out[1], vec![1, 101, 201]);
        assert_eq!(out[2], vec![2, 102, 202]);
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
        let (_, stats) = run_counted(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_send(1, 0, Payload::F64(vec![0.0; 10]))?; // 80 bytes
            } else {
                ctx.try_recv(0, 0)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.bytes, 80);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn bytes_and_empty_payloads_account_their_wire_size() {
        // Opaque blobs count their length; Empty crosses as a zero-byte
        // message (still one logical message).
        let (_, stats) = run_counted(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_send(1, 0, Payload::Bytes(bytes::Bytes::from(vec![7u8; 123])))?;
                ctx.try_send(1, 1, Payload::Empty)?;
            } else {
                assert_eq!(ctx.try_recv(0, 0)?.size_bytes(), 123);
                assert_eq!(ctx.try_recv(0, 1)?, Payload::Empty);
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
            let a = ctx.try_allreduce_sum_scalar(1.0)?;
            let b = ctx.try_allreduce_sum_scalar(10.0)?;
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
        for world in [2usize, 3, 4, 5] {
            for len in [0usize, 1, 7, 64, 257] {
                let flat = Cluster::run(world, |ctx| {
                    let mut buf = skewed(ctx.rank(), len);
                    ctx.try_allreduce_sum_with(&mut buf, AllreduceAlgo::Flat)
                        .unwrap();
                    buf
                })
                .unwrap();
                let ring = Cluster::run(world, |ctx| {
                    let mut buf = skewed(ctx.rank(), len);
                    ctx.try_allreduce_sum_with(&mut buf, AllreduceAlgo::Ring)
                        .unwrap();
                    buf
                })
                .unwrap();
                for (f, r) in flat.iter().zip(&ring) {
                    let fb: Vec<u64> = f.iter().map(|x| x.to_bits()).collect();
                    let rb: Vec<u64> = r.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(fb, rb, "world {world}, len {len}");
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
        assert!(ring.sender_imbalance() < flat.sender_imbalance());
        assert!(ring.reconciles() && flat.reconciles());
    }

    #[test]
    fn auto_allreduce_matches_flat_results() {
        let out = Cluster::run(4, |ctx| {
            // Big enough that Auto resolves to Ring at 4 workers.
            let mut buf = skewed(ctx.rank(), 2048);
            ctx.try_allreduce_sum_with(&mut buf, AllreduceAlgo::Auto)
                .unwrap();
            let mut small = vec![ctx.rank() as f64];
            ctx.try_allreduce_sum_with(&mut small, AllreduceAlgo::Auto)
                .unwrap();
            (buf, small[0])
        })
        .unwrap();
        let reference = Cluster::try_run(4, |ctx| {
            let mut buf = skewed(ctx.rank(), 2048);
            ctx.try_allreduce_sum(&mut buf)?;
            Ok(buf)
        })
        .unwrap();
        for ((buf, scalar), flat) in out.iter().zip(&reference) {
            assert_eq!(buf, flat);
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
            matches!(err, ClusterError::SizeMismatch { .. }),
            "the ring must surface a typed mismatch, got {err:?}"
        );
    }

    #[test]
    fn posted_exchange_overlaps_and_matches_combined() {
        let out = Cluster::run(3, |ctx| {
            let mut outgoing: Vec<Framed> = (0..3)
                .map(|d| Framed::plain(Payload::U64(vec![(100 * ctx.rank() + d) as u64])))
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
                    .map(|p| p.into_u64()[0])
                    .collect::<Vec<u64>>(),
            )
        })
        .unwrap();
        assert_eq!(out[0].1, vec![0, 100, 200]);
        assert_eq!(out[1].1, vec![1, 101, 201]);
        assert_eq!(out[2].1, vec![2, 102, 202]);
    }

    #[test]
    fn two_posted_exchanges_in_flight_do_not_cross() {
        // Post two exchanges back-to-back, complete them out of order
        // relative to their posting — tags keep the payloads apart.
        let out = Cluster::run(2, |ctx| {
            let frames = |base: u64| -> Vec<Framed> {
                (0..2)
                    .map(|d| Framed::plain(Payload::U64(vec![base + d])))
                    .collect()
            };
            let p1 = ctx.post_exchange(&mut frames(0)).unwrap();
            let p2 = ctx.post_exchange(&mut frames(10)).unwrap();
            let (mut got1, mut got2) = (Vec::new(), Vec::new());
            ctx.complete_exchange(p2, &mut got2).unwrap();
            ctx.complete_exchange(p1, &mut got1).unwrap();
            (
                got1.into_iter()
                    .map(|p| p.into_u64()[0])
                    .collect::<Vec<_>>(),
                got2.into_iter()
                    .map(|p| p.into_u64()[0])
                    .collect::<Vec<_>>(),
            )
        })
        .unwrap();
        for (r, (g1, g2)) in out.into_iter().enumerate() {
            assert_eq!(g1, vec![r as u64, r as u64]);
            assert_eq!(g2, vec![10 + r as u64, 10 + r as u64]);
        }
    }

    #[test]
    fn framed_exchange_accounts_logical_and_wire_bytes() {
        use crate::wire::{decode_rows, maybe_compress, CommPolicy};
        let rows: Vec<u32> = (0..32).collect();
        let policy = CommPolicy::default().with_downcast_f32(true);
        let (_, stats) = run_counted(2, move |ctx| {
            let values: Vec<f64> = (0..rows.len() * 4).map(|i| i as f64 * 0.5).collect();
            let (frame, meta) = maybe_compress(&rows, &values, &policy).expect("frame wins");
            let me = ctx.rank();
            let mut outgoing: Vec<Framed> = (0..2)
                .map(|d| {
                    if d == me {
                        Framed::plain(Payload::Empty)
                    } else {
                        Framed::compressed(Payload::Bytes(frame.clone()), meta)
                    }
                })
                .collect();
            let pending = ctx.post_exchange(&mut outgoing)?;
            let mut incoming = Vec::new();
            ctx.complete_exchange(pending, &mut incoming)?;
            let mut pool = crate::comm::BufferPool::new(false);
            let got = decode_rows(
                incoming.into_iter().nth(1 - me).unwrap(),
                1 - me,
                &rows,
                4,
                &mut pool,
            )
            .unwrap();
            for (g, w) in got.iter().zip(&values) {
                assert_eq!(*g, *w as f32 as f64);
            }
            Ok(())
        })
        .unwrap();
        // Logical bytes: two remote messages of 32 rows × rank 4 × 8 bytes.
        assert_eq!(stats.bytes, 2 * 32 * 4 * 8);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.compressed_logical_bytes, stats.bytes);
        assert!(stats.compressed_bytes < stats.compressed_logical_bytes);
        assert_eq!(stats.downcast_rows, 2 * 32);
        assert!(stats.wire_bytes() < stats.bytes);
        assert!(stats.compression_ratio() > 1.5);
        assert!(stats.reconciles());
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
            ctx.try_allreduce_sum_scalar(1.0)
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
            ctx.try_allreduce_sum_scalar(1.0)
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

    #[test]
    fn recv_timeout_surfaces_typed_error() {
        // The closure handles the error itself, so the run succeeds and the
        // typed Timeout is the worker's plain return value.
        let out = Cluster::run(2, |ctx| {
            if ctx.rank() == 1 {
                // Nobody ever sends tag 5.
                ctx.recv_timeout(0, 5, Duration::from_millis(20))
            } else {
                Ok(Payload::Empty)
            }
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
                // This receive wakes up with rank 0's abort...
                let first = ctx.try_recv(0, 1).unwrap_err();
                assert!(matches!(first, ClusterError::PeerCrashed { rank: 0, .. }));
                // ...and the context is now poisoned: no blocking, same error.
                let second = ctx.try_send(0, 2, Payload::Empty).unwrap_err();
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

    /// A workload exercising every collective the runtime offers, so the
    /// scheduler has real interleaving decisions to make.
    fn sim_workload(ctx: &mut WorkerCtx) -> ClusterResult<Vec<f64>> {
        let me = ctx.rank() as f64;
        let world = ctx.world();
        let sum = ctx.try_allreduce_sum_scalar(me + 1.0)?;
        ctx.try_barrier()?;
        let bcast = (ctx.rank() == 0).then(|| Payload::F64(vec![sum * 2.0]));
        let root = ctx.try_broadcast(0, bcast)?.into_f64();
        let mut buf = vec![me; 8];
        ctx.try_allreduce_sum(&mut buf)?;
        let parts: Vec<Payload> = (0..world)
            .map(|d| Payload::F64(vec![me, d as f64]))
            .collect();
        let swapped = ctx.try_exchange(parts)?;
        let mut out = vec![sum, root[0], buf[0]];
        for p in swapped {
            out.extend(p.into_f64());
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
        // Rank 1 waits for a message nobody will ever send, with NO
        // deadline: under the simulator that is a detected deadlock (no
        // runnable task, nothing in flight) and wakes as a typed Timeout
        // in zero wall-clock.
        let opts = ClusterOptions::no_timeout().with_sim(SimOptions::from_seed(3));
        let (results, _) = Cluster::try_run_with_opts(2, &opts, |ctx| {
            if ctx.rank() == 1 {
                Ok(ctx.try_recv(0, 77).unwrap_err())
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
            if ctx.rank() == 0 {
                ctx.try_send(1, 1, Payload::F64(vec![4.25]))?;
                Ok(0.0)
            } else {
                Ok(ctx.try_recv(0, 1)?.into_f64()[0])
            }
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
