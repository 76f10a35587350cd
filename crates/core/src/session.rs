//! Streaming decomposition sessions — the user-facing API.
//!
//! A [`StreamingSession`] consumes a multi-aspect streaming tensor sequence
//! (Def. 4) snapshot by snapshot and maintains the CP decomposition of the
//! latest snapshot (Def. 5, MASTD).  The first snapshot is decomposed from
//! scratch (cold start); every later snapshot reuses the previous factors
//! and touches only the relative complement `X \ X̃` — the core DisMASTD
//! idea that makes the per-step cost independent of the accumulated history.
//!
//! Sessions are **fault-tolerant**: the entire durable state serialises to
//! a [`SessionCheckpoint`] ([`StreamingSession::checkpoint`] /
//! [`StreamingSession::restore`]), and a step commits its results only
//! once it has succeeded, so a distributed-mode cluster fault leaves the
//! session at its pre-step state.
//!
//! Sessions are also **self-healing**: with a [`HealPolicy`] installed
//! ([`StreamingSession::set_heal_policy`]), [`StreamingSession::ingest`]
//! replays a faulted decomposition under a [`Supervisor`] walking the
//! policy's ladder — bounded per-rank respawns with seeded backoff, then a
//! degraded-world fallback that shrinks the cluster through the
//! elastic-leave path instead of failing — so a crashed worker never
//! surfaces to the caller until the ladder is genuinely exhausted.
//! Because the decomposition is deterministic for a fixed seed, a replayed
//! step reproduces the fault-free factors bit for bit.

use crate::config::{DecompConfig, WatchdogPolicy};
use crate::distributed::{run_distributed, ClusterConfig, PlanCache};
use crate::dtd::{dtd, zero_history};
use dismastd_cluster::{ClusterOptions, CommStatsSnapshot, HealAction, HealPolicy, Supervisor};
use dismastd_obs::MetricsSnapshot;
use dismastd_tensor::matrix::Matrix;
use dismastd_tensor::{
    KruskalTensor, NumericsReport, Result, SparseTensor, SparseTensorBuilder, TensorError,
    ValidationMode,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
// lint:allow(determinism): Instant feeds StepReport wall-clock fields only, never factor math
use std::time::{Duration, Instant};

/// Where the per-snapshot decomposition executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Single-threaded in-process solver.
    Serial,
    /// Simulated cluster with the given configuration.
    Distributed(ClusterConfig),
}

/// A queued elastic-membership transition.  Changes are requested at any
/// time ([`StreamingSession::request_join`] /
/// [`StreamingSession::request_leave`]) but applied only at the next
/// ingest boundary — between steps the factors are a consistent global
/// snapshot, so re-deriving ownership for the new world there can never
/// split a step across two placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// `count` workers join the cluster.
    Join {
        /// How many workers join.
        count: usize,
    },
    /// `count` workers leave the cluster.
    Leave {
        /// How many workers leave.
        count: usize,
    },
}

/// A structural transition the heal ladder performed while completing a
/// step (see [`StreamingSession::ingest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealTransition {
    /// A rank exhausted its respawn budget and the supervisor shrank the
    /// world through the elastic-leave path instead of failing the step.
    Degraded {
        /// World size before the shrink.
        from_world: usize,
        /// World size after the shrink.
        to_world: usize,
    },
}

/// What the heal ladder did to complete a step; reported whenever a
/// [`HealPolicy`] is installed (all-zero on a fault-free step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Respawn-and-replay attempts this step consumed.
    pub respawns: usize,
    /// Nanoseconds of backoff spent before replays (virtual when the
    /// [`HealPolicy`] carries a virtual clock, wall otherwise).
    pub backoff_ns: u64,
    /// Structural transitions, in the order the ladder took them.
    pub transitions: Vec<HealTransition>,
    /// `true` when any [`HealTransition::Degraded`] fired — the step
    /// completed, but at reduced parallelism.
    pub degraded: bool,
}

/// What happened while ingesting one snapshot.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// 0-based snapshot index within this session.
    pub step: usize,
    /// `true` for the first snapshot (full decomposition from scratch).
    pub cold_start: bool,
    /// Shape of the ingested snapshot.
    pub snapshot_shape: Vec<usize>,
    /// Nonzeros in the ingested snapshot.
    pub snapshot_nnz: usize,
    /// Nonzeros actually processed (`nnz(X \ X̃)`; equals `snapshot_nnz` on
    /// a cold start).
    pub processed_nnz: usize,
    /// ALS iterations executed.
    pub iterations: usize,
    /// Final Eq. 4 loss.
    pub loss: f64,
    /// CP fit `1 − ‖X − ⟦A⟧‖/‖X‖` against the **full** snapshot.
    pub fit: f64,
    /// Wall-clock of the decomposition.
    pub elapsed: Duration,
    /// Average time per ALS iteration.
    pub time_per_iter: Duration,
    /// Network traffic (distributed mode only).
    pub comm: Option<CommStatsSnapshot>,
    /// Snapshot entries dropped by
    /// [`ValidationMode::Quarantine`] ingest validation (always 0 under
    /// `Strict`, which errors instead, and under `Off`).
    pub quarantined: u64,
    /// Divergence-watchdog restarts this step needed (each one re-runs the
    /// decomposition with a damped forgetting factor).
    pub watchdog_restarts: usize,
    /// Forgetting factor `μ` actually used by the successful attempt
    /// (`cfg.forgetting` unless the watchdog damped it).
    pub effective_forgetting: f64,
    /// Solver-tier escalations across all attempts of this step.
    pub numerics: NumericsReport,
    /// Per-phase timings, counters, and histograms for this step, present
    /// when [`StreamingSession::set_collect_metrics`] enabled collection.
    /// In distributed mode this merges the driver's preparation spans with
    /// every rank's worker metrics, so span totals sum concurrent per-rank
    /// time and can exceed [`StepReport::elapsed`].
    pub metrics: Option<MetricsSnapshot>,
    /// What the heal ladder did this step; `None` when no [`HealPolicy`] is
    /// installed.
    pub heal: Option<HealReport>,
}

/// The durable state of a [`StreamingSession`], as written by
/// [`StreamingSession::checkpoint`]: configuration, execution mode, the
/// latest decomposition, and the stream position.  Runtime-only state
/// (cluster options, heal policy) is not part of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Decomposition hyper-parameters.
    pub cfg: DecompConfig,
    /// Serial or distributed execution.
    pub mode: ExecutionMode,
    /// Decomposition of the latest snapshot (`None` before the first).
    pub factors: Option<KruskalTensor>,
    /// Shape of the latest snapshot.
    pub shape: Vec<usize>,
    /// Snapshots ingested so far.
    pub step: usize,
    /// Accumulated network traffic across all distributed steps.
    pub comm_totals: CommStatsSnapshot,
}

/// Stateful multi-aspect streaming decomposition.
///
/// ```
/// use dismastd_core::{DecompConfig, ExecutionMode, StreamingSession};
/// use dismastd_tensor::SparseTensorBuilder;
///
/// // Two nested snapshots of a growing 2x2 -> 3x3 matrix.
/// let mut b = SparseTensorBuilder::new(vec![2, 2]);
/// b.push(&[0, 0], 1.0).unwrap();
/// b.push(&[1, 1], 2.0).unwrap();
/// let first = b.build().unwrap();
/// let mut b = SparseTensorBuilder::new(vec![3, 3]);
/// b.push(&[0, 0], 1.0).unwrap();
/// b.push(&[1, 1], 2.0).unwrap();
/// b.push(&[2, 2], 3.0).unwrap();
/// let second = b.build().unwrap();
///
/// let cfg = DecompConfig::default().with_rank(2).with_max_iters(5);
/// let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);
/// let r0 = session.ingest(&first).unwrap();
/// assert!(r0.cold_start);
/// let r1 = session.ingest(&second).unwrap();
/// assert!(!r1.cold_start);
/// assert_eq!(r1.processed_nnz, 1); // only the new corner entry
/// ```
#[derive(Debug)]
pub struct StreamingSession {
    cfg: DecompConfig,
    mode: ExecutionMode,
    factors: Option<KruskalTensor>,
    shape: Vec<usize>,
    step: usize,
    /// Step-local memo of the distributed placement (reset at the top of
    /// every ingest) plus its lifetime hit/miss counters.
    plan_cache: PlanCache,
    /// Runtime options (timeouts, fault injection) for distributed steps.
    /// Deliberately not checkpointed: a restored session should run with
    /// the restoring process's options, not a dead process's fault plan.
    cluster_opts: ClusterOptions,
    /// Network traffic accumulated over every distributed step so far.
    comm_totals: CommStatsSnapshot,
    /// When `true`, every ingest collects per-phase metrics into
    /// [`StepReport::metrics`].  Runtime-only, never checkpointed.
    collect_metrics: bool,
    /// Elastic-membership transitions queued for the next ingest boundary.
    /// Runtime-only: a restored session starts with an empty queue.
    pending_membership: Vec<MembershipChange>,
    /// The heal-ladder executor, installed by
    /// [`StreamingSession::set_heal_policy`]; `None` lets a cluster fault
    /// surface from [`StreamingSession::ingest`].  Runtime-only: per-rank
    /// budgets belong to this process's cluster, not to a checkpoint.
    supervisor: Option<Supervisor>,
}

impl StreamingSession {
    /// Creates an empty session.
    pub fn new(cfg: DecompConfig, mode: ExecutionMode) -> Self {
        StreamingSession {
            cfg,
            mode,
            factors: None,
            shape: Vec::new(),
            step: 0,
            plan_cache: PlanCache::default(),
            cluster_opts: ClusterOptions::default(),
            comm_totals: CommStatsSnapshot::default(),
            collect_metrics: false,
            pending_membership: Vec::new(),
            supervisor: None,
        }
    }

    /// Resumes a session from a previously obtained decomposition — e.g. a
    /// checkpoint serialised with serde, or the output of an offline batch
    /// decomposition.  The next ingested snapshot is treated as a warm step
    /// relative to `factors`' shape.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when the factors' rank
    /// disagrees with `cfg.rank`.
    pub fn resume(cfg: DecompConfig, mode: ExecutionMode, factors: KruskalTensor) -> Result<Self> {
        if factors.rank() != cfg.rank {
            return Err(TensorError::InvalidArgument(format!(
                "checkpoint rank {} does not match configured rank {}",
                factors.rank(),
                cfg.rank
            )));
        }
        let shape = factors.shape();
        Ok(StreamingSession {
            cfg,
            mode,
            factors: Some(factors),
            shape,
            step: 1,
            plan_cache: PlanCache::default(),
            cluster_opts: ClusterOptions::default(),
            comm_totals: CommStatsSnapshot::default(),
            collect_metrics: false,
            pending_membership: Vec::new(),
            supervisor: None,
        })
    }

    /// Sets the cluster runtime options (receive deadlines, fault
    /// injection) used by every subsequent distributed step.
    pub fn set_cluster_options(&mut self, opts: ClusterOptions) {
        self.cluster_opts = opts;
    }

    /// Enables or disables per-step metrics collection.  When enabled,
    /// every [`StreamingSession::ingest`] returns a populated
    /// [`StepReport::metrics`]; when disabled (the default) the
    /// instrumented code paths cost one thread-local check per span.
    pub fn set_collect_metrics(&mut self, on: bool) {
        self.collect_metrics = on;
    }

    /// Whether per-step metrics collection is enabled.
    pub fn collect_metrics(&self) -> bool {
        self.collect_metrics
    }

    /// Installs the heal ladder [`StreamingSession::ingest`] walks when a
    /// distributed step hits a cluster fault.  Replaces any previous
    /// supervisor, resetting its per-rank respawn budgets.
    pub fn set_heal_policy(&mut self, policy: HealPolicy) {
        self.supervisor = Some(Supervisor::new(policy));
    }

    /// The heal policy in effect, if a supervisor is installed.
    pub fn heal_policy(&self) -> Option<&HealPolicy> {
        self.supervisor.as_ref().map(Supervisor::policy)
    }

    /// The cluster runtime options in effect.
    pub fn cluster_options(&self) -> &ClusterOptions {
        &self.cluster_opts
    }

    /// Network traffic accumulated over every distributed step so far.
    pub fn comm_totals(&self) -> &CommStatsSnapshot {
        &self.comm_totals
    }

    // ---- elastic membership ----------------------------------------------

    /// Queues `count` workers to join the cluster; applied at the next
    /// ingest boundary (see [`MembershipChange`]).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] in serial mode or for
    /// `count == 0`.
    pub fn request_join(&mut self, count: usize) -> Result<()> {
        self.queue_membership(MembershipChange::Join { count })
    }

    /// Queues `count` workers to leave the cluster; applied at the next
    /// ingest boundary (see [`MembershipChange`]).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] in serial mode, for
    /// `count == 0`, or when the queue (including this change) would drop
    /// the cluster below one worker.
    pub fn request_leave(&mut self, count: usize) -> Result<()> {
        self.queue_membership(MembershipChange::Leave { count })
    }

    /// Membership transitions queued but not yet applied.
    pub fn pending_membership(&self) -> &[MembershipChange] {
        &self.pending_membership
    }

    fn queue_membership(&mut self, change: MembershipChange) -> Result<()> {
        let ExecutionMode::Distributed(cc) = &self.mode else {
            return Err(TensorError::InvalidArgument(
                "membership changes require distributed mode".into(),
            ));
        };
        let count = match change {
            MembershipChange::Join { count } | MembershipChange::Leave { count } => count,
        };
        if count == 0 {
            return Err(TensorError::InvalidArgument(
                "membership change of zero workers".into(),
            ));
        }
        // Validate the whole queue (with this change appended) at request
        // time, so apply never has to reject mid-drain.
        let mut world = cc.workers;
        for c in self
            .pending_membership
            .iter()
            .chain(std::iter::once(&change))
        {
            world = match *c {
                MembershipChange::Join { count } => world.saturating_add(count),
                MembershipChange::Leave { count } => {
                    if count >= world {
                        return Err(TensorError::InvalidArgument(format!(
                            "leaving {count} worker(s) would drop the cluster below one \
                             (world would be {world} at that point in the queue)"
                        )));
                    }
                    world - count
                }
            };
        }
        self.pending_membership.push(change);
        Ok(())
    }

    /// Applies every queued membership transition: resolves the new world
    /// size, counts the factor rows whose owner moves between the old and
    /// new placements, and updates the cluster configuration (the grid, and
    /// therefore every cell, is re-derived for the new world on the next
    /// decomposition).  Called at each ingest boundary; a no-op when
    /// nothing is queued or the net world change is zero.
    ///
    /// # Errors
    /// Propagates placement-plan construction failures (the session's
    /// membership state is still advanced — the new world size is applied
    /// first, so a metrics failure cannot leave the queue half-drained).
    fn apply_membership(&mut self) -> Result<()> {
        if self.pending_membership.is_empty() {
            return Ok(());
        }
        let changes: Vec<MembershipChange> = self.pending_membership.drain(..).collect();
        let ExecutionMode::Distributed(cc) = &self.mode else {
            // Unreachable: queueing rejects serial mode.
            return Ok(());
        };
        let old_cc = cc.clone();
        let mut world = old_cc.workers;
        let mut joins = 0u64;
        let mut leaves = 0u64;
        for c in changes {
            match c {
                MembershipChange::Join { count } => {
                    world = world.saturating_add(count);
                    joins += count as u64;
                }
                MembershipChange::Leave { count } => {
                    // Validated at request time; clamp defensively anyway.
                    world = world.saturating_sub(count).max(1);
                    leaves += count as u64;
                }
            }
        }
        dismastd_obs::counter_add("membership/join", joins);
        dismastd_obs::counter_add("membership/leave", leaves);
        if world == old_cc.workers {
            return Ok(()); // net-zero change: same grid, nothing moves
        }
        if let ExecutionMode::Distributed(cc) = &mut self.mode {
            cc.workers = world;
        }
        // Migrated-rows accounting: compare row ownership between the old
        // and new worlds' placement plans over the current shape.  The
        // factors themselves are a global Kruskal tensor, so "migration"
        // is an ownership re-derivation, not a data copy — the metric
        // reports how many rows changed hands.
        if !self.shape.is_empty() {
            let probe = SparseTensor::empty(self.shape.clone())?;
            let order = probe.order();
            let old_grid = dismastd_partition::GridPartition::build_with(
                &probe,
                old_cc.partitioner,
                &old_cc.resolved_parts(order),
                old_cc.workers,
                old_cc.cell_assignment,
            )?;
            let mut new_cc = old_cc;
            new_cc.workers = world;
            let new_grid = dismastd_partition::GridPartition::build_with(
                &probe,
                new_cc.partitioner,
                &new_cc.resolved_parts(order),
                new_cc.workers,
                new_cc.cell_assignment,
            )?;
            let moved: u64 = old_grid.ownership_delta(&new_grid)?.iter().sum();
            dismastd_obs::counter_add("membership/migrated_rows", moved);
        }
        Ok(())
    }

    // ---- checkpoint / recovery ------------------------------------------

    /// Captures the session's durable state.
    pub fn to_checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            cfg: self.cfg,
            mode: self.mode.clone(),
            factors: self.factors.clone(),
            shape: self.shape.clone(),
            step: self.step,
            comm_totals: self.comm_totals.clone(),
        }
    }

    /// Rebuilds a session from a checkpoint.  Cluster options revert to
    /// defaults and no heal policy is installed.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when the checkpoint is
    /// internally inconsistent: factor rank vs. configured rank, `shape`
    /// vs. the factors' row counts (the next ingest takes its complement
    /// against the one and runs DTD against the other), or a stream
    /// position with no factors to go with it.
    pub fn from_checkpoint(ckpt: SessionCheckpoint) -> Result<Self> {
        match &ckpt.factors {
            Some(f) => {
                if f.rank() != ckpt.cfg.rank {
                    return Err(TensorError::InvalidArgument(format!(
                        "checkpoint factor rank {} does not match configured rank {}",
                        f.rank(),
                        ckpt.cfg.rank
                    )));
                }
                if f.shape() != ckpt.shape {
                    return Err(TensorError::InvalidArgument(format!(
                        "checkpoint shape {:?} does not match its factors' row counts {:?}",
                        ckpt.shape,
                        f.shape()
                    )));
                }
            }
            None => {
                if !ckpt.shape.is_empty() || ckpt.step != 0 {
                    return Err(TensorError::InvalidArgument(format!(
                        "checkpoint at step {} with shape {:?} carries no factors",
                        ckpt.step, ckpt.shape
                    )));
                }
            }
        }
        Ok(StreamingSession {
            cfg: ckpt.cfg,
            mode: ckpt.mode,
            factors: ckpt.factors,
            shape: ckpt.shape,
            step: ckpt.step,
            plan_cache: PlanCache::default(),
            cluster_opts: ClusterOptions::default(),
            comm_totals: ckpt.comm_totals,
            collect_metrics: false,
            pending_membership: Vec::new(),
            supervisor: None,
        })
    }

    /// [`StreamingSession::from_checkpoint`] with an explicit worker count
    /// for the restored cluster — restoring into a *different* world size
    /// than the checkpoint's is the supported path for recovering onto a
    /// grown or shrunk cluster.  Safe because the checkpointed factors are
    /// a global [`KruskalTensor`]: row ownership is re-derived from the new
    /// world's placement plan on the next ingest, so rows are migrated by
    /// construction, never silently mis-assigned.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when `workers == 0`, when
    /// the checkpoint is serial-mode and `workers != 1` (a serial
    /// checkpoint has no cluster to resize), or when the checkpoint is
    /// internally inconsistent.
    pub fn from_checkpoint_with_world(ckpt: SessionCheckpoint, workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(TensorError::InvalidArgument(
                "restore_with_world: workers must be >= 1".into(),
            ));
        }
        let mut ckpt = ckpt;
        match &mut ckpt.mode {
            ExecutionMode::Serial => {
                if workers != 1 {
                    return Err(TensorError::InvalidArgument(format!(
                        "cannot restore a serial checkpoint into a {workers}-worker cluster; \
                         resume distributed execution explicitly instead"
                    )));
                }
            }
            ExecutionMode::Distributed(cc) => {
                cc.workers = workers;
            }
        }
        Self::from_checkpoint(ckpt)
    }

    /// [`StreamingSession::restore`] with an explicit worker count; see
    /// [`StreamingSession::from_checkpoint_with_world`].
    ///
    /// # Errors
    /// As for [`StreamingSession::restore`] and
    /// [`StreamingSession::from_checkpoint_with_world`].
    pub fn restore_with_world(path: impl AsRef<std::path::Path>, workers: usize) -> Result<Self> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TensorError::InvalidArgument(format!("checkpoint read: {e}")))?;
        let ckpt: SessionCheckpoint = serde_json::from_str(&json)
            .map_err(|e| TensorError::InvalidArgument(format!("checkpoint decode: {e}")))?;
        Self::from_checkpoint_with_world(ckpt, workers)
    }

    /// Serialises the session's durable state to `path` as JSON.
    ///
    /// The write is atomic with respect to a crash: the JSON goes to a
    /// sibling `<file name>.tmp`, is synced, and is renamed over `path`, so
    /// `path` always holds either the previous checkpoint or the new one in
    /// full.  A failed write removes the temporary file and leaves `path`
    /// as it was.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] wrapping the underlying
    /// serialisation or I/O failure.
    pub fn checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        let json = serde_json::to_string(&self.to_checkpoint())
            .map_err(|e| TensorError::InvalidArgument(format!("checkpoint encode: {e}")))?;
        let mut tmp_name = path
            .file_name()
            .ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "checkpoint write: {} names no file",
                    path.display()
                ))
            })?
            .to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        write_synced(&tmp, json.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, path))
            .and_then(|()| sync_parent_dir(path))
            .map_err(|e| {
                // Best effort: after a failed rename the temporary file is
                // garbage; after a successful one it is already gone.
                let _ = std::fs::remove_file(&tmp);
                TensorError::InvalidArgument(format!("checkpoint write: {e}"))
            })
    }

    /// Rebuilds a session from a checkpoint file written by
    /// [`StreamingSession::checkpoint`].
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] on I/O or decode failure,
    /// or when the checkpoint is internally inconsistent.
    pub fn restore(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TensorError::InvalidArgument(format!("checkpoint read: {e}")))?;
        let ckpt: SessionCheckpoint = serde_json::from_str(&json)
            .map_err(|e| TensorError::InvalidArgument(format!("checkpoint decode: {e}")))?;
        Self::from_checkpoint(ckpt)
    }

    /// The distributed placement memo (untouched in serial mode).  Exposed
    /// for inspection: `misses()` counts grid cells compiled, `hits()` cells
    /// reused by watchdog retries and same-world heal replays.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Consumes the session, yielding the latest decomposition (checkpoint
    /// counterpart of [`StreamingSession::resume`]).
    pub fn into_factors(self) -> Option<KruskalTensor> {
        self.factors
    }

    /// The decomposition of the most recent snapshot, if any was ingested.
    pub fn factors(&self) -> Option<&KruskalTensor> {
        self.factors.as_ref()
    }

    /// Shape of the most recent snapshot.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of snapshots ingested so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// The execution mode the session decomposes with.
    pub fn mode(&self) -> &ExecutionMode {
        &self.mode
    }

    /// Predicted value at `idx` under the current model —
    /// `Σ_f Π_k A_k[i_k, f]` (e.g. a predicted rating in the paper's
    /// recommendation scenario).
    ///
    /// # Errors
    /// Returns an error before the first snapshot or for an out-of-range
    /// index.
    pub fn predict(&self, idx: &[usize]) -> Result<f64> {
        let k = self
            .factors
            .as_ref()
            .ok_or_else(|| TensorError::InvalidArgument("no snapshot ingested yet".into()))?;
        if idx.len() != k.order() || idx.iter().zip(k.shape().iter()).any(|(&i, &s)| i >= s) {
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: k.shape(),
            });
        }
        let r = k.rank();
        let mut prod = vec![1.0f64; r];
        for (n, &i) in idx.iter().enumerate() {
            let row = k.factor(n).row(i);
            for (p, &a) in prod.iter_mut().zip(row) {
                *p *= a;
            }
        }
        Ok(prod.iter().sum())
    }

    /// Ingests the next snapshot and updates the decomposition.
    ///
    /// Snapshots must grow monotonically in every mode (Def. 4); the first
    /// snapshot triggers a full decomposition, later ones run DTD over the
    /// complement only.
    ///
    /// A warm step reads the resident snapshot three times, read-only, and
    /// otherwise costs `O(nnz(X \ X̃))` in time and allocation: the value
    /// buffer once (validation and `‖X‖²` together), the index buffer once
    /// ([`SparseTensor::complement`]), and one `⟨X, Y⟩` pass after the solve
    /// — the price of [`StepReport::fit`] being the exact fit against the
    /// full snapshot, with the bits of [`KruskalTensor::fit`].
    ///
    /// The step runs under the session's [`crate::NumericsPolicy`]: the
    /// snapshot passes ingest validation first (non-finite entries error
    /// under `Strict`, are dropped and counted under `Quarantine`), and the
    /// decomposition is supervised by the divergence watchdog, which
    /// re-runs a diverging attempt with a damped forgetting factor up to
    /// `watchdog.max_restarts` times before giving up.
    ///
    /// A distributed step that hits a cluster fault is healed under the
    /// installed [`HealPolicy`] ([`StreamingSession::set_heal_policy`])
    /// instead of surfacing the fault:
    ///
    /// 1. **Respawn-and-rejoin** — the decomposition is replayed from the
    ///    pre-step factors, readmitting the crashed rank at the step
    ///    boundary (same world, ownership re-derived from the global
    ///    factors — the identity case of an elastic rejoin).  Each rank has
    ///    a bounded respawn budget and each replay is preceded by seeded
    ///    exponential backoff spent through the policy's
    ///    [`dismastd_cluster::Clock`].
    /// 2. **Degraded-world fallback** — once a rank's budget is exhausted,
    ///    the world is shrunk by one worker via the elastic-leave path and
    ///    the decomposition re-run there; the report records a typed
    ///    [`HealTransition::Degraded`] instead of the session failing.
    /// 3. Only when degradation is disallowed or the world has reached the
    ///    policy's floor does the fault propagate, annotated with the heal
    ///    history.
    ///
    /// Per-rank budgets persist across steps: a rank that keeps dying walks
    /// down the ladder rather than resetting it every snapshot.  Because
    /// the decomposition is deterministic, a healed step is bit-identical
    /// to a fault-free run at the same final world size.  Nothing is
    /// snapshotted for the replay — a step commits only on success — so a
    /// caller who wants the pre-step state on disk calls
    /// [`StreamingSession::checkpoint`] first.  With no policy installed a
    /// cluster fault surfaces as [`TensorError::ClusterFault`].
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] for non-monotone snapshots
    /// and for a non-empty snapshot of zero norm (its fit is undefined;
    /// refused before the solve),
    /// [`TensorError::NonFiniteValue`] for invalid data under `Strict`
    /// validation, [`TensorError::Diverged`] when the watchdog's restart
    /// budget is exhausted, and [`TensorError::ClusterFault`] when no heal
    /// policy is installed or its ladder is exhausted; propagates solver
    /// errors.  On error the decomposition is untouched and the session
    /// stays usable (a degradation that already happened stays applied).
    pub fn ingest(&mut self, snapshot: &SparseTensor) -> Result<StepReport> {
        // Elastic membership: queued join/leave transitions take effect
        // here, before any of this step's placement work.
        self.apply_membership()?;
        // The placement memo never outlives the step that built it.
        self.plan_cache.reset();
        // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
        let started = Instant::now();
        // Installing the registry here makes every span/counter below — and
        // in the serial solver, which runs on this thread — land in this
        // step's collection.  On error paths the Collector's Drop discards
        // the partial data and restores any displaced registry.
        let collector = self.collect_metrics.then(dismastd_obs::begin);
        let cold_start = self.factors.is_none();

        if !cold_start {
            if snapshot.order() != self.shape.len() {
                return Err(TensorError::ShapeMismatch {
                    op: "StreamingSession::ingest",
                    left: self.shape.clone(),
                    right: snapshot.shape().to_vec(),
                });
            }
            if snapshot.shape().iter().zip(&self.shape).any(|(s, o)| s < o) {
                return Err(TensorError::InvalidArgument(format!(
                    "snapshot shrank: {:?} -> {:?} violates Def. 4",
                    self.shape,
                    snapshot.shape()
                )));
            }
        }

        // ---- validated ingest: the one pass over the value buffer --------
        let (snapshot, quarantined, snapshot_norm_sq) = {
            let _s = dismastd_obs::span("phase/validate");
            validate_snapshot(snapshot, self.cfg.numerics.validation)?
        };
        if quarantined > 0 {
            dismastd_obs::counter_add("ingest/quarantined", quarantined);
        }
        let snapshot = snapshot.as_ref();
        // The fit is relative to `‖X‖`; say so before the solve is paid for.
        if !snapshot.is_empty() && snapshot_norm_sq == 0.0 {
            return Err(TensorError::InvalidArgument(
                "fit undefined for a zero tensor".into(),
            ));
        }

        // The tensor the solver actually sees: the full snapshot on a cold
        // start, the relative complement `X \ X̃` afterwards — one pass over
        // the index buffer that copies only what arrived.
        let work: Cow<'_, SparseTensor> = if cold_start {
            Cow::Borrowed(snapshot)
        } else {
            let _s = dismastd_obs::span("phase/complement");
            Cow::Owned(snapshot.complement(&self.shape)?)
        };
        let processed_nnz = work.nnz();

        // ---- decomposition under the divergence watchdog ----------------
        let wd = self.cfg.numerics.watchdog;
        let mut step_cfg = self.cfg;
        let mut restarts = 0usize;
        let mut numerics = NumericsReport::default();
        // Worker metrics of attempts the watchdog discarded: their compute
        // happened, so the step's accounting keeps them.
        let mut discarded_metrics = MetricsSnapshot::default();
        let mut heal = HealReport::default();
        let backoff_before = self.supervisor.as_ref().map_or(0, Supervisor::backoff_ns);
        let outcome = loop {
            let attempt = match self.decompose_healing(&work, &step_cfg, &mut heal) {
                Ok(a) => a,
                Err(e) if wd.enabled && is_numeric_failure(&e) => {
                    // The solver gave up (singular system, non-finite
                    // pivot/value): same treatment as an observed
                    // divergence — damp μ and retry within budget.
                    if restarts >= wd.max_restarts {
                        return Err(TensorError::Diverged {
                            restarts,
                            detail: e.to_string(),
                        });
                    }
                    restarts += 1;
                    dismastd_obs::counter_add("watchdog/restart", 1);
                    step_cfg.forgetting *= wd.mu_damping;
                    continue;
                }
                Err(e) => return Err(e),
            };
            numerics.absorb(&attempt.numerics);
            let verdict = if wd.enabled {
                divergence_verdict(&attempt.loss_trace, attempt.kruskal.factors(), &wd)
            } else {
                None
            };
            match verdict {
                None => break attempt,
                Some(reason) => {
                    // The attempt's traffic happened whether or not its
                    // numbers were usable.
                    if let Some(c) = &attempt.comm {
                        self.comm_totals.merge(c);
                    }
                    if let Some(m) = &attempt.metrics {
                        discarded_metrics.merge(m);
                    }
                    if restarts >= wd.max_restarts {
                        return Err(TensorError::Diverged {
                            restarts,
                            detail: reason,
                        });
                    }
                    restarts += 1;
                    dismastd_obs::counter_add("watchdog/restart", 1);
                    step_cfg.forgetting *= wd.mu_damping;
                }
            }
        };

        let loss = outcome.loss_trace.last().copied().unwrap_or(0.0);
        // The step's last read of the resident snapshot: `⟨X, Y⟩` needs
        // every entry against the *new* factors, so it cannot be folded
        // into the passes above.
        let fit = if snapshot.is_empty() {
            1.0
        } else {
            fit_given_norm(&outcome.kruskal, snapshot, snapshot_norm_sq)?
        };
        // Driver-side spans (validate, complement, serial solver) plus the
        // rank-0 worker's metrics in distributed mode.
        let metrics = collector.map(|c| {
            let mut m = c.finish();
            if let Some(wm) = &outcome.metrics {
                m.merge(wm);
            }
            if !discarded_metrics.is_empty() {
                m.merge(&discarded_metrics);
            }
            m
        });
        let report = StepReport {
            step: self.step,
            cold_start,
            snapshot_shape: snapshot.shape().to_vec(),
            snapshot_nnz: snapshot.nnz(),
            processed_nnz,
            iterations: outcome.iterations,
            loss,
            fit,
            elapsed: started.elapsed(),
            time_per_iter: if outcome.iterations == 0 {
                Duration::ZERO
            } else {
                outcome.iter_elapsed / u32::try_from(outcome.iterations).unwrap_or(u32::MAX)
            },
            comm: outcome.comm,
            quarantined,
            watchdog_restarts: restarts,
            effective_forgetting: step_cfg.forgetting,
            numerics,
            metrics,
            heal: self.supervisor.as_ref().map(|sup| HealReport {
                backoff_ns: sup.backoff_ns().saturating_sub(backoff_before),
                ..heal
            }),
        };
        if let Some(c) = &report.comm {
            self.comm_totals.merge(c);
        }
        self.factors = Some(outcome.kruskal);
        self.shape = snapshot.shape().to_vec();
        self.step += 1;
        Ok(report)
    }

    /// [`Self::decompose_once`] under the heal ladder: with a supervisor
    /// installed a cluster fault is answered by the ladder's next rung and
    /// the attempt replayed, until it succeeds or the ladder gives up.
    /// Nothing needs rolling back between replays — an attempt is pure with
    /// respect to the durable state — and only a degradation changes the
    /// session (its world), which is exactly what the rung means.
    fn decompose_healing(
        &mut self,
        work: &SparseTensor,
        cfg: &DecompConfig,
        heal: &mut HealReport,
    ) -> Result<AttemptOutcome> {
        let mut result = self.decompose_once(work, cfg);
        loop {
            let world = self.world();
            let (rank, detail, action) = match (result, self.supervisor.as_mut()) {
                (Err(TensorError::ClusterFault { rank, detail }), Some(sup)) => {
                    let action = sup.on_fault(rank, world);
                    if let HealAction::Respawn { backoff, .. } = action {
                        sup.back_off(backoff);
                    }
                    (rank, detail, action)
                }
                (other, _) => return other,
            };
            match action {
                HealAction::Respawn { .. } => heal.respawns += 1,
                HealAction::Degrade { .. } => {
                    // Shrink through the ordinary elastic-leave path so the
                    // membership/* accounting fires exactly as a voluntary
                    // departure would; the placement memo is keyed by world
                    // size, so the replay re-partitions.
                    self.request_leave(1)?;
                    self.apply_membership()?;
                    heal.transitions.push(HealTransition::Degraded {
                        from_world: world,
                        to_world: self.world(),
                    });
                    heal.degraded = true;
                }
                HealAction::GiveUp { .. } => {
                    return Err(TensorError::ClusterFault {
                        rank,
                        detail: format!(
                            "{detail} (heal ladder exhausted after {} respawn(s) and {} \
                             degradation(s))",
                            heal.respawns,
                            heal.transitions.len()
                        ),
                    });
                }
            }
            let _replay = dismastd_obs::span("heal/replay");
            result = self.decompose_once(work, cfg);
        }
    }

    /// Workers the next decomposition runs on (1 in serial mode).
    fn world(&self) -> usize {
        match &self.mode {
            ExecutionMode::Distributed(cc) => cc.workers,
            ExecutionMode::Serial => 1,
        }
    }

    /// One decomposition attempt over `work` (the full snapshot on a cold
    /// start, the complement otherwise).  Pure with respect to the durable
    /// session state — only the step's placement memo fills — so the
    /// watchdog and the heal ladder can discard an attempt and retry.
    fn decompose_once(
        &mut self,
        work: &SparseTensor,
        cfg: &DecompConfig,
    ) -> Result<AttemptOutcome> {
        // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
        let attempt_start = Instant::now();
        // A cold start is the zero-history case: every row is new, so DTD
        // is static CP-ALS (serial) / the DMS-MG baseline (distributed).
        let zero_old;
        let old = match &self.factors {
            Some(k) => k.factors(),
            None => {
                zero_old = zero_history(work.order(), cfg.rank);
                &zero_old
            }
        };
        match &self.mode {
            ExecutionMode::Serial => {
                let out = dtd(work, old, cfg)?;
                Ok(AttemptOutcome {
                    kruskal: out.kruskal,
                    iterations: out.iterations,
                    loss_trace: out.loss_trace,
                    comm: None,
                    iter_elapsed: attempt_start.elapsed(),
                    numerics: out.numerics,
                    metrics: None,
                })
            }
            ExecutionMode::Distributed(cc) => {
                let out =
                    run_distributed(work, old, cfg, cc, &self.cluster_opts, &mut self.plan_cache)?;
                Ok(AttemptOutcome {
                    kruskal: out.kruskal,
                    iterations: out.iterations,
                    loss_trace: out.loss_trace,
                    comm: Some(out.comm),
                    iter_elapsed: out.iter_elapsed,
                    numerics: out.numerics,
                    metrics: out.metrics,
                })
            }
        }
    }
}

/// Writes `bytes` to a new file at `path` and syncs it to stable storage.
fn write_synced(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Syncs the directory entry of `path` after a rename, so the new name
/// survives a crash as well as the data does.  Directories open as files
/// on Unix only; elsewhere the rename is as durable as the platform makes
/// it.
fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// What one watchdog-supervised decomposition attempt produced.
struct AttemptOutcome {
    kruskal: KruskalTensor,
    iterations: usize,
    loss_trace: Vec<f64>,
    comm: Option<CommStatsSnapshot>,
    iter_elapsed: Duration,
    numerics: NumericsReport,
    /// All ranks' worker metrics, merged (distributed mode with collection
    /// on); serial attempts record straight into the driver thread's
    /// registry instead.
    metrics: Option<MetricsSnapshot>,
}

/// Applies the configured ingest validation and measures the snapshot in
/// the same pass over its value buffer: returns the tensor to decompose, the
/// number of quarantined entries, and that tensor's `‖X‖²` — summed in
/// stored order, so the bits of [`SparseTensor::norm_sq`].
///
/// Built tensors cannot contain duplicates or out-of-bounds coordinates,
/// so at this layer validation is about non-finite values: `Strict` errors
/// on the first one (naming its coordinate), `Quarantine` rebuilds the
/// tensor without them, `Off` passes everything through.  The common
/// all-finite case borrows the input — no copy, and no index is read.
fn validate_snapshot(
    snapshot: &SparseTensor,
    mode: ValidationMode,
) -> Result<(Cow<'_, SparseTensor>, u64, f64)> {
    let mut norm_sq = 0.0;
    for (idx, v) in snapshot.iter() {
        if mode != ValidationMode::Off && !v.is_finite() {
            if mode == ValidationMode::Strict {
                return Err(TensorError::NonFiniteValue {
                    index: idx.iter().map(|&i| i as usize).collect(),
                    value: v,
                });
            }
            return quarantine_snapshot(snapshot);
        }
        norm_sq += v * v;
    }
    Ok((Cow::Borrowed(snapshot), 0, norm_sq))
}

/// The `Quarantine` slow path, taken once a non-finite value has been seen:
/// rebuilds the snapshot without such entries and measures the clean copy.
fn quarantine_snapshot(snapshot: &SparseTensor) -> Result<(Cow<'_, SparseTensor>, u64, f64)> {
    let mut b = SparseTensorBuilder::with_capacity(snapshot.shape().to_vec(), snapshot.nnz())
        .with_validation(ValidationMode::Quarantine);
    let mut wide = vec![0usize; snapshot.order()];
    for (idx, v) in snapshot.iter() {
        for (w, &i) in wide.iter_mut().zip(idx) {
            *w = i as usize;
        }
        b.push(&wide, v)?;
    }
    let (clean, counts) = b.build_with_report()?;
    let norm_sq = clean.norm_sq();
    Ok((Cow::Owned(clean), counts.total(), norm_sq))
}

/// [`KruskalTensor::fit`] with `‖X‖²` already in hand: the same formula in
/// the same operation order — so the same bits — without the two extra
/// passes over the value buffer `fit` spends recomputing it.  The caller
/// has already rejected `‖X‖ = 0`.
fn fit_given_norm(k: &KruskalTensor, x: &SparseTensor, x_norm_sq: f64) -> Result<f64> {
    let residual_sq = (x_norm_sq + k.norm_sq() - 2.0 * k.inner_sparse(x)?).max(0.0);
    Ok(1.0 - residual_sq.sqrt() / x_norm_sq.sqrt())
}

/// True for errors that mean "the numbers went bad" — the class the
/// watchdog retries with a damped forgetting factor.  Structural errors
/// (shapes, arguments, cluster faults) propagate immediately instead.
fn is_numeric_failure(e: &TensorError) -> bool {
    matches!(
        e,
        TensorError::Singular { .. }
            | TensorError::NonFinitePivot { .. }
            | TensorError::NonFiniteValue { .. }
    )
}

/// `Some(reason)` when the attempt's loss trace or factors show divergence:
/// any non-finite value, or `patience` consecutive iterations of loss
/// increase beyond the relative tolerance.
fn divergence_verdict(trace: &[f64], factors: &[Matrix], wd: &WatchdogPolicy) -> Option<String> {
    for (i, &l) in trace.iter().enumerate() {
        if !l.is_finite() {
            return Some(format!("non-finite loss {l} at iteration {i}"));
        }
    }
    for (n, f) in factors.iter().enumerate() {
        if f.as_slice().iter().any(|v| !v.is_finite()) {
            return Some(format!("non-finite entries in mode-{n} factor"));
        }
    }
    let mut streak = 0usize;
    for w in trace.windows(2) {
        if w[1] > w[0] + wd.increase_tolerance * (1.0 + w[0].abs()) {
            streak += 1;
            if streak >= wd.patience {
                return Some(format!(
                    "loss increased for {streak} consecutive iterations"
                ));
            }
        } else {
            streak = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismastd_tensor::SparseTensorBuilder;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn snapshot_pair() -> (SparseTensor, SparseTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let full_shape = [10usize, 9, 8];
        let mut full = SparseTensorBuilder::new(full_shape.to_vec());
        for _ in 0..250 {
            let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            full.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
        }
        let full = full.build().unwrap();
        let small = full.restrict(&[7, 7, 6]).unwrap();
        (small, full)
    }

    fn cfg() -> DecompConfig {
        DecompConfig::default().with_rank(3).with_max_iters(8)
    }

    #[test]
    fn serial_session_two_steps() {
        let (s0, s1) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        assert!(sess.factors().is_none());

        let r0 = sess.ingest(&s0).unwrap();
        assert!(r0.cold_start);
        assert_eq!(r0.step, 0);
        assert_eq!(r0.processed_nnz, s0.nnz());
        assert!(r0.comm.is_none());

        let r1 = sess.ingest(&s1).unwrap();
        assert!(!r1.cold_start);
        assert_eq!(r1.step, 1);
        // Only the complement was processed.
        assert!(r1.processed_nnz < s1.nnz());
        assert_eq!(r1.processed_nnz, s1.nnz() - s0.nnz());
        assert_eq!(sess.shape(), s1.shape());
        assert_eq!(sess.steps(), 2);
        assert!(r1.fit.is_finite());
    }

    #[test]
    fn distributed_session_reports_comm() {
        let (s0, s1) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
        let r0 = sess.ingest(&s0).unwrap();
        assert!(r0.comm.is_some());
        let r1 = sess.ingest(&s1).unwrap();
        assert!(r1.comm.expect("distributed").bytes > 0);
        // Each step compiled its own cells; across steps nothing repeats.
        assert!(sess.plan_cache().misses() > 0);
        assert_eq!(sess.plan_cache().hits(), 0);
    }

    #[test]
    fn serial_session_never_touches_plan_cache() {
        let (s0, s1) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        // An installed heal policy changes nothing for a serial session:
        // there is no cluster to fault, so the ladder is never consulted.
        sess.set_heal_policy(HealPolicy::default());
        sess.ingest(&s0).unwrap();
        let r1 = sess.ingest(&s1).unwrap();
        assert_eq!(sess.plan_cache().hits() + sess.plan_cache().misses(), 0);
        assert_eq!(r1.heal, Some(HealReport::default()));
    }

    #[test]
    fn rejects_shrinking_snapshots() {
        let (s0, s1) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s1).unwrap();
        assert!(sess.ingest(&s0).is_err());
    }

    #[test]
    fn rejects_order_change() {
        let (s0, _) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        let other = SparseTensor::empty(vec![10, 10]).unwrap();
        assert!(sess.ingest(&other).is_err());
    }

    #[test]
    fn predict_requires_state_and_bounds() {
        let (s0, _) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        assert!(sess.predict(&[0, 0, 0]).is_err());
        sess.ingest(&s0).unwrap();
        assert!(sess.predict(&[0, 0, 0]).unwrap().is_finite());
        assert!(sess.predict(&[100, 0, 0]).is_err());
        assert!(sess.predict(&[0, 0]).is_err());
    }

    #[test]
    fn predict_matches_reconstruction() {
        let (s0, _) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        let k = sess.factors().unwrap();
        let dense = k.to_dense().unwrap();
        for idx in [[0usize, 0, 0], [3, 2, 1], [6, 6, 5]] {
            let p = sess.predict(&idx).unwrap();
            assert!((p - dense.get(&idx)).abs() < 1e-10);
        }
    }

    #[test]
    fn resume_round_trip_matches_continuous_session() {
        let (s0, s1) = snapshot_pair();
        // Continuous session.
        let mut cont = StreamingSession::new(cfg(), ExecutionMode::Serial);
        cont.ingest(&s0).unwrap();
        let r_cont = cont.ingest(&s1).unwrap();

        // Checkpointed session: stop after s0, resume, ingest s1.
        let mut first = StreamingSession::new(cfg(), ExecutionMode::Serial);
        first.ingest(&s0).unwrap();
        let checkpoint = first.into_factors().unwrap();
        let mut resumed =
            StreamingSession::resume(cfg(), ExecutionMode::Serial, checkpoint).unwrap();
        let r_res = resumed.ingest(&s1).unwrap();

        assert!(!r_res.cold_start);
        assert!((r_cont.loss - r_res.loss).abs() < 1e-9 * (1.0 + r_cont.loss.abs()));
        assert_eq!(r_cont.processed_nnz, r_res.processed_nnz);
    }

    #[test]
    fn resume_validates_rank() {
        let (s0, _) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        let checkpoint = sess.into_factors().unwrap();
        let wrong_rank = cfg().with_rank(7);
        assert!(StreamingSession::resume(wrong_rank, ExecutionMode::Serial, checkpoint).is_err());
    }

    #[test]
    fn checkpoint_file_round_trip() {
        let (s0, s1) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        sess.ingest(&s0).unwrap();

        let path = std::env::temp_dir().join("dismastd_session_ckpt_test.json");
        sess.checkpoint(&path).unwrap();
        let mut restored = StreamingSession::restore(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.steps(), sess.steps());
        assert_eq!(restored.shape(), sess.shape());
        assert_eq!(restored.comm_totals(), sess.comm_totals());
        assert_eq!(restored.factors(), sess.factors());

        // Both sessions ingest the next snapshot identically (deterministic
        // decomposition ⇒ bit-identical factors).
        let a = sess.ingest(&s1).unwrap();
        let b = restored.ingest(&s1).unwrap();
        assert_eq!(a.loss, b.loss);
        for (fa, fb) in sess
            .factors()
            .unwrap()
            .factors()
            .iter()
            .zip(restored.factors().unwrap().factors())
        {
            assert_eq!(fa.max_abs_diff(fb).unwrap(), 0.0);
        }
    }

    #[test]
    fn checkpoint_without_comm_policy_still_restores() {
        // A distributed checkpoint serialized before the collective-layer
        // rework carries a ClusterConfig with no `comm` field; restoring it
        // must succeed with the default policy rather than fail.
        let (s0, _) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        sess.ingest(&s0).unwrap();
        let json = serde_json::to_string(&sess.to_checkpoint()).unwrap();
        let comm_field = format!(
            ",\"comm\":{}",
            serde_json::to_string(&dismastd_cluster::CommPolicy::default()).unwrap()
        );
        assert!(json.contains(&comm_field), "comm policy serialized");
        let legacy = json.replace(&comm_field, "");
        let ckpt: SessionCheckpoint = serde_json::from_str(&legacy).unwrap();
        let restored = StreamingSession::from_checkpoint(ckpt).unwrap();
        match restored.mode() {
            ExecutionMode::Distributed(cc) => {
                assert_eq!(cc.comm, dismastd_cluster::CommPolicy::default());
            }
            other => panic!("expected distributed mode, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_struct_round_trip_validates_rank() {
        let (s0, _) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        let mut ckpt = sess.to_checkpoint();
        assert!(StreamingSession::from_checkpoint(ckpt.clone()).is_ok());
        ckpt.cfg = ckpt.cfg.with_rank(9); // now disagrees with the factors
        assert!(StreamingSession::from_checkpoint(ckpt).is_err());
    }

    #[test]
    fn restore_rejects_missing_and_corrupt_files() {
        assert!(StreamingSession::restore("/nonexistent/dir/ckpt.json").is_err());
        let path = std::env::temp_dir().join("dismastd_corrupt_ckpt_test.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(StreamingSession::restore(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A fresh directory under the system temp dir, unique to one test of
    /// this process, so parallel tests never share a file.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dismastd_session_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_inconsistent(r: Result<StreamingSession>, needle: &str) {
        match r {
            Err(TensorError::InvalidArgument(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected InvalidArgument({needle}), got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_whose_shape_disagrees_with_their_factors_are_rejected() {
        let (s0, _) = snapshot_pair(); // shape [7, 7, 6]
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        sess.ingest(&s0).unwrap();
        let json = serde_json::to_string(&sess.to_checkpoint()).unwrap();
        let good_shape = "\"shape\":[7,7,6]";
        assert_eq!(json.matches(good_shape).count(), 1, "one shape field");
        let dir = scratch_dir("corrupt_shape");

        // from_checkpoint: the shape claims one row fewer than mode 2 holds.
        // A warm ingest would take the complement against [7,7,5] and run
        // DTD against 6 old rows.
        let shrunk = json.replace(good_shape, "\"shape\":[7,7,5]");
        let ckpt: SessionCheckpoint = serde_json::from_str(&shrunk).unwrap();
        assert_inconsistent(StreamingSession::from_checkpoint(ckpt), "row counts");

        // restore: the shape lost a mode altogether.
        let path = dir.join("wrong_order.json");
        std::fs::write(&path, json.replace(good_shape, "\"shape\":[7,7]")).unwrap();
        assert_inconsistent(StreamingSession::restore(&path), "row counts");

        // restore_with_world: a stream position but no factors behind it.
        let path = dir.join("no_factors.json");
        let factors_at = json.find("\"factors\":").unwrap() + "\"factors\":".len();
        let shape_at = json.find(",\"shape\":").unwrap();
        let headless = format!("{}null{}", &json[..factors_at], &json[shape_at..]);
        std::fs::write(&path, &headless).unwrap();
        assert_inconsistent(
            StreamingSession::restore_with_world(&path, 3),
            "carries no factors",
        );
        // … with either leftover alone being enough.
        let ckpt: SessionCheckpoint = serde_json::from_str(&headless).unwrap();
        for leftover in [
            SessionCheckpoint {
                step: 0,
                ..ckpt.clone()
            },
            SessionCheckpoint {
                shape: Vec::new(),
                ..ckpt.clone()
            },
        ] {
            assert_inconsistent(
                StreamingSession::from_checkpoint(leftover),
                "carries no factors",
            );
        }
        // A never-ingested session's checkpoint is the consistent `None`.
        let fresh = StreamingSession::new(cfg(), ExecutionMode::Serial).to_checkpoint();
        assert!(StreamingSession::from_checkpoint(fresh).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_replaces_the_file_atomically_and_leaves_no_temp_behind() {
        let (s0, s1) = snapshot_pair();
        let dir = scratch_dir("atomic_ckpt");
        let path = dir.join("ckpt.json");
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        sess.checkpoint(&path).unwrap();
        let names = |dir: &std::path::Path| -> Vec<std::ffi::OsString> {
            let mut v: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&dir), ["ckpt.json"], "no temp file after success");
        let before = std::fs::read(&path).unwrap();

        // Make the next write fail part-way: a directory squats on the
        // sibling temp name, so the new JSON cannot even be created.
        sess.ingest(&s1).unwrap();
        let squatter = dir.join("ckpt.json.tmp");
        std::fs::create_dir(&squatter).unwrap();
        assert!(matches!(
            sess.checkpoint(&path),
            Err(TensorError::InvalidArgument(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "old checkpoint intact"
        );
        let restored = StreamingSession::restore(&path).unwrap();
        assert_eq!(restored.steps(), 1);
        assert_eq!(restored.shape(), s0.shape());

        // With the obstacle gone the same call goes through and overwrites.
        std::fs::remove_dir(&squatter).unwrap();
        sess.checkpoint(&path).unwrap();
        assert_eq!(names(&dir), ["ckpt.json"]);
        assert_eq!(StreamingSession::restore(&path).unwrap().steps(), 2);

        // A missing parent directory is a typed error that creates nothing.
        let orphan = dir.join("no_such_dir").join("ckpt.json");
        assert!(matches!(
            sess.checkpoint(&orphan),
            Err(TensorError::InvalidArgument(_))
        ));
        assert_eq!(names(&dir), ["ckpt.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reported_fit_has_the_bits_of_the_public_fit_in_every_validation_mode() {
        let (s0, s1) = snapshot_pair();
        // `s1` plus an Inf and, at a coordinate that sorts just before it, a
        // NaN — pushed in the opposite order, so "first" means stored order.
        let poisoned = {
            let mut b = SparseTensorBuilder::new(s1.shape().to_vec());
            for (idx, v) in s1.iter() {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                b.push(&idx, v).unwrap();
            }
            let free: Vec<Vec<usize>> = [[9usize, 8, 6], [9, 8, 7]]
                .iter()
                .map(|c| c.to_vec())
                .filter(|c| s1.get(c).unwrap() == 0.0)
                .collect();
            assert_eq!(free.len(), 2, "pick coordinates the stream leaves empty");
            b.push(&free[1], f64::INFINITY).unwrap();
            b.push(&free[0], f64::NAN).unwrap();
            b.build().unwrap()
        };
        assert_eq!(poisoned.nnz(), s1.nnz() + 2);

        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Distributed(ClusterConfig::new(2)),
        ] {
            for validation in [
                ValidationMode::Off,
                ValidationMode::Strict,
                ValidationMode::Quarantine,
            ] {
                let mut cfg = cfg();
                cfg.numerics.validation = validation;
                let mut sess = StreamingSession::new(cfg, mode.clone());
                let cold = sess.ingest(&s0).unwrap();
                assert_eq!(
                    cold.fit.to_bits(),
                    sess.factors().unwrap().fit(&s0).unwrap().to_bits(),
                    "cold fit under {validation:?}"
                );
                let warm_input = match validation {
                    ValidationMode::Quarantine => &poisoned,
                    _ => &s1,
                };
                let warm = sess.ingest(warm_input).unwrap();
                // Quarantine decomposed — and is scored against — `s1`.
                assert_eq!(
                    warm.fit.to_bits(),
                    sess.factors().unwrap().fit(&s1).unwrap().to_bits(),
                    "warm fit under {validation:?}"
                );
                assert_eq!(warm.snapshot_nnz, s1.nnz());
                let dropped = if validation == ValidationMode::Quarantine {
                    2
                } else {
                    0
                };
                assert_eq!(warm.quarantined, dropped);
            }
        }

        // Strict names the first non-finite entry in stored order, and the
        // refused step leaves the session where it was.
        let mut strict = cfg();
        strict.numerics.validation = ValidationMode::Strict;
        let mut sess = StreamingSession::new(strict, ExecutionMode::Serial);
        sess.ingest(&s0).unwrap();
        match sess.ingest(&poisoned) {
            Err(TensorError::NonFiniteValue { index, value }) => {
                assert_eq!(index, vec![9, 8, 6]);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        assert_eq!(sess.steps(), 1);
    }

    #[test]
    fn a_zero_norm_snapshot_is_refused_before_any_decomposition_starts() {
        // Stored values are never exactly zero, but their squares can be.
        let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
        b.push(&[0, 1, 2], 1e-200).unwrap();
        b.push(&[3, 3, 3], -1e-200).unwrap();
        let vanishing = b.build().unwrap();
        assert_eq!(vanishing.nnz(), 2);
        assert_eq!(vanishing.norm_sq(), 0.0);

        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        match sess.ingest(&vanishing) {
            Err(TensorError::InvalidArgument(msg)) => assert!(msg.contains("zero tensor")),
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        // No grid cell was compiled: the step stopped ahead of the solve.
        assert_eq!(sess.plan_cache().misses(), 0);
        assert_eq!(sess.steps(), 0);
        // An *empty* snapshot is still a legal step with a perfect fit.
        let empty = SparseTensor::empty(vec![4, 4, 4]).unwrap();
        assert_eq!(sess.ingest(&empty).unwrap().fit, 1.0);
    }

    #[test]
    fn comm_totals_accumulate_across_steps() {
        let (s0, s1) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
        let r0 = sess.ingest(&s0).unwrap();
        let after_first = sess.comm_totals().clone();
        assert_eq!(after_first.bytes, r0.comm.as_ref().unwrap().bytes);
        let r1 = sess.ingest(&s1).unwrap();
        assert_eq!(
            sess.comm_totals().bytes,
            after_first.bytes + r1.comm.as_ref().unwrap().bytes
        );
        assert!(
            r0.heal.is_none() && r1.heal.is_none(),
            "no policy installed"
        );
    }

    #[test]
    fn heal_policy_is_transparent_without_faults() {
        let (s0, s1) = snapshot_pair();
        let mode = ExecutionMode::Distributed(ClusterConfig::new(2));
        let mut plain = StreamingSession::new(cfg(), mode.clone());
        plain.ingest(&s0).unwrap();
        let a = plain.ingest(&s1).unwrap();
        let mut healing = StreamingSession::new(cfg(), mode);
        healing.set_heal_policy(HealPolicy::default());
        healing.ingest(&s0).unwrap();
        let b = healing.ingest(&s1).unwrap();
        assert_eq!(a.loss, b.loss);
        assert_eq!(plain.factors(), healing.factors());
        assert_eq!(b.heal, Some(HealReport::default()));
    }

    #[test]
    fn heal_policy_propagates_non_cluster_errors_immediately() {
        let (s0, s1) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        sess.set_heal_policy(HealPolicy::default());
        sess.ingest(&s1).unwrap();
        // Shrinking snapshot: an InvalidArgument, not a ClusterFault — must
        // not be retried, and the session must stay usable.
        let err = sess.ingest(&s0).unwrap_err();
        assert!(!matches!(err, TensorError::ClusterFault { .. }));
        assert_eq!(sess.steps(), 1);
    }

    #[test]
    fn divergence_verdict_flags_the_right_traces() {
        let wd = WatchdogPolicy::default(); // patience 3
        let ok: Vec<Matrix> = vec![Matrix::zeros(2, 2)];
        assert!(divergence_verdict(&[3.0, 2.0, 1.5], &ok, &wd).is_none());
        // Non-finite loss.
        assert!(divergence_verdict(&[3.0, f64::NAN], &ok, &wd)
            .unwrap()
            .contains("non-finite loss"));
        // Non-finite factor entry.
        let mut bad = Matrix::zeros(2, 2);
        bad.as_mut_slice()[3] = f64::INFINITY;
        assert!(divergence_verdict(&[1.0], &[bad], &wd)
            .unwrap()
            .contains("mode-0 factor"));
        // Sustained increase trips only after `patience` consecutive rises.
        assert!(divergence_verdict(&[1.0, 2.0, 3.0], &ok, &wd).is_none()); // 2 rises
        assert!(divergence_verdict(&[1.0, 2.0, 3.0, 4.0], &ok, &wd).is_some()); // 3 rises
                                                                                // A single improvement resets the streak.
        assert!(divergence_verdict(&[1.0, 2.0, 3.0, 2.5, 3.5, 4.5], &ok, &wd).is_none());
    }

    #[test]
    fn validate_snapshot_modes() {
        let mut b = SparseTensorBuilder::new(vec![3, 3]);
        b.push(&[0, 0], 1.0).unwrap();
        b.push(&[1, 2], f64::NAN).unwrap();
        b.push(&[2, 2], 2.0).unwrap();
        let dirty = b.build().unwrap();

        // Strict errors, naming the offending coordinate.
        match validate_snapshot(&dirty, ValidationMode::Strict) {
            Err(TensorError::NonFiniteValue { index, .. }) => assert_eq!(index, vec![1, 2]),
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        // Quarantine drops and counts it, and measures what is left.
        let (clean, dropped, norm_sq) =
            validate_snapshot(&dirty, ValidationMode::Quarantine).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(clean.nnz(), 2);
        assert_eq!(norm_sq.to_bits(), clean.norm_sq().to_bits());
        assert_eq!(norm_sq, 5.0);
        // Off passes the NaN through, borrowing the input.
        let (raw, dropped, norm_sq) = validate_snapshot(&dirty, ValidationMode::Off).unwrap();
        assert_eq!(dropped, 0);
        assert!(matches!(raw, Cow::Borrowed(_)));
        assert!(norm_sq.is_nan());

        // An already-clean tensor is borrowed in every mode.
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        b.push(&[0, 1], 1.0).unwrap();
        let clean_in = b.build().unwrap();
        for mode in [
            ValidationMode::Strict,
            ValidationMode::Quarantine,
            ValidationMode::Off,
        ] {
            let (t, dropped, norm_sq) = validate_snapshot(&clean_in, mode).unwrap();
            assert_eq!(dropped, 0);
            assert!(matches!(t, Cow::Borrowed(_)));
            assert_eq!(norm_sq.to_bits(), clean_in.norm_sq().to_bits());
        }
    }

    #[test]
    fn step_report_carries_numerics_and_watchdog_fields() {
        let (s0, s1) = snapshot_pair();
        let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
        let r0 = sess.ingest(&s0).unwrap();
        assert_eq!(r0.quarantined, 0);
        assert_eq!(r0.watchdog_restarts, 0);
        assert_eq!(r0.effective_forgetting, cfg().forgetting);
        assert!(r0.numerics.cholesky_solves > 0);
        let r1 = sess.ingest(&s1).unwrap();
        assert!(!r1.numerics.escalated());
    }

    #[test]
    fn streaming_fit_stays_reasonable() {
        // Over a nested sequence the warm-started fit should not collapse.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let full_shape = [12usize, 10, 8];
        let mut b = SparseTensorBuilder::new(full_shape.to_vec());
        for _ in 0..400 {
            let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(0.8..1.2)).unwrap();
        }
        let full = b.build().unwrap();
        let mut sess = StreamingSession::new(cfg().with_max_iters(12), ExecutionMode::Serial);
        let mut fits = Vec::new();
        for f in [0.7f64, 0.8, 0.9, 1.0] {
            let bounds: Vec<usize> = full_shape
                .iter()
                .map(|&s| ((s as f64 * f).ceil() as usize).min(s))
                .collect();
            let snap = full.restrict(&bounds).unwrap();
            let r = sess.ingest(&snap).unwrap();
            fits.push(r.fit);
        }
        // Random sparse tensors are not low-rank, so absolute fit is modest;
        // what matters is that warm-started streaming updates do not collapse
        // relative to the cold-start quality.
        assert!(fits.iter().all(|&f| f > 0.1), "fits {fits:?}");
        assert!(
            fits.last().unwrap() > &(0.5 * fits[0]),
            "fit collapsed: {fits:?}"
        );
    }
}
