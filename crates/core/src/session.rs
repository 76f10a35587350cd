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
//! once it has succeeded, so a cluster fault leaves the session at its
//! pre-step state.
//!
//! Every step is one run of the one solver on the session's world:
//! [`ExecutionMode::Serial`] is world 1, the same step as
//! `Distributed(ClusterConfig::new(1))`.
//!
//! Sessions are also **self-healing**: with a [`HealPolicy`] installed
//! ([`StreamingSession::set_heal_policy`]), [`StreamingSession::ingest`]
//! replays a faulted decomposition under a [`Supervisor`] walking the
//! policy's ladder — bounded per-rank respawns with seeded backoff, then a
//! degraded-world fallback that shrinks the cluster through
//! [`StreamingSession::set_workers`] instead of failing — so a crashed
//! worker never surfaces to the caller until the ladder is genuinely
//! exhausted.
//! Because the decomposition is deterministic for a fixed seed, a replayed
//! step reproduces the fault-free factors bit for bit.

use crate::config::{DecompConfig, WatchdogPolicy};
use crate::distributed::{all_finite, place, run_distributed, ClusterConfig, PlanCache};
use dismastd_cluster::{ClusterOptions, CommStatsSnapshot, HealAction, HealPolicy, Supervisor};
use dismastd_obs::MetricsSnapshot;
use dismastd_tensor::matrix::Matrix;
use dismastd_tensor::{
    KruskalTensor, NumericsReport, PrefixMark, Result, SparseTensor, SparseTensorBuilder,
    TensorError, ValidationMode,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
// lint:allow(determinism): Instant feeds StepReport wall-clock fields only, never factor math
use std::time::{Duration, Instant};

/// The world the per-snapshot decomposition runs on.  A session has a
/// world size, not a mode: both variants name a [`ClusterConfig`], and the
/// enum stays only because checkpoints and the repository benchmark spell
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// World 1 — `ClusterConfig::new(1)`: one rank on the caller's thread.
    /// Kernel lanes follow `cfg.threads`; the factor bits do not.
    Serial,
    /// The given cluster.
    Distributed(ClusterConfig),
}

impl ExecutionMode {
    /// The cluster this mode runs on — the one place `Serial` is told
    /// apart from `Distributed`.
    pub(crate) fn cluster(&self) -> Cow<'_, ClusterConfig> {
        match self {
            ExecutionMode::Serial => Cow::Owned(ClusterConfig::new(1)),
            ExecutionMode::Distributed(cc) => Cow::Borrowed(cc),
        }
    }
}

/// A structural transition the heal ladder performed while completing a
/// step (see [`StreamingSession::ingest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealTransition {
    /// A rank exhausted its respawn budget and the supervisor shrank the
    /// world through [`StreamingSession::set_workers`] instead of failing
    /// the step, which therefore completed at reduced parallelism.
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
    /// Structural transitions, in the order the ladder took them; empty
    /// unless the step degraded.
    pub transitions: Vec<HealTransition>,
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
    /// Average time per ALS iteration of the successful attempt: the loop
    /// alone, at every world (partitioning and plan builds are outside it).
    pub time_per_iter: Duration,
    /// Network traffic of the successful attempt.  `Some` on every step —
    /// world 1 reports a zero-byte ledger with its collectives; the
    /// `Option` stays because callers (the repository benchmark among them)
    /// match on it.
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
    /// It merges the driver's preparation spans with every rank's worker
    /// metrics of every attempt (watchdog-discarded ones included), so at
    /// world ≥ 2 span totals sum concurrent per-rank time and can exceed
    /// [`StepReport::elapsed`].
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
    /// The world the session runs on.
    pub mode: ExecutionMode,
    /// Decomposition of the latest snapshot (`None` before the first).
    pub factors: Option<KruskalTensor>,
    /// Shape of the latest snapshot.
    pub shape: Vec<usize>,
    /// Snapshots ingested so far.
    pub step: usize,
    /// Accumulated network traffic across all steps.
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
    /// The grid cells every attempt laid out, over the session's lifetime.
    plan_cache: PlanCache,
    /// Runtime options (timeouts, fault injection) for every step.
    /// Deliberately not checkpointed: a restored session should run with
    /// the restoring process's options, not a dead process's fault plan.
    cluster_opts: ClusterOptions,
    /// Network traffic accumulated over every step so far.
    comm_totals: CommStatsSnapshot,
    /// When `true`, every ingest collects per-phase metrics into
    /// [`StepReport::metrics`].  Runtime-only, never checkpointed.
    collect_metrics: bool,
    /// The heal-ladder executor, installed by
    /// [`StreamingSession::set_heal_policy`]; `None` lets a cluster fault
    /// surface from [`StreamingSession::ingest`].  Runtime-only: per-rank
    /// budgets belong to this process's cluster, not to a checkpoint.
    supervisor: Option<Supervisor>,
    /// Where the committed snapshot ends in its store, and its `‖X‖²` —
    /// kept when its validation borrowed it (nothing was quarantined), so
    /// a snapshot extending it is read from the mark on.  Runtime-only,
    /// never checkpointed: a restored session's first step scans.
    last: Option<(PrefixMark, f64)>,
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
            supervisor: None,
            last: None,
        }
    }

    /// Resumes a session from a previously obtained decomposition — e.g. a
    /// checkpoint serialised with serde, or the output of an offline batch
    /// decomposition.  The next ingested snapshot is treated as a warm step
    /// relative to `factors`' shape.
    ///
    /// # Errors
    /// As [`StreamingSession::from_checkpoint`] for a step-1 checkpoint of
    /// `factors`: [`TensorError::InvalidArgument`] when the factors' rank
    /// disagrees with `cfg.rank`, or `mode` has zero workers.
    pub fn resume(cfg: DecompConfig, mode: ExecutionMode, factors: KruskalTensor) -> Result<Self> {
        Self::from_checkpoint(SessionCheckpoint {
            cfg,
            mode,
            shape: factors.shape(),
            factors: Some(factors),
            step: 1,
            comm_totals: CommStatsSnapshot::default(),
        })
    }

    /// Sets the cluster runtime options (receive deadlines, fault
    /// injection) used by every subsequent step.
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

    /// Installs the heal ladder [`StreamingSession::ingest`] walks when a
    /// step hits a cluster fault.  Replaces any previous
    /// supervisor, resetting its per-rank respawn budgets.
    pub fn set_heal_policy(&mut self, policy: HealPolicy) {
        self.supervisor = Some(Supervisor::new(policy));
    }

    /// Network traffic accumulated over every step so far.
    pub fn comm_totals(&self) -> &CommStatsSnapshot {
        &self.comm_totals
    }

    /// Sets the number of workers every later step runs on — the one way
    /// to grow or shrink the cluster.  A `Serial` session is world 1 and
    /// becomes `Distributed` with the new world.  It takes effect at once,
    /// which is the same as at the next ingest boundary: [`Self::ingest`]
    /// borrows the session mutably, so no step is in flight while this
    /// runs, and every step derives its placement afresh.  The world is
    /// part of [`Self::mode`], so [`Self::checkpoint`] carries it; to
    /// resume on another world, restore and then call this.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] for `workers == 0` or
    /// `workers > `[`MAX_WORKERS`], leaving the session as it was.
    pub fn set_workers(&mut self, workers: usize) -> Result<()> {
        check_workers(workers)?;
        let mut cluster = self.mode.cluster().into_owned();
        cluster.workers = workers;
        self.mode = ExecutionMode::Distributed(cluster);
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
    /// against the one and runs DTD against the other), a stream position
    /// with no factors to go with it, a mode with zero workers or more
    /// than [`MAX_WORKERS`] (the error [`StreamingSession::set_workers`]
    /// gives), a configuration [`DecompConfig::validate`] refuses (a
    /// budget above [`crate::MAX_ITERS`], [`crate::MAX_RESTARTS`] or
    /// [`crate::MAX_RIDGE_STEPS`] among them), and
    /// [`TensorError::NonFiniteValue`] for a non-finite factor entry.  The
    /// factors themselves decode through [`Matrix::from_vec`] and
    /// [`KruskalTensor::new`], so a short or ragged one fails to decode.
    pub fn from_checkpoint(ckpt: SessionCheckpoint) -> Result<Self> {
        check_workers(ckpt.mode.cluster().workers)?;
        ckpt.cfg.validate().map_err(TensorError::InvalidArgument)?;
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
                // A step never commits such an entry, and the next one
                // would spend the watchdog's restarts on it.
                all_finite(f.factors())?;
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
            supervisor: None,
            last: None,
        })
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

    /// The placement counts, at every world: `misses()` counts the grid
    /// cells every attempt laid out, retries included; `hits()` is 0, as
    /// no placement outlives its attempt.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The decomposition of the most recent snapshot, if any was ingested.
    pub fn factors(&self) -> Option<&KruskalTensor> {
        self.factors.as_ref()
    }

    /// The world the session decomposes on.
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
    /// A warm step on a snapshot that extends the committed one in its
    /// store — the next snapshot of a `StreamSequence` — reads the
    /// resident snapshot once, read-only, and otherwise costs
    /// `O(nnz(X \ X̃))` in time and allocation: the complement is the
    /// store's entries past the committed prefix
    /// ([`SparseTensor::since`]), validation reads only them, and `‖X‖²`
    /// is the committed snapshot's, folded on over them in stored order
    /// (the additions a whole-snapshot pass makes, so the same bits).  The
    /// one read is the `⟨X, Y⟩` pass after the solve — the price of
    /// [`StepReport::fit`] being the exact fit against the full snapshot,
    /// with the bits of [`KruskalTensor::fit`].  Any other snapshot (the
    /// first, one after a restore or a quarantine, or a tensor with a
    /// store of its own) is read twice more before the solve: its value
    /// buffer for validation and `‖X‖²`, its index buffer for
    /// [`SparseTensor::complement`].  Both ways give the same bits.  Inside the
    /// solve, an ALS iteration pays `O(T_n·R² + R³)` per mode for the row
    /// updates and Grams, `T_n` the rows the loop solves — every new row
    /// and each old row some complement nonzero references.  An old row
    /// none references follows from one `R x R` map per mode, so it costs
    /// its share of one `P_n` before the loop and one `R²` write after it.
    ///
    /// The step runs under the session's [`crate::NumericsPolicy`]: the
    /// snapshot passes ingest validation first (non-finite entries error
    /// under `Strict`, are dropped and counted under `Quarantine`), and the
    /// decomposition is supervised by the divergence watchdog, which
    /// re-runs a diverging attempt with a damped forgetting factor up to
    /// `watchdog.max_restarts` times before giving up.
    ///
    /// A step that hits a cluster fault is healed under the
    /// installed [`HealPolicy`] ([`StreamingSession::set_heal_policy`])
    /// instead of surfacing the fault:
    ///
    /// 1. **Respawn-and-rejoin** — the decomposition is replayed from the
    ///    pre-step factors, readmitting the crashed rank at the step
    ///    boundary (same world, ownership re-derived from the global
    ///    factors, as every step derives it).  Each rank has
    ///    a bounded respawn budget and each replay is preceded by seeded
    ///    exponential backoff spent through the policy's
    ///    [`dismastd_cluster::Clock`].
    /// 2. **Degraded-world fallback** — once a rank's budget is exhausted,
    ///    the world is shrunk by one worker via
    ///    [`StreamingSession::set_workers`] and
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
    /// Returns [`TensorError::InvalidArgument`] for non-monotone snapshots,
    /// for a non-empty snapshot of zero norm (its fit is undefined;
    /// refused before the solve) and for a configuration or world that
    /// restore would refuse (see [`Self::from_checkpoint`]),
    /// [`TensorError::NonFiniteValue`] for invalid data under `Strict`
    /// validation, [`TensorError::Diverged`] when the watchdog's restart
    /// budget is exhausted, and [`TensorError::ClusterFault`] when no heal
    /// policy is installed or its ladder is exhausted; propagates solver
    /// errors.  On error the decomposition is untouched and the session
    /// stays usable (a degradation that already happened stays applied).
    pub fn ingest(&mut self, snapshot: &SparseTensor) -> Result<StepReport> {
        // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
        let started = Instant::now();
        // Installing the registry here makes every span/counter below — the
        // solver's driver side on this thread, and every rank's metrics it
        // folds in — land in this step's collection.  On error paths the
        // Collector's Drop discards the partial data and restores any
        // displaced registry.
        let collector = self.collect_metrics.then(dismastd_obs::begin);
        let cold_start = self.factors.is_none();
        // `new` takes any configuration; the first step refuses what
        // `set_workers` and restore refuse.
        check_workers(self.mode.cluster().workers)?;
        self.cfg.validate().map_err(TensorError::InvalidArgument)?;

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

        // ---- validated ingest: what arrived, or one pass over the values --
        let input = snapshot;
        let (arrived, (snapshot, quarantined, snapshot_norm_sq)) = match self.arrivals(input)? {
            Some((delta, norm_sq)) => (Some(delta), (Cow::Borrowed(input), 0, norm_sq)),
            None => {
                let _s = dismastd_obs::span("phase/validate");
                (
                    None,
                    validate_snapshot(input, self.cfg.numerics.validation)?,
                )
            }
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
        // start, the relative complement `X \ X̃` afterwards — what arrived,
        // or one pass over the index buffer that copies only that.
        let work: Cow<'_, SparseTensor> = match arrived {
            Some(delta) => Cow::Owned(delta),
            None if cold_start => Cow::Borrowed(snapshot),
            None => {
                let _s = dismastd_obs::span("phase/complement");
                resident_read(READ_COMPLEMENT, snapshot);
                Cow::Owned(snapshot.complement(&self.shape)?)
            }
        };
        let processed_nnz = work.nnz();

        // ---- one loop over attempts: each outcome picks the next rung ----
        // Every attempt lays out its own placement, so a retry is a fresh
        // attempt with a damped μ or on a healed world, and nothing needs
        // rolling back between attempts: only a degradation changes the
        // session (its world), which is exactly what that rung means.
        let wd = self.cfg.numerics.watchdog;
        let mut step_cfg = self.cfg;
        let mut restarts = 0usize;
        let mut numerics = NumericsReport::default();
        let mut heal = HealReport::default();
        let backoff_before = self.supervisor.as_ref().map_or(0, Supervisor::backoff_ns);
        let mut replay = false;
        let outcome = loop {
            let attempt = {
                let _replay = replay.then(|| dismastd_obs::span("heal/replay"));
                // A cold start has no history: static CP-ALS over the snapshot.
                let old = self
                    .factors
                    .as_ref()
                    .map_or(&[][..], KruskalTensor::factors);
                place(&work, &self.mode.cluster(), &self.shape, step_cfg.rank).and_then(
                    |placement| {
                        self.plan_cache.misses += placement.cells();
                        run_distributed(&work, old, &step_cfg, &self.cluster_opts, &placement)
                    },
                )
            };
            replay = false;
            let diverged = match attempt {
                Ok(attempt) => {
                    numerics.absorb(&attempt.numerics);
                    let verdict = wd.enabled.then(|| {
                        divergence_verdict(&attempt.loss_trace, attempt.kruskal.factors(), &wd)
                    });
                    let Some(reason) = verdict.flatten() else {
                        break attempt;
                    };
                    // The attempt's traffic happened whether or not its
                    // numbers were usable (its metrics are already in the
                    // step's collection).
                    self.comm_totals.merge(&attempt.comm);
                    reason
                }
                // The solver gave up (singular system, non-finite
                // pivot/value): same treatment as an observed divergence.
                Err(e) if wd.enabled && is_numeric_failure(&e) => e.to_string(),
                // The heal ladder's next rung, and a replay of the attempt.
                Err(TensorError::ClusterFault { rank, detail }) => {
                    let world = self.mode.cluster().workers;
                    let Some(sup) = self.supervisor.as_mut() else {
                        return Err(TensorError::ClusterFault { rank, detail });
                    };
                    match sup.on_fault(rank, world) {
                        HealAction::Respawn { backoff, .. } => {
                            sup.back_off(backoff);
                            heal.respawns += 1;
                        }
                        HealAction::Degrade { .. } => {
                            // The same call a caller shrinking the cluster makes.
                            self.set_workers(world - 1)?;
                            heal.transitions.push(HealTransition::Degraded {
                                from_world: world,
                                to_world: world - 1,
                            });
                        }
                        HealAction::GiveUp { .. } => {
                            return Err(TensorError::ClusterFault {
                                rank,
                                detail: format!(
                                    "{detail} (heal ladder exhausted after {} respawn(s) and \
                                     {} degradation(s))",
                                    heal.respawns,
                                    heal.transitions.len()
                                ),
                            });
                        }
                    }
                    replay = true;
                    continue;
                }
                Err(e) => return Err(e),
            };
            // Damp μ and retry within budget.
            if restarts >= wd.max_restarts {
                return Err(TensorError::Diverged {
                    restarts,
                    detail: diverged,
                });
            }
            restarts += 1;
            dismastd_obs::counter_add("watchdog/restart", 1);
            step_cfg.forgetting *= wd.mu_damping;
        };

        let loss = outcome.loss_trace.last().copied().unwrap_or(0.0);
        // The step's last read of the resident snapshot: `⟨X, Y⟩` needs
        // every entry against the *new* factors, so it cannot be folded
        // into the passes above.
        let fit = {
            let _s = dismastd_obs::span("phase/fit");
            if snapshot.is_empty() {
                1.0
            } else {
                resident_read(READ_FIT, snapshot);
                fit_given_norm(&outcome.kruskal, snapshot, snapshot_norm_sq)?
            }
        };
        // Driver-side spans (validate, complement, partition, fit) plus
        // every rank's worker metrics, which the solver folded in.
        let metrics = collector.map(dismastd_obs::Collector::finish);
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
            time_per_iter: outcome.time_per_iter(),
            comm: Some(outcome.comm),
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
        self.step = self.step.saturating_add(1);
        // A quarantined step decomposed a rebuilt copy, not `input`'s
        // prefix: its successor scans.
        self.last = (quarantined == 0).then(|| (input.mark(), snapshot_norm_sq));
        Ok(report)
    }

    /// What arrived since the committed snapshot, when `snapshot` extends
    /// it in its store: the entries past its mark, validated, and `‖X‖²`
    /// folded on over them from the committed snapshot's.  `None` sends
    /// the step down the scan of the whole snapshot: no mark (a first,
    /// restored or resumed session, or a step after a quarantine), another
    /// store, or a non-finite arrival under `Quarantine`, which the scan
    /// rebuilds away.  Errors as the scan's validation does under `Strict`.
    fn arrivals(&self, snapshot: &SparseTensor) -> Result<Option<(SparseTensor, f64)>> {
        let Some((mark, committed_norm_sq)) = &self.last else {
            return Ok(None);
        };
        let delta = {
            let span = dismastd_obs::span("phase/complement");
            let Some(delta) = snapshot.since(mark) else {
                // Another store: the scan's own span times its complement,
                // and the step records one.
                std::mem::forget(span);
                return Ok(None);
            };
            resident_read(READ_COMPLEMENT, &delta);
            delta
        };
        debug_assert!(
            snapshot.complement(&self.shape).is_ok_and(|c| {
                // Bit for bit: a NaN arrival is equal to itself here.
                let bits = |t: &SparseTensor| -> Vec<u64> {
                    t.values().iter().map(|v| v.to_bits()).collect()
                };
                c.shape() == delta.shape()
                    && c.indices_flat() == delta.indices_flat()
                    && bits(&c) == bits(&delta)
            }),
            "the entries past the committed prefix are the complement"
        );
        let _s = dismastd_obs::span("phase/validate");
        let norm_sq = fold_norm_sq(&delta, self.cfg.numerics.validation, *committed_norm_sq)?;
        Ok(norm_sq.map(|norm_sq| (delta, norm_sq)))
    }
}

/// The one check on a world size, shared by
/// [`StreamingSession::set_workers`] and the checkpoint trust boundary.
fn check_workers(workers: usize) -> Result<()> {
    if workers == 0 {
        return Err(TensorError::InvalidArgument(
            "a cluster needs at least one worker, not workers = 0".into(),
        ));
    }
    if workers > MAX_WORKERS {
        return Err(TensorError::InvalidArgument(format!(
            "workers must be <= {MAX_WORKERS}, not workers = {workers}"
        )));
    }
    Ok(())
}

/// Largest world a session runs on: each worker is an OS thread of this
/// process, and the paper's cluster is 15 machines.
pub const MAX_WORKERS: usize = 256;

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
    match fold_norm_sq(snapshot, mode, 0.0)? {
        Some(norm_sq) => Ok((Cow::Borrowed(snapshot), 0, norm_sq)),
        None => quarantine_snapshot(snapshot),
    }
}

/// `from` plus the square of each of `x`'s values, added in stored order,
/// with each value checked under `mode` on the way: `Strict` errors at the
/// first non-finite one, naming its coordinate, `Quarantine` stops there
/// with `None` (the caller rebuilds), `Off` adds everything.  Folding a
/// snapshot's prefix and then, from that sum, the rest makes the additions
/// folding the whole snapshot makes, so it gives the same bits.
fn fold_norm_sq(x: &SparseTensor, mode: ValidationMode, from: f64) -> Result<Option<f64>> {
    resident_read(READ_VALIDATE, x);
    let mut norm_sq = from;
    for (idx, v) in x.iter() {
        if mode != ValidationMode::Off && !v.is_finite() {
            if mode == ValidationMode::Strict {
                return Err(TensorError::NonFiniteValue {
                    index: idx.iter().map(|&i| i as usize).collect(),
                    value: v,
                });
            }
            return Ok(None);
        }
        norm_sq += v * v;
    }
    Ok(Some(norm_sq))
}

/// `ingest/resident_read` labels: the passes a step makes over entries of
/// the snapshot it was handed, or of what arrived in it — validation (and
/// `‖X‖²`), the complement, and the fit's `⟨X, Y⟩`.
const READ_VALIDATE: u64 = 0;
const READ_COMPLEMENT: u64 = 1;
const READ_FIT: u64 = 2;

/// Counts one pass over `x`'s entries under `label`.
fn resident_read(label: u64, x: &SparseTensor) {
    dismastd_obs::counter_add_with("ingest/resident_read", label, x.nnz() as u64);
}

/// The `Quarantine` slow path, taken once a non-finite value has been seen:
/// rebuilds the snapshot without such entries and measures the clean copy.
fn quarantine_snapshot(snapshot: &SparseTensor) -> Result<(Cow<'_, SparseTensor>, u64, f64)> {
    resident_read(READ_VALIDATE, snapshot);
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
    use crate::distributed::gather_skipped_rows;
    use dismastd_tensor::SparseTensorBuilder;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn snapshot_pair() -> (SparseTensor, SparseTensor) {
        seeded_pair(1, 250)
    }

    /// `(leading block, full tensor)` of `nnz` random entries over 10×9×8.
    fn seeded_pair(seed: u64, nnz: usize) -> (SparseTensor, SparseTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let full_shape = [10usize, 9, 8];
        let mut full = SparseTensorBuilder::new(full_shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            full.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
        }
        let full = full.build().unwrap();
        let small = full.restrict(&[7, 7, 6]).unwrap();
        (small, full)
    }

    /// [`snapshot_pair`] cut as a stream: the same two snapshots as prefix
    /// views of one arrival-ordered store, so the second is not in
    /// lexicographic order.
    fn stream_pair() -> (SparseTensor, SparseTensor) {
        let (s0, full) = snapshot_pair();
        let boxes = [s0.shape().to_vec(), full.shape().to_vec()];
        let cut = full.nested_prefixes(&boxes).unwrap();
        (cut[0].clone(), cut[1].clone())
    }

    fn cfg() -> DecompConfig {
        DecompConfig::default().with_rank(3).with_max_iters(8)
    }

    /// A warm step on a stream snapshot (arrival order) and on the same
    /// entries in lexicographic order: the solver sees one complement, so
    /// processed entries, factors and loss keep their bits; only the fit,
    /// a sum over the whole snapshot, is added in another order.
    #[test]
    fn a_warm_step_on_an_arrival_ordered_snapshot_keeps_the_solvers_bits() {
        let (lex0, lex1) = snapshot_pair();
        let (arr0, arr1) = stream_pair();
        assert_eq!(arr0, lex0, "snapshot 0 is one arrival group");
        assert_ne!(arr1, lex1, "a later snapshot is in arrival order");
        let mut sorted: Vec<(Vec<u32>, u64)> = arr1
            .iter()
            .map(|(i, v)| (i.to_vec(), v.to_bits()))
            .collect();
        sorted.sort();
        let lex: Vec<(Vec<u32>, u64)> = lex1
            .iter()
            .map(|(i, v)| (i.to_vec(), v.to_bits()))
            .collect();
        assert_eq!(sorted, lex, "the same entries");
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Distributed(ClusterConfig::new(2)),
        ] {
            let run = |s0: &SparseTensor, s1: &SparseTensor| {
                let mut sess = StreamingSession::new(cfg(), mode.clone());
                sess.ingest(s0).unwrap();
                let report = sess.ingest(s1).unwrap();
                (report, sess.factors().unwrap().clone())
            };
            let (lex, lex_factors) = run(&lex0, &lex1);
            let (arr, arr_factors) = run(&arr0, &arr1);
            assert_eq!(arr.processed_nnz, lex.processed_nnz);
            assert_eq!(arr.snapshot_nnz, lex.snapshot_nnz);
            assert_eq!(arr.loss.to_bits(), lex.loss.to_bits(), "{mode:?}");
            for (a, l) in arr_factors.factors().iter().zip(lex_factors.factors()) {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(l), "{mode:?}");
            }
            let rel = (arr.fit - lex.fit).abs() / lex.fit.abs();
            assert!(rel <= 1e-12, "{mode:?}: fit {} vs {}", arr.fit, lex.fit);
        }
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
        // World 1: a ledger with no bytes.
        assert_eq!(r0.comm.expect("every step reports its ledger").bytes, 0);

        let r1 = sess.ingest(&s1).unwrap();
        assert!(!r1.cold_start);
        assert_eq!(r1.step, 1);
        // Only the complement was processed.
        assert!(r1.processed_nnz < s1.nnz());
        assert_eq!(r1.processed_nnz, s1.nnz() - s0.nnz());
        assert_eq!(sess.shape, s1.shape());
        assert_eq!(sess.step, 2);
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
    fn a_serial_session_is_a_world_1_session() {
        // Near its fixed point an exact ALS trace can still rise by
        // rounding.  With a zero-tolerance, patience-1 watchdog that happens
        // on this stream's warm step at world 1 (seed 53): the first
        // attempt is discarded and the retry at μ/2 passes.
        let strict = cfg().with_max_iters(30).with_tolerance(0.0).with_numerics(
            crate::NumericsPolicy::default().with_watchdog(WatchdogPolicy {
                max_restarts: 4,
                patience: 1,
                increase_tolerance: 0.0,
                ..WatchdogPolicy::default()
            }),
        );
        let (s0, s1) = seeded_pair(53, 300);
        let run = |mode: ExecutionMode| {
            let mut sess = StreamingSession::new(strict, mode);
            sess.set_heal_policy(HealPolicy::default());
            let reports = [sess.ingest(&s0).unwrap(), sess.ingest(&s1).unwrap()];
            (sess, reports)
        };
        let (serial, serial_reports) = run(ExecutionMode::Serial);
        let (world1, world1_reports) = run(ExecutionMode::Distributed(ClusterConfig::new(1)));
        assert_eq!(serial_reports[1].watchdog_restarts, 1, "the restart");
        for (a, b) in serial_reports.iter().zip(&world1_reports) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "step {}", a.step);
            assert_eq!(a.fit.to_bits(), b.fit.to_bits(), "step {}", a.step);
            assert_eq!(a.iterations, b.iterations, "step {}", a.step);
            assert_eq!(a.numerics, b.numerics, "step {}", a.step);
            assert_eq!(a.comm, b.comm, "step {}", a.step);
            assert_eq!(a.heal, Some(HealReport::default()), "step {}", a.step);
            assert_eq!(a.heal, b.heal, "step {}", a.step);
            // World 1 sends nothing and counts its collectives.
            let comm = a.comm.as_ref().expect("every step reports its ledger");
            assert_eq!(comm.bytes, 0);
            assert!(comm.collectives > 0);
        }
        assert_eq!(serial.factors(), world1.factors());
        assert_eq!(serial.comm_totals(), world1.comm_totals());
        // Both laid out each attempt's one cell: the cold step's, and the
        // warm step's twice, once more for the retry.
        assert_eq!(serial.plan_cache().misses(), 3);
        assert_eq!(serial.plan_cache().hits(), 0);
        assert_eq!(serial.plan_cache().hits(), world1.plan_cache().hits());
        assert_eq!(serial.plan_cache().misses(), world1.plan_cache().misses());
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
        let checkpoint = first.factors.unwrap();
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
        let checkpoint = sess.factors.unwrap();
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

        assert_eq!(restored.step, sess.step);
        assert_eq!(restored.shape, sess.shape);
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
    fn a_parent_format_checkpoint_restores_the_same_factors_and_bytes() {
        // Written by the previous release after this two-step distributed
        // stream, with the `pooling` flag older checkpoints carried added:
        // its cluster config has a `comm` policy and `pooling`, and its
        // traffic totals the frame counters, none of which exist any more.
        let (s0, s1) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
        sess.ingest(&s0).unwrap();
        sess.ingest(&s1).unwrap();

        let json = include_str!("../testdata/parent_checkpoint.json");
        let ckpt: SessionCheckpoint = serde_json::from_str(json).unwrap();
        let restored = StreamingSession::from_checkpoint(ckpt).unwrap();
        assert_eq!(restored.mode(), sess.mode());
        assert_eq!(restored.step, sess.step);
        assert_eq!(restored.factors(), sess.factors());
        // The checkpoint's traffic is what that release shipped: it
        // all-reduced every iteration's last-mode Grams and loss slot (flat
        // here: a gather and a broadcast, two messages each), where the
        // reduction now rides the row exchanges and, on a step's final
        // iteration, the gather — no message of its own, and the
        // broadcast's `(w − 1)·(2R² + R + 1)` values from rank 0 gone.  It
        // also all-reduced every step's set-up Grams (flat too: `b` =
        // 3 modes × `2R² + R` values from each of ranks 1 and 2 to rank 0,
        // then `b` from rank 0 to each), where the driver now builds them.
        let (steps, iters, w) = (2, cfg().max_iters as u64, 3);
        let (packed, order) = (2 * 3 * 3 + 3, 3);
        let broadcast = (w - 1) * (packed + 1) * 8;
        let setup = order * packed * 8;
        let mut parent = sess.comm_totals().clone();
        parent.collectives += steps * (iters + 1) * 2;
        parent.messages += steps * (iters + 1) * 2 * (w - 1);
        parent.bytes += steps * (broadcast + 2 * (w - 1) * setup);
        parent.bytes_by_sender[0] += steps * (broadcast + (w - 1) * setup);
        for sender in &mut parent.bytes_by_sender[1..] {
            *sender += steps * setup;
        }
        // The lines above count every reduction that rides the row
        // exchanges with rank 0 owning the whole buffer: flat's map, which
        // every Gram reduction took at R = 3, world 3, before rank `k` came
        // to own the `k`-th of `w` near-equal slices.  A sender ships
        // `b + (w − 2)·slice` values per reduction of `b`: every mode's but
        // the last each iteration (`b = 2R² + R`) and, on every iteration
        // but a step's final one, the last mode's (`b + 1` with the loss
        // slot).  So each sender's share moves back from the uniform map to
        // flat's; the slices sum to `b` either way, so the total does not.
        let total: u64 = parent.bytes_by_sender.iter().sum();
        for (b, reductions) in [
            (packed, steps * iters * (order - 1)),
            (packed + 1, steps * (iters - 1)),
        ] {
            let fused = |slice: u64| reductions * (b + (w - 2) * slice) * 8;
            for (k, sender) in parent.bytes_by_sender.iter_mut().enumerate() {
                let uniform = b / w + u64::from((k as u64) < b % w);
                let flat = if k == 0 { b } else { 0 };
                *sender = *sender - fused(uniform) + fused(flat);
            }
        }
        assert_eq!(parent.bytes_by_sender.iter().sum::<u64>(), total);
        // That release's gather shipped every owned row; it now skips the
        // rows rank 0 forms or holds, R = 3 values each: on the cold step
        // (no history) and on the warm one (the first snapshot's rows of
        // history).
        let world = ClusterConfig::new(3);
        let cold = gather_skipped_rows(&s0, &[0; 3], &world);
        let warm = gather_skipped_rows(&s1.complement(s0.shape()).unwrap(), s0.shape(), &world);
        for k in 1..3 {
            let bytes = (cold[k] + warm[k]) * 3 * 8;
            parent.bytes_by_sender[k] += bytes;
            parent.bytes += bytes;
        }
        assert_eq!(restored.comm_totals(), &parent);
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

        // restore: a stream position but no factors behind it.
        let path = dir.join("no_factors.json");
        let factors_at = json.find("\"factors\":").unwrap() + "\"factors\":".len();
        let shape_at = json.find(",\"shape\":").unwrap();
        let headless = format!("{}null{}", &json[..factors_at], &json[shape_at..]);
        std::fs::write(&path, &headless).unwrap();
        assert_inconsistent(StreamingSession::restore(&path), "carries no factors");
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

    /// A step-1 checkpoint of a 3×3×3 serial session at rank 2, as JSON.
    fn small_checkpoint_json() -> String {
        let mut b = SparseTensorBuilder::new(vec![3, 3, 3]);
        for e in 0..14usize {
            b.push(&[e % 3, (e / 3) % 3, (e / 9) % 3], 1.0 + e as f64 / 8.0)
                .unwrap();
        }
        let mut sess = StreamingSession::new(cfg().with_rank(2), ExecutionMode::Serial);
        sess.ingest(&b.build().unwrap()).unwrap();
        serde_json::to_string(&sess.to_checkpoint()).unwrap()
    }

    #[test]
    fn a_short_or_non_finite_factor_is_refused_at_restore() {
        let json = small_checkpoint_json();
        let restore = |json: &str| {
            serde_json::from_str::<SessionCheckpoint>(json)
                .map_err(|e| TensorError::InvalidArgument(e.to_string()))
                .and_then(StreamingSession::from_checkpoint)
        };
        assert!(restore(&json).is_ok());
        // The first factor's first value, and the comma after it.
        let first = json.find("\"data\":[").unwrap() + "\"data\":[".len();
        let comma = first + json[first..].find(',').unwrap();
        let short = format!("{}{}", &json[..first], &json[comma + 1..]);
        match restore(&short) {
            Err(TensorError::InvalidArgument(msg)) => assert!(msg.contains("from_vec"), "{msg}"),
            other => panic!("a short factor must not restore: {other:?}"),
        }
        let infinite = format!("{}1e999{}", &json[..first], &json[comma..]);
        match restore(&infinite) {
            Err(TensorError::NonFiniteValue { index, value }) => {
                assert_eq!((index, value), (vec![0], f64::INFINITY));
            }
            other => panic!("a non-finite factor must not restore: {other:?}"),
        }
    }

    /// Restore, `set_workers` and the first ingest of a session built by
    /// `new` refuse the same values: a world above [`MAX_WORKERS`] and
    /// budgets above the named caps, each with an `InvalidArgument` that
    /// names the field.  A value at its cap restores.
    #[test]
    fn restore_new_and_set_workers_refuse_the_same_bounds() {
        use crate::{MAX_ITERS, MAX_RESTARTS, MAX_RIDGE_STEPS};
        let json = small_checkpoint_json();
        let base: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        let refused = |r: Result<()>, field: &str| match r {
            Err(TensorError::InvalidArgument(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{field} out of bounds must be refused: {other:?}"),
        };
        let mut x = SparseTensorBuilder::new(vec![4, 4, 4]);
        x.push(&[0, 0, 0], 1.0).unwrap();
        let x = x.build().unwrap();
        type Over = fn(&mut SessionCheckpoint, usize);
        let mutations: [(&str, Over); 4] = [
            ("workers", |c, d| {
                c.mode = ExecutionMode::Distributed(ClusterConfig::new(MAX_WORKERS + d));
            }),
            ("max_iters", |c, d| c.cfg.max_iters = MAX_ITERS + d),
            ("watchdog.max_restarts", |c, d| {
                c.cfg.numerics.watchdog.max_restarts = MAX_RESTARTS + d;
            }),
            ("solver.max_ridge_steps", |c, d| {
                c.cfg.numerics.solver.max_ridge_steps = MAX_RIDGE_STEPS + d as u32;
            }),
        ];
        for (field, set) in mutations {
            let mut at_cap = base.clone();
            set(&mut at_cap, 0);
            assert!(StreamingSession::from_checkpoint(at_cap).is_ok(), "{field}");
            let mut over = base.clone();
            set(&mut over, 1);
            let restored = StreamingSession::from_checkpoint(over.clone());
            refused(restored.map(|_| ()), field);
            let mut fresh = StreamingSession::new(over.cfg, over.mode.clone());
            refused(fresh.ingest(&x).map(|_| ()), field);
            assert!(fresh.factors().is_none(), "nothing was committed");
        }
        let mut sess = StreamingSession::from_checkpoint(base).unwrap();
        refused(sess.set_workers(MAX_WORKERS + 1), "workers");
        assert!(sess.set_workers(MAX_WORKERS).is_ok());
    }

    #[test]
    fn restored_comm_totals_at_their_limit_saturate() {
        let json = small_checkpoint_json();
        let mut ckpt: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        ckpt.comm_totals.collectives = u64::MAX;
        ckpt.comm_totals.bytes_by_sender = vec![u64::MAX];
        ckpt.step = usize::MAX;
        let mut sess = StreamingSession::from_checkpoint(ckpt).unwrap();
        let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
        b.push(&[3, 3, 3], 1.0).unwrap();
        b.push(&[0, 0, 0], 2.0).unwrap();
        sess.ingest(&b.build().unwrap()).unwrap();
        assert_eq!(sess.comm_totals().collectives, u64::MAX);
        assert_eq!(sess.comm_totals().bytes_by_sender, vec![u64::MAX]);
        assert_eq!(sess.step, usize::MAX);
    }

    #[test]
    fn a_checkpoint_with_zero_workers_is_refused_at_restore() {
        let (s0, _) = snapshot_pair();
        let mut sess =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        sess.ingest(&s0).unwrap();
        let json = serde_json::to_string(&sess.to_checkpoint()).unwrap();
        assert_eq!(
            json.matches("\"workers\":2").count(),
            1,
            "one workers field"
        );
        let dir = scratch_dir("zero_workers");
        let path = dir.join("ckpt.json");
        std::fs::write(&path, json.replace("\"workers\":2", "\"workers\":0")).unwrap();
        // Refused at the trust boundary, with the error the setter gives,
        // rather than at the first ingest.
        let refused = StreamingSession::restore(&path).unwrap_err();
        assert_eq!(Some(refused), sess.set_workers(0).err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_world_change_between_steps_rides_the_checkpoint() {
        let (s0, s1) = snapshot_pair();
        let mut live =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        live.ingest(&s0).unwrap();
        live.set_workers(3).unwrap();
        let dir = scratch_dir("world_in_ckpt");
        let path = dir.join("ckpt.json");
        live.checkpoint(&path).unwrap();
        let mut restored = StreamingSession::restore(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(restored.mode(), live.mode());

        let a = live.ingest(&s1).unwrap();
        let b = restored.ingest(&s1).unwrap();
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert_eq!(live.factors(), restored.factors());
        // The step is world-sensitive, so a restore that dropped the change
        // would have been caught: world 2 lands on other bits.
        let mut stayed =
            StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(2)));
        stayed.ingest(&s0).unwrap();
        stayed.ingest(&s1).unwrap();
        assert_ne!(stayed.factors(), live.factors());
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
        assert_eq!(restored.step, 1);
        assert_eq!(restored.shape, s0.shape());

        // With the obstacle gone the same call goes through and overwrites.
        std::fs::remove_dir(&squatter).unwrap();
        sess.checkpoint(&path).unwrap();
        assert_eq!(names(&dir), ["ckpt.json"]);
        assert_eq!(StreamingSession::restore(&path).unwrap().step, 2);

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
        // Built snapshots, and the same entries cut as a stream.
        let (_, full) = snapshot_pair();
        for (s0, s1) in [snapshot_pair(), stream_pair()] {
            reported_fit_has_the_bits_of_the_public_fit(&s0, &s1, &full);
        }
    }

    /// The body of the test above: `s1` holds `full`'s entries (in any
    /// stored order), `s0` a leading block of them.
    fn reported_fit_has_the_bits_of_the_public_fit(
        s0: &SparseTensor,
        s1: &SparseTensor,
        full: &SparseTensor,
    ) {
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
                let cold = sess.ingest(s0).unwrap();
                assert_eq!(
                    cold.fit.to_bits(),
                    sess.factors().unwrap().fit(s0).unwrap().to_bits(),
                    "cold fit under {validation:?}"
                );
                let (warm_input, scored) = match validation {
                    ValidationMode::Quarantine => (&poisoned, full),
                    _ => (s1, s1),
                };
                let warm = sess.ingest(warm_input).unwrap();
                // Quarantine decomposed — and is scored against — `s1`'s
                // entries, rebuilt from `poisoned` in lexicographic order.
                assert_eq!(
                    warm.fit.to_bits(),
                    sess.factors().unwrap().fit(scored).unwrap().to_bits(),
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
        sess.ingest(s0).unwrap();
        match sess.ingest(&poisoned) {
            Err(TensorError::NonFiniteValue { index, value }) => {
                assert_eq!(index, vec![9, 8, 6]);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        assert_eq!(sess.step, 1);
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
        assert_eq!(sess.step, 0);
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
        assert_eq!(sess.step, 1);
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

    /// [`snapshot_pair`]'s full tensor, plus `bad` at `[9, 8, 6]` when
    /// given, cut by `nested_prefixes` into four steps; `[9, 8, 6]` arrives
    /// at step 2.  Returns the shared views and an owned copy of each —
    /// the same entries in the same order, in a store of its own.
    fn four_steps(bad: Option<f64>) -> (Vec<SparseTensor>, Vec<SparseTensor>) {
        let (_, full) = snapshot_pair();
        let mut b = SparseTensorBuilder::on(full.clone()).unwrap();
        if let Some(bad) = bad {
            assert_eq!(full.get(&[9, 8, 6]).unwrap(), 0.0, "a free coordinate");
            b.push(&[9, 8, 6], bad).unwrap();
        }
        let boxes = [vec![7, 7, 6], vec![8, 8, 7], vec![10, 9, 7], vec![10, 9, 8]];
        let shared = b.build().unwrap().nested_prefixes(&boxes).unwrap();
        let owned = shared
            .iter()
            .map(|s| SparseTensor::try_from(&s.to_value()).unwrap())
            .collect();
        (shared, owned)
    }

    /// `ingest/resident_read` of a step, labels 0 / 1 / 2.
    fn resident_reads(report: &StepReport) -> [u64; 3] {
        let m = report.metrics.as_ref().expect("collected");
        [0, 1, 2].map(|label| m.counter_at("ingest/resident_read", label))
    }

    /// Every bit a step reports and the factors it leaves.
    fn step_bits(report: &StepReport, sess: &StreamingSession) -> Vec<u64> {
        let mut bits = vec![
            report.fit.to_bits(),
            report.loss.to_bits(),
            report.processed_nnz as u64,
            report.snapshot_nnz as u64,
            report.quarantined,
        ];
        for f in sess.factors().unwrap().factors() {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    fn validating(validation: ValidationMode, mode: &ExecutionMode) -> StreamingSession {
        let mut cfg = cfg();
        cfg.numerics.validation = validation;
        let mut sess = StreamingSession::new(cfg, mode.clone());
        sess.set_collect_metrics(true);
        sess
    }

    #[test]
    fn strict_names_a_non_finite_arrival_and_the_session_goes_on() {
        let (shared, _) = four_steps(Some(f64::NAN));
        let (clean, _) = four_steps(None);
        let mut sess = validating(ValidationMode::Strict, &ExecutionMode::Serial);
        sess.ingest(&shared[0]).unwrap();
        let warm = sess.ingest(&shared[1]).unwrap();
        let arrived = warm.processed_nnz as u64;
        assert_eq!(
            resident_reads(&warm)[..2],
            [arrived, arrived],
            "read the arrivals"
        );
        match sess.ingest(&shared[2]) {
            Err(TensorError::NonFiniteValue { index, value }) => {
                assert_eq!(index, vec![9, 8, 6]);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        assert_eq!(sess.step, 2, "the refused step committed nothing");
        // The next valid ingest — another store, so a scan — lands where a
        // session that never saw the NaN lands.
        let mut reference = validating(ValidationMode::Strict, &ExecutionMode::Serial);
        let mut want = None;
        for t in [0, 1, 3] {
            want = Some(reference.ingest(&clean[t]).unwrap());
        }
        let got = sess.ingest(&clean[3]).unwrap();
        assert_eq!(
            step_bits(&got, &sess),
            step_bits(&want.unwrap(), &reference)
        );
    }

    #[test]
    fn quarantine_drops_a_non_finite_arrival_as_the_scan_does_then_scans() {
        let (shared, owned) = four_steps(Some(f64::NAN));
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Distributed(ClusterConfig::new(2)),
        ] {
            let mut on_store = validating(ValidationMode::Quarantine, &mode);
            let mut on_copies = validating(ValidationMode::Quarantine, &mode);
            for (t, (s, o)) in shared.iter().zip(&owned).enumerate() {
                let got = on_store.ingest(s).unwrap();
                let want = on_copies.ingest(o).unwrap();
                assert_eq!(
                    step_bits(&got, &on_store),
                    step_bits(&want, &on_copies),
                    "{mode:?} step {t}"
                );
                assert_eq!(got.quarantined, u64::from(t >= 2), "step {t}");
                // Step 1 reads what arrived; step 2 falls back to the scan
                // after reading it, and step 3, after a quarantine, scans.
                let arrived = got.processed_nnz as u64;
                let snapshot = s.nnz() as u64;
                let reads = resident_reads(&got);
                match t {
                    1 => assert_eq!(reads[..2], [arrived, arrived]),
                    2 => assert_eq!(reads[0], (arrived + 1) + 2 * snapshot),
                    3 => assert_eq!(reads[0], 2 * snapshot, "a rebuild after the scan"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn off_folds_a_nan_arrival_into_the_norm_as_the_whole_fold_does() {
        let (shared, owned) = four_steps(Some(f64::NAN));
        let mut on_store = validating(ValidationMode::Off, &ExecutionMode::Serial);
        let mut on_copies = validating(ValidationMode::Off, &ExecutionMode::Serial);
        for t in 0..2 {
            on_store.ingest(&shared[t]).unwrap();
            on_copies.ingest(&owned[t]).unwrap();
        }
        // The suffix passes unjudged, and `‖X‖²` folded on over it from the
        // committed snapshot's is the whole snapshot's fold, NaN bits and
        // all.
        let (delta, norm_sq) = on_store.arrivals(&shared[2]).unwrap().unwrap();
        let complement = shared[2].complement(shared[1].shape()).unwrap();
        assert_eq!(delta.indices_flat(), complement.indices_flat());
        let whole = fold_norm_sq(&owned[2], ValidationMode::Off, 0.0).unwrap();
        assert!(norm_sq.is_nan());
        assert_eq!(Some(norm_sq.to_bits()), whole.map(f64::to_bits));
        // The solver cannot decompose the NaN: both ways refuse the step
        // alike and stay where they were.
        let got = on_store.ingest(&shared[2]).unwrap_err();
        let want = on_copies.ingest(&owned[2]).unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!((on_store.step, on_copies.step), (2, 2));
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
