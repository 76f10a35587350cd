//! Distributed DisMASTD (Sec. IV-B) on the simulated cluster.
//!
//! One engine drives both of the paper's distributed methods:
//!
//! * **DisMASTD** ([`dismastd`]) — DTD over the complement `X \ X̃` with the
//!   previous snapshot's factors;
//! * **DMS-MG** ([`dms_mg`]) — the static medium-grained baseline, obtained
//!   as the zero-history special case (re-decompose the *full* tensor from
//!   scratch; every row is a "new" row).
//!
//! Execution per iteration and mode follows the paper exactly:
//!
//! 1. **Distributed MTTKRP** (Sec. IV-B1): each worker computes partial
//!    MTTKRP rows from its grid cells, then routes the partials of rows it
//!    does not own to the row owners (one all-to-all exchange).
//! 2. **Distributed factor update** (Sec. IV-B2): row owners apply the
//!    Eq. 5 row-wise rules using the cached `R x R` products — which every
//!    worker conditions and factorises for itself, the products being
//!    replicated bit for bit — then ship the refreshed rows back to every
//!    worker whose nonzeros reference them (second exchange).
//! 3. **Distributed matrix-product update** (Sec. IV-B3): owners compute
//!    partial Grams over their rows and an all-reduce rebuilds
//!    `G_n^0, G_n^1, G̃_n` on every worker.
//! 4. **Distributed loss** (Sec. IV-B4): the `R x R` terms are evaluated
//!    locally from the replicated products; the data-dependent inner product
//!    reuses the final mode's MTTKRP partial rows, and its per-rank partial
//!    rides as one extra slot of that mode's Gram all-reduce.
//!
//! That is three collectives per mode-iteration (partials exchange, refresh
//! exchange, Gram all-reduce), none per iteration, and one at set-up (every
//! mode's initial Gram partials in a single all-reduce) — less the last
//! mode's refresh of the last scheduled iteration, which nothing would read.

use crate::config::DecompConfig;
use crate::dtd::{check_row_ids, converged, init_factors, old_norm_sq, zero_history};
use crate::loss::{dtd_loss, mode_grams, GramState, LossParts};
use dismastd_cluster::{
    decode_rows, maybe_compress, BufferPool, Cluster, ClusterError, ClusterOptions, ClusterResult,
    CommPolicy, CommStatsSnapshot, Framed, Payload, PendingExchange, WorkerCtx,
};
use dismastd_obs::MetricsSnapshot;
use dismastd_partition::{CellAssignment, GridPartition, Partitioner};
use dismastd_tensor::linalg::{Factorized, RowUpdate};
use dismastd_tensor::matrix::{dot, Matrix, RowSet};
use dismastd_tensor::{
    KruskalTensor, MttkrpPlan, NumericsReport, Result, RobustSolver, SolveDecision, SparseTensor,
    TensorError, ThreadPool,
};
use serde::{Deserialize, Serialize};
// lint:allow(determinism): Instant feeds wall-clock fields of StepReport only, never factor math
use std::time::{Duration, Instant};

/// Cluster-side configuration: worker count and partitioning strategy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ClusterConfig {
    /// Number of simulated worker nodes `M`.
    pub workers: usize,
    /// Tensor partitioning heuristic (GTP or MTP).
    pub partitioner: Partitioner,
    /// Partitions per mode `p_n`.  `None` uses the paper's empirical guide
    /// of one partition per node in every mode (Sec. V-B2).
    pub parts_per_mode: Option<Vec<usize>>,
    /// Cell→worker placement strategy (medium-grain block grid by default;
    /// `Scatter` trades locality for balance — an ablation knob).
    pub cell_assignment: CellAssignment,
    /// Collective-layer policy: the opt-in f32 row downcast (gated on the
    /// divergence watchdog) and the allreduce algorithm for the Gram
    /// reductions.  The default is seed-safe: with `downcast_f32` off the
    /// factors are bit-identical to the flat path.
    pub comm: CommPolicy,
}

// Hand-written so older checkpoints still restore: ones from before the
// collective-layer rework lack the `comm` field (it defaults), and ones up
// to PR 20 carry a `pooling` flag that no longer exists (it is not read).
impl Deserialize for ClusterConfig {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for `ClusterConfig`"))?;
        Ok(ClusterConfig {
            workers: Deserialize::from_value(serde::field(obj, "workers")?)?,
            partitioner: Deserialize::from_value(serde::field(obj, "partitioner")?)?,
            parts_per_mode: Deserialize::from_value(serde::field(obj, "parts_per_mode")?)?,
            cell_assignment: Deserialize::from_value(serde::field(obj, "cell_assignment")?)?,
            comm: match serde::field(obj, "comm") {
                Ok(nested) => Deserialize::from_value(nested)?,
                Err(_) => CommPolicy::default(),
            },
        })
    }
}

impl ClusterConfig {
    /// `workers` nodes with MTP partitioning and default partition counts.
    pub fn new(workers: usize) -> Self {
        ClusterConfig {
            workers,
            partitioner: Partitioner::Mtp,
            parts_per_mode: None,
            cell_assignment: CellAssignment::BlockGrid,
            comm: CommPolicy::default(),
        }
    }

    /// Selects the cell→worker placement strategy.
    pub fn with_cell_assignment(mut self, a: CellAssignment) -> Self {
        self.cell_assignment = a;
        self
    }

    /// Selects the collective-layer policy (downcast, allreduce
    /// algorithm).
    pub fn with_comm(mut self, comm: CommPolicy) -> Self {
        self.comm = comm;
        self
    }

    /// Selects the partitioner.
    pub fn with_partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Overrides the per-mode partition counts.
    pub fn with_parts_per_mode(mut self, parts: Vec<usize>) -> Self {
        self.parts_per_mode = Some(parts);
        self
    }

    pub(crate) fn resolved_parts(&self, order: usize) -> Vec<usize> {
        self.parts_per_mode
            .clone()
            .unwrap_or_else(|| vec![self.workers; order])
    }
}

/// Result of a distributed decomposition.
#[derive(Debug, Clone)]
pub struct DistOutput {
    /// The CP decomposition of the current snapshot.
    pub kruskal: KruskalTensor,
    /// ALS iterations executed.
    pub iterations: usize,
    /// Eq. 4 loss after each iteration.
    pub loss_trace: Vec<f64>,
    /// Network traffic of the iteration phase (bytes/messages/collectives).
    pub comm: CommStatsSnapshot,
    /// Bytes required to stage the data: tensor partitions plus the factor
    /// rows each worker caches (the `O(nnz + NIR + NdR)` of Theorem 4).
    pub setup_bytes: u64,
    /// Wall-clock of the whole call (partitioning + iterations + gather).
    pub elapsed: Duration,
    /// Wall-clock of the ALS iteration loop alone.
    pub iter_elapsed: Duration,
    /// Solver-tier escalations of the normal-equation solves.  Every rank
    /// takes each decision itself from the replicated Gram state; the run
    /// fails with a `ClusterFault` unless all of them ended with this tally.
    pub numerics: NumericsReport,
    /// Every rank's per-phase metrics merged into one snapshot, present
    /// when the *driver* thread had a metrics collection installed (see
    /// `dismastd_obs::begin`) when the call started.  Span totals therefore
    /// sum concurrent per-rank time and can exceed wall-clock; the
    /// `comm/msg_bytes` histogram reconciles exactly with [`Self::comm`].
    /// Driver-side preparation spans (partitioning, plan builds) land in
    /// the caller's own registry instead.
    pub metrics: Option<MetricsSnapshot>,
    /// Every rank's per-phase metrics, indexed by rank (empty when
    /// collection was off).
    pub worker_metrics: Vec<MetricsSnapshot>,
}

impl DistOutput {
    /// Average time per ALS iteration — the paper's reported metric.
    pub fn time_per_iter(&self) -> Duration {
        if self.iterations == 0 {
            Duration::ZERO
        } else {
            self.iter_elapsed / u32::try_from(self.iterations).unwrap_or(u32::MAX)
        }
    }
}

/// Step-local memo of the distributed placement: the per-worker plans
/// (one [`MttkrpPlan`] per grid cell, row ownership, routing tables)
/// of the step a [`crate::StreamingSession`] is currently ingesting, keyed
/// by the world size they were built for.
///
/// A step's cells repeat only *within* that step — when the divergence
/// watchdog re-runs the decomposition with a damped `μ`, or when the heal
/// ladder replays it in the same world — so that is all the memo covers:
/// the session resets it at the top of every `ingest`, and a replay in a
/// shrunk world rebuilds it.  Across steps nothing can be reused: every
/// DTD step decomposes a *new* complement `X \ X̃`, so no cell of one
/// step has the content of a cell of another.
///
/// `hits()` / `misses()` count cells reused / built over the session's
/// lifetime.
#[derive(Debug, Default)]
pub struct PlanCache {
    step: Option<StepPlans>,
    hits: u64,
    misses: u64,
}

/// The memoised placement of the current step.
#[derive(Debug)]
struct StepPlans {
    world: usize,
    plans: Vec<WorkerPlan>,
}

impl PlanCache {
    /// Cells served from the memo (watchdog retries and same-world heal
    /// replays) across the session's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cells that required a fresh layout build.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forgets the memoised step; the counters keep running.
    pub(crate) fn reset(&mut self) {
        self.step = None;
    }

    /// The per-worker plans for decomposing `tensor` on `cluster`: the
    /// memoised ones when they were built for this world size, otherwise
    /// partitioned and compiled now (Sec. IV-A) and memoised.
    fn plans_for(
        &mut self,
        tensor: &SparseTensor,
        cluster: &ClusterConfig,
    ) -> Result<&[WorkerPlan]> {
        let world = cluster.workers;
        let cell_count =
            |plans: &[WorkerPlan]| plans.iter().map(|p| p.cells.len() as u64).sum::<u64>();
        let step = match self.step.take().filter(|step| step.world == world) {
            // A watchdog retry or a same-world heal replay.
            Some(step) => {
                let cells = cell_count(&step.plans);
                self.hits += cells;
                if cells > 0 {
                    dismastd_obs::counter_add("plan/cache_hit", cells);
                }
                step
            }
            // The step's first attempt, or a replay in a degraded world.
            None => {
                let grid = {
                    let _s = dismastd_obs::span("phase/partition");
                    GridPartition::build_with(
                        tensor,
                        cluster.partitioner,
                        &cluster.resolved_parts(tensor.order()),
                        world,
                        cluster.cell_assignment,
                    )?
                };
                let plans = {
                    let _s = dismastd_obs::span("phase/plan_build");
                    build_plans(tensor, &grid, world)?
                };
                let cells = cell_count(&plans);
                self.misses += cells;
                if cells > 0 {
                    dismastd_obs::counter_add("plan/rebuild", cells);
                }
                StepPlans { world, plans }
            }
        };
        Ok(&self.step.insert(step).plans)
    }
}

/// Per-worker placement plan, precomputed once per snapshot.
#[derive(Debug)]
struct WorkerPlan {
    /// The sorted-run plans of this worker's non-empty grid cells, in
    /// ascending cell order — the order [`local_partials`] adds them in.
    cells: Vec<MttkrpPlan>,
    /// Nonzeros across this worker's cells.
    local_nnz: usize,
    /// Rows of each mode whose factor entries this worker owns and updates.
    owned_rows: Vec<Vec<u32>>,
    /// `partial_routes[n][d]`: mode-`n` rows this worker's nonzeros
    /// reference that worker `d` owns (partials flow here → `d`, updates
    /// flow back `d` → here).
    partial_routes: Vec<Vec<Vec<u32>>>,
    /// `serve_routes[n][d]`: mode-`n` rows worker `d` references that this
    /// worker owns (mirror of `d`'s `partial_routes[n][me]`).
    serve_routes: Vec<Vec<Vec<u32>>>,
}

/// Runs distributed DisMASTD: DTD over the complement tensor given the
/// previous snapshot's factors.
///
/// # Errors
/// Propagates configuration, partitioning, and numerical errors.
pub fn dismastd(
    complement: &SparseTensor,
    old_factors: &[Matrix],
    cfg: &DecompConfig,
    cluster: &ClusterConfig,
) -> Result<DistOutput> {
    run_distributed(
        complement,
        old_factors,
        cfg,
        cluster,
        &ClusterOptions::default(),
        &mut PlanCache::default(),
    )
}

/// Runs the DMS-MG baseline: distributed static CP-ALS over the full
/// tensor, re-computing from scratch (no history reuse).
///
/// # Errors
/// Propagates configuration, partitioning, and numerical errors.
pub fn dms_mg(
    full: &SparseTensor,
    cfg: &DecompConfig,
    cluster: &ClusterConfig,
) -> Result<DistOutput> {
    dismastd(full, &zero_history(full.order(), cfg.rank), cfg, cluster)
}

/// Maps a [`ClusterError`] onto [`TensorError::ClusterFault`], attributing
/// the fault to the rank the heal ladder should charge: the crashed worker,
/// the peer a timeout was waiting on, or the rank that contributed a
/// mis-sized collective buffer.  `TypeMismatch` is a protocol bug with no
/// sensible culprit, so it stays unattributed.
fn cluster_fault(e: ClusterError) -> TensorError {
    let rank = match &e {
        ClusterError::PeerCrashed { rank, .. } => Some(*rank),
        ClusterError::Timeout { src, .. } => Some(*src),
        ClusterError::SizeMismatch { rank, .. } => Some(*rank),
        ClusterError::TypeMismatch { .. } => None,
    };
    TensorError::ClusterFault {
        rank,
        detail: e.to_string(),
    }
}

/// The one distributed driver behind [`dismastd`], [`dms_mg`] and the
/// streaming session: explicit [`ClusterOptions`] (receive deadlines and,
/// for chaos testing, a deterministic fault plan) and the caller's
/// step-local plan memo.  A worker crash or timeout surfaces as
/// [`TensorError::ClusterFault`] rather than a hang.
pub(crate) fn run_distributed(
    tensor: &SparseTensor,
    old_factors: &[Matrix],
    cfg: &DecompConfig,
    cluster: &ClusterConfig,
    opts: &ClusterOptions,
    memo: &mut PlanCache,
) -> Result<DistOutput> {
    cfg.validate().map_err(TensorError::InvalidArgument)?;
    if cluster.workers == 0 {
        return Err(TensorError::InvalidArgument(
            "cluster needs at least one worker".into(),
        ));
    }
    if cluster.comm.downcast_f32 && !cfg.numerics.allows_lossy_comm() {
        return Err(TensorError::InvalidArgument(
            "comm.downcast_f32 is lossy and requires the divergence watchdog \
             (numerics.watchdog.enabled) so a destabilised step can be rolled back"
                .into(),
        ));
    }
    check_row_ids(tensor.shape())?;
    // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
    let start = Instant::now();
    let order = tensor.order();
    let rank = cfg.rank;
    let old_rows: Vec<usize> = old_factors.iter().map(Matrix::rows).collect();

    // ---- Data partitioning (Sec. IV-A) ----------------------------------
    let plans = memo.plans_for(tensor, cluster)?;

    // Shared read-only inputs.
    let init = init_factors(old_factors, tensor.shape(), rank, cfg.seed)?;
    let old_norm_sq = old_norm_sq(old_factors)?;

    // ---- Distributed tensor decomposition (Sec. IV-B) -------------------
    let inputs = WorkerInputs {
        plans,
        init: &init,
        old: old_factors,
        old_rows: &old_rows,
        cfg,
        old_norm_sq,
        tensor_norm_sq: tensor.norm_sq(),
        comm: cluster.comm,
        // Worker threads have their own thread-local metric registries, so
        // each rank decides up front — from the driver's state — whether to
        // collect.
        collect: dismastd_obs::installed(),
    };
    let (mut results, comm) =
        Cluster::try_run_with_opts(cluster.workers, opts, |ctx| worker_body(ctx, &inputs))
            .map_err(cluster_fault)?;

    // Harvest every rank's metrics (in rank order) before consuming rank 0;
    // a rank that failed simply contributes nothing.
    let worker_metrics: Vec<MetricsSnapshot> = results
        .iter()
        .filter_map(|res| res.as_ref().ok())
        .filter_map(|wr| wr.metrics.clone())
        .collect();
    let metrics = if worker_metrics.is_empty() {
        None
    } else {
        let mut merged = MetricsSnapshot::default();
        for wm in &worker_metrics {
            merged.merge(wm);
        }
        Some(merged)
    };

    let WorkerResult {
        loss_trace,
        iterations,
        factors,
        iter_elapsed,
        decisions,
        metrics: _,
    } = results.remove(0)?;
    // Every rank decided for itself; a rank that decided differently has
    // applied a different regularisation, so the run cannot be trusted.
    if let Some(rank) = first_dissenter(&decisions, &results) {
        return Err(TensorError::ClusterFault {
            rank: Some(rank),
            detail: format!("rank {rank} disagrees with rank 0 on the run's solver decisions"),
        });
    }
    let factors = factors.ok_or_else(|| {
        TensorError::InvalidArgument("rank 0 did not assemble the final factors".into())
    })?;

    Ok(DistOutput {
        kruskal: KruskalTensor::new(factors)?,
        iterations,
        loss_trace,
        comm,
        setup_bytes: setup_bytes(plans, order, rank),
        elapsed: start.elapsed(),
        iter_elapsed,
        numerics: decisions.numerics,
        metrics,
        worker_metrics,
    })
}

/// Everything a rank reads but never writes: the step's placement, the
/// initial and previous factors, and the run's configuration.  Borrowed
/// from the driver's stack — the cluster runs on scoped threads.
struct WorkerInputs<'a> {
    plans: &'a [WorkerPlan],
    init: &'a [Matrix],
    old: &'a [Matrix],
    old_rows: &'a [usize],
    cfg: &'a DecompConfig,
    old_norm_sq: f64,
    tensor_norm_sq: f64,
    comm: CommPolicy,
    collect: bool,
}

struct WorkerResult {
    loss_trace: Vec<f64>,
    iterations: usize,
    /// `Some` on rank 0 only: the gathered final factors.
    factors: Option<Vec<Matrix>>,
    iter_elapsed: Duration,
    /// The solver decisions this rank took.
    decisions: DecisionRecord,
    /// This rank's per-phase metrics, when collection was requested.
    metrics: Option<MetricsSnapshot>,
}

/// Converts a fallible tensor-numerics expression into worker control flow:
/// the error is carried in the worker's *payload* (`Ok(Err(..))`), so the
/// cluster run itself completes and rank 0's typed error is surfaced.
macro_rules! try_num {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => return Ok(Err(err.into())),
        }
    };
}

/// What a rank concluded about the run's solver decisions: its tally of
/// them and a digest of their exact bits.  Decisions are pure functions of
/// the replicated Gram state, so every rank must end with the same value;
/// the driver checks that after the run (see [`first_dissenter`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct DecisionRecord {
    numerics: NumericsReport,
    /// FNV-1a fold of every decision's tier, `λ` bits and condition-estimate
    /// bits, in decision order.
    digest: u64,
}

impl DecisionRecord {
    fn record(&mut self, decision: &SolveDecision) {
        self.numerics.record(decision);
        for word in [
            decision.tier as u64,
            decision.lambda.to_bits(),
            decision.cond_est.to_bits(),
        ] {
            self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The first rank that did not finish with rank 0's [`DecisionRecord`] —
/// its record differs, or it failed where rank 0 did not.
fn first_dissenter(lead: &DecisionRecord, peers: &[Result<WorkerResult>]) -> Option<usize> {
    peers
        .iter()
        .position(|peer| !matches!(peer, Ok(wr) if wr.decisions == *lead))
        .map(|at| at + 1)
}

/// Per-worker scratch space for the Gram rebuild: the three `R×R`
/// partial-product matrices plus the fused all-reduce staging buffer.
/// Allocated once per worker and overwritten each mode, so the
/// steady-state Gram path performs no allocation at all.
struct GramWorkspace {
    g0: Matrix,
    g1: Matrix,
    cr: Matrix,
    buf: Vec<f64>,
}

impl GramWorkspace {
    /// Sized for the largest buffer a run stages: every mode's partials at
    /// set-up, or one mode's plus the loss slot.
    fn new(order: usize, r: usize) -> Self {
        GramWorkspace {
            g0: Matrix::zeros(r, r),
            g1: Matrix::zeros(r, r),
            cr: Matrix::zeros(r, r),
            buf: Vec::with_capacity(3 * r * r * order + 1),
        }
    }

    /// The three partial-product targets, in [`mode_grams`]' order.
    fn targets(&mut self) -> [&mut Matrix; 3] {
        [&mut self.g0, &mut self.g1, &mut self.cr]
    }

    /// Appends the three partials (`3R²` values) to the staging buffer.
    fn stage(&mut self) {
        for m in [&self.g0, &self.g1, &self.cr] {
            self.buf.extend_from_slice(m.as_slice());
        }
    }
}

/// A posted-but-uncompleted refresh exchange: mode `n`'s updated factor
/// rows are in flight while the next mode's MTTKRP runs.  The fence at the
/// top of the next mode (or the post-loop drain) completes it and writes
/// the rows before anything reads `factors[mode]` remotely-owned entries.
struct PendingRefresh {
    mode: usize,
    pending: PendingExchange,
}

fn worker_body(
    ctx: &mut WorkerCtx,
    inputs: &WorkerInputs<'_>,
) -> ClusterResult<std::result::Result<WorkerResult, TensorError>> {
    let &WorkerInputs {
        plans,
        init,
        old,
        old_rows,
        cfg,
        old_norm_sq,
        tensor_norm_sq,
        comm,
        collect,
    } = inputs;
    // Per-thread collector: on any early-return path (cluster fault or a
    // `try_num!` payload error) the guard's Drop discards the partial
    // registry, so a failed rank never reports half-measured phases.
    let collector = collect.then(dismastd_obs::begin);
    let me = ctx.rank();
    let world = ctx.world();
    let plan = &plans[me];
    let order = init.len();
    let r = cfg.rank;
    let mu = cfg.forgetting;
    let solver = RobustSolver::new(cfg.numerics.solver);
    let mut decisions = DecisionRecord::default();

    // Replicated factor copies; only owned ∪ referenced rows stay fresh.
    let mut factors: Vec<Matrix> = init.to_vec();

    // Reusable scratch: Gram partials + all-reduce staging, and the
    // message-payload pool for the two row exchanges.
    let mut ws = GramWorkspace::new(order, r);
    let mut pool = BufferPool::new(true);
    // Persistent exchange tables: refilled in place every post/complete,
    // so the steady-state loop never reallocates them.
    let mut outgoing_frames: Vec<Framed> = Vec::with_capacity(world);
    let mut incoming_payloads: Vec<Payload> = Vec::with_capacity(world);
    // Intra-worker kernel pool: the machine budget split across the
    // co-resident ranks.  Thread count never changes factor bits (the
    // pooled kernels are bitwise identical to serial), so the replicated
    // state stays in sync whatever each rank resolves to.
    let kernel_pool = ThreadPool::new(cfg.threads.resolve_for_world(world));

    // Replicated RxR state, rebuilt by all-reduce from owned-row partials so
    // every worker agrees bit-for-bit.
    let mut state = GramState::zeros(order, r);
    // The two Eq. 5 factorisations of a mode, rebuilt in place.
    let mut facts = [Factorized::default(), Factorized::default()];
    // Owned rows ascend, so a mode's old-row block (Eq. 5's A^(0) rule) is
    // a prefix of its list and the new-row block (the A^(1) rule) the rest.
    let owned: Vec<[RowSet<'_>; 2]> = (0..order)
        .map(|n| {
            let rows = &plan.owned_rows[n];
            let split = rows.partition_point(|&i| (i as usize) < old_rows[n]);
            [RowSet::List(&rows[..split]), RowSet::List(&rows[split..])]
        })
        .collect();
    {
        let _s = dismastd_obs::span("phase/setup");
        ws.buf.clear();
        for n in 0..order {
            try_num!(mode_grams(&factors[n], &old[n], &owned[n], ws.targets()));
            ws.stage();
        }
        allreduce_grams(ctx, &mut ws, &mut state, 0, comm)?;
    }

    let mut loss_trace: Vec<f64> = Vec::with_capacity(cfg.max_iters);
    let mut iterations = 0;
    // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
    let iter_start = Instant::now();
    let mut hat = vec![Matrix::zeros(0, 0); order];
    for n in 0..order {
        hat[n] = Matrix::zeros(factors[n].rows(), r);
    }

    // The refresh exchange posted by the previous mode, completed lazily at
    // the top of the next mode (mode-pipelined overlap: the send is on the
    // wire while this mode's MTTKRP runs).
    let mut pending_refresh: Option<PendingRefresh> = None;

    for iter in 0..cfg.max_iters {
        let mut inner = 0.0;
        for n in 0..order {
            // -- fence: land the previous mode's refreshed rows ------------
            // MTTKRP below reads every factor, so the in-flight rows of the
            // previously updated mode must be written before the kernels run.
            if let Some(pr) = pending_refresh.take() {
                complete_refresh(
                    ctx,
                    pr,
                    plan,
                    &mut factors,
                    r,
                    &mut pool,
                    &mut incoming_payloads,
                )?;
            }

            // -- decide: both Eq. 5 factorisations, on every rank -----------
            // `prepare_mode` reads only the Gram products of modes `k ≠ n`,
            // final since the fence and bit-identical on every rank, and the
            // decision is a pure function of them: all ranks accept the same
            // tier and shift with nothing exchanged.  A block is decided iff
            // it has rows *globally* — `d0` when the mode has old rows, `d1`
            // when it has new ones, as the serial solver does — not iff this
            // rank owns some, so every rank walks the same ladder and a
            // numeric failure stops all of them here, where no rank has a
            // send in flight to a peer that has already returned.
            {
                let _s = dismastd_obs::span("phase/solve");
                try_num!(state.prepare_mode(n, mu));
                let old_n = old_rows[n];
                let blocks = [
                    (&state.d0, old_n > 0),
                    (&state.d1, factors[n].rows() > old_n),
                ];
                for ((d, has_rows), fact) in blocks.into_iter().zip(&mut facts) {
                    if has_rows {
                        decisions.record(&try_num!(solver.decide(d, fact)));
                    }
                }
            }

            // -- 1. local MTTKRP partials over this worker's nonzeros -----
            {
                let _s = dismastd_obs::span("phase/mttkrp");
                try_num!(local_partials(
                    &plan.cells,
                    &factors,
                    n,
                    &mut hat[n],
                    &kernel_pool
                ));
            }

            // -- route partials to row owners ------------------------------
            {
                let _s = dismastd_obs::span("phase/exchange");
                outgoing_frames.clear();
                for d in 0..world {
                    outgoing_frames.push(if d == me {
                        Framed::plain(Payload::Empty)
                    } else {
                        encode_outgoing(&hat[n], &plan.partial_routes[n][d], &comm, &mut pool)
                    });
                }
                let pending_partials = ctx.post_exchange(&mut outgoing_frames)?;
                ctx.complete_exchange(pending_partials, &mut incoming_payloads)?;
                for (d, payload) in incoming_payloads.drain(..).enumerate() {
                    if d == me {
                        continue;
                    }
                    let data = decode_rows(payload, d, &plan.serve_routes[n][d], r, &mut pool)?;
                    add_rows(&mut hat[n], &plan.serve_routes[n][d], &data);
                    pool.put(data);
                }
            }

            // -- 2. owners update their rows (Eq. 5, row-wise) -------------
            // Old block: (μ Ã_n[i,:] (⊛ G̃) + Â[i,:]) ·D0⁻¹; new block: Â[i,:] ·D1⁻¹.
            // Owned rows of a block imply the block was decided above.
            {
                let _s = dismastd_obs::span("phase/solve");
                let history = Some((mu, &old[n], &state.cross_had));
                for (fact, rows, history) in [
                    (&facts[0], &owned[n][0], history),
                    (&facts[1], &owned[n][1], None),
                ] {
                    if rows.is_empty() {
                        continue;
                    }
                    let job = RowUpdate {
                        rhs: &hat[n],
                        history,
                        rows: rows.clone(),
                    };
                    try_num!(fact.solve_rows(&job, &mut factors[n]));
                }
            }

            // -- ship refreshed rows back to referencing workers ------------
            // Post only: the Gram rebuild and (on the final mode) the loss
            // inner product read exclusively owned rows, which are already
            // fresh locally, so the exchange stays in flight until the next
            // mode's fence.  The last mode of the last *scheduled* iteration
            // has no next mode: the gather packs owned rows only, so nothing
            // would read those rows and nothing is sent.  A run that stops
            // early on the tolerance learns so only after this post, so it
            // still posts and drains below.
            debug_assert!(pending_refresh.is_none());
            let unread = iter + 1 == cfg.max_iters && n == order - 1;
            pending_refresh = if unread {
                None
            } else {
                let _s = dismastd_obs::span("phase/exchange");
                outgoing_frames.clear();
                for d in 0..world {
                    outgoing_frames.push(if d == me {
                        Framed::plain(Payload::Empty)
                    } else {
                        encode_outgoing(&factors[n], &plan.serve_routes[n][d], &comm, &mut pool)
                    });
                }
                Some(PendingRefresh {
                    mode: n,
                    pending: ctx.post_exchange(&mut outgoing_frames)?,
                })
            };

            // -- loss reuse: data inner product from the final mode --------
            // This rank's share of `⟨X \ X̃, Y⟩`: its owned rows of the
            // mode's MTTKRP against their fresh factor rows (Eq. 7).
            let inner_partial: Option<f64> = (n == order - 1).then(|| {
                let _s = dismastd_obs::span("phase/loss");
                plan.owned_rows[n]
                    .iter()
                    .map(|&row| {
                        let row = row as usize;
                        dot(hat[n].row(row), factors[n].row(row))
                    })
                    .sum()
            });

            // -- 3. rebuild the RxR products by all-reduce ------------------
            // The loss share rides as one slot after the mode's `3R²`.
            {
                let _s = dismastd_obs::span("phase/gram");
                try_num!(mode_grams(&factors[n], &old[n], &owned[n], ws.targets()));
                ws.buf.clear();
                ws.stage();
                ws.buf.extend(inner_partial);
                if let [total] = allreduce_grams(ctx, &mut ws, &mut state, n, comm)? {
                    inner = *total;
                }
            }
        }
        iterations += 1;
        let loss = {
            let _s = dismastd_obs::span("phase/loss");
            try_num!(dtd_loss(
                &state,
                &LossParts {
                    mu,
                    old_norm_sq,
                    complement_norm_sq: tensor_norm_sq,
                    inner,
                },
            ))
        };
        loss_trace.push(loss);
        if converged(&loss_trace, cfg.tolerance) {
            break;
        }
    }
    // Drain the refresh an early convergence break leaves posted (the
    // scheduled end posts none) so every sent row is received before the
    // gather.
    if let Some(pr) = pending_refresh.take() {
        complete_refresh(
            ctx,
            pr,
            plan,
            &mut factors,
            r,
            &mut pool,
            &mut incoming_payloads,
        )?;
    }
    let iter_elapsed = iter_start.elapsed();

    // Every rank took the same decisions, so only rank 0 emits the tier
    // counters — the merged snapshot then matches the serial counter
    // surface (label 0/1/2 = cholesky/lu/ridge).
    if me == 0 {
        let numerics = &decisions.numerics;
        if numerics.cholesky_solves > 0 {
            dismastd_obs::counter_add_with("solve/tier", 0, numerics.cholesky_solves);
        }
        if numerics.lu_solves > 0 {
            dismastd_obs::counter_add_with("solve/tier", 1, numerics.lu_solves);
        }
        if numerics.ridge_solves > 0 {
            dismastd_obs::counter_add_with("solve/tier", 2, numerics.ridge_solves);
        }
    }

    // ---- gather the owned rows of every factor to rank 0 ----------------
    let factors_out = {
        let _s = dismastd_obs::span("phase/gather");
        gather_factors(ctx, plans, &factors, init)?
    };

    Ok(Ok(WorkerResult {
        loss_trace,
        iterations,
        factors: factors_out,
        iter_elapsed,
        decisions,
        metrics: collector.map(dismastd_obs::Collector::finish),
    }))
}

/// A worker's mode-`n` MTTKRP partials (Sec. IV-B1): `hat` is zeroed, then
/// every cell adds one run total per row it touches, cells in ascending
/// cell order and a cell's entries in stored order within the total —
/// `hat[i] = ((0 + T₁) + T₂) + …`.  That order is part of the numerics: it
/// is what "bit-identical per (grid, world)" holds a run to.  So is the
/// grid's row ownership: a row's owner starts from its own partial and adds
/// its peers' in ascending rank order, and a Gram partial covers the rows a
/// rank owns.
fn local_partials(
    cells: &[MttkrpPlan],
    factors: &[Matrix],
    n: usize,
    hat: &mut Matrix,
    pool: &ThreadPool,
) -> Result<()> {
    hat.fill_zero();
    for cell in cells {
        cell.mttkrp_into_pooled(factors, n, hat, pool)?;
    }
    Ok(())
}

/// Packs the listed rows of `m` into an exchange payload, compressing the
/// frame when the policy's encoder beats the flat `f64` representation
/// (see `dismastd_cluster::maybe_compress`).  The compressed path returns
/// the staging buffer to the pool immediately; the flat path ships it.
fn encode_outgoing(m: &Matrix, rows: &[u32], policy: &CommPolicy, pool: &mut BufferPool) -> Framed {
    let values = pack_rows(m, rows, pool);
    match maybe_compress(rows, &values, policy) {
        Some((frame, meta)) => {
            pool.put(values);
            Framed::compressed(Payload::Bytes(frame), meta)
        }
        None => Framed::plain(Payload::F64(values)),
    }
}

/// Completes a posted refresh exchange: receives every peer's refreshed
/// mode-`pr.mode` rows and writes them into the replicated factor copy.
fn complete_refresh(
    ctx: &mut WorkerCtx,
    pr: PendingRefresh,
    plan: &WorkerPlan,
    factors: &mut [Matrix],
    r: usize,
    pool: &mut BufferPool,
    incoming: &mut Vec<Payload>,
) -> ClusterResult<()> {
    let _s = dismastd_obs::span("phase/exchange");
    let me = ctx.rank();
    let n = pr.mode;
    ctx.complete_exchange(pr.pending, incoming)?;
    for (d, payload) in incoming.drain(..).enumerate() {
        if d == me {
            continue;
        }
        let data = decode_rows(payload, d, &plan.partial_routes[n][d], r, pool)?;
        write_rows(&mut factors[n], &plan.partial_routes[n][d], &data);
        pool.put(data);
    }
    Ok(())
}

/// Packs the listed rows of `m` into one contiguous buffer drawn from the
/// worker's pool (an empty `Vec` when the pool is dry).
fn pack_rows(m: &Matrix, rows: &[u32], pool: &mut BufferPool) -> Vec<f64> {
    let r = m.cols();
    let mut out = pool.take();
    out.reserve(rows.len() * r);
    for &row in rows {
        out.extend_from_slice(m.row(row as usize));
    }
    out
}

/// Adds packed rows into `m` at the listed positions.
fn add_rows(m: &mut Matrix, rows: &[u32], data: &[f64]) {
    let r = m.cols();
    debug_assert_eq!(data.len(), rows.len() * r);
    for (i, &row) in rows.iter().enumerate() {
        let dst = m.row_mut(row as usize);
        for (d, &s) in dst.iter_mut().zip(&data[i * r..(i + 1) * r]) {
            *d += s;
        }
    }
}

/// Overwrites rows of `m` at the listed positions with packed data.
fn write_rows(m: &mut Matrix, rows: &[u32], data: &[f64]) {
    let r = m.cols();
    debug_assert_eq!(data.len(), rows.len() * r);
    for (i, &row) in rows.iter().enumerate() {
        m.row_mut(row as usize)
            .copy_from_slice(&data[i * r..(i + 1) * r]);
    }
}

/// All-reduces the staging buffer in one collective — the staged partials
/// of modes `first..` (`3R²` values each, the `O(MNR²)` term of Theorem 4)
/// and whatever scalar slots follow them — and writes the reduced products
/// straight into those modes' slots of the replicated Gram state; the
/// reduced trailing slots are returned.  The flat and the
/// ring all-reduce both fold every element in ascending rank order, so a
/// value's bits do not depend on which buffer it rode in, on its position
/// there, or on which of the two `Auto` resolved to: batching the set-up
/// Grams and carrying the loss partial here moves no factor and no
/// `loss_trace` bit.  The staging buffer's capacity is reused across calls.
fn allreduce_grams<'ws>(
    ctx: &mut WorkerCtx,
    ws: &'ws mut GramWorkspace,
    state: &mut GramState,
    first: usize,
    comm: CommPolicy,
) -> ClusterResult<&'ws [f64]> {
    let r = ws.g0.rows();
    let rr = r * r;
    ctx.try_allreduce_sum_with(&mut ws.buf, comm.allreduce)?;
    // `R ≥ 1` (`DecompConfig::validate`), so the chunk width is not zero.
    let modes = ws.buf.chunks_exact(3 * rr);
    let tail = modes.remainder();
    for (k, reduced) in modes.enumerate() {
        let n = first + k;
        state.gram0[n]
            .as_mut_slice()
            .copy_from_slice(&reduced[0..rr]);
        state.gram1[n]
            .as_mut_slice()
            .copy_from_slice(&reduced[rr..2 * rr]);
        state.cross[n]
            .as_mut_slice()
            .copy_from_slice(&reduced[2 * rr..]);
        state.retotal(n);
    }
    Ok(tail)
}

/// Gathers every worker's owned rows to rank 0 and assembles the final
/// factor matrices there.
fn gather_factors(
    ctx: &mut WorkerCtx,
    plans: &[WorkerPlan],
    factors: &[Matrix],
    init: &[Matrix],
) -> ClusterResult<Option<Vec<Matrix>>> {
    let me = ctx.rank();
    let order = factors.len();
    // One payload: all owned rows of all modes, concatenated.  One-shot
    // per decomposition, so no pooling here.
    let mut packed = Vec::new();
    for (n, f) in factors.iter().enumerate() {
        for &row in &plans[me].owned_rows[n] {
            packed.extend_from_slice(f.row(row as usize));
        }
    }
    let gathered = match ctx.try_gather(0, Payload::F64(packed))? {
        Some(g) => g,
        None => return Ok(None), // non-root ranks
    };
    let mut out: Vec<Matrix> = (0..order)
        .map(|n| Matrix::zeros(init[n].rows(), init[n].cols()))
        .collect();
    for (src, payload) in gathered.into_iter().enumerate() {
        let data = payload.try_into_f64()?;
        let mut offset = 0usize;
        for (n, f) in out.iter_mut().enumerate() {
            let rows = &plans[src].owned_rows[n];
            let len = rows.len() * f.cols();
            write_rows(f, rows, &data[offset..offset + len]);
            offset += len;
        }
    }
    Ok(Some(out))
}

/// Splits the tensor over workers and grid cells, builds one
/// [`MttkrpPlan`] per non-empty cell, and derives row ownership and the
/// partial/update routing tables.
fn build_plans(
    tensor: &SparseTensor,
    grid: &GridPartition,
    world: usize,
) -> Result<Vec<WorkerPlan>> {
    let order = tensor.order();
    // Per-worker, per-mode referenced-row sets.
    let mut needed: Vec<Vec<Vec<bool>>> = (0..world)
        .map(|_| tensor.shape().iter().map(|&s| vec![false; s]).collect())
        .collect();
    // Per-cell nonzeros: each non-empty cell becomes its own sub-tensor,
    // in ascending cell order.  The row marking rides the routing pass.
    let cells = tensor.partition_by(|idx| {
        for (marks, &i) in needed[grid.worker_of(idx)].iter_mut().zip(idx) {
            marks[i as usize] = true;
        }
        grid.cell_of(idx)
    });

    // Lay out every populated cell, on this thread: a fine grid's cells
    // are far too small to pay for a pool dispatch each (`fig6`, 38³
    // cells: 35 s with one, 26 s without).
    let mut cells_by_worker: Vec<Vec<MttkrpPlan>> = (0..world).map(|_| Vec::new()).collect();
    let mut local_nnz = vec![0usize; world];
    for (_, sub) in cells {
        let w = grid.worker_of(sub.index(0));
        local_nnz[w] += sub.nnz();
        cells_by_worker[w].push(MttkrpPlan::build(&sub)?);
    }

    // Row ownership: every row of every mode has exactly one owner.
    let mut owned_rows: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); order]; world];
    let mut owner_of: Vec<Vec<u32>> = Vec::with_capacity(order);
    for n in 0..order {
        let mut owners = Vec::with_capacity(tensor.shape()[n]);
        for row in 0..tensor.shape()[n] {
            let w = grid.row_owner(n, row);
            // lint:allow(narrowing_cast): a worker id — `w < world`, one OS thread each
            owners.push(w as u32);
            // lint:allow(narrowing_cast): `row < shape[n]`, which `run_distributed` bounded by u32
            owned_rows[w][n].push(row as u32);
        }
        owner_of.push(owners);
    }

    // Routing tables.
    let mut plans = Vec::with_capacity(world);
    let mut partial_routes_all: Vec<Vec<Vec<Vec<u32>>>> =
        vec![vec![vec![Vec::new(); world]; order]; world];
    for (w, worker_needed) in needed.iter().enumerate() {
        for n in 0..order {
            for (row, &is_needed) in worker_needed[n].iter().enumerate() {
                if !is_needed {
                    continue;
                }
                let owner = owner_of[n][row] as usize;
                if owner != w {
                    // lint:allow(narrowing_cast): `row < shape[n]`, which `run_distributed` bounded by u32
                    partial_routes_all[w][n][owner].push(row as u32);
                }
            }
        }
    }
    // Materialise all serve routes before consuming the partial routes —
    // worker w serves exactly what each peer d routes to w.
    let serve_routes_all: Vec<Vec<Vec<Vec<u32>>>> = (0..world)
        .map(|w| {
            (0..order)
                .map(|n| {
                    (0..world)
                        .map(|d| partial_routes_all[d][n][w].clone())
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut serve_routes_all = serve_routes_all;
    for (w, cells) in cells_by_worker.into_iter().enumerate() {
        let serve_routes = std::mem::take(&mut serve_routes_all[w]);
        plans.push(WorkerPlan {
            cells,
            local_nnz: local_nnz[w],
            owned_rows: std::mem::take(&mut owned_rows[w]),
            partial_routes: std::mem::take(&mut partial_routes_all[w]),
            serve_routes,
        });
    }
    Ok(plans)
}

/// Bytes needed to stage the computation (Theorem 4's data-distribution
/// terms): each worker's tensor partition in coordinate format plus every
/// factor row it references or owns.
fn setup_bytes(plans: &[WorkerPlan], order: usize, rank: usize) -> u64 {
    let mut total = 0u64;
    for plan in plans {
        // Coordinate format: N 4-byte indices + one 8-byte value per nonzero.
        total += plan.local_nnz as u64 * (4 * order as u64 + 8);
        for n in 0..order {
            let mut rows = plan.owned_rows[n].len() as u64;
            for d in 0..plans.len() {
                rows += plan.partial_routes[n][d].len() as u64;
            }
            total += rows * rank as u64 * 8;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::cp_als;
    use crate::dtd::dtd;
    use dismastd_cluster::AllreduceAlgo;
    use dismastd_tensor::SparseTensorBuilder;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
        }
        b.build().unwrap()
    }

    fn random_complement(
        old_shape: &[usize],
        new_shape: &[usize],
        nnz: usize,
        seed: u64,
    ) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = SparseTensorBuilder::new(new_shape.to_vec());
        let mut placed = 0;
        while placed < nnz {
            let idx: Vec<usize> = new_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            if idx.iter().zip(old_shape).all(|(i, old)| i < old) {
                continue;
            }
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
            placed += 1;
        }
        b.build().unwrap()
    }

    fn cfg() -> DecompConfig {
        DecompConfig::default()
            .with_rank(3)
            .with_max_iters(6)
            .with_seed(5)
    }

    #[test]
    fn single_worker_matches_serial_exactly_in_loss() {
        let old_shape = [4usize, 4, 3];
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            old_shape
                .iter()
                .map(|&s| Matrix::random(s, 3, &mut rng))
                .collect()
        };
        let x = random_complement(&old_shape, &[6, 6, 5], 50, 2);
        let serial = dtd(&x, &old, &cfg()).unwrap();
        let dist = dismastd(&x, &old, &cfg(), &ClusterConfig::new(1)).unwrap();
        assert_eq!(serial.loss_trace.len(), dist.loss_trace.len());
        for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
        // One worker ⇒ zero network bytes.
        assert_eq!(dist.comm.bytes, 0);
    }

    #[test]
    fn multi_worker_matches_serial_within_fp_tolerance() {
        let old_shape = [4usize, 5, 3];
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            old_shape
                .iter()
                .map(|&s| Matrix::random(s, 3, &mut rng))
                .collect()
        };
        let x = random_complement(&old_shape, &[8, 8, 6], 120, 4);
        let serial = dtd(&x, &old, &cfg()).unwrap();
        for workers in [2usize, 3, 4] {
            for p in [Partitioner::Gtp, Partitioner::Mtp] {
                let dist = dismastd(
                    &x,
                    &old,
                    &cfg(),
                    &ClusterConfig::new(workers).with_partitioner(p),
                )
                .unwrap();
                for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
                    assert!(
                        (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                        "workers={workers} {p:?}: {a} vs {b}"
                    );
                }
                // Factors agree too (same fixed point trajectory).
                for (fs, fd) in serial.kruskal.factors().iter().zip(dist.kruskal.factors()) {
                    assert!(fs.max_abs_diff(fd).unwrap() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn dms_mg_matches_serial_als() {
        let x = random_tensor(&[7, 6, 5], 80, 6);
        let serial = cp_als(&x, &cfg()).unwrap();
        let dist = dms_mg(&x, &cfg(), &ClusterConfig::new(3)).unwrap();
        for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn multi_worker_communicates_single_does_not() {
        let x = random_tensor(&[8, 8, 8], 100, 7);
        let one = dms_mg(&x, &cfg(), &ClusterConfig::new(1)).unwrap();
        let four = dms_mg(&x, &cfg(), &ClusterConfig::new(4)).unwrap();
        assert_eq!(one.comm.bytes, 0);
        assert!(four.comm.bytes > 0);
        assert!(four.comm.collectives > 0);
        assert!(four.setup_bytes >= one.setup_bytes);
        // One worker owns every row and routes none, so Theorem 4's staging
        // term is the coordinate-format tensor (N 4-byte indices + an 8-byte
        // value per nonzero) plus one R-wide f64 row per factor row.
        let rows = 8 + 8 + 8;
        assert_eq!(
            one.setup_bytes,
            x.nnz() as u64 * (4 * 3 + 8) + rows * cfg().rank as u64 * 8
        );
    }

    #[test]
    fn a_mode_the_u32_row_tables_cannot_number_is_refused_up_front() {
        // Shape-only: nothing may be sized by the dimension before the
        // guard (`build_plans` alone would want 4 Gi row marks per worker).
        let huge = u32::MAX as usize + 1;
        let t = SparseTensor::empty(vec![2, huge, 2]).unwrap();
        match dms_mg(&t, &cfg(), &ClusterConfig::new(2)) {
            Err(TensorError::PlanOverflow { what, value }) => {
                assert_eq!(what, "shape dimension");
                assert_eq!(value, huge as u64);
            }
            other => panic!(
                "expected PlanOverflow, got {:?}",
                other.map(|o| o.iterations)
            ),
        }
    }

    #[test]
    fn loss_monotone_distributed() {
        let old_shape = [3usize, 3, 3];
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            old_shape
                .iter()
                .map(|&s| Matrix::random(s, 2, &mut rng))
                .collect()
        };
        let x = random_complement(&old_shape, &[6, 6, 6], 70, 9);
        let out = dismastd(
            &x,
            &old,
            &DecompConfig::default().with_rank(2).with_max_iters(10),
            &ClusterConfig::new(3),
        )
        .unwrap();
        for w in out.loss_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()),
                "{:?}",
                out.loss_trace
            );
        }
    }

    #[test]
    fn parts_per_mode_override_works() {
        let x = random_tensor(&[10, 10, 10], 150, 10);
        let out = dms_mg(
            &x,
            &cfg(),
            &ClusterConfig::new(2).with_parts_per_mode(vec![5, 5, 5]),
        )
        .unwrap();
        assert_eq!(out.iterations, 6);
        assert!(out.loss_trace.last().unwrap().is_finite());
    }

    #[test]
    fn rejects_zero_workers() {
        let x = random_tensor(&[4, 4], 10, 11);
        assert!(dms_mg(
            &x,
            &cfg(),
            &ClusterConfig {
                workers: 0,
                partitioner: Partitioner::Mtp,
                parts_per_mode: None,
                cell_assignment: CellAssignment::BlockGrid,
                comm: CommPolicy::default(),
            }
        )
        .is_err());
    }

    #[test]
    fn ring_allreduce_policy_is_bit_identical_to_flat() {
        // The ring rebuilds the Gram sums in the same per-element order as
        // the flat gather+broadcast, so switching the algorithm must not
        // move a single bit of the trajectory.  Logical traffic is also
        // identical — only message/collective counts differ.
        let x = random_tensor(&[8, 8, 6], 120, 21);
        let flat = dms_mg(
            &x,
            &cfg(),
            &ClusterConfig::new(4).with_comm(CommPolicy::flat()),
        )
        .unwrap();
        let ring = dms_mg(
            &x,
            &cfg(),
            &ClusterConfig::new(4)
                .with_comm(CommPolicy::default().with_allreduce(AllreduceAlgo::Ring)),
        )
        .unwrap();
        assert_eq!(flat.loss_trace, ring.loss_trace);
        for (a, b) in flat.kruskal.factors().iter().zip(ring.kruskal.factors()) {
            assert_eq!(a.max_abs_diff(b).unwrap(), 0.0);
        }
        assert_eq!(flat.comm.bytes, ring.comm.bytes);
        // Downcast is off, so no frame can beat flat f64: the wire is the
        // logical traffic on both sides.
        assert_eq!(flat.comm.compressed_bytes, 0);
        assert_eq!(ring.comm.compressed_bytes, 0);
        assert!(flat.comm.reconciles() && ring.comm.reconciles());
    }

    #[test]
    fn collectives_per_run_match_the_closed_form() {
        // set-up + iterations · order · per mode-iteration − the unread
        // final refresh + gather, where a mode-iteration is two exchanges
        // and one all-reduce, set-up is one all-reduce, and an all-reduce is
        // two collectives flat (gather + broadcast), one as a ring and none
        // in a world of one.  A collective added to `worker_body` shows up
        // here, not first in a benchmark count.  A run the tolerance stops
        // early still sends (and drains) its last refresh.
        for shape in [&[7usize, 6, 5][..], &[5, 4, 4, 3]] {
            let x = random_tensor(shape, 90, 31);
            let order = shape.len() as u64;
            for (world, algo, per_allreduce) in [
                (1usize, AllreduceAlgo::Auto, 0u64),
                (2, AllreduceAlgo::Flat, 2),
                (4, AllreduceAlgo::Ring, 1),
            ] {
                let cluster =
                    ClusterConfig::new(world).with_comm(CommPolicy::default().with_allreduce(algo));
                // Tolerance 0 runs to its scheduled end; tolerance 1 stops
                // after the second iteration's loss.
                for (cfg, unread) in [(cfg(), 1u64), (cfg().with_tolerance(1.0), 0)] {
                    let out = dms_mg(&x, &cfg, &cluster).unwrap();
                    assert_eq!(out.iterations == cfg.max_iters, unread == 1);
                    let iters = out.iterations as u64;
                    assert_eq!(
                        out.comm.collectives,
                        per_allreduce + iters * order * (2 + per_allreduce) - unread + 1,
                        "order {order} world {world} {algo:?} {} iterations",
                        out.iterations
                    );
                }
            }
        }
    }

    #[test]
    fn downcast_compresses_the_exchanges() {
        let x = random_tensor(&[8, 8, 6], 120, 21);
        let flat = dms_mg(
            &x,
            &cfg(),
            &ClusterConfig::new(4).with_comm(CommPolicy::flat()),
        )
        .unwrap();
        let lossy = dms_mg(
            &x,
            &cfg(),
            &ClusterConfig::new(4).with_comm(CommPolicy::default().with_downcast_f32(true)),
        )
        .unwrap();
        // Accounting stays in logical (flat-equivalent) bytes, so the two
        // runs agree there; the savings land in the wire counters.
        assert_eq!(flat.comm.bytes, lossy.comm.bytes);
        assert!(lossy.comm.compressed_bytes > 0);
        assert!(lossy.comm.downcast_rows > 0);
        assert!(lossy.comm.wire_bytes() < lossy.comm.bytes);
        assert!(lossy.comm.compression_ratio() > 1.0);
        assert!(lossy.comm.reconciles());
        // f32 mantissas perturb the trajectory but not the fixed point the
        // solver is homing in on.
        let (a, b) = (
            flat.loss_trace.last().unwrap(),
            lossy.loss_trace.last().unwrap(),
        );
        assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
    }

    #[test]
    fn downcast_requires_the_watchdog() {
        use crate::config::WatchdogPolicy;
        let x = random_tensor(&[6, 6], 30, 22);
        let no_watchdog = cfg().with_numerics(
            crate::config::NumericsPolicy::default().with_watchdog(WatchdogPolicy {
                enabled: false,
                ..WatchdogPolicy::default()
            }),
        );
        let err = dms_mg(
            &x,
            &no_watchdog,
            &ClusterConfig::new(2).with_comm(CommPolicy::default().with_downcast_f32(true)),
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn legacy_cluster_config_json_decodes_without_comm_field() {
        // Checkpoints from before the collective-layer rework serialized no
        // `comm` field; they must restore with the default policy.
        let reference = ClusterConfig::new(3);
        let full = serde_json::to_string(&reference).unwrap();
        let cut = full.find(",\"comm\"").expect("comm is serialized");
        let legacy = format!("{}}}", &full[..cut]);
        let back: ClusterConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, reference);
        // And the current format round-trips unchanged.
        let rt: ClusterConfig = serde_json::from_str(&full).unwrap();
        assert_eq!(rt, reference);
        // Written by PR 20, when the buffer pool had an off switch.
        let pr20 = r#"{"workers":3,"partitioner":"Mtp","parts_per_mode":null,"cell_assignment":"BlockGrid","pooling":true,"comm":{"downcast_f32":false,"allreduce":"Auto"}}"#;
        let back: ClusterConfig = serde_json::from_str(pr20).unwrap();
        assert_eq!(back, reference);
    }

    #[test]
    fn a_workers_partial_is_its_cells_totals_in_ascending_cell_order() {
        use dismastd_tensor::mttkrp::mttkrp;
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let x = random_tensor(&[12, 10, 8], 400, 41);
        let pool = ThreadPool::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        // Rank 3 runs the plan's dynamic body, rank 10 the fixed one.
        for rank in [3usize, 10] {
            let factors = init_factors(&zero_history(3, rank), x.shape(), rank, 42).unwrap();
            for world in [2usize, 3, 4] {
                let cluster = ClusterConfig::new(world);
                let grid = GridPartition::build_with(
                    &x,
                    cluster.partitioner,
                    &cluster.resolved_parts(3),
                    world,
                    cluster.cell_assignment,
                )
                .unwrap();
                let plans = build_plans(&x, &grid, world).unwrap();
                // The oracle's cells: the same routing, none of the layout.
                let cells = x.partition_by(|idx| grid.cell_of(idx));
                let mut shared_rows = 0;
                for (w, plan) in plans.iter().enumerate() {
                    let mine: Vec<&SparseTensor> = cells
                        .iter()
                        .map(|(_, cell)| cell)
                        .filter(|cell| grid.worker_of(cell.index(0)) == w)
                        .collect();
                    assert_eq!(mine.len(), plan.cells.len());
                    for n in 0..3 {
                        // Rows where the association shows: two cells
                        // each bring a total of several entries.
                        let hists: Vec<Vec<u64>> =
                            mine.iter().map(|cell| cell.slice_nnz(n).unwrap()).collect();
                        shared_rows += (0..x.shape()[n])
                            .filter(|&row| hists.iter().filter(|h| h[row] > 1).count() > 1)
                            .count();
                        let mut expected = Matrix::zeros(x.shape()[n], rank);
                        for cell in &mine {
                            // COO kernel, into a fresh zeroed matrix.
                            let total = mttkrp(cell, &factors, n).unwrap();
                            expected.add_assign(&total).unwrap();
                        }
                        // Whatever `hat` held is gone before the first cell.
                        let mut hat = Matrix::random(x.shape()[n], rank, &mut rng);
                        local_partials(&plan.cells, &factors, n, &mut hat, &pool).unwrap();
                        assert_eq!(
                            bits(&hat),
                            bits(&expected),
                            "rank {rank} world {world} worker {w} mode {n}"
                        );
                    }
                }
                assert!(
                    shared_rows > 0,
                    "rank {rank} world {world}: fixture too sparse"
                );
            }
        }
    }

    #[test]
    fn routes_carry_each_referenced_row_to_its_owner_and_nothing_else() {
        // The oracle reads the nonzeros and the grid's two maps only.
        for (shape, nnz) in [(&[12usize, 10, 8][..], 400), (&[9, 6, 5, 4], 300)] {
            let x = random_tensor(shape, nnz, 47);
            for world in [1usize, 2, 3, 4, 5] {
                for assignment in [CellAssignment::BlockGrid, CellAssignment::Scatter] {
                    let cluster = ClusterConfig::new(world).with_cell_assignment(assignment);
                    let grid = GridPartition::build_with(
                        &x,
                        cluster.partitioner,
                        &cluster.resolved_parts(x.order()),
                        world,
                        assignment,
                    )
                    .unwrap();
                    let plans = build_plans(&x, &grid, world).unwrap();
                    // references[(mode, row)] = the workers holding a nonzero of it.
                    let mut references = std::collections::BTreeMap::new();
                    for (idx, _) in x.iter() {
                        for (mode, &row) in idx.iter().enumerate() {
                            references
                                .entry((mode, row))
                                .or_insert_with(std::collections::BTreeSet::new)
                                .insert(grid.worker_of(idx));
                        }
                    }
                    let tag = format!("{shape:?} world {world} {assignment:?}");
                    // Every referenced row is owned by a worker that reads
                    // it, so a mode-iteration routes Σ_rows (refs − 1) rows.
                    let bound: usize = references.values().map(|refs| refs.len() - 1).sum();
                    let routed: usize = plans
                        .iter()
                        .flat_map(|p| p.partial_routes.iter().flatten())
                        .map(Vec::len)
                        .sum();
                    assert_eq!(routed, bound, "{tag}");
                    for (w, plan) in plans.iter().enumerate() {
                        for n in 0..x.order() {
                            for d in 0..world {
                                // Exactly the rows `w` reads and `d` owns.
                                let expected: Vec<u32> = references
                                    .iter()
                                    .filter(|((mode, row), refs)| {
                                        *mode == n
                                            && d != w
                                            && refs.contains(&w)
                                            && grid.row_owner(n, *row as usize) == d
                                    })
                                    .map(|((_, row), _)| *row)
                                    .collect();
                                assert_eq!(plan.partial_routes[n][d], expected, "{tag} {w}->{d}");
                                assert_eq!(plans[d].serve_routes[n][w], expected, "{tag} {d}<-{w}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_long_tailed_complement_ships_fewer_bytes_than_group_ownership_did() {
        // A Clothing-shaped warm step: Zipf rows, most of them touched by
        // one worker only.  With ownership per slice *group* the tail rows
        // went to whichever rank held most of the group.
        let full = dismastd_data::DatasetSpec::clothing(0.1)
            .generate()
            .unwrap();
        let stream = dismastd_data::StreamSequence::cut(&full, &[0.9, 1.0]).unwrap();
        let old_shape = stream.snapshot(0).shape().to_vec();
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(51);
            old_shape
                .iter()
                .map(|&s| Matrix::random(s, 3, &mut rng))
                .collect()
        };
        let x = stream.snapshot(1).complement(&old_shape).unwrap();
        let out = dismastd(&x, &old, &cfg(), &ClusterConfig::new(4)).unwrap();
        assert!(out.comm.reconciles());
        // Measured at the parent commit (per-group ownership), same fixture.
        const GROUP_OWNERSHIP_WIRE_BYTES: u64 = 252_120;
        assert!(
            out.comm.wire_bytes() < GROUP_OWNERSHIP_WIRE_BYTES,
            "{} bytes",
            out.comm.wire_bytes()
        );
    }

    /// FNV-1a over the bits of every factor entry.
    fn factor_bits(out: &DistOutput) -> u64 {
        let words = out.kruskal.factors().iter().flat_map(|f| f.as_slice());
        words.fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn a_long_mode_is_split_instead_of_replicated() {
        // Every row of every mode is referenced: 2x2x1 replicates the long
        // mode on two ranks and routes ~I_0 + I_1 + 3·I_2 rows per
        // mode-iteration, 4x1x1 routes ~3·(I_1 + I_2).
        let x = random_tensor(&[400, 12, 10], 3000, 61);
        let out = dms_mg(&x, &cfg(), &ClusterConfig::new(4)).unwrap();
        assert!(out.comm.reconciles());
        // Measured with the 2x2x1 grid at the commit before the grid
        // became shape-aware (which already skips the unread final
        // refresh), same fixture.
        const GRID_2X2X1_WIRE_BYTES: u64 = 156_624;
        assert!(
            out.comm.wire_bytes() < GRID_2X2X1_WIRE_BYTES,
            "{} bytes",
            out.comm.wire_bytes()
        );
    }

    #[test]
    fn equal_modes_keep_their_grid_bytes_and_bits() {
        // A cube's best grid at world 4 is the 2x2x1 it always had: the
        // shape-aware choice must not move a byte or a bit of it.
        let x = random_tensor(&[12, 12, 12], 400, 62);
        let out = dms_mg(&x, &cfg(), &ClusterConfig::new(4)).unwrap();
        // Measured at the commit before the grid became shape-aware (which
        // already skips the unread final refresh).
        assert_eq!(
            (out.comm.wire_bytes(), factor_bits(&out)),
            (44_472, 0xa4b2_660d_4647_515d),
            "{} bytes, bits {:016x}",
            out.comm.wire_bytes(),
            factor_bits(&out)
        );
    }

    /// `run_distributed` with default options and the given memo.
    fn run_memo(
        x: &SparseTensor,
        old: &[Matrix],
        cc: &ClusterConfig,
        memo: &mut PlanCache,
    ) -> DistOutput {
        run_distributed(x, old, &cfg(), cc, &ClusterOptions::default(), memo).unwrap()
    }

    #[test]
    fn memo_serves_a_repeat_of_the_same_step_and_never_changes_results() {
        let old_shape = [4usize, 4, 3];
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(15);
            old_shape
                .iter()
                .map(|&s| Matrix::random(s, 3, &mut rng))
                .collect()
        };
        let x = random_complement(&old_shape, &[7, 7, 5], 80, 16);
        let cc = ClusterConfig::new(2);
        let mut memo = PlanCache::default();

        let first = run_memo(&x, &old, &cc, &mut memo);
        let cells = memo.misses();
        assert!(cells > 0);
        assert_eq!(memo.hits(), 0);

        // The same step again in the same world (what a watchdog retry or a
        // heal replay does): every cell is reused, nothing is rebuilt, and
        // the result is bitwise unchanged.
        let second = run_memo(&x, &old, &cc, &mut memo);
        assert_eq!(memo.hits(), cells);
        assert_eq!(memo.misses(), cells);
        assert_eq!(first.loss_trace, second.loss_trace);
        assert_eq!(first.setup_bytes, second.setup_bytes);

        // The memo-less public entry point agrees exactly.
        let fresh = dismastd(&x, &old, &cfg(), &cc).unwrap();
        assert_eq!(first.loss_trace, fresh.loss_trace);
    }

    #[test]
    fn memo_rebuilds_for_another_world_and_after_a_reset() {
        let x = random_tensor(&[6, 6, 6], 70, 17);
        let old = zero_history(3, cfg().rank);
        let mut memo = PlanCache::default();
        run_memo(&x, &old, &ClusterConfig::new(3), &mut memo);
        let cells3 = memo.misses();

        // A shrunk world (the degrade rung) re-partitions: nothing built
        // for world 3 is served to world 2.
        let degraded = run_memo(&x, &old, &ClusterConfig::new(2), &mut memo);
        assert_eq!(memo.hits(), 0);
        let cells2 = memo.misses() - cells3;
        assert!(cells2 > 0);
        let fresh = dms_mg(&x, &cfg(), &ClusterConfig::new(2)).unwrap();
        assert_eq!(degraded.loss_trace, fresh.loss_trace);

        // A reset (the top of the next ingest) forgets the step; the
        // counters keep running.
        memo.reset();
        run_memo(&x, &old, &ClusterConfig::new(2), &mut memo);
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), cells3 + 2 * cells2);
    }

    #[test]
    fn a_forged_decision_digest_names_the_first_dissenting_rank() {
        use dismastd_tensor::SolveTier;
        let cholesky = |cond_est| SolveDecision {
            tier: SolveTier::Cholesky,
            lambda: 0.0,
            cond_est,
        };
        let mut lead = DecisionRecord::default();
        lead.record(&cholesky(2.0));
        lead.record(&cholesky(3.0));
        // The same two decisions the other way round leave the same tally;
        // only the digest tells the two runs apart.
        let mut swapped = DecisionRecord::default();
        swapped.record(&cholesky(3.0));
        swapped.record(&cholesky(2.0));
        assert_eq!(swapped.numerics, lead.numerics);
        assert_ne!(swapped.digest, lead.digest);

        let peer = |decisions| {
            Ok(WorkerResult {
                loss_trace: Vec::new(),
                iterations: 0,
                factors: None,
                iter_elapsed: Duration::ZERO,
                decisions,
                metrics: None,
            })
        };
        assert_eq!(first_dissenter(&lead, &[]), None);
        assert_eq!(first_dissenter(&lead, &[peer(lead), peer(lead)]), None);
        let forged = DecisionRecord {
            digest: lead.digest ^ 1,
            ..lead
        };
        assert_eq!(
            first_dissenter(&lead, &[peer(lead), peer(forged), peer(swapped)]),
            Some(2)
        );
        // A rank that failed where rank 0 did not dissents too.
        let failed = Err(TensorError::Singular { solver: "test" });
        assert_eq!(first_dissenter(&lead, &[failed, peer(lead)]), Some(1));
    }

    #[test]
    fn time_per_iter_accounting() {
        let x = random_tensor(&[6, 6, 6], 60, 12);
        let out = dms_mg(&x, &cfg(), &ClusterConfig::new(2)).unwrap();
        assert_eq!(out.iterations, 6);
        assert!(out.time_per_iter() <= out.iter_elapsed);
        assert!(out.elapsed >= out.iter_elapsed);
    }

    #[test]
    fn empty_complement_distributed() {
        let old: Vec<Matrix> = {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            [3usize, 3]
                .iter()
                .map(|&s| Matrix::random(s, 2, &mut rng))
                .collect()
        };
        let x = SparseTensor::empty(vec![5, 5]).unwrap();
        let out = dismastd(
            &x,
            &old,
            &DecompConfig::default().with_rank(2).with_max_iters(3),
            &ClusterConfig::new(2),
        )
        .unwrap();
        assert_eq!(out.kruskal.shape(), vec![5, 5]);
    }
}
