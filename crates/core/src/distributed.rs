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
//!    partial Grams over their rows, and a reduction rebuilds
//!    `G_n^0, G_n^1, G̃_n` on every worker.  Nothing reads mode `n`'s
//!    products before mode `n + 1` decides, so the reduction rides the two
//!    exchanges already due before then: each rank's partials travel to
//!    their slice owners with the refreshed rows (the reduce half), and the
//!    owners' sums travel back with mode `n + 1`'s partials (the gather
//!    half) — see [`gram_slice`].
//! 4. **Distributed loss** (Sec. IV-B4): the `R x R` terms are evaluated
//!    locally from the replicated products; the data-dependent inner product
//!    reuses the final mode's MTTKRP partial rows.  Its per-rank partial
//!    rides as one extra slot of the final mode's Gram reduction, which
//!    rides the exchanges like every other mode's: the loss of iteration
//!    `t` is evaluated one mode late, right after iteration `t + 1`'s mode-0
//!    partials exchange brings the reduced slot back, and a tolerance stop
//!    breaks there, before mode 0 decides.  The last scheduled iteration
//!    sends no final refresh, so its last-mode partials and loss slot ride
//!    the gather instead and rank 0 evaluates the final loss.
//!
//! The gather ships to rank 0 only the owned rows it cannot already form:
//! rank 0 writes every untouched old row from its mode's last map itself,
//! and keeps its own refreshed copy of every row it reads in a mode below
//! the last (see `WorkerPlan::gather_rows`).
//!
//! That is two collectives per mode-iteration (partials exchange, refresh
//! exchange) and the gather — less the last mode's refresh of the last
//! scheduled iteration, which nothing would read.  A tolerance stop after
//! `k` iterations sends that refresh and one mode-0 partials exchange more,
//! whose MTTKRP it then discards.  Set-up takes none: its products depend
//! only on the initial and previous factors and each rank's owned rows,
//! all of which every rank is handed, so the driver builds them once (see
//! [`setup_grams`]) and no all-reduce is left on the step path.
//!
//! World 1 is the serial solver ([`crate::dtd::dtd`]): its one grid cell
//! is planned over the borrowed tensor, its one rank runs on the caller's
//! thread.

use crate::config::DecompConfig;
use crate::dtd::{converged, init_factors, old_norm_sq, zero_history};
use crate::loss::{dtd_loss, mode_grams, GramState, LossParts, UntouchedRows};
use dismastd_cluster::{
    decode_rows_and_tail, BufferPool, Cluster, ClusterError, ClusterOptions, ClusterResult,
    CommStatsSnapshot, Payload, PendingExchange, WorkerCtx,
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
use std::ops::Range;
// lint:allow(determinism): Instant feeds wall-clock fields of StepReport only, never factor math
use std::time::{Duration, Instant};

/// Cluster-side configuration: worker count and partitioning strategy.
///
/// Nothing here selects how the step communicates: every row exchange is
/// one flat `f64` payload, and every Gram reduction splits its buffer into
/// one near-equal slice per rank (see [`gram_slice`]).
/// Checkpoints written with fields this struct no longer has (`comm`,
/// `pooling`) still restore — unknown fields are ignored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
}

impl ClusterConfig {
    /// `workers` nodes with MTP partitioning and default partition counts.
    pub fn new(workers: usize) -> Self {
        ClusterConfig {
            workers,
            partitioner: Partitioner::Mtp,
            parts_per_mode: None,
            cell_assignment: CellAssignment::BlockGrid,
        }
    }

    /// Selects the cell→worker placement strategy.
    pub fn with_cell_assignment(mut self, a: CellAssignment) -> Self {
        self.cell_assignment = a;
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
    /// takes each decision itself from the replicated Gram state — the run
    /// fails with a `ClusterFault` unless all of them took the same — and
    /// every rank's post-solve re-solves are added to them.
    pub numerics: NumericsReport,
    /// Every rank's per-phase metrics merged into one snapshot, present
    /// when the *driver* thread had a metrics collection installed (see
    /// `dismastd_obs::begin`) when the call started.  Span totals therefore
    /// sum concurrent per-rank time and can exceed wall-clock; the
    /// `comm/msg_bytes` histogram reconciles exactly with [`Self::comm`].
    /// Driver-side preparation spans (partitioning, plan builds, set-up's
    /// Gram state) land in the caller's own registry instead.
    pub metrics: Option<MetricsSnapshot>,
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
        old_rows: &[usize],
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
                    build_plans(tensor, &grid, world, old_rows)?
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
    /// The owned rows of each mode that some nonzero — on any worker —
    /// references, and the ones none does: the loop solves the old rows of
    /// the first list and writes those of the second once, from the
    /// mode's map (see [`UntouchedRows`]).
    touched_rows: Vec<Vec<u32>>,
    untouched_rows: Vec<Vec<u32>>,
    /// `partial_routes[n][d]`: mode-`n` rows this worker's nonzeros
    /// reference that worker `d` owns (partials flow here → `d`, updates
    /// flow back `d` → here).
    partial_routes: Vec<Vec<Vec<u32>>>,
    /// `serve_routes[n][d]`: mode-`n` rows worker `d` references that this
    /// worker owns (mirror of `d`'s `partial_routes[n][me]`).
    serve_routes: Vec<Vec<Vec<u32>>>,
    /// The owned rows of each mode this worker ships in the gather: none
    /// on rank 0, which holds its own; elsewhere every owned row rank 0
    /// cannot form itself — not an untouched old row (rank 0 writes those
    /// from the maps) and not a row rank 0 reads in a mode below the last
    /// (the last iteration's refreshes delivered those).  Both ends read
    /// this list, so the payload carries no indices.
    gather_rows: Vec<Vec<u32>>,
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
    // Row ids are `u32` in the plans' and the ownership and routing tables:
    // a mode they cannot number is refused before anything is sized by it.
    if let Some(&dim) = tensor.shape().iter().find(|&&s| u32::try_from(s).is_err()) {
        return Err(TensorError::PlanOverflow {
            what: "shape dimension",
            value: dim as u64,
        });
    }
    // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
    let start = Instant::now();
    let order = tensor.order();
    let rank = cfg.rank;
    let old_rows: Vec<usize> = old_factors.iter().map(Matrix::rows).collect();

    // Shared read-only inputs; `init_factors` also checks the history's
    // order and row counts, which the placement's gather lists read.
    let init = init_factors(old_factors, tensor.shape(), rank, cfg.seed)?;

    // ---- Data partitioning (Sec. IV-A) ----------------------------------
    let plans = memo.plans_for(tensor, cluster, &old_rows)?;

    let old_norm_sq = old_norm_sq(old_factors)?;
    let (setup, untouched) = {
        let _s = dismastd_obs::span("phase/setup");
        (
            setup_grams(plans, &init, old_factors, &old_rows, rank)?,
            UntouchedRows::new(old_factors, &untouched_old(plans, &old_rows), rank)?,
        )
    };

    // ---- Distributed tensor decomposition (Sec. IV-B) -------------------
    let inputs = WorkerInputs {
        plans,
        init: &init,
        old: old_factors,
        old_rows: &old_rows,
        setup: &setup,
        untouched: &untouched,
        cfg,
        old_norm_sq,
        tensor_norm_sq: tensor.norm_sq(),
        // Worker threads have their own thread-local metric registries, so
        // each rank decides up front — from the driver's state — whether to
        // collect.
        collect: dismastd_obs::installed(),
    };
    let (mut results, comm) =
        Cluster::try_run_with_opts(cluster.workers, opts, |ctx| worker_body(ctx, &inputs))
            .map_err(cluster_fault)?;

    // Merge every rank's metrics (in rank order) before consuming rank 0;
    // a rank that failed simply contributes nothing.
    let mut metrics: Option<MetricsSnapshot> = None;
    for wr in results.iter().flatten() {
        if let Some(wm) = &wr.metrics {
            metrics
                .get_or_insert_with(MetricsSnapshot::default)
                .merge(wm);
        }
    }

    let WorkerResult {
        loss_trace,
        iterations,
        factors,
        iter_elapsed,
        decisions,
        post,
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
    // The replicated decisions once, plus every rank's own re-solves.
    let mut numerics = decisions.numerics;
    for peer_post in std::iter::once(&post).chain(results.iter().flatten().map(|wr| &wr.post)) {
        numerics.absorb(peer_post);
    }

    Ok(DistOutput {
        kruskal: KruskalTensor::new(factors)?,
        iterations,
        loss_trace,
        comm,
        setup_bytes: setup_bytes(plans, order, rank),
        elapsed: start.elapsed(),
        iter_elapsed,
        numerics,
        metrics,
    })
}

/// Everything a rank reads but never writes: the step's placement, the
/// initial and previous factors, set-up's Gram state, the untouched old
/// rows' `P_n`, and the run's configuration.  Borrowed from the driver's
/// stack — the cluster runs on scoped threads.
struct WorkerInputs<'a> {
    plans: &'a [WorkerPlan],
    init: &'a [Matrix],
    old: &'a [Matrix],
    old_rows: &'a [usize],
    setup: &'a GramState,
    untouched: &'a UntouchedRows,
    cfg: &'a DecompConfig,
    old_norm_sq: f64,
    tensor_norm_sq: f64,
    collect: bool,
}

struct WorkerResult {
    /// Complete on rank 0 only: a run that reaches its scheduled end
    /// evaluates the final loss there, after the gather.
    loss_trace: Vec<f64>,
    iterations: usize,
    /// `Some` on rank 0 only: the gathered final factors.
    factors: Option<Vec<Matrix>>,
    iter_elapsed: Duration,
    /// The solver decisions this rank took.
    decisions: DecisionRecord,
    /// This rank's post-solve escalations: rank-local, outside the digest.
    post: NumericsReport,
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
/// partial-product matrices, the staging buffer of a rank's packed partials
/// (one mode's, which the reduce half of a fused reduction slices; every
/// mode's when the driver stages a rank's set-up partials), and the one
/// mode's reduced products (and loss slot) a fused reduction assembles.  Allocated once per worker and
/// overwritten each mode, so the steady-state Gram path performs no
/// allocation at all.
struct GramWorkspace {
    g0: Matrix,
    g1: Matrix,
    cr: Matrix,
    /// Stays staged until the next mode stages, so its length is that of
    /// the reduction in flight.
    buf: Vec<f64>,
    reduced: Vec<f64>,
}

/// Values one mode's Gram partials pack into: the upper triangles of the
/// symmetric `G⁰` and `G¹` (`R(R+1)/2` each) and the whole `G̃`, `2R² + R`
/// in all.
fn packed_len(r: usize) -> usize {
    2 * r * r + r
}

impl GramWorkspace {
    /// Sized for the largest buffer a worker stages: one mode's partials
    /// plus the loss slot.
    fn new(r: usize) -> Self {
        GramWorkspace {
            g0: Matrix::zeros(r, r),
            g1: Matrix::zeros(r, r),
            cr: Matrix::zeros(r, r),
            buf: Vec::with_capacity(packed_len(r) + 1),
            reduced: vec![0.0; packed_len(r) + 1],
        }
    }

    /// The three partial-product targets, in [`mode_grams`]' order.
    fn targets(&mut self) -> [&mut Matrix; 3] {
        [&mut self.g0, &mut self.g1, &mut self.cr]
    }

    /// Appends the three partials, packed (see [`packed_len`]), to the
    /// staging buffer.  `gram_rows` returns `G⁰` and `G¹` partials that are
    /// symmetric bit for bit, so their lower triangles carry nothing the
    /// upper ones do not.
    fn stage(&mut self) {
        let r = self.g0.rows();
        for m in [&self.g0, &self.g1] {
            for p in 0..r {
                self.buf.extend_from_slice(&m.row(p)[p..]);
            }
        }
        self.buf.extend_from_slice(self.cr.as_slice());
    }
}

/// Writes one mode's reduced, packed products into the replicated Gram
/// state — `G⁰` and `G¹` mirrored from their upper triangles — and
/// re-sums its total.
fn unpack_grams(packed: &[f64], state: &mut GramState, n: usize) {
    let r = state.cross[n].rows();
    let sym = r * (r + 1);
    let mut values = packed[..sym].iter();
    for g in [&mut state.gram0[n], &mut state.gram1[n]] {
        let g = g.as_mut_slice();
        for p in 0..r {
            for (q, &v) in (p..r).zip(values.by_ref()) {
                g[p * r + q] = v;
                g[q * r + p] = v;
            }
        }
    }
    state.cross[n]
        .as_mut_slice()
        .copy_from_slice(&packed[sym..]);
    state.retotal(n);
}

/// The values `rank` owns of a Gram reduction of `len` values across
/// `world` ranks: the `rank`-th of `world` near-equal contiguous slices,
/// larger ones first — the reduce-scatter's equal blocks.  The reduction
/// rides the two row exchanges around it instead of running as an
/// all-reduce: every rank appends to its refresh payload to an owner the
/// owner's slice of its packed partials (the reduce half); at the next
/// mode's fence the owner folds the slices over ranks `0..w` (see
/// [`gram_fold`]); every owner then appends its reduced slice to its
/// partials payload to every rank (the gather half).  A rank sends
/// `len + (w − 2)·|slice|` values per reduction; the slices sum to `len`,
/// so all ranks together send `(2w − 2)·len` whatever the split.
fn gram_slice(rank: usize, world: usize, len: usize) -> Range<usize> {
    let (base, extra) = (len / world, len % world);
    let start = rank * base + rank.min(extra);
    start..start + base + usize::from(rank < extra)
}

/// Folds rank `src`'s share of an owner's slice into its running sum;
/// called for `src = 0, 1, …, w − 1` in turn.  The sum starts from rank
/// 0's partial and adds each later rank's on the left — the order and the
/// operands of the all-reduce's chain, so not even a signed zero or a
/// `NaN` payload can tell the two apart.  The fold is element-wise, so
/// rank 0 folds whole gathered buffers with it too, and so does the
/// driver's set-up fold.
#[allow(clippy::assign_op_pattern)] // `*s += p` would swap the operands
fn gram_fold(sum: &mut [f64], src: usize, part: &[f64]) {
    let pairs = sum.iter_mut().zip(part);
    if src == 0 {
        pairs.for_each(|(s, &p)| *s = p);
    } else {
        pairs.for_each(|(s, &p)| *s = p + *s);
    }
}

/// A posted-but-uncompleted refresh exchange: mode `n`'s updated factor
/// rows are in flight while the next mode's MTTKRP runs.  The fence at the
/// top of the next mode (or the post-loop drain) completes it and writes
/// the rows before anything reads `factors[mode]` remotely-owned entries.
/// The payloads also carry the reduce half of the mode's Gram reduction
/// (see [`gram_slice`]).
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
        setup,
        untouched,
        cfg,
        old_norm_sq,
        tensor_norm_sq,
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
    // This rank's post-solve escalations (see the solve below).
    let mut post = NumericsReport::default();

    // Replicated factor copies; only owned ∪ referenced rows stay fresh.
    let mut factors: Vec<Matrix> = init.to_vec();

    // Reusable scratch: Gram partials + reduction staging, and the
    // message-payload pool for the two row exchanges.
    let mut ws = GramWorkspace::new(r);
    let mut pool = BufferPool::new(true);
    // Persistent exchange tables: refilled in place every post/complete,
    // so the steady-state loop never reallocates them.
    let mut outgoing: Vec<Payload> = Vec::with_capacity(world);
    let mut incoming_payloads: Vec<Payload> = Vec::with_capacity(world);
    // Intra-worker kernel pool: the machine budget split across the
    // co-resident ranks.  Thread count never changes factor bits (the
    // pooled kernels are bitwise identical to serial), so the replicated
    // state stays in sync whatever each rank resolves to.
    let kernel_pool = ThreadPool::new(cfg.threads.resolve_for_world(world));

    // Replicated RxR state: set-up's, built by the driver, then rebuilt
    // from owned-row partials by the reductions riding the row exchanges,
    // so every worker agrees bit-for-bit.
    let mut state = setup.clone();
    // Every rank forms the untouched old rows' maps from its replicated
    // decisions; rank 0 alone adds their Gram terms to its partials.
    let mut maps = untouched.clone();
    // The Eq. 5 factorisation of the block being solved, rebuilt in place.
    let mut fact = Factorized::default();
    let owned = owned_blocks(plan, old_rows);
    // Eq. 4's constant terms; each iteration's loss adds its inner product.
    let loss_parts = LossParts {
        mu,
        old_norm_sq,
        complement_norm_sq: tensor_norm_sq,
        inner: 0.0,
    };
    let packed = packed_len(r);

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
    // Every mode reduces its Gram partials over the two row exchanges
    // around it.  This is the mode whose slices were folded at the fence
    // and ride this mode's partials exchange to every rank.
    let mut gram_in_flight: Option<usize> = None;

    'iterations: for iter in 0..cfg.max_iters {
        for n in 0..order {
            // -- fence: land the previous mode's refreshed rows ------------
            // MTTKRP below reads every factor, so the in-flight rows of the
            // previously updated mode must be written before the kernels run.
            // Owners fold the Gram slices that rode them.
            if let Some(pr) = pending_refresh.take() {
                gram_in_flight = Some(pr.mode);
                complete_refresh(
                    ctx,
                    pr,
                    plan,
                    &mut factors,
                    &mut ws,
                    &mut pool,
                    &mut incoming_payloads,
                )?;
            }

            // -- 1. local MTTKRP partials over this worker's nonzeros -----
            {
                let _s = dismastd_obs::span("phase/mttkrp");
                try_num!(local_partials(plan, &factors, n, &mut hat[n], &kernel_pool));
            }

            // -- route partials to row owners ------------------------------
            // An owner's reduced Gram slice rides to every rank (the
            // gather half); the row routes of a pair may be empty, the
            // slice still goes.
            {
                let _s = dismastd_obs::span("phase/exchange");
                let len = ws.buf.len();
                let riding = |rank| gram_in_flight.map_or(0..0, |_| gram_slice(rank, world, len));
                outgoing.clear();
                for d in 0..world {
                    outgoing.push(if d == me {
                        Payload::Empty
                    } else {
                        pack_rows(
                            &hat[n],
                            &plan.partial_routes[n][d],
                            &ws.reduced[riding(me)],
                            &mut pool,
                        )
                    });
                }
                let pending_partials = ctx.post_exchange(&mut outgoing)?;
                ctx.complete_exchange(pending_partials, &mut incoming_payloads)?;
                for (d, payload) in incoming_payloads.drain(..).enumerate() {
                    if d == me {
                        continue;
                    }
                    let (routes, slice) = (&plan.serve_routes[n][d], riding(d));
                    let data = decode_rows_and_tail(payload, d, routes, r, slice.len())?;
                    let rows = routes.len() * r;
                    add_rows(&mut hat[n], routes, &data[..rows]);
                    ws.reduced[slice].copy_from_slice(&data[rows..]);
                    pool.put(data);
                }
            }
            if let Some(m) = gram_in_flight.take() {
                {
                    let _s = dismastd_obs::span("phase/gram");
                    unpack_grams(&ws.reduced[..packed], &mut state, m);
                }
                // -- the previous iteration's loss, one mode late ----------
                // Every product it reads is final, and nothing of this
                // iteration has been written yet: it is the loss evaluated
                // right after the last mode, bit for bit.  A stop breaks
                // before this mode decides, with no exchange in flight.
                if m == order - 1 {
                    let loss = {
                        let _s = dismastd_obs::span("phase/loss");
                        let inner = ws.reduced[packed];
                        try_num!(dtd_loss(
                            &state,
                            &LossParts {
                                inner,
                                ..loss_parts
                            }
                        ))
                    };
                    loss_trace.push(loss);
                    if converged(&loss_trace, cfg.tolerance) {
                        break 'iterations;
                    }
                }
            }

            // -- 2. decide and solve Eq. 5, row-wise, on every rank --------
            // `prepare_mode` reads only the Gram products of modes `k ≠ n`,
            // all final from here on — the previous mode's arrived with the
            // partials just received — and bit-identical on every rank, and
            // the decision is a pure function of them: all ranks accept the
            // same tier and shift with nothing exchanged.  A block is decided
            // iff it has rows *globally* — `d0` when the mode has old rows,
            // `d1` when it has new ones — not iff this rank owns some, so
            // every rank walks the same ladder and a numeric failure stops
            // all of them here, where every exchange posted so far has been
            // completed by every rank.  The rank then solves its share — the
            // old block (μ Ã_n[i,:] (⊛ G̃) + Â[i,:]) ·D0⁻¹ over its touched old
            // rows with its copy of the untouched rows' map μ (⊛ G̃) ·D0⁻¹,
            // the new block Â[i,:] ·D1⁻¹ — re-solving a non-finite share under
            // the forced ridge ladder, tallied in `post`.  A share the ladder
            // cannot make finite stays so, for every rank's next decision (or
            // the gather's check) to refuse.
            {
                let _s = dismastd_obs::span("phase/solve");
                try_num!(state.prepare_mode(n, mu));
                let [touched, new, _] = owned[n];
                if old_rows[n] > 0 {
                    let decision = try_num!(solver.decide(&state.d0, &mut fact));
                    decisions.record(&decision);
                    let job = RowUpdate {
                        rhs: &hat[n],
                        history: Some((mu, &old[n], &state.cross_had)),
                        rows: row_set(touched),
                    };
                    let (map, m) = maps.map_job(n, mu, &state.cross_had);
                    let jobs = &mut [(job, &mut factors[n]), (map, m)];
                    try_num!(solver.solve_rows(&state.d0, &decision, jobs, &mut fact, &mut post));
                }
                if factors[n].rows() > old_rows[n] {
                    let decision = try_num!(solver.decide(&state.d1, &mut fact));
                    decisions.record(&decision);
                    let job = RowUpdate {
                        rhs: &hat[n],
                        history: None,
                        rows: row_set(new),
                    };
                    let jobs = &mut [(job, &mut factors[n])];
                    try_num!(solver.solve_rows(&state.d1, &decision, jobs, &mut fact, &mut post));
                }
            }

            // -- 3. this rank's Gram partials over its owned rows -----------
            // They read owned rows only, fresh the moment the solves finish.
            let last = n == order - 1;
            {
                let _s = dismastd_obs::span("phase/gram");
                let [touched, new, _] = owned[n];
                let blocks = [row_set(touched), row_set(new)];
                try_num!(mode_grams(&factors[n], &old[n], &blocks, ws.targets()));
                if me == 0 {
                    maps.add_grams(n, ws.targets());
                }
                ws.buf.clear();
                ws.stage();
            }
            // On the last mode, this rank's share of `⟨X \ X̃, Y⟩` — its
            // owned rows of the mode's MTTKRP against their fresh factor
            // rows (Eq. 7) — rides as one slot after the packed partials.
            // An untouched row's MTTKRP row is zero, so only the solved
            // rows are summed, in ascending order.
            if last {
                let _s = dismastd_obs::span("phase/loss");
                let [touched, new, _] = owned[n];
                let inner_partial: f64 = touched
                    .iter()
                    .chain(new)
                    .map(|&row| {
                        let row = row as usize;
                        dot(hat[n].row(row), factors[n].row(row))
                    })
                    .sum();
                ws.buf.push(inner_partial);
            }

            // -- ship refreshed rows back to referencing workers ------------
            // Each payload also hands its owner that owner's slice of this
            // rank's Gram partials (the reduce half).  Post only: the Gram
            // partials and the loss inner product read exclusively owned
            // rows, so the exchange stays in flight until the next mode's
            // fence.  The last mode of the last *scheduled* iteration has no
            // next mode: nothing would read its rows, so nothing is sent,
            // and its partials and loss slot ride the gather instead.
            debug_assert!(pending_refresh.is_none());
            let unread = last && iter + 1 == cfg.max_iters;
            pending_refresh = if unread {
                None
            } else {
                let _s = dismastd_obs::span("phase/exchange");
                outgoing.clear();
                for d in 0..world {
                    outgoing.push(if d == me {
                        Payload::Empty
                    } else {
                        pack_rows(
                            &factors[n],
                            &plan.serve_routes[n][d],
                            &ws.buf[gram_slice(d, world, ws.buf.len())],
                            &mut pool,
                        )
                    });
                }
                Some(PendingRefresh {
                    mode: n,
                    pending: ctx.post_exchange(&mut outgoing)?,
                })
            };
        }
        iterations += 1;
    }
    // A stop breaks after its fence and partials exchange, and the
    // scheduled end posts no final refresh: nothing is in flight.
    debug_assert!(pending_refresh.is_none());
    let iter_elapsed = iter_start.elapsed();

    // Every rank took the same decisions, so only rank 0 counts them, and
    // every rank its own re-solves — the merged snapshot then counts the
    // run's `numerics` (label 0/1/2 = cholesky/lu/ridge).
    let mut tiers = post;
    if me == 0 {
        tiers.absorb(&decisions.numerics);
    }
    let solves = [tiers.cholesky_solves, tiers.lu_solves, tiers.ridge_solves];
    for (label, &count) in (0u64..).zip(&solves).filter(|(_, &count)| count > 0) {
        dismastd_obs::counter_add_with("solve/tier", label, count);
    }
    if me == 0 {
        for n in 0..order {
            if maps.count(n) > 0 {
                dismastd_obs::counter_add_with(
                    "solve/untouched_rows",
                    n as u64,
                    maps.count(n) as u64,
                );
            }
        }
    }

    // What a rank ships must hold its final bytes, so an owner writes the
    // untouched old rows its gather list names, once, from each mode's
    // last map.  `build_plans` names none: rank 0 writes every untouched
    // row itself, from the same map and the same `Ã_n` (the tests'
    // every-owned-row reference gather names them all).
    for (n, [_, _, untouched]) in owned.iter().enumerate() {
        let shipped: Vec<u32> = untouched
            .iter()
            .copied()
            .filter(|row| plan.gather_rows[n].binary_search(row).is_ok())
            .collect();
        maps.write_rows(n, &mut factors[n], &old[n], &shipped);
    }

    // ---- gather to rank 0 the rows it cannot form itself ----------------
    // At the scheduled end the staging buffer still holds the last mode's
    // partials and loss slot, which no refresh carried: they ride here.
    let tail: &[f64] = if iterations == cfg.max_iters {
        &ws.buf
    } else {
        &[]
    };
    let gathered = {
        let _s = dismastd_obs::span("phase/gather");
        gather_factors(ctx, plans, factors, &maps, old, old_rows, tail)?
    };
    let factors_out = match gathered {
        Some((out, reduced)) if !reduced.is_empty() => {
            let _s = dismastd_obs::span("phase/loss");
            unpack_grams(&reduced[..packed], &mut state, order - 1);
            let inner = reduced[packed];
            loss_trace.push(try_num!(dtd_loss(
                &state,
                &LossParts {
                    inner,
                    ..loss_parts
                }
            )));
            Some(out)
        }
        gathered => gathered.map(|(out, _)| out),
    };
    // A last-mode share the ridge ladder could not make finite has no
    // next decision to refuse it; the assembled factors do.
    for (mode, f) in factors_out.iter().flatten().enumerate() {
        if let Some(&value) = f.as_slice().iter().find(|v| !v.is_finite()) {
            return Ok(Err(TensorError::NonFiniteValue {
                index: vec![mode],
                value,
            }));
        }
    }

    Ok(Ok(WorkerResult {
        loss_trace,
        iterations,
        factors: factors_out,
        iter_elapsed,
        decisions,
        post,
        metrics: collector.map(dismastd_obs::Collector::finish),
    }))
}

/// A worker's mode-`n` MTTKRP partials (Sec. IV-B1): the rows of `hat` a
/// mode-iteration writes are zeroed, then every cell adds one run total
/// per row it touches, cells in ascending cell order and a cell's entries
/// in stored order within the total — `hat[i] = ((0 + T₁) + T₂) + …`.
/// That order is part of the numerics: it is what "bit-identical per
/// (grid, world)" holds a run to.  So is the grid's row ownership: a row's
/// owner starts from its own partial and adds its peers' in ascending rank
/// order, and a Gram partial covers the rows a rank owns.
///
/// Those rows are the owned rows some nonzero references (the cells' and
/// the peers' partials land there) and the rows routed to their owners,
/// each once: the lists are disjoint.  Every other row of `hat` is never
/// written, so it still holds the zero it was allocated with.
fn local_partials(
    plan: &WorkerPlan,
    factors: &[Matrix],
    n: usize,
    hat: &mut Matrix,
    pool: &ThreadPool,
) -> Result<()> {
    let routed = plan.partial_routes[n].iter().map(Vec::as_slice);
    for rows in std::iter::once(plan.touched_rows[n].as_slice()).chain(routed) {
        for &row in rows {
            hat.row_mut(row as usize).fill(0.0);
        }
    }
    for cell in &plan.cells {
        cell.mttkrp_into_pooled(factors, n, hat, pool)?;
    }
    Ok(())
}

/// Completes a posted refresh exchange: receives every peer's refreshed
/// mode-`pr.mode` rows and writes them into the replicated factor copy.
/// The exchange carried the reduce half of the mode's Gram reduction of
/// the still-staged `ws.buf`: this rank's slice is folded over ranks
/// `0..w` in order — its own partial at its own turn — into `ws.reduced`.
fn complete_refresh(
    ctx: &mut WorkerCtx,
    pr: PendingRefresh,
    plan: &WorkerPlan,
    factors: &mut [Matrix],
    ws: &mut GramWorkspace,
    pool: &mut BufferPool,
    incoming: &mut Vec<Payload>,
) -> ClusterResult<()> {
    let _s = dismastd_obs::span("phase/exchange");
    let me = ctx.rank();
    let n = pr.mode;
    let r = factors[n].cols();
    let mine = gram_slice(me, ctx.world(), ws.buf.len());
    let (lo, hi) = (mine.start, mine.end);
    ctx.complete_exchange(pr.pending, incoming)?;
    for (d, payload) in incoming.drain(..).enumerate() {
        let sum = &mut ws.reduced[lo..hi];
        if d == me {
            gram_fold(sum, d, &ws.buf[lo..hi]);
            continue;
        }
        let routes = &plan.partial_routes[n][d];
        let data = decode_rows_and_tail(payload, d, routes, r, hi - lo)?;
        let rows = routes.len() * r;
        write_rows(&mut factors[n], routes, &data[..rows]);
        gram_fold(sum, d, &data[rows..]);
        pool.put(data);
    }
    Ok(())
}

/// Packs the listed rows of `m`, then `tail`, into one flat exchange
/// payload drawn from the worker's pool (an empty `Vec` when the pool is
/// dry).
fn pack_rows(m: &Matrix, rows: &[u32], tail: &[f64], pool: &mut BufferPool) -> Payload {
    let r = m.cols();
    let mut out = pool.take();
    out.reserve(rows.len() * r + tail.len());
    for &row in rows {
        out.extend_from_slice(m.row(row as usize));
    }
    out.extend_from_slice(tail);
    Payload::F64(out)
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

/// A rank's owned rows of every mode as the loop visits them: Eq. 5's two
/// blocks — the touched old rows (the `A^(0)` rule), then every new row
/// (the `A^(1)` rule) — and the untouched old rows, which leave the loop.
/// Each list ascends.
fn owned_blocks<'p>(plan: &'p WorkerPlan, old_rows: &[usize]) -> Vec<[&'p [u32]; 3]> {
    old_rows
        .iter()
        .enumerate()
        .map(|(n, &old)| {
            let owned = &plan.owned_rows[n];
            [
                below(&plan.touched_rows[n], old),
                &owned[below(owned, old).len()..],
                below(&plan.untouched_rows[n], old),
            ]
        })
        .collect()
}

/// The ascending `rows` as the kernels' [`RowSet`]: the range they span
/// when gap-free (walked as one slice; same rows, same bits), else the list.
fn row_set(rows: &[u32]) -> RowSet<'_> {
    match (rows.first(), rows.last()) {
        (Some(&first), Some(&last)) if (last - first) as usize + 1 == rows.len() => {
            RowSet::Range(first as usize..last as usize + 1)
        }
        _ => RowSet::List(rows),
    }
}

/// The prefix of the ascending `rows` below `end`: a mode's old rows.
fn below(rows: &[u32], end: usize) -> &[u32] {
    &rows[..rows.partition_point(|&i| (i as usize) < end)]
}

/// Every mode's untouched old rows (`U_n`), ascending: the union of the
/// ranks' owned shares.
fn untouched_old(plans: &[WorkerPlan], old_rows: &[usize]) -> Vec<Vec<u32>> {
    old_rows
        .iter()
        .enumerate()
        .map(|(n, &old)| {
            let mut rows: Vec<u32> = plans
                .iter()
                .flat_map(|plan| below(&plan.untouched_rows[n], old))
                .copied()
                .collect();
            rows.sort_unstable();
            rows
        })
        .collect()
}

/// Set-up's replicated Gram state, built on the driver from inputs every
/// rank is handed anyway: each rank's packed partials over its owned rows
/// of every mode (`2R² + R` values a mode, the `O(MNR²)` term of
/// Theorem 4), staged as the rank stages them, then folded (see
/// [`fold_setup`]).
fn setup_grams(
    plans: &[WorkerPlan],
    init: &[Matrix],
    old: &[Matrix],
    old_rows: &[usize],
    r: usize,
) -> Result<GramState> {
    let mut ws = GramWorkspace::new(r);
    let mut partials = Vec::with_capacity(plans.len());
    for plan in plans {
        ws.buf.clear();
        for n in 0..init.len() {
            // Every owned old row, untouched ones included: at set-up they
            // still hold `Ã_n`.
            let rows = &plan.owned_rows[n];
            let split = below(rows, old_rows[n]).len();
            let blocks = [row_set(&rows[..split]), row_set(&rows[split..])];
            mode_grams(&init[n], &old[n], &blocks, ws.targets())?;
            ws.stage();
        }
        partials.push(ws.buf.clone());
    }
    Ok(fold_setup(&partials, init.len(), r))
}

/// Folds every rank's `N` modes of packed partials, one buffer per rank,
/// over ranks `0..w` (see [`gram_fold`]) and unpacks the sums.  Every
/// value is therefore the same sum of the same operands, in the same
/// order, as an all-reduce of the buffers would give, with no collective.
fn fold_setup(partials: &[Vec<f64>], order: usize, r: usize) -> GramState {
    let mut sum = vec![0.0; packed_len(r) * order];
    for (k, part) in partials.iter().enumerate() {
        gram_fold(&mut sum, k, part);
    }
    let mut state = GramState::zeros(order, r);
    // `R ≥ 1` (`DecompConfig::validate`), so the chunk width is not zero.
    for (n, reduced) in sum.chunks_exact(packed_len(r)).enumerate() {
        unpack_grams(reduced, &mut state, n);
    }
    state
}

/// Gathers to rank 0 the rows it cannot form itself and assembles the
/// final factor matrices there.  Each rank ships its gather list (see
/// [`WorkerPlan::gather_rows`]) from its copy `factors`; rank 0 starts
/// from its own copy — its owned rows, and in modes below the last every
/// row it reads, final since the last iteration's refreshes — writes every
/// rank's untouched old rows from each mode's last map, then the shipped
/// rows.  Every payload ends with `tail` — the last scheduled iteration's
/// last-mode partials and loss slot, or nothing after a tolerance stop —
/// and rank 0 folds the tails over ranks `0..w` (see [`gram_fold`]),
/// returning the factors and that sum.
fn gather_factors(
    ctx: &mut WorkerCtx,
    plans: &[WorkerPlan],
    factors: Vec<Matrix>,
    maps: &UntouchedRows,
    old: &[Matrix],
    old_rows: &[usize],
    tail: &[f64],
) -> ClusterResult<Option<(Vec<Matrix>, Vec<f64>)>> {
    let me = ctx.rank();
    // One payload: the listed rows of all modes, concatenated, then the
    // tail.  One-shot per decomposition, so no pooling here.
    let mut packed = Vec::new();
    for (f, rows) in factors.iter().zip(&plans[me].gather_rows) {
        for &row in rows {
            packed.extend_from_slice(f.row(row as usize));
        }
    }
    packed.extend_from_slice(tail);
    let gathered = match ctx.try_gather(0, Payload::F64(packed))? {
        Some(g) => g,
        None => return Ok(None), // non-root ranks
    };
    let mut out = factors;
    for plan in plans {
        for (n, rows) in plan.untouched_rows.iter().enumerate() {
            maps.write_rows(n, &mut out[n], &old[n], below(rows, old_rows[n]));
        }
    }
    let mut sum = vec![0.0; tail.len()];
    for (src, payload) in gathered.into_iter().enumerate() {
        let data = payload.try_into_f64()?;
        let part = unpack_gathered(&mut out, &plans[src].gather_rows, src, &data, tail.len())?;
        gram_fold(&mut sum, src, part);
    }
    Ok(Some((out, sum)))
}

/// Writes sender `src`'s gathered payload — its gather list's rows of
/// every mode (`gather_rows`), then `tail` more values — into `out` and
/// returns those values.
///
/// # Errors
/// [`ClusterError::SizeMismatch`] naming `src` when the payload is not
/// exactly that long.
fn unpack_gathered<'d>(
    out: &mut [Matrix],
    gather_rows: &[Vec<u32>],
    src: usize,
    data: &'d [f64],
    tail: usize,
) -> ClusterResult<&'d [f64]> {
    let rows: usize = out
        .iter()
        .zip(gather_rows)
        .map(|(f, rows)| rows.len() * f.cols())
        .sum();
    if data.len() != rows + tail {
        return Err(ClusterError::SizeMismatch {
            rank: src,
            expected: rows + tail,
            found: data.len(),
        });
    }
    let mut rest = data;
    for (f, rows) in out.iter_mut().zip(gather_rows) {
        let (mode, next) = rest.split_at(rows.len() * f.cols());
        write_rows(f, rows, mode);
        rest = next;
    }
    Ok(rest)
}

/// Splits the tensor over workers and grid cells, builds one
/// [`MttkrpPlan`] per non-empty cell (a one-cell grid's over `tensor`
/// itself), and derives row ownership, the partial/update routing tables
/// and the gather lists.  `old_rows[n]` is
/// mode `n`'s row count in the history (`Ĩ_n`).
fn build_plans(
    tensor: &SparseTensor,
    grid: &GridPartition,
    world: usize,
    old_rows: &[usize],
) -> Result<Vec<WorkerPlan>> {
    let order = tensor.order();
    // Per-worker, per-mode referenced-row sets.
    let mut needed: Vec<Vec<Vec<bool>>> = (0..world)
        .map(|_| tensor.shape().iter().map(|&s| vec![false; s]).collect())
        .collect();
    let mut cells_by_worker: Vec<Vec<MttkrpPlan>> = (0..world).map(|_| Vec::new()).collect();
    let mut local_nnz = vec![0usize; world];
    if grid.num_cells() == 1 && !tensor.is_empty() {
        // One cell is the whole tensor: plan it in place, no routing pass
        // and no copy; its worker references the rows the plan touches.
        let w = grid.worker_of(tensor.index(0));
        let plan = MttkrpPlan::build(tensor)?;
        for (n, marks) in needed[w].iter_mut().enumerate() {
            for &row in plan.touched_rows(n) {
                marks[row as usize] = true;
            }
        }
        local_nnz[w] = tensor.nnz();
        cells_by_worker[w].push(plan);
    } else {
        // Per-cell nonzeros: each non-empty cell becomes its own
        // sub-tensor, in ascending cell order.  The row marking rides the
        // routing pass.
        let cells = tensor.partition_by(|idx| {
            for (marks, &i) in needed[grid.worker_of(idx)].iter_mut().zip(idx) {
                marks[i as usize] = true;
            }
            grid.cell_of(idx)
        });
        // Lay out every populated cell, on this thread: a fine grid's
        // cells are far too small to pay for a pool dispatch each
        // (`fig6`, 38³ cells: 35 s with one, 26 s without).
        for (_, sub) in cells {
            let w = grid.worker_of(sub.index(0));
            local_nnz[w] += sub.nnz();
            cells_by_worker[w].push(MttkrpPlan::build(&sub)?);
        }
    }

    // Row ownership: every row of every mode has exactly one owner.  An
    // owned row is touched when some worker's nonzeros reference it.  Rank
    // 0 forms every untouched old row and, in modes below the last, holds
    // every row it reads, final: only the other rows are gathered.
    let mut owned_rows: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); order]; world];
    let mut touched_rows = owned_rows.clone();
    let mut untouched_rows = owned_rows.clone();
    let mut gather_rows = owned_rows.clone();
    let mut owner_of: Vec<Vec<u32>> = Vec::with_capacity(order);
    for n in 0..order {
        let mut owners = Vec::with_capacity(tensor.shape()[n]);
        for row in 0..tensor.shape()[n] {
            let w = grid.row_owner(n, row);
            // lint:allow(narrowing_cast): a worker id — `w < world`, one OS thread each
            owners.push(w as u32);
            // lint:allow(narrowing_cast): `row < shape[n]`, which `run_distributed` bounded by u32
            let row_id = row as u32;
            owned_rows[w][n].push(row_id);
            let touched = needed.iter().any(|marks| marks[n][row]);
            let split = if touched {
                &mut touched_rows
            } else {
                &mut untouched_rows
            };
            split[w][n].push(row_id);
            let formed = !touched && row < old_rows[n];
            let held = n + 1 < order && needed[0][n][row];
            if w != 0 && !formed && !held {
                gather_rows[w][n].push(row_id);
            }
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
            touched_rows: std::mem::take(&mut touched_rows[w]),
            untouched_rows: std::mem::take(&mut untouched_rows[w]),
            partial_routes: std::mem::take(&mut partial_routes_all[w]),
            serve_routes,
            gather_rows: std::mem::take(&mut gather_rows[w]),
        });
    }
    Ok(plans)
}

/// Per sender, the owned rows the gather does not ship for a step over
/// `tensor` with `old_rows` rows of history: those rank 0 forms or holds
/// (see [`WorkerPlan::gather_rows`]).  Rank 0's are all of its own.
#[cfg(test)]
pub(crate) fn gather_skipped_rows(
    tensor: &SparseTensor,
    old_rows: &[usize],
    cluster: &ClusterConfig,
) -> Vec<u64> {
    let mut memo = PlanCache::default();
    let plans = memo.plans_for(tensor, cluster, old_rows).unwrap();
    let count = |rows: &[Vec<u32>]| rows.iter().map(Vec::len).sum::<usize>() as u64;
    plans
        .iter()
        .map(|plan| count(&plan.owned_rows) - count(&plan.gather_rows))
        .collect()
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
            }
        )
        .is_err());
    }

    #[test]
    fn collectives_per_run_match_the_closed_form() {
        // Iterations · two exchanges per mode − the unread final refresh +
        // gather: every mode's Gram reduction rides its refresh and the
        // next mode's partials exchange, the last mode's with the loss
        // slot, and set-up's Gram state comes from the driver, so no world,
        // no rank and no Gram buffer length adds an all-reduce.  A
        // collective added to `worker_body` shows up here, not first in a
        // benchmark count.
        for shape in [&[7usize, 6, 5][..], &[5, 4, 4, 3]] {
            let x = random_tensor(shape, 90, 31);
            let order = shape.len() as u64;
            for world in [1usize, 2, 4] {
                for rank in [3usize, 10] {
                    let cluster = ClusterConfig::new(world);
                    let tag = format!("order {order} world {world} R {rank}");
                    let cfg = cfg().with_rank(rank);
                    // Tolerance 0 runs to its scheduled end.
                    let out = dms_mg(&x, &cfg, &cluster).unwrap();
                    assert_eq!(out.iterations, cfg.max_iters);
                    let iters = out.iterations as u64;
                    assert_eq!(out.comm.collectives, 2 * order * iters - 1 + 1, "{tag}");
                    // Tolerance 1 stops after the second iteration's loss,
                    // which the third iteration's mode-0 partials exchange
                    // brings: that refresh is sent, that exchange too, and
                    // the gather carries no tail.
                    let out = dms_mg(&x, &cfg.with_tolerance(1.0), &cluster).unwrap();
                    let k = out.iterations as u64;
                    assert_eq!(k, 2, "{tag}");
                    assert_eq!(out.comm.collectives, 2 * order * k + 2, "{tag}");
                }
            }
        }
    }

    #[test]
    fn fused_slices_reduce_to_the_allreduce_bit_for_bit() {
        // The oracle is the all-reduce the fused path replaces, flat and
        // ring alike: random partials, with signed zeros (a column of
        // `−0.0` on every rank, whose sum is `−0.0`) and subnormals,
        // reduced every way must agree bit for bit — and so must rank 0's
        // fold of the gathered buffers, the path of the last scheduled
        // iteration's last mode.  36 and 37 values are a mode's packed
        // `R = 4` partials without and with the loss slot; at world 14
        // most ranks own one value of them, or none of the shortest.
        assert_eq!(packed_len(4), 36);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let operands = |seed: usize, len: usize| -> Vec<f64> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            (0..len)
                .map(|i| match (i % 5, rng.gen_range(0..4)) {
                    (0, _) => -0.0,
                    (1, 0) => 0.0,
                    (1, _) => -0.0,
                    (2, _) => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                    (3, k) => f64::from_bits(k + 1) * if k % 2 == 0 { 1.0 } else { -1.0 },
                    _ => rng.gen_range(-1e3..1e3),
                })
                .collect()
        };
        for world in [1usize, 2, 3, 4, 5, 14] {
            for len in [1usize, 7, 21, 36, 37, 211, 600] {
                let partial = |rank: usize| operands(world * 1000 + len + rank, len);
                let runs = Cluster::try_run(world, |ctx| {
                    let me = ctx.rank();
                    let mine = partial(me);
                    let mut flat = mine.clone();
                    ctx.try_allreduce_sum(&mut flat)?;
                    let mut ring = mine.clone();
                    ctx.try_allreduce_sum_with(&mut ring, AllreduceAlgo::Ring)?;
                    // Reduce half: each owner's slice of this rank's
                    // partials to that owner, folded in rank order.
                    let outgoing = (0..world)
                        .map(|d| Payload::F64(mine[gram_slice(d, world, len)].to_vec()))
                        .collect();
                    let incoming = ctx.try_exchange(outgoing)?;
                    let slice = gram_slice(me, world, len);
                    let mut sum = vec![f64::NAN; slice.len()];
                    for (src, payload) in incoming.into_iter().enumerate() {
                        let part = if src == me {
                            mine[slice.clone()].to_vec()
                        } else {
                            payload.try_into_f64()?
                        };
                        gram_fold(&mut sum, src, &part);
                    }
                    // Gather half: every owner's sum to every rank.
                    let outgoing = (0..world).map(|_| Payload::F64(sum.clone())).collect();
                    let incoming = ctx.try_exchange(outgoing)?;
                    let mut reduced = vec![f64::NAN; len];
                    for (src, payload) in incoming.into_iter().enumerate() {
                        let got = if src == me {
                            sum.clone()
                        } else {
                            payload.try_into_f64()?
                        };
                        reduced[gram_slice(src, world, len)].copy_from_slice(&got);
                    }
                    // Gathered whole to rank 0, folded rank by rank.
                    let folded = ctx.try_gather(0, Payload::F64(mine))?.map(|all| {
                        let mut sum = vec![f64::NAN; len];
                        for (src, payload) in all.into_iter().enumerate() {
                            gram_fold(&mut sum, src, &payload.try_into_f64().unwrap());
                        }
                        sum
                    });
                    Ok((flat, ring, reduced, folded))
                })
                .unwrap();
                for (rank, (flat, ring, reduced, folded)) in runs.iter().enumerate() {
                    let tag = format!("world {world} len {len} rank {rank}");
                    assert_eq!(bits(ring), bits(flat), "{tag} ring");
                    assert_eq!(bits(reduced), bits(flat), "{tag}");
                    assert_eq!(folded.is_some(), rank == 0, "{tag}");
                    if let Some(folded) = folded {
                        assert_eq!(bits(folded), bits(flat), "{tag} gather fold");
                    }
                    assert_eq!(reduced[0].to_bits(), (-0.0f64).to_bits(), "{tag}");
                }
            }
        }
        // The driver's set-up fold: every rank's `N` modes of packed
        // partials in one buffer, folded with no collective, against the
        // all-reduces of those buffers — from world 1, where nothing sums,
        // to world 5.
        let order = 3;
        for world in 1usize..=5 {
            for r in [3usize, 10] {
                let len = packed_len(r) * order;
                let partials: Vec<Vec<f64>> = (0..world)
                    .map(|rank| operands(world * 100 + r * 10 + rank, len))
                    .collect();
                let runs = Cluster::try_run(world, |ctx| {
                    let mut flat = partials[ctx.rank()].clone();
                    ctx.try_allreduce_sum(&mut flat)?;
                    let mut ring = partials[ctx.rank()].clone();
                    ctx.try_allreduce_sum_with(&mut ring, AllreduceAlgo::Ring)?;
                    Ok([flat, ring])
                })
                .unwrap();
                let state = fold_setup(&partials, order, r);
                let folded = |n: usize| {
                    [&state.gram0[n], &state.gram1[n], &state.cross[n]].map(|m| bits(m.as_slice()))
                };
                for (rank, oracles) in runs.iter().enumerate() {
                    for (expected, algo) in oracles.iter().zip(["flat", "ring"]) {
                        let mut oracle = GramState::zeros(order, r);
                        for (n, chunk) in expected.chunks_exact(packed_len(r)).enumerate() {
                            unpack_grams(chunk, &mut oracle, n);
                        }
                        for n in 0..order {
                            let want = [&oracle.gram0[n], &oracle.gram1[n], &oracle.cross[n]]
                                .map(|m| bits(m.as_slice()));
                            assert_eq!(
                                folded(n),
                                want,
                                "set-up world {world} {algo} R {r} rank {rank} mode {n}"
                            );
                        }
                    }
                }
                // Position 0 is `−0.0` on every rank, and so is its sum.
                let zero = state.gram0[0].as_slice()[0].to_bits();
                assert_eq!(zero, (-0.0f64).to_bits(), "set-up world {world} R {r}");
            }
        }
    }

    #[test]
    fn each_rank_sends_its_rows_and_its_owner_share_of_every_gram() {
        // Per sender: the rows its routing tables send, the rows it
        // gathers to rank 0 (every owned row rank 0 can neither form nor
        // holds), plus, per Gram reduction of `b` values,
        // `b + (w − 2)·slice` — every peer's
        // slice once, its own slice to `w − 1` peers, the slices being
        // near-equal shares of `b`, larger ones first; set-up's Gram state
        // comes from the driver and ships nothing.  The last scheduled
        // iteration's last mode sends no reduce half: its `b` values ride
        // the gather from every rank but 0.  R = 3 packs `b = 21` values
        // per mode, R = 10 `b = 210`, 22 and 211 with the loss slot, which
        // world 4 and 5 do not divide.
        let x = random_tensor(&[12, 10, 8], 400, 71);
        let order = 3u64;
        for world in 2usize..=5 {
            let w = world as u64;
            let cluster = ClusterConfig::new(world);
            let grid = GridPartition::build_with(
                &x,
                cluster.partitioner,
                &cluster.resolved_parts(3),
                world,
                cluster.cell_assignment,
            )
            .unwrap();
            let plans = build_plans(&x, &grid, world, &[0; 3]).unwrap();
            for r in [3u64, 10] {
                let cfg = cfg().with_rank(r as usize).with_tolerance(0.0);
                let packed = 2 * r * r + r;
                let out = dms_mg(&x, &cfg, &cluster).unwrap();
                let iters = out.iterations as u64;
                assert_eq!(iters, cfg.max_iters as u64);
                let fused = |k: u64, b: u64| {
                    let slice = gram_slice(k as usize, world, b as usize).len() as u64;
                    b + (w - 2) * slice
                };
                let expected: Vec<u64> = plans
                    .iter()
                    .enumerate()
                    .map(|(k, plan)| {
                        let count =
                            |routes: &[Vec<u32>]| routes.iter().map(Vec::len).sum::<usize>();
                        let per_iter: usize = (0..3)
                            .map(|n| count(&plan.partial_routes[n]) + count(&plan.serve_routes[n]))
                            .sum();
                        let unread = count(&plan.serve_routes[2]) as u64;
                        // Every owned row but those rank 0 forms or holds:
                        // with no history no row is an untouched old one,
                        // and rank 0 holds the rows it reads of modes 0
                        // and 1 from their last refreshes.
                        let gathered: usize = if k == 0 {
                            0
                        } else {
                            count(&plan.owned_rows)
                                - (0..2)
                                    .map(|n| plans[0].partial_routes[n][k].len())
                                    .sum::<usize>()
                        };
                        let rows = iters * per_iter as u64 - unread + gathered as u64;
                        let k = k as u64;
                        let tail = if k == 0 { 0 } else { packed + 1 };
                        let grams = iters * (order - 1) * fused(k, packed)
                            + (iters - 1) * fused(k, packed + 1)
                            + tail;
                        (rows * r + grams) * 8
                    })
                    .collect();
                assert_eq!(out.comm.bytes_by_sender, expected, "world {world} R {r}");
            }
        }
    }

    /// A memo holding `x`'s placement for `cluster` under the gather this
    /// one replaced: every rank ships every owned row, so whatever rank 0
    /// forms or holds is overwritten by what the owner sent.  The
    /// test-only reference for the gather lists.
    fn every_owned_row_gather(
        x: &SparseTensor,
        old_rows: &[usize],
        cluster: &ClusterConfig,
    ) -> PlanCache {
        let mut memo = PlanCache::default();
        memo.plans_for(x, cluster, old_rows).unwrap();
        for plan in &mut memo.step.as_mut().unwrap().plans {
            plan.gather_rows = plan.owned_rows.clone();
        }
        memo
    }

    #[test]
    fn the_gather_assembles_what_every_owned_row_assembled_bit_for_bit() {
        // A cold step (no history: no row is an untouched old one) and a
        // warm one whose sparse complement leaves old rows untouched, each
        // run to its scheduled end and stopped early by tolerance (which
        // sends the last mode's refresh), at worlds 2–5.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let r = cfg().rank;
        let old_shape = [10usize, 9, 8];
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let old: Vec<Matrix> = old_shape
            .iter()
            .map(|&s| Matrix::random(s, r, &mut rng))
            .collect();
        let fixtures = [
            (
                "cold",
                random_tensor(&[12, 10, 8], 300, 82),
                zero_history(3, r),
            ),
            (
                "warm",
                random_complement(&old_shape, &[12, 11, 9], 60, 83),
                old,
            ),
        ];
        for (name, x, old) in &fixtures {
            let old_rows: Vec<usize> = old.iter().map(Matrix::rows).collect();
            let (mut untouched_total, mut held_total) = (0, 0);
            for world in 2usize..=5 {
                let cluster = ClusterConfig::new(world);
                for tolerance in [0.0, 1.0] {
                    let tag = format!("{name} world {world} tolerance {tolerance}");
                    let cfg = cfg().with_tolerance(tolerance);
                    let run = |memo: &mut PlanCache| {
                        let opts = ClusterOptions::default();
                        run_distributed(x, old, &cfg, &cluster, &opts, memo).unwrap()
                    };
                    let mut memo = PlanCache::default();
                    let out = run(&mut memo);
                    let reference = run(&mut every_owned_row_gather(x, &old_rows, &cluster));
                    assert_eq!(
                        out.iterations < cfg.max_iters,
                        tolerance > 0.0,
                        "{tag}: the fixture must stop where the tolerance says"
                    );
                    assert_eq!(out.iterations, reference.iterations, "{tag}");
                    assert_eq!(bits(&out.loss_trace), bits(&reference.loss_trace), "{tag}");
                    for (n, (a, b)) in out
                        .kruskal
                        .factors()
                        .iter()
                        .zip(reference.kruskal.factors())
                        .enumerate()
                    {
                        assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{tag} mode {n}");
                    }
                    // Per sender, the reference shipped every owned row;
                    // the gather skips the untouched old ones and those
                    // rank 0 reads in modes 0 and 1, R values each.
                    let plans = &memo.step.as_ref().unwrap().plans;
                    assert_eq!(
                        out.comm.bytes_by_sender[0], reference.comm.bytes_by_sender[0],
                        "{tag}"
                    );
                    for k in 1..world {
                        let untouched: usize = (0..3)
                            .map(|n| below(&plans[k].untouched_rows[n], old_rows[n]).len())
                            .sum();
                        let held: usize = (0..2).map(|n| plans[0].partial_routes[n][k].len()).sum();
                        untouched_total += untouched;
                        held_total += held;
                        assert_eq!(
                            reference.comm.bytes_by_sender[k] - out.comm.bytes_by_sender[k],
                            ((untouched + held) * r * 8) as u64,
                            "{tag} sender {k}"
                        );
                    }
                }
            }
            assert!(held_total > 0, "{name}: rank 0 reads no peer's row");
            assert_eq!(untouched_total > 0, *name == "warm", "{name}");
        }
    }

    #[test]
    fn a_gathered_payload_of_the_wrong_length_is_a_typed_error() {
        // Sender 2 owns rows {0, 2} of a 3 × 2 mode and row {1} of a 4 × 2
        // one, and appends a 3-value tail: 2·2 + 1·2 + 3 = 9 values.
        let owned = vec![vec![0u32, 2], vec![1]];
        let fresh = || vec![Matrix::zeros(3, 2), Matrix::zeros(4, 2)];
        let data: Vec<f64> = (1..=9).map(f64::from).collect();
        let mut out = fresh();
        let tail = unpack_gathered(&mut out, &owned, 2, &data, 3).unwrap();
        assert_eq!(tail, [7.0, 8.0, 9.0]);
        assert_eq!(out[0].row(2), [3.0, 4.0]);
        assert_eq!(out[1].row(1), [5.0, 6.0]);
        // Truncated (a missing tail value, or a missing row) and over-long
        // payloads name their sender instead of panicking or truncating.
        for len in [8, 4, 10] {
            match unpack_gathered(&mut fresh(), &owned, 2, &vec![1.0; len], 3) {
                Err(ClusterError::SizeMismatch {
                    rank: 2,
                    expected: 9,
                    found,
                }) => assert_eq!(found, len),
                other => panic!("length {len}: {other:?}"),
            }
        }
        // And the driver charges the fault to that rank.
        let err = unpack_gathered(&mut fresh(), &owned, 2, &data[..8], 3).unwrap_err();
        assert!(matches!(
            cluster_fault(err),
            TensorError::ClusterFault { rank: Some(2), .. }
        ));
    }

    #[test]
    fn legacy_cluster_config_json_decodes_without_comm_field() {
        // The current format has no `comm` field and round-trips.
        let reference = ClusterConfig::new(3);
        let full = serde_json::to_string(&reference).unwrap();
        assert!(!full.contains("\"comm\""), "{full}");
        let rt: ClusterConfig = serde_json::from_str(&full).unwrap();
        assert_eq!(rt, reference);
        // Written when the buffer pool had an off switch and the cluster
        // carried a communication policy: both fields are ignored.
        let old = include_str!("../testdata/cluster_config_with_pooling_and_comm.json");
        let back: ClusterConfig = serde_json::from_str(old).unwrap();
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
                let plans = build_plans(&x, &grid, world, &[0; 3]).unwrap();
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
                        // The rows a mode-iteration writes: those this
                        // worker's nonzeros reference, and the owned rows
                        // any nonzero references (its peers' partials add
                        // into them).
                        let referenced = x.slice_nnz(n).unwrap();
                        let written = |row: usize| {
                            hists.iter().any(|h| h[row] > 0)
                                || (referenced[row] > 0 && grid.row_owner(n, row) == w)
                        };
                        // Whatever `hat` held in those rows is gone before
                        // the first cell; every other row is left alone —
                        // the loop never writes it, so it stays zero there.
                        let mut hat = Matrix::random(x.shape()[n], rank, &mut rng);
                        for row in (0..x.shape()[n]).filter(|&row| !written(row)) {
                            assert!(expected.row(row).iter().all(|&v| v == 0.0));
                            expected.row_mut(row).copy_from_slice(hat.row(row));
                        }
                        local_partials(plan, &factors, n, &mut hat, &pool).unwrap();
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
                    // A history of half of every mode, so some old rows go
                    // unreferenced.
                    let old_rows: Vec<usize> = shape.iter().map(|&s| s / 2).collect();
                    let plans = build_plans(&x, &grid, world, &old_rows).unwrap();
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
                            // The gather ships the owned rows rank 0 can
                            // neither form (old rows no nonzero references)
                            // nor holds (rows it reads, in a mode below the
                            // last); rank 0 ships none.
                            let gathered: Vec<u32> = (0..shape[n])
                                .filter(|&row| {
                                    let refs = references.get(&(n, row as u32));
                                    w != 0
                                        && grid.row_owner(n, row) == w
                                        && !(refs.is_none() && row < old_rows[n])
                                        && !(n + 1 < x.order()
                                            && refs.is_some_and(|r| r.contains(&0)))
                                })
                                .map(|row| row as u32)
                                .collect();
                            assert_eq!(plan.gather_rows[n], gathered, "{tag} {w} gathers");
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
        // already skips the unread final refresh), less what reducing only
        // the upper triangles of `G⁰` and `G¹` saves: R(R − 1) = 6 values
        // per mode in each of 7 × 3 reductions, 8 B each, 2(w − 1) copies;
        // and less what the final last-mode reduction riding the gather
        // saves: its 2R² + R + 1 = 22 values once from each of w − 1 ranks
        // instead of a flat all-reduce's 2(w − 1) copies; and less set-up's
        // flat all-reduce, which the driver's Gram state replaced: every
        // mode's 2R² + R = 21 packed values, 63 in all, in 2(w − 1) copies.
        // And less the rows the gather no longer ships, R = 3 values each:
        // rank 0 holds, from their last refreshes, the rows of modes 0 and
        // 1 it reads and ranks 1–3 own.  With no history no row is an
        // untouched old one.
        let skipped = gather_skipped_rows(&x, &[0; 3], &ClusterConfig::new(4));
        let held: u64 = skipped[1..].iter().sum();
        assert_eq!(held, 4);
        assert_eq!(
            (out.comm.wire_bytes(), factor_bits(&out)),
            (
                44_472 - 6 * 21 * 8 * 6 - 3 * 22 * 8 - 6 * 63 * 8 - held * 3 * 8,
                0xa4b2_660d_4647_515d
            ),
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
                post: NumericsReport::default(),
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
