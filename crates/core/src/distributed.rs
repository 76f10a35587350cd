//! Distributed DisMASTD (Sec. IV-B) on the simulated cluster — the one
//! ALS loop every decomposition runs.
//!
//! [`decompose`] is the one entry.  Its history argument picks the paper's
//! method:
//!
//! * **DisMASTD** — DTD over the complement `X \ X̃` with the previous
//!   snapshot's factors as the history;
//! * **DMS-MG** — the static medium-grained baseline: an empty history
//!   re-decomposes the *full* tensor from scratch (every row is a "new"
//!   row).
//!
//! A step's communication is data: [`build_plans`] compiles one
//! [`Schedule`] per placement — per mode a partials round and a refresh
//! round, then the gather — and one [`Executor`] packs and unpacks every
//! round of it, while [`worker_body`] runs the kernels, the decide/solve,
//! the Gram staging and the loss between them.  DESIGN.md, "Distributed
//! execution per iteration", defines the rounds, their row lists and
//! tails, the two rules that edit them, and why every world computes the
//! same bits.
//!
//! World 1 is the serial solver: its one grid cell is planned over the
//! borrowed tensor, its one rank runs on the caller's thread.

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

/// Result of a decomposition at any world size, with or without history.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The CP decomposition of the current snapshot.
    pub kruskal: KruskalTensor,
    /// ALS iterations executed.
    pub iterations: usize,
    /// Eq. 4 loss after each iteration.
    pub loss_trace: Vec<f64>,
    /// Network traffic of the iteration phase (bytes/messages/collectives);
    /// world 1 sends nothing and counts its collectives.
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
}

impl Decomposition {
    /// Average time per ALS iteration — the paper's reported metric.
    pub fn time_per_iter(&self) -> Duration {
        if self.iterations == 0 {
            Duration::ZERO
        } else {
            self.iter_elapsed / u32::try_from(self.iterations).unwrap_or(u32::MAX)
        }
    }
}

/// The grid cells a [`crate::StreamingSession`]'s attempts laid out.  No
/// placement outlives the attempt that laid it out — a watchdog retry and
/// a heal replay each lay out their own (see [`place`]) — so nothing is
/// ever served twice: `hits()` is 0 and `misses()` counts every cell of
/// every attempt over the session's lifetime.
#[derive(Debug, Default)]
pub struct PlanCache {
    pub(crate) misses: u64,
}

impl PlanCache {
    /// Cells served without a layout: always 0.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Cells laid out, one per non-empty grid cell per attempt.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// An attempt's placement (Sec. IV-A): the per-worker plans and the
/// [`Schedule`] they run, laid out by [`place`] and interpreted by
/// [`run_distributed`].  A pure function of the tensor, the grid and the
/// world, so an attempt that lays it out again gets the same bits.
#[derive(Debug)]
pub(crate) struct Placement {
    plans: Vec<WorkerPlan>,
    schedule: Schedule,
    /// When the attempt started: [`Decomposition::elapsed`] counts the
    /// layout too.
    // lint:allow(determinism): feeds Decomposition::elapsed only, never factor math
    started: Instant,
}

impl Placement {
    /// Non-empty grid cells, one plan each.
    pub(crate) fn cells(&self) -> u64 {
        self.plans.iter().map(|p| p.cells.len() as u64).sum()
    }
}

/// Partitions `tensor` over `cluster` and compiles its plans and schedule
/// at rank `r` (Sec. IV-A).  `old_rows[n]` is mode `n`'s row count in the
/// history (`Ĩ_n`); an empty or short list reads as zero rows, and
/// [`run_distributed`] checks the history itself.
///
/// # Errors
/// A mode longer than `u32::MAX` is refused with
/// [`TensorError::PlanOverflow`] before anything is sized by it;
/// propagates partitioning errors (zero workers among them).
pub(crate) fn place(
    tensor: &SparseTensor,
    cluster: &ClusterConfig,
    old_rows: &[usize],
    r: usize,
) -> Result<Placement> {
    // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
    let started = Instant::now();
    // Row ids are `u32` in the plans' and the ownership and routing tables:
    // a mode they cannot number is refused before anything is sized by it.
    if let Some(&dim) = tensor.shape().iter().find(|&&s| u32::try_from(s).is_err()) {
        return Err(TensorError::PlanOverflow {
            what: "shape dimension",
            value: dim as u64,
        });
    }
    let grid = {
        let _s = dismastd_obs::span("phase/partition");
        GridPartition::build_with(
            tensor,
            cluster.partitioner,
            &cluster.resolved_parts(tensor.order()),
            cluster.workers,
            cluster.cell_assignment,
        )?
    };
    let old_rows: Vec<usize> = (0..tensor.order())
        .map(|n| old_rows.get(n).copied().unwrap_or(0))
        .collect();
    let (plans, schedule) = {
        let _s = dismastd_obs::span("phase/plan_build");
        build_plans(tensor, &grid, cluster.workers, &old_rows, r)?
    };
    let placement = Placement {
        plans,
        schedule,
        started,
    };
    let cells = placement.cells();
    if cells > 0 {
        dismastd_obs::counter_add("plan/rebuild", cells);
    }
    Ok(placement)
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
}

/// A step's communication as data (DESIGN.md, "Distributed execution per
/// iteration"), compiled once per placement by [`build_plans`] and run by
/// the [`Executor`].  Two rules edit the rounds a run walks: the run's first
/// partials round carries no tail ([`Self::riding`]), and the last
/// scheduled refresh is not posted — its tail rides the gather
/// ([`Self::posts_refresh`], [`Self::gather_tail`]).
#[derive(Debug)]
struct Schedule {
    /// The rank `R`: the values of a row, and the size of the Gram buffers.
    r: usize,
    /// Per mode, the MTTKRP partials to their owners (added); the tails
    /// carry the previous mode's reduced Gram slices (copied).
    partials: Vec<Round>,
    /// Per mode, the solved rows to their readers (written); the tails
    /// carry each owner's slice of the staged Gram partials (folded).
    refresh: Vec<Round>,
    /// To rank 0, every mode's owned rows it can neither form nor holds
    /// (written); the tails carry the whole last-mode buffer (folded).
    gather: Round,
}

/// One row collective: what each rank packs for each peer, and what the
/// receiver does with it.
#[derive(Debug)]
struct Round {
    /// The modes the rows belong to: one, or all of them for the gather.
    modes: Range<usize>,
    /// `lanes[src][dst]`.
    lanes: Vec<Vec<Lane>>,
    recv: Recv,
}

/// What one rank packs for one peer: rows of the round's modes, then a
/// tail.  Both ends read the same lane, so a payload carries no indices.
#[derive(Debug)]
struct Lane {
    /// The rows, mode after mode, each mode's ascending.
    rows: Vec<u32>,
    /// Where each mode's rows end in `rows`.
    ends: Vec<usize>,
    /// The values of the riding Gram buffer: a [`gram_slice`], or all.
    tail: Range<usize>,
}

/// What a receiver does with a payload.
#[derive(Debug, Clone, Copy)]
enum Recv {
    /// Adds the rows into its MTTKRP partials; copies the tail, packed from
    /// the sender's reduced buffer, into its own.
    AddCopy,
    /// Writes the rows over its factor copy; folds the tail, packed from the
    /// sender's staged buffer, into its reduced one, its own staged share
    /// at its turn (see [`gram_fold`]).
    WriteFold,
}

impl Lane {
    fn new<'a>(per_mode: impl IntoIterator<Item = &'a [u32]>, tail: Range<usize>) -> Self {
        let mut lane = Lane {
            rows: Vec::new(),
            ends: Vec::new(),
            tail,
        };
        for rows in per_mode {
            lane.rows.extend_from_slice(rows);
            lane.ends.push(lane.rows.len());
        }
        lane
    }

    /// The lane's rows of each of its round's modes, in order.
    fn per_mode(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.rows[start..end])
    }
}

impl Schedule {
    /// Compiles the rounds from `routes[n][w][d]`, the mode-`n` rows `w`
    /// references and `d` owns, and `gathered[w][n]`, `w`'s mode-`n` rows
    /// for rank 0.  Mode `n` stages `2R² + R` Gram values, the last mode
    /// one more (the loss slot); a round's tails slice the buffer riding it.
    fn compile(routes: &[Vec<Vec<Vec<u32>>>], gathered: &[Vec<Vec<u32>>], r: usize) -> Self {
        let (order, world) = (routes.len(), gathered.len());
        let staged = |n: usize| packed_len(r) + usize::from(n + 1 == order);
        let round = |modes: Range<usize>, recv, lane: &dyn Fn(usize, usize) -> Lane| Round {
            modes,
            lanes: (0..world)
                .map(|src| (0..world).map(|dst| lane(src, dst)).collect())
                .collect(),
            recv,
        };
        let partials = (0..order).map(|n| {
            let len = staged((n + order - 1) % order);
            round(n..n + 1, Recv::AddCopy, &|src, dst| {
                Lane::new([&routes[n][src][dst][..]], gram_slice(src, world, len))
            })
        });
        let refresh = (0..order).map(|n| {
            round(n..n + 1, Recv::WriteFold, &|src, dst| {
                Lane::new(
                    [&routes[n][dst][src][..]],
                    gram_slice(dst, world, staged(n)),
                )
            })
        });
        let gather = round(0..order, Recv::WriteFold, &|src, dst| match dst {
            0 => Lane::new(
                gathered[src].iter().map(Vec::as_slice),
                0..staged(order - 1),
            ),
            _ => Lane::new((0..order).map(|_| &[][..]), 0..0),
        });
        Schedule {
            r,
            partials: partials.collect(),
            refresh: refresh.collect(),
            gather,
        }
    }

    /// The mode whose Gram reduction rides iteration `iter`'s mode-`n`
    /// partials round: the mode before — for mode 0 the last mode of the
    /// iteration before — and none on the run's first.
    fn riding(&self, iter: usize, n: usize) -> Option<usize> {
        let order = self.partials.len();
        (iter > 0 || n > 0).then(|| (n + order - 1) % order)
    }

    /// Whether iteration `iter`'s mode-`n` refresh is posted in a run
    /// scheduled for `iters` iterations: every one but the last, whose
    /// rows nothing would read.
    fn posts_refresh(&self, iter: usize, n: usize, iters: usize) -> bool {
        iter + 1 < iters || n + 1 < self.refresh.len()
    }

    /// Whether the gather carries a tail after `iterations` of `iters`
    /// scheduled: the last refresh's, which was not posted — so not after a
    /// tolerance stop, which posted its last refresh.
    fn gather_tail(&self, iterations: usize, iters: usize) -> bool {
        iterations == iters
    }

    /// The rounds a run of `iterations` iterations posts, in order, each with
    /// whether it carries its tail; a run that `stopped` early adds the
    /// partials round it broke after.
    fn walk(&self, iterations: usize, stopped: bool) -> impl Iterator<Item = (&Round, bool)> {
        // A stopped run was scheduled for more iterations than it ran.
        let iters = iterations + usize::from(stopped);
        let order = self.partials.len();
        let modes = (0..iterations).flat_map(move |iter| (0..order).map(move |n| (iter, n)));
        let rounds = modes.flat_map(move |(iter, n)| {
            let refresh = self.posts_refresh(iter, n, iters);
            let partials = (&self.partials[n], self.riding(iter, n).is_some());
            std::iter::once(partials).chain(refresh.then_some((&self.refresh[n], true)))
        });
        let stop = stopped.then_some((&self.partials[0], true));
        let gather = (&self.gather, self.gather_tail(iterations, iters));
        rounds.chain(stop).chain(std::iter::once(gather))
    }

    /// Bytes each rank sends in such a run: `CommStats::bytes_by_sender`.
    fn bytes_by_sender(&self, iterations: usize, stopped: bool) -> Vec<u64> {
        let mut bytes = vec![0; self.gather.lanes.len()];
        for (round, tail) in self.walk(iterations, stopped) {
            for (src, lanes) in round.lanes.iter().enumerate() {
                for (dst, lane) in lanes.iter().enumerate() {
                    let tail = if tail { lane.tail.len() } else { 0 };
                    if dst != src {
                        bytes[src] += ((lane.rows.len() * self.r + tail) * 8) as u64;
                    }
                }
            }
        }
        bytes
    }

    /// Collectives such a run enters: one per round.
    fn collectives(&self, iterations: usize, stopped: bool) -> u64 {
        self.walk(iterations, stopped).count() as u64
    }
}

/// Decomposes `x` on `cluster` — the one solver entry.
///
/// * `history` — `{Ã_n}`, the previous snapshot's CP factors, with `x` the
///   relative complement `X \ X̃` in the **new snapshot's coordinate
///   space** (no entry inside the old box): DisMASTD's DTD step (Alg. 1).
/// * `&[]` — no history: static CP-ALS over the full tensor (DMS-MG at
///   world ≥ 2).
///
/// World 1 runs on the caller's thread over the borrowed tensor; kernel
/// lanes follow `cfg.threads`, the bits do not.  Default
/// [`ClusterOptions`]; spans and counters land in the caller's metrics
/// registry.
///
/// # Errors
/// Validates configuration and shapes — a mode longer than `u32::MAX` is
/// refused with [`TensorError::PlanOverflow`] before anything is sized by
/// it; propagates partitioning and solver errors.
pub fn decompose(
    x: &SparseTensor,
    history: &[Matrix],
    cfg: &DecompConfig,
    cluster: &ClusterConfig,
) -> Result<Decomposition> {
    // Every entry must lie outside the old box.
    let old_rows: Vec<usize> = history.iter().map(Matrix::rows).collect();
    debug_assert!(
        history.is_empty()
            || x.iter()
                .all(|(idx, _)| SparseTensor::block_of(idx, &old_rows) != 0)
    );
    let placement = place(x, cluster, &old_rows, cfg.rank)?;
    run_distributed(x, history, cfg, &ClusterOptions::default(), &placement)
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

/// The one driver behind [`decompose`] and the streaming session: runs
/// `placement`, laid out for `tensor` by [`place`] against the history's
/// row counts, under explicit [`ClusterOptions`] (receive deadlines and,
/// for chaos testing, a deterministic fault plan).  An empty history is
/// the zero-row one.  Every rank's metrics are folded into the caller's
/// registry.  A worker crash or timeout surfaces as
/// [`TensorError::ClusterFault`] rather than a hang.
pub(crate) fn run_distributed(
    tensor: &SparseTensor,
    old_factors: &[Matrix],
    cfg: &DecompConfig,
    opts: &ClusterOptions,
    placement: &Placement,
) -> Result<Decomposition> {
    cfg.validate().map_err(TensorError::InvalidArgument)?;
    let rank = cfg.rank;
    let zero_old;
    let old_factors = if old_factors.is_empty() {
        zero_old = zero_history(tensor.order(), rank);
        &zero_old
    } else {
        old_factors
    };
    let old_rows: Vec<usize> = old_factors.iter().map(Matrix::rows).collect();

    // Shared read-only inputs; `init_factors` also checks the history's
    // order and row counts, which the placement's gather lists read.
    let init = init_factors(old_factors, tensor.shape(), rank, cfg.seed)?;
    let Placement {
        plans, schedule, ..
    } = placement;

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
        schedule,
        init: &init,
        old: old_factors,
        old_rows: &old_rows,
        setup: &setup,
        untouched: &untouched,
        cfg,
        loss_parts: LossParts {
            mu: cfg.forgetting,
            old_norm_sq: old_norm_sq(old_factors)?,
            complement_norm_sq: tensor.norm_sq(),
            inner: 0.0,
        },
        // Worker threads have their own thread-local metric registries, so
        // each rank decides up front — from the driver's state — whether to
        // collect.
        collect: dismastd_obs::installed(),
    };
    let (mut results, comm) =
        Cluster::try_run_with_opts(plans.len(), opts, |ctx| worker_body(ctx, &inputs))
            .map_err(cluster_fault)?;

    // Every rank's metrics join the caller's registry, in rank order, before
    // rank 0 is consumed; a rank that failed simply contributes nothing.
    for wm in results
        .iter()
        .flatten()
        .filter_map(|wr| wr.metrics.as_ref())
    {
        dismastd_obs::absorb(wm);
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
    // What the schedule says the run sent is what the cluster counted,
    // unless a fault plan injected traffic of its own.
    if opts.fault_plan.is_none() {
        let stopped = iterations < cfg.max_iters;
        debug_assert_eq!(
            comm.bytes_by_sender,
            schedule.bytes_by_sender(iterations, stopped)
        );
        debug_assert_eq!(comm.collectives, schedule.collectives(iterations, stopped));
    }

    Ok(Decomposition {
        kruskal: KruskalTensor::new(factors)?,
        iterations,
        loss_trace,
        comm,
        setup_bytes: setup_bytes(plans, schedule),
        elapsed: placement.started.elapsed(),
        iter_elapsed,
        numerics,
    })
}

/// Everything a rank reads but never writes: the step's placement and
/// schedule, the initial and previous factors, set-up's Gram state, the
/// untouched old rows' `P_n`, the run's configuration and Eq. 4's constant
/// terms (each loss adds its inner product).  Borrowed from the driver's
/// stack — the cluster runs on scoped threads.
struct WorkerInputs<'a> {
    plans: &'a [WorkerPlan],
    schedule: &'a Schedule,
    init: &'a [Matrix],
    old: &'a [Matrix],
    old_rows: &'a [usize],
    setup: &'a GramState,
    untouched: &'a UntouchedRows,
    cfg: &'a DecompConfig,
    loss_parts: LossParts,
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
/// partial-product matrices, the staging buffer of one mode's packed
/// partials, which the refresh tails slice, and the one mode's reduced
/// products (and loss slot) the tails assemble.  Allocated once per worker
/// and overwritten each mode, so the steady-state Gram path performs no
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

    /// Stages the three partials, packed (see [`packed_len`]), in place of
    /// the last mode's.  `gram_rows` returns `G⁰` and `G¹` partials that are
    /// symmetric bit for bit, so their lower triangles carry nothing the
    /// upper ones do not.
    fn stage(&mut self) {
        let r = self.g0.rows();
        self.buf.clear();
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
/// rides the two row rounds around it instead of running as an
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

/// The one round executor: packs a rank's lanes of a [`Schedule`] round
/// from its payload pool and unpacks what arrives.  A round's tails ride
/// when it is handed the Gram workspace, and not otherwise.  Its tables are
/// refilled in place, so a steady-state round allocates nothing.
struct Executor {
    pool: BufferPool,
    outgoing: Vec<Payload>,
    incoming: Vec<Payload>,
}

impl Executor {
    fn new(world: usize) -> Self {
        Executor {
            pool: BufferPool::new(true),
            outgoing: Vec::with_capacity(world),
            incoming: Vec::with_capacity(world),
        }
    }

    /// Posts this rank's lanes of `round`, rows of `mats`, to every peer.
    fn post_round(
        &mut self,
        ctx: &mut WorkerCtx,
        round: &Round,
        mats: &[Matrix],
        tails: Option<&GramWorkspace>,
    ) -> ClusterResult<PendingExchange> {
        let me = ctx.rank();
        self.outgoing.clear();
        for (dst, lane) in round.lanes[me].iter().enumerate() {
            self.outgoing.push(if dst == me {
                Payload::Empty
            } else {
                pack(round, lane, mats, tails, &mut self.pool)
            });
        }
        ctx.post_exchange(&mut self.outgoing)
    }

    /// Completes a posted `round` and unpacks it into `mats` and `tails`.
    fn complete_round(
        &mut self,
        ctx: &mut WorkerCtx,
        round: &Round,
        pending: PendingExchange,
        mats: &mut [Matrix],
        tails: Option<&mut GramWorkspace>,
    ) -> ClusterResult<()> {
        ctx.complete_exchange(pending, &mut self.incoming)?;
        let payloads = self.incoming.drain(..);
        unpack(round, ctx.rank(), payloads, mats, tails, &mut self.pool)
    }

    /// Runs the gather `round` on `try_gather`: every rank ships its lane to
    /// rank 0, which unpacks them.  Whether this is rank 0.
    fn gather_round(
        &mut self,
        ctx: &mut WorkerCtx,
        round: &Round,
        mats: &mut [Matrix],
        tails: Option<&mut GramWorkspace>,
    ) -> ClusterResult<bool> {
        let me = ctx.rank();
        let payload = match me {
            0 => Payload::Empty,
            _ => pack(
                round,
                &round.lanes[me][0],
                mats,
                tails.as_deref(),
                &mut self.pool,
            ),
        };
        let Some(gathered) = ctx.try_gather(0, payload)? else {
            return Ok(false);
        };
        unpack(round, me, gathered, mats, tails, &mut self.pool)?;
        Ok(true)
    }
}

/// Packs one lane of `round` into a payload drawn from `pool` (an empty
/// `Vec` when the pool is dry): its rows of `mats`, mode after mode, then
/// — when `tails` is given — its tail range of the buffer the round packs
/// tails from (see [`Recv`]).
fn pack(
    round: &Round,
    lane: &Lane,
    mats: &[Matrix],
    tails: Option<&GramWorkspace>,
    pool: &mut BufferPool,
) -> Payload {
    let (lo, hi) = (lane.tail.start, lane.tail.end);
    let tail = tails.map_or(&[][..], |ws| match round.recv {
        Recv::AddCopy => &ws.reduced[lo..hi],
        Recv::WriteFold => &ws.buf[lo..hi],
    });
    let mut out = pool.take();
    out.reserve(lane.rows.len() * mats[round.modes.start].cols() + tail.len());
    for (n, rows) in (round.modes.start..).zip(lane.per_mode()) {
        for &row in rows {
            out.extend_from_slice(mats[n].row(row as usize));
        }
    }
    out.extend_from_slice(tail);
    Payload::F64(out)
}

/// Unpacks every rank's payload of `round` on rank `me`, in rank order, as
/// the round's [`Recv`] says: rows into `mats`, then — when `tails` is
/// given — the tail into the reduced buffer.  `me`'s own payload is never
/// read; a folding round folds `me`'s staged share at its turn instead.
///
/// # Errors
/// [`ClusterError::SizeMismatch`] naming the sender of a payload that is
/// not its lane's rows × `R` plus the tail.
fn unpack(
    round: &Round,
    me: usize,
    payloads: impl IntoIterator<Item = Payload>,
    mats: &mut [Matrix],
    mut tails: Option<&mut GramWorkspace>,
    pool: &mut BufferPool,
) -> ClusterResult<()> {
    let r = mats[round.modes.start].cols();
    for (src, payload) in payloads.into_iter().enumerate() {
        let lane = &round.lanes[src][me];
        let (lo, hi) = (lane.tail.start, lane.tail.end);
        if src == me {
            if let (Recv::WriteFold, Some(ws)) = (round.recv, tails.as_deref_mut()) {
                gram_fold(&mut ws.reduced[lo..hi], src, &ws.buf[lo..hi]);
            }
            continue;
        }
        let tail_len = if tails.is_some() { hi - lo } else { 0 };
        let data = decode_rows_and_tail(payload, src, &lane.rows, r, tail_len)?;
        let mut at = 0;
        for (n, list) in (round.modes.start..).zip(lane.per_mode()) {
            let mode = &data[at..at + list.len() * r];
            match round.recv {
                Recv::AddCopy => add_rows(&mut mats[n], list, mode),
                Recv::WriteFold => write_rows(&mut mats[n], list, mode),
            }
            at += mode.len();
        }
        if let Some(ws) = tails.as_deref_mut() {
            let (sum, part) = (&mut ws.reduced[lo..hi], &data[at..]);
            match round.recv {
                Recv::AddCopy => sum.copy_from_slice(part),
                Recv::WriteFold => gram_fold(sum, src, part),
            }
        }
        pool.put(data);
    }
    Ok(())
}

fn worker_body(
    ctx: &mut WorkerCtx,
    inputs: &WorkerInputs<'_>,
) -> ClusterResult<std::result::Result<WorkerResult, TensorError>> {
    let (plans, schedule, cfg) = (inputs.plans, inputs.schedule, inputs.cfg);
    let (old, old_rows) = (inputs.old, inputs.old_rows);
    // A failed rank's guard discards its half-measured registry.
    let collector = inputs.collect.then(dismastd_obs::begin);
    let (me, world) = (ctx.rank(), ctx.world());
    let plan = &plans[me];
    let (order, r, mu) = (old.len(), cfg.rank, cfg.forgetting);
    let solver = RobustSolver::new(cfg.numerics.solver);
    let mut fact = Factorized::default();
    // The decisions this rank takes, and its own post-solve escalations.
    let (mut decisions, mut post) = (DecisionRecord::default(), NumericsReport::default());
    // Replicated factor copies; only owned ∪ referenced rows stay fresh.
    let mut factors: Vec<Matrix> = inputs.init.to_vec();
    let mut hat: Vec<Matrix> = factors.iter().map(|f| Matrix::zeros(f.rows(), r)).collect();
    let (mut ws, mut exec) = (GramWorkspace::new(r), Executor::new(world));
    // The machine's kernel budget split across the co-resident ranks.
    let pool = ThreadPool::new(cfg.threads.resolve_for_world(world));
    // Replicated `R×R` state, set-up's until the reductions rebuild it; every
    // rank forms the untouched old rows' maps, rank 0 adds their Grams.
    let (mut state, mut maps) = (inputs.setup.clone(), inputs.untouched.clone());
    let owned = owned_blocks(plan, old_rows);
    let (mut loss_trace, mut iterations) = (Vec::with_capacity(cfg.max_iters), 0);
    // lint:allow(determinism, clock_hygiene): elapsed-time reporting only
    let iter_start = Instant::now();
    // The previous mode's refresh, on the wire during this mode's MTTKRP.
    let mut in_flight: Option<(usize, PendingExchange)> = None;

    'iterations: for iter in 0..cfg.max_iters {
        for n in 0..order {
            // -- fence: the MTTKRP reads every factor ----------------------
            if let Some((m, pending)) = in_flight.take() {
                let _s = dismastd_obs::span("phase/exchange");
                let round = &schedule.refresh[m];
                exec.complete_round(ctx, round, pending, &mut factors, Some(&mut ws))?;
            }
            let (partials, riding) = (&schedule.partials[n], schedule.riding(iter, n));
            {
                let _s = dismastd_obs::span("phase/mttkrp");
                let mttkrp = local_partials(plan, partials, me, &factors, &mut hat[n], &pool);
                try_num!(mttkrp);
            }
            {
                let _s = dismastd_obs::span("phase/exchange");
                let pending = exec.post_round(ctx, partials, &hat, riding.map(|_| &ws))?;
                exec.complete_round(ctx, partials, pending, &mut hat, riding.map(|_| &mut ws))?;
            }
            // The previous mode's products land, after a last mode with its
            // iteration's loss; a stop breaks before this mode decides.
            let landed = riding.map(|m| land_reduction(&ws, &mut state, m, &inputs.loss_parts));
            loss_trace.extend(try_num!(landed.transpose()).flatten());
            if riding == Some(order - 1) && converged(&loss_trace, cfg.tolerance) {
                break 'iterations;
            }
            // -- decide and solve Eq. 5, row-wise, on every rank -----------
            // A block is decided iff it has rows *globally*, from replicated
            // products: every rank walks the same ladder.  A non-finite share
            // is re-solved under the forced ridge, tallied in `post`.
            let [touched, new, _] = owned[n];
            {
                let _s = dismastd_obs::span("phase/solve");
                try_num!(state.prepare_mode(n, mu));
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
            // -- Gram partials over its owned rows; on the last mode, its
            // share of `⟨X \ X̃, Y⟩` (Eq. 7) over its solved rows as one slot.
            {
                let _s = dismastd_obs::span("phase/gram");
                let blocks = [row_set(touched), row_set(new)];
                try_num!(mode_grams(&factors[n], &old[n], &blocks, ws.targets()));
                if me == 0 {
                    maps.add_grams(n, ws.targets());
                }
                ws.stage();
            }
            if n == order - 1 {
                let _s = dismastd_obs::span("phase/loss");
                let rows = touched.iter().chain(new).map(|&row| row as usize);
                let inner: f64 = rows.map(|i| dot(hat[n].row(i), factors[n].row(i))).sum();
                ws.buf.push(inner);
            }
            if schedule.posts_refresh(iter, n, cfg.max_iters) {
                let _s = dismastd_obs::span("phase/exchange");
                let pending = exec.post_round(ctx, &schedule.refresh[n], &factors, Some(&ws))?;
                in_flight = Some((n, pending));
            }
        }
        iterations += 1;
    }
    // A stop breaks after a completed round; the scheduled end posts none.
    debug_assert!(in_flight.is_none());
    let iter_elapsed = iter_start.elapsed();
    count_solves(me, order, &decisions, &post, &maps);

    // ---- gather: what a rank ships must hold its final bytes, so each rank
    // writes its untouched old rows from the last maps, rank 0 everyone's.
    let tail = schedule.gather_tail(iterations, cfg.max_iters);
    let root = {
        let _s = dismastd_obs::span("phase/gather");
        for plan in if me == 0 { plans } else { &plans[me..=me] } {
            for (n, rows) in plan.untouched_rows.iter().enumerate() {
                maps.write_rows(n, &mut factors[n], &old[n], below(rows, old_rows[n]));
            }
        }
        exec.gather_round(ctx, &schedule.gather, &mut factors, tail.then_some(&mut ws))?
    };
    // The last mode's partials and loss slot rode the gather's tail.
    if root && tail {
        let landed = land_reduction(&ws, &mut state, order - 1, &inputs.loss_parts);
        loss_trace.extend(try_num!(landed));
    }
    // No decision follows the last mode to refuse a non-finite share.
    let factors = root.then_some(factors);
    try_num!(factors.as_deref().map_or(Ok(()), all_finite));

    Ok(Ok(WorkerResult {
        loss_trace,
        iterations,
        factors,
        iter_elapsed,
        decisions,
        post,
        metrics: collector.map(dismastd_obs::Collector::finish),
    }))
}

/// Writes mode `m`'s reduced products into the replicated state and, after
/// the last mode, evaluates the loss whose inner product rode in the slot
/// after them.
fn land_reduction(
    ws: &GramWorkspace,
    state: &mut GramState,
    m: usize,
    parts: &LossParts,
) -> Result<Option<f64>> {
    let packed = ws.reduced.len() - 1;
    {
        let _s = dismastd_obs::span("phase/gram");
        unpack_grams(&ws.reduced[..packed], state, m);
    }
    if m + 1 < state.cross.len() {
        return Ok(None);
    }
    let _s = dismastd_obs::span("phase/loss");
    let inner = ws.reduced[packed];
    dtd_loss(state, &LossParts { inner, ..*parts }).map(Some)
}

/// Refuses assembled `factors` with a non-finite entry, naming its mode.
pub(crate) fn all_finite(factors: &[Matrix]) -> Result<()> {
    for (mode, f) in factors.iter().enumerate() {
        if let Some(&value) = f.as_slice().iter().find(|v| !v.is_finite()) {
            let index = vec![mode];
            return Err(TensorError::NonFiniteValue { index, value });
        }
    }
    Ok(())
}

/// Counts this rank's solves per tier — its own re-solves, and on rank 0
/// the replicated decisions too, so the merged snapshot counts the run's
/// `numerics` (label 0/1/2 = cholesky/lu/ridge) — and, on rank 0, each
/// mode's untouched old rows.
fn count_solves(
    me: usize,
    order: usize,
    decisions: &DecisionRecord,
    post: &NumericsReport,
    maps: &UntouchedRows,
) {
    let mut tiers = *post;
    if me == 0 {
        tiers.absorb(&decisions.numerics);
        for n in (0..order).filter(|&n| maps.count(n) > 0) {
            dismastd_obs::counter_add_with("solve/untouched_rows", n as u64, maps.count(n) as u64);
        }
    }
    let solves = [tiers.cholesky_solves, tiers.lu_solves, tiers.ridge_solves];
    for (label, &count) in (0u64..).zip(&solves).filter(|(_, &count)| count > 0) {
        dismastd_obs::counter_add_with("solve/tier", label, count);
    }
}

/// A worker's mode-`n` MTTKRP partials (Sec. IV-B1), `n` the mode of its
/// partials `round`: the rows of `hat` a mode-iteration writes are zeroed,
/// then every cell adds one run total per row it touches, cells in
/// ascending cell order and a cell's entries in stored order within the
/// total — `hat[i] = ((0 + T₁) + T₂) + …`.  That order is part of the
/// numerics: it is what "bit-identical per (grid, world)" holds a run to.
/// So is the grid's row ownership: a row's owner starts from its own
/// partial and adds its peers' in ascending rank order, and a Gram partial
/// covers the rows a rank owns.
///
/// Those rows are the owned rows some nonzero references (the cells' and
/// the peers' partials land there) and the rows the round routes to their
/// owners, each once: the lists are disjoint.  Every other row of `hat` is
/// never written, so it still holds the zero it was allocated with.
fn local_partials(
    plan: &WorkerPlan,
    round: &Round,
    me: usize,
    factors: &[Matrix],
    hat: &mut Matrix,
    pool: &ThreadPool,
) -> Result<()> {
    let n = round.modes.start;
    let routed = round.lanes[me].iter().map(|lane| lane.rows.as_slice());
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
        let mut part = Vec::with_capacity(packed_len(r) * init.len());
        for n in 0..init.len() {
            // Every owned old row, untouched ones included: at set-up they
            // still hold `Ã_n`.
            let rows = &plan.owned_rows[n];
            let split = below(rows, old_rows[n]).len();
            let blocks = [row_set(&rows[..split]), row_set(&rows[split..])];
            mode_grams(&init[n], &old[n], &blocks, ws.targets())?;
            ws.stage();
            part.extend_from_slice(&ws.buf);
        }
        partials.push(part);
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

/// Splits the tensor over workers and grid cells, builds one
/// [`MttkrpPlan`] per non-empty cell (each reads `tensor` where it is; no
/// cell is copied), derives row ownership and compiles the step's
/// [`Schedule`] at rank `r`.  `old_rows[n]` is mode `n`'s row count in the
/// history (`Ĩ_n`).
fn build_plans(
    tensor: &SparseTensor,
    grid: &GridPartition,
    world: usize,
    old_rows: &[usize],
    r: usize,
) -> Result<(Vec<WorkerPlan>, Schedule)> {
    let order = tensor.order();
    // Per-worker, per-mode referenced-row sets.
    let mut needed: Vec<Vec<Vec<bool>>> = (0..world)
        .map(|_| tensor.shape().iter().map(|&s| vec![false; s]).collect())
        .collect();
    let mut cells_by_worker: Vec<Vec<MttkrpPlan>> = (0..world).map(|_| Vec::new()).collect();
    let mut local_nnz = vec![0usize; world];
    // One plan per non-empty cell, each over `tensor` itself, in
    // ascending cell order, laid out on this thread: a fine grid's cells
    // are far too small to pay for a pool dispatch each (`fig6`, 38³
    // cells: 35 s with one, 26 s without).  A worker references the rows
    // its cells' plans touch.  A one-cell grid (world 1) keys every entry
    // to cell 0 without the per-mode part lookups of `cell_of`.
    let one_cell = grid.num_cells() == 1;
    let cells = MttkrpPlan::cells(tensor, grid.num_cells(), |idx| {
        if one_cell {
            0
        } else {
            grid.cell_of(idx)
        }
    })?;
    for (cell, plan) in cells {
        let w = grid.worker_of_cell(cell);
        for (n, marks) in needed[w].iter_mut().enumerate() {
            for &row in plan.touched_rows(n) {
                marks[row as usize] = true;
            }
        }
        local_nnz[w] += plan.nnz();
        cells_by_worker[w].push(plan);
    }

    // Row ownership: every row of every mode has exactly one owner.  An
    // owned row is touched when some worker's nonzeros reference it.  Rank
    // 0 forms every untouched old row and, in modes below the last, holds
    // every row it reads, final: only the other rows are gathered.
    let mut owned_rows: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); order]; world];
    let mut touched_rows = owned_rows.clone();
    let mut untouched_rows = owned_rows.clone();
    let mut gathered = owned_rows.clone();
    // `routes[n][w][d]`: mode-`n` rows worker `w` references and `d` owns.
    let mut routes: Vec<Vec<Vec<Vec<u32>>>> = vec![vec![vec![Vec::new(); world]; world]; order];
    for n in 0..order {
        for row in 0..tensor.shape()[n] {
            let w = grid.row_owner(n, row);
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
                gathered[w][n].push(row_id);
            }
            for (reader, marks) in needed.iter().enumerate() {
                if reader != w && marks[n][row] {
                    routes[n][reader][w].push(row_id);
                }
            }
        }
    }

    let plans = (0..world)
        .zip(cells_by_worker)
        .map(|(w, cells)| WorkerPlan {
            cells,
            local_nnz: local_nnz[w],
            owned_rows: std::mem::take(&mut owned_rows[w]),
            touched_rows: std::mem::take(&mut touched_rows[w]),
            untouched_rows: std::mem::take(&mut untouched_rows[w]),
        })
        .collect();
    Ok((plans, Schedule::compile(&routes, &gathered, r)))
}

/// Per sender, the owned rows the gather does not ship for a step over
/// `tensor` with `old_rows` rows of history: those rank 0 forms or holds.
/// Rank 0's are all of its own.
#[cfg(test)]
pub(crate) fn gather_skipped_rows(
    tensor: &SparseTensor,
    old_rows: &[usize],
    cluster: &ClusterConfig,
) -> Vec<u64> {
    let Placement {
        plans, schedule, ..
    } = place(tensor, cluster, old_rows, 1).unwrap();
    let owned = |plan: &WorkerPlan| plan.owned_rows.iter().map(Vec::len).sum::<usize>();
    let shipped = |k: usize| schedule.gather.lanes[k][0].rows.len();
    (0..plans.len())
        .map(|k| (owned(&plans[k]) - shipped(k)) as u64)
        .collect()
}

/// Bytes needed to stage the computation (Theorem 4's data-distribution
/// terms): each worker's tensor partition in coordinate format plus every
/// factor row it owns or references — the latter are the rows its
/// partials rounds route to their owners.
fn setup_bytes(plans: &[WorkerPlan], schedule: &Schedule) -> u64 {
    let mut total = 0u64;
    for (w, plan) in plans.iter().enumerate() {
        // Coordinate format: N 4-byte indices + one 8-byte value per nonzero.
        total += plan.local_nnz as u64 * (4 * plan.owned_rows.len() as u64 + 8);
        let owned: usize = plan.owned_rows.iter().map(Vec::len).sum();
        let lanes = schedule.partials.iter().flat_map(|round| &round.lanes[w]);
        let routed: usize = lanes.map(|lane| lane.rows.len()).sum();
        total += (owned + routed) as u64 * schedule.r as u64 * 8;
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
        let dist = decompose(&x, &old, &cfg(), &ClusterConfig::new(1)).unwrap();
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
                let dist = decompose(
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
        let dist = decompose(&x, &[], &cfg(), &ClusterConfig::new(3)).unwrap();
        for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn multi_worker_communicates_single_does_not() {
        let x = random_tensor(&[8, 8, 8], 100, 7);
        let one = decompose(&x, &[], &cfg(), &ClusterConfig::new(1)).unwrap();
        let four = decompose(&x, &[], &cfg(), &ClusterConfig::new(4)).unwrap();
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
        match decompose(&t, &[], &cfg(), &ClusterConfig::new(2)) {
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
        let out = decompose(
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
        let out = decompose(
            &x,
            &[],
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
        assert!(decompose(
            &x,
            &[],
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
                    let out = decompose(&x, &[], &cfg, &cluster).unwrap();
                    assert_eq!(out.iterations, cfg.max_iters);
                    let iters = out.iterations as u64;
                    assert_eq!(out.comm.collectives, 2 * order * iters - 1 + 1, "{tag}");
                    // Tolerance 1 stops after the second iteration's loss,
                    // which the third iteration's mode-0 partials exchange
                    // brings: that refresh is sent, that exchange too, and
                    // the gather carries no tail.
                    let out = decompose(&x, &[], &cfg.with_tolerance(1.0), &cluster).unwrap();
                    let k = out.iterations as u64;
                    assert_eq!(k, 2, "{tag}");
                    assert_eq!(out.comm.collectives, 2 * order * k + 2, "{tag}");
                }
            }
        }
    }

    #[test]
    fn the_schedule_predicts_every_senders_bytes_and_the_collectives() {
        // The schedule's own prediction against what the cluster counted:
        // worlds 1 (nothing crosses a rank boundary) to 5, R 3 and 10, a
        // warm step run to its scheduled end and one stopped by tolerance.
        // `run_distributed` asserts the same in debug builds only.
        let old_shape = [10usize, 9, 8];
        let x = random_complement(&old_shape, &[12, 11, 9], 120, 91);
        for world in 1usize..=5 {
            for r in [3usize, 10] {
                let mut rng = ChaCha8Rng::seed_from_u64(92);
                let old: Vec<Matrix> = old_shape
                    .iter()
                    .map(|&s| Matrix::random(s, r, &mut rng))
                    .collect();
                for tolerance in [0.0, 1.0] {
                    let tag = format!("world {world} R {r} tolerance {tolerance}");
                    let cfg = cfg().with_rank(r).with_tolerance(tolerance);
                    let (cluster, opts) = (ClusterConfig::new(world), ClusterOptions::default());
                    let placement = place(&x, &cluster, &old_shape, r).unwrap();
                    let out = run_distributed(&x, &old, &cfg, &opts, &placement).unwrap();
                    let stopped = out.iterations < cfg.max_iters;
                    assert_eq!(stopped, tolerance > 0.0, "{tag}");
                    let schedule = &placement.schedule;
                    let predicted = schedule.bytes_by_sender(out.iterations, stopped);
                    assert_eq!(out.comm.bytes_by_sender, predicted, "{tag}");
                    assert_eq!(out.comm.bytes, predicted.iter().sum::<u64>(), "{tag}");
                    let collectives = schedule.collectives(out.iterations, stopped);
                    assert_eq!(out.comm.collectives, collectives, "{tag}");
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
            // The row lists do not depend on R.
            let (plans, schedule) = build_plans(&x, &grid, world, &[0; 3], 3).unwrap();
            // Rows rank `k` sends in one of the mode's rounds, and rows
            // rank `k` reads of mode `n` that `d` owns.
            let sent = |rounds: &[Round], n: usize, k: usize| -> usize {
                rounds[n].lanes[k].iter().map(|lane| lane.rows.len()).sum()
            };
            let reads = |k: usize, n: usize, d: usize| schedule.partials[n].lanes[k][d].rows.len();
            for r in [3u64, 10] {
                let cfg = cfg().with_rank(r as usize).with_tolerance(0.0);
                let packed = 2 * r * r + r;
                let out = decompose(&x, &[], &cfg, &cluster).unwrap();
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
                        let per_iter: usize = (0..3)
                            .map(|n| sent(&schedule.partials, n, k) + sent(&schedule.refresh, n, k))
                            .sum();
                        let unread = sent(&schedule.refresh, 2, k) as u64;
                        // Every owned row but those rank 0 forms or holds:
                        // with no history no row is an untouched old one,
                        // and rank 0 holds the rows it reads of modes 0
                        // and 1 from their last refreshes.
                        let gathered: usize = if k == 0 {
                            0
                        } else {
                            plan.owned_rows.iter().map(Vec::len).sum::<usize>()
                                - (0..2).map(|n| reads(0, n, k)).sum::<usize>()
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

    /// `x`'s placement for `cluster` under the gather this one replaced:
    /// every rank ships every owned row, so whatever rank 0 forms or holds
    /// is overwritten by what the owner sent.  The test-only reference for
    /// the gather lists.
    fn every_owned_row_gather(
        x: &SparseTensor,
        old_rows: &[usize],
        cluster: &ClusterConfig,
    ) -> Placement {
        let mut placement = place(x, cluster, old_rows, cfg().rank).unwrap();
        for (k, plan) in placement.plans.iter().enumerate() {
            let lane = &mut placement.schedule.gather.lanes[k][0];
            *lane = Lane::new(plan.owned_rows.iter().map(Vec::as_slice), lane.tail.clone());
        }
        placement
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
                    let run = |placement: &Placement| {
                        let opts = ClusterOptions::default();
                        run_distributed(x, old, &cfg, &opts, placement).unwrap()
                    };
                    let placement = place(x, &cluster, &old_rows, r).unwrap();
                    let out = run(&placement);
                    let reference = run(&every_owned_row_gather(x, &old_rows, &cluster));
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
                    let Placement {
                        plans, schedule, ..
                    } = &placement;
                    assert_eq!(
                        out.comm.bytes_by_sender[0], reference.comm.bytes_by_sender[0],
                        "{tag}"
                    );
                    for k in 1..world {
                        let untouched: usize = (0..3)
                            .map(|n| below(&plans[k].untouched_rows[n], old_rows[n]).len())
                            .sum();
                        let held: usize = (0..2)
                            .map(|n| schedule.partials[n].lanes[0][k].rows.len())
                            .sum();
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
        // A gather over a 3 × 2 mode and a 4 × 2 one at world 3: sender 2
        // ships rows {0, 2} of the first and row {1} of the second, then a
        // 3-value tail: 2·2 + 1·2 + 3 = 9 values.
        let lane = |src: usize, dst: usize| match (src, dst) {
            (2, 0) => Lane::new([&[0u32, 2][..], &[1]], 0..3),
            _ => Lane::new([&[][..], &[]], 0..0),
        };
        let gather = Round {
            modes: 0..2,
            lanes: (0..3)
                .map(|s| (0..3).map(|d| lane(s, d)).collect())
                .collect(),
            recv: Recv::WriteFold,
        };
        let fresh = || vec![Matrix::zeros(3, 2), Matrix::zeros(4, 2)];
        let mut ws = GramWorkspace::new(1);
        let mut pool = BufferPool::new(true);
        let mut receive = |out: &mut [Matrix], data: Vec<f64>| {
            let payloads = [Payload::Empty, Payload::Empty, Payload::F64(data)];
            unpack(&gather, 0, payloads, out, Some(&mut ws), &mut pool)
        };
        let data: Vec<f64> = (1..=9).map(f64::from).collect();
        let mut out = fresh();
        receive(&mut out, data.clone()).unwrap();
        assert_eq!(out[0].row(0), [1.0, 2.0]);
        assert_eq!(out[0].row(2), [3.0, 4.0]);
        assert_eq!(out[1].row(1), [5.0, 6.0]);
        // Truncated (a missing tail value, or a missing row) and over-long
        // payloads name their sender instead of panicking or truncating.
        for len in [8, 4, 10] {
            match receive(&mut fresh(), vec![1.0; len]) {
                Err(ClusterError::SizeMismatch {
                    rank: 2,
                    expected: 9,
                    found,
                }) => assert_eq!(found, len),
                other => panic!("length {len}: {other:?}"),
            }
        }
        // And the driver charges the fault to that rank.
        let err = receive(&mut fresh(), data[..8].to_vec()).unwrap_err();
        assert!(matches!(
            cluster_fault(err),
            TensorError::ClusterFault { rank: Some(2), .. }
        ));
        // The one well-formed tail was folded onto the reduced buffer's
        // zeros.
        assert_eq!(ws.reduced[..3], [7.0, 8.0, 9.0]);
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
                let (plans, schedule) = build_plans(&x, &grid, world, &[0; 3], rank).unwrap();
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
                            for (e, t) in expected.as_mut_slice().iter_mut().zip(total.as_slice()) {
                                *e += t;
                            }
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
                        let round = &schedule.partials[n];
                        local_partials(plan, round, w, &factors, &mut hat, &pool).unwrap();
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
                    let (_, schedule) = build_plans(&x, &grid, world, &old_rows, 3).unwrap();
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
                    let routed: usize = schedule
                        .partials
                        .iter()
                        .flat_map(|round| round.lanes.iter().flatten())
                        .map(|lane| lane.rows.len())
                        .sum();
                    assert_eq!(routed, bound, "{tag}");
                    for w in 0..world {
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
                                let partials = &schedule.partials[n].lanes[w][d].rows;
                                assert_eq!(*partials, expected, "{tag} {w}->{d}");
                                let refresh = &schedule.refresh[n].lanes[d][w].rows;
                                assert_eq!(*refresh, expected, "{tag} {d}<-{w}");
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
                            let lane = &schedule.gather.lanes[w][0];
                            let shipped = lane.per_mode().nth(n).unwrap();
                            assert_eq!(shipped, gathered, "{tag} {w} gathers");
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
        let out = decompose(&x, &old, &cfg(), &ClusterConfig::new(4)).unwrap();
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
    fn factor_bits(out: &Decomposition) -> u64 {
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
        let out = decompose(&x, &[], &cfg(), &ClusterConfig::new(4)).unwrap();
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
        let out = decompose(&x, &[], &cfg(), &ClusterConfig::new(4)).unwrap();
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
        let out = decompose(&x, &[], &cfg(), &ClusterConfig::new(2)).unwrap();
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
        let out = decompose(
            &x,
            &old,
            &DecompConfig::default().with_rank(2).with_max_iters(3),
            &ClusterConfig::new(2),
        )
        .unwrap();
        assert_eq!(out.kruskal.shape(), vec![5, 5]);
    }
}
