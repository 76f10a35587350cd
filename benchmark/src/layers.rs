//! `--trace 1`: the per-layer metrics.
//!
//! Every timing is the benchmark's own span around a public call, on the
//! workload's real inputs: the cold snapshot, the factors the stream
//! produced, the complement of a middle step.  Whole-stream passes repeat in
//! rounds until `--seconds` is spent; per-step minima over rounds are the
//! values.  The program's own `phase/*` registry is copied beside them under
//! `obs.*`, labelled program-reported.

use crate::estimate::Samples;
use crate::host::HostFingerprint;
use crate::report::{Metrics, Report};
use crate::spans::Tracer;
use crate::workload::{
    bit_identical, config, distributed_session, ingest_stream, serial_session, traffic, Inputs,
    Ops, StreamRun, Workload,
};
use dismastd_cluster::wire::encode_frame;
use dismastd_cluster::{
    decode_rows, AllreduceAlgo, BufferPool, Cluster, ClusterResult, Payload, WorkerCtx,
};
use dismastd_core::als::cp_als;
use dismastd_core::dtd::{dtd, init_factors};
use dismastd_core::{ClusterConfig, ExecutionMode, MetricsSnapshot, StreamingSession};
use dismastd_partition::{GridPartition, Partitioner};
use dismastd_tensor::mttkrp::mttkrp;
use dismastd_tensor::ops::hadamard_skip;
use dismastd_tensor::{
    KruskalTensor, Matrix, MttkrpPlan, NumericsReport, RobustSolver, SparseTensor, ThreadPool,
};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest rounds of a full run, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Phases the serial solver records.
const SERIAL_PHASES: [&str; 6] = ["validate", "complement", "mttkrp", "solve", "gram", "loss"];
/// Phases of a distributed step, in pipeline order.
const DIST_PHASES: [&str; 11] = [
    "validate",
    "complement",
    "partition",
    "plan_build",
    "setup",
    "mttkrp",
    "exchange",
    "solve",
    "gram",
    "loss",
    "gather",
];
/// Step whose complement feeds the single-step probes (`dtd.step_s`,
/// `partition.*`); the last step of a shorter stream.
const PROBE_STEP: usize = 3;

fn probe_step(inputs: &Inputs) -> usize {
    PROBE_STEP.min(inputs.steps() - 1)
}

/// One serial repetition replayed from outside: `complement` → `cp_als` or
/// `dtd` → `fit`, each under its own span.
struct Replay {
    complement_s: Vec<f64>,
    solve_s: Vec<f64>,
    fit_s: Vec<f64>,
    fits: Vec<f64>,
    /// Factors after every step.
    factors: Vec<KruskalTensor>,
}

fn replay(inputs: &Inputs, tracer: &mut Tracer, ops: &mut Ops) -> Result<Replay, String> {
    let cfg = config(1);
    let steps = inputs.steps();
    let mut out = Replay {
        complement_s: Vec::with_capacity(steps),
        solve_s: Vec::with_capacity(steps),
        fit_s: Vec::with_capacity(steps),
        fits: Vec::with_capacity(steps),
        factors: Vec::with_capacity(steps),
    };
    for t in 0..steps {
        let snapshot = inputs.stream.snapshot(t);
        let previous = out.factors.last();
        let (step, _) = tracer.scope("replay.ingest", Some(t), |tr| {
            let (solved, complement_s, solve_s) = match previous {
                None => {
                    let (solved, secs) =
                        tr.scope("als.cp_als", Some(t), |_| cp_als(snapshot, &cfg));
                    (solved, 0.0, secs)
                }
                Some(old) => {
                    let (complement, complement_s) = tr.scope("coo.complement", Some(t), |_| {
                        snapshot.complement(&old.shape())
                    });
                    let complement = complement.map_err(|e| format!("complement: {e}"))?;
                    if complement.nnz() != inputs.expected_nnz(t) {
                        return Err(format!(
                            "step {t}: complement holds {} nonzeros, the stream grew by {}",
                            complement.nnz(),
                            inputs.expected_nnz(t)
                        ));
                    }
                    let (solved, secs) = tr.scope("dtd.dtd", Some(t), |_| {
                        dtd(&complement, old.factors(), &cfg)
                    });
                    (solved, complement_s, secs)
                }
            };
            let solved = solved.map_err(|e| format!("solve: {e}"))?;
            let (fit, fit_s) = tr.scope("kruskal.fit", Some(t), |_| solved.kruskal.fit(snapshot));
            let fit = fit.map_err(|e| format!("fit: {e}"))?;
            Ok((solved.kruskal, fit, complement_s, solve_s, fit_s))
        });
        let (kruskal, fit, complement_s, solve_s, fit_s) =
            ops.attempt(&format!("replay step {t}"), step)?;
        out.complement_s.push(complement_s);
        out.solve_s.push(solve_s);
        out.fit_s.push(fit_s);
        out.fits.push(fit);
        out.factors.push(kruskal);
    }
    Ok(out)
}

/// Per-phase seconds of the program's own registry, minimum over rounds.
#[derive(Default)]
struct PhaseMin(BTreeMap<&'static str, f64>);

impl PhaseMin {
    fn absorb(&mut self, phases: &[&'static str], snapshot: &MetricsSnapshot) {
        for &phase in phases {
            let secs = snapshot.span_total_ns(&format!("phase/{phase}")) as f64 / 1e9;
            let slot = self.0.entry(phase).or_insert(f64::INFINITY);
            *slot = slot.min(secs);
        }
    }

    fn emit(&self, prefix: &str, metrics: &mut Metrics) {
        for (phase, secs) in &self.0 {
            metrics.put(format!("{prefix}.phase.{phase}_s"), *secs, "s");
        }
    }
}

/// Times `reps` calls of `op` inside a world-2 cluster and returns the
/// slowest rank's mean microseconds per call, best of three clusters.
fn collective_us(
    tracer: &mut Tracer,
    name: &'static str,
    reps: u32,
    op: impl Fn(&mut WorkerCtx) -> ClusterResult<()> + Sync,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        // The span covers spawn and warm-up too; the value is the loop
        // inside the cluster.
        let (run, _) = tracer.scope(name, None, |_| {
            Cluster::try_run(2, |ctx| {
                op(ctx)?; // warm-up
                let start = Instant::now();
                for _ in 0..reps {
                    op(ctx)?;
                }
                Ok(start.elapsed())
            })
        });
        let slowest = run
            .map_err(|e| format!("{name}: {e}"))?
            .into_iter()
            .max()
            .unwrap_or_default();
        best = best.min(slowest.as_secs_f64());
    }
    Ok(best * 1e6 / reps as f64)
}

/// The single-call probes: kernels, solves, partitioning, collectives, wire
/// codec, checkpoint.
#[allow(clippy::too_many_arguments)]
fn probes(
    inputs: &Inputs,
    replayed: &Replay,
    session: &StreamingSession,
    out_dir: &Path,
    workload: &str,
    smoke: bool,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let cfg = config(1);
    let n = if smoke { 1 } else { 3 };

    // ---- MTTKRP on the cold snapshot, every mode -----------------------
    let cold = inputs.stream.snapshot(0);
    let order = cold.order();
    let empty: Vec<Matrix> = (0..order).map(|_| Matrix::zeros(0, cfg.rank)).collect();
    let init = init_factors(&empty, cold.shape(), cfg.rank, cfg.seed)
        .map_err(|e| format!("init_factors: {e}"))?;
    let nnz_ops = (cold.nnz() * order) as f64;
    let all_modes = |kernel: &dyn Fn(usize) -> dismastd_tensor::Result<Matrix>| {
        (0..order)
            .map(kernel)
            .collect::<dismastd_tensor::Result<Vec<Matrix>>>()
    };

    let (naive_s, naive) =
        tracer.best_of(n, "mttkrp.naive", || all_modes(&|m| mttkrp(cold, &init, m)));
    let naive = ops.attempt("mttkrp", naive)?;
    metrics.put("mttkrp.naive_s", naive_s, "s");
    metrics.put(
        "mttkrp.naive_mnnzop_per_s",
        nnz_ops / naive_s / 1e6,
        "Mnnzop/s",
    );

    let (build_s, plan) = tracer.best_of(n, "layout.build", || MttkrpPlan::build(cold));
    let plan = ops.attempt("MttkrpPlan::build", plan)?;
    let (planned_s, planned) =
        tracer.best_of(n, "layout.mttkrp", || all_modes(&|m| plan.mttkrp(&init, m)));
    let planned = ops.attempt("MttkrpPlan::mttkrp", planned)?;
    ops.check(planned == naive, || {
        "plan and naive MTTKRP disagree in bits".into()
    });
    // Computed from array sizes, not measured: the layout tables once per
    // mode sweep, one factor row per other mode per nonzero, one output
    // write per row.  Cache misses are not in it.
    let factor_reads = nnz_ops * (order - 1) as f64 * (cfg.rank * 8) as f64;
    let output_writes: f64 = cold
        .shape()
        .iter()
        .map(|&i| (i * cfg.rank * 8) as f64)
        .sum();
    let moved = plan.layout_bytes() as f64 + factor_reads + output_writes;
    metrics.put("layout.build_s", build_s, "s");
    metrics.put("layout.mttkrp_s", planned_s, "s");
    metrics.put(
        "layout.mttkrp_mnnzop_per_s",
        nnz_ops / planned_s / 1e6,
        "Mnnzop/s",
    );
    metrics.put("layout.bytes_mb", plan.layout_bytes() as f64 / 1e6, "MB");
    metrics.put("layout.bytes_per_nnzop", moved / nnz_ops, "B/nnzop");

    let pool = ThreadPool::new(2);
    let (pooled_s, pooled) = tracer.best_of(n, "pool.mttkrp_t2", || {
        all_modes(&|m| {
            let mut out = Matrix::zeros(init[m].rows(), cfg.rank);
            plan.mttkrp_into_pooled(&init, m, &mut out, &pool)?;
            Ok(out)
        })
    });
    let pooled = ops.attempt("mttkrp_into_pooled", pooled)?;
    ops.check(pooled == naive, || {
        "pooled and naive MTTKRP disagree in bits".into()
    });
    metrics.put("pool.mttkrp_t2_s", pooled_s, "s");
    drop((plan, naive, planned));

    // ---- row solves and Gram rebuilds on the final factors, every mode --
    let last = replayed.factors.last().expect("the stream has steps");
    let grams: Vec<Matrix> = last.factors().iter().map(Matrix::gram).collect();
    let denominators = (0..order)
        .map(|m| hadamard_skip(&grams, m))
        .collect::<dismastd_tensor::Result<Vec<Matrix>>>()
        .map_err(|e| format!("hadamard_skip: {e}"))?;
    let solver = RobustSolver::new(cfg.numerics.solver);
    let rows: usize = last.factors().iter().map(Matrix::rows).sum();
    let (solve_s, solved) = tracer.best_of(n + 2, "robust.solve_rows", || {
        let mut numerics = NumericsReport::default();
        last.factors()
            .iter()
            .zip(&denominators)
            .map(|(b, m)| solver.solve_right(b, m, &mut numerics))
            .collect::<dismastd_tensor::Result<Vec<Matrix>>>()
    });
    ops.attempt("RobustSolver::solve_right", solved)?;
    metrics.put("robust.solve_rows_s", solve_s, "s");
    metrics.put(
        "robust.solve_mrows_per_s",
        rows as f64 / solve_s / 1e6,
        "Mrows/s",
    );
    let (gram_s, _) = tracer.best_of(n + 2, "matrix.gram", || {
        last.factors()
            .iter()
            .map(Matrix::gram)
            .collect::<Vec<Matrix>>()
    });
    metrics.put("matrix.gram_s", gram_s, "s");

    // ---- partitioning the probe step's complement, 4×4×4 on 4 workers ---
    let p = probe_step(inputs);
    let complement: SparseTensor = inputs
        .stream
        .snapshot(p)
        .complement(&replayed.factors[p - 1].shape())
        .map_err(|e| format!("complement: {e}"))?;
    for (span, tag, partitioner) in [
        ("partition.build_mtp", "mtp", Partitioner::Mtp),
        ("partition.build_gtp", "gtp", Partitioner::Gtp),
    ] {
        let (secs, grid) = tracer.best_of(n, span, || {
            GridPartition::build(&complement, partitioner, &vec![4; order], 4)
        });
        let grid = ops.attempt("GridPartition::build", grid)?;
        let loads = grid.worker_loads(&complement);
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        metrics.put(format!("partition.build_{tag}_s"), secs, "s");
        metrics.put(format!("partition.imbalance_{tag}"), max / mean, "ratio");
    }

    // ---- cluster runtime and collectives at world 2 ---------------------
    let (spawn_s, spawned) = tracer.best_of(20, "cluster.spawn", || Cluster::run(2, |_| ()));
    ops.attempt("Cluster::run", spawned)?;
    metrics.put("cluster.spawn_us", spawn_s * 1e6, "us");
    let allreduce = |len: usize, algo: AllreduceAlgo| {
        move |ctx: &mut WorkerCtx| {
            let mut buf = vec![1.0f64; len];
            ctx.try_allreduce_sum_with(&mut buf, algo)
        }
    };
    let reps = if smoke { 20 } else { 400 };
    let flat = collective_us(
        tracer,
        "cluster.allreduce_flat",
        reps,
        allreduce(100, AllreduceAlgo::Flat),
    );
    metrics.put(
        "cluster.allreduce_flat_us",
        ops.attempt("allreduce flat", flat)?,
        "us",
    );
    let ring = collective_us(
        tracer,
        "cluster.allreduce_ring",
        reps,
        allreduce(32_768, AllreduceAlgo::Ring),
    );
    metrics.put(
        "cluster.allreduce_ring_us",
        ops.attempt("allreduce ring", ring)?,
        "us",
    );
    let exchange = collective_us(tracer, "cluster.exchange", reps, |ctx| {
        let outgoing = (0..ctx.world())
            .map(|_| Payload::F64(vec![1.0; 1000 * 10]))
            .collect();
        ctx.try_exchange(outgoing).map(drop)
    });
    metrics.put(
        "cluster.exchange_us",
        ops.attempt("exchange", exchange)?,
        "us",
    );

    // ---- wire codec on a block of real factor rows ----------------------
    let longest = last
        .factors()
        .iter()
        .max_by_key(|f| f.rows())
        .expect("order >= 1");
    let block_rows = longest.rows().min(16_384);
    let row_ids: Vec<u32> = (0..block_rows as u32).collect();
    let values = &longest.as_slice()[..block_rows * cfg.rank];
    let logical_mb = std::mem::size_of_val(values) as f64 / 1e6;
    let (encode_s, frame) = tracer.best_of(n + 2, "wire.encode", || {
        encode_frame(&row_ids, values, true)
    });
    let mut frames: Vec<Payload> = (0..n + 2)
        .map(|_| Payload::Bytes(bytes::Bytes::from(frame.clone())))
        .collect();
    let mut buffers = BufferPool::new(true);
    let (decode_s, decoded) = tracer.best_of(n + 2, "wire.decode", || {
        let payload = frames.pop().expect("one frame per repetition");
        decode_rows(payload, 0, &row_ids, cfg.rank, &mut buffers)
    });
    let decoded = ops.attempt("decode_rows", decoded)?;
    ops.check(
        decoded.len() == values.len()
            && decoded
                .iter()
                .zip(values)
                .all(|(d, v)| *d == *v as f32 as f64),
        || "decoded frame is not the f32 rounding of its input".into(),
    );
    metrics.put("wire.encode_mb_per_s", logical_mb / encode_s, "MB/s");
    metrics.put("wire.decode_mb_per_s", logical_mb / decode_s, "MB/s");
    metrics.put("wire.ratio", logical_mb * 1e6 / frame.len() as f64, "ratio");

    // ---- checkpoint of the finished serial session ----------------------
    let path = out_dir.join(format!("{workload}.checkpoint.json"));
    let (checkpoint_s, written) =
        tracer.best_of(n, "session.checkpoint", || session.checkpoint(&path));
    ops.attempt("checkpoint", written)?;
    let size = std::fs::metadata(&path)
        .map_err(|e| format!("checkpoint size: {e}"))?
        .len();
    let (restore_s, restored) =
        tracer.best_of(n, "session.restore", || StreamingSession::restore(&path));
    let restored = ops.attempt("restore", restored)?;
    std::fs::remove_file(&path).map_err(|e| format!("checkpoint removal: {e}"))?;
    let same = match (restored.factors(), session.factors()) {
        (Some(a), Some(b)) => bit_identical(a, b),
        _ => false,
    };
    ops.check(same, || {
        "restored factors differ from the checkpointed ones".into()
    });
    metrics.put("session.checkpoint_s", checkpoint_s, "s");
    metrics.put("session.restore_s", restore_s, "s");
    metrics.put("session.checkpoint_mb", size as f64 / 1e6, "MB");
    Ok(())
}

pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    smoke: bool,
    host: &HostFingerprint,
    out_dir: &Path,
    ops: &mut Ops,
) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();
    metrics.put("host.spin_s", host.spin_s, "s");
    metrics.put("host.par2_speedup", host.par2_speedup, "ratio");
    metrics.put("host.mem_s", host.mem_s, "s");
    metrics.put("host.cores", host.cores as f64, "count");

    let (inputs, _) = tracer.scope("data.set_up", None, |_| workload.set_up(seed, smoke));
    let inputs = inputs?;
    let steps = inputs.steps();
    let order = inputs.stream.snapshot(0).order();
    metrics.put("data.generate_s", inputs.generate_s, "s");
    metrics.put("data.cut_s", inputs.cut_s, "s");
    metrics.put("data.nnz", inputs.full_nnz() as f64, "count");
    metrics.put("data.snapshots", steps as f64, "count");

    // One worker owning a 2×2×2 grid: the distributed driver without a
    // second rank, with one and with two kernel lanes.
    let one_worker = ClusterConfig::new(1).with_parts_per_mode(vec![2; order]);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut plain = Samples::new(steps);
    let mut traced = Samples::new(steps);
    let mut complement = Samples::new(steps);
    let mut solve = Samples::new(steps);
    let mut fit = Samples::new(steps);
    let mut dist2 = Samples::new(steps);
    let mut dist1 = Samples::new(steps - 1);
    let mut par2 = Samples::new(steps - 1);
    let mut serial_phases = PhaseMin::default();
    let mut dist2_phases = PhaseMin::default();
    let mut dist2_run: Option<StreamRun> = None;
    let mut rounds = 0;
    loop {
        let (run, _) = tracer.scope("pass.serial", None, |_| {
            ingest_stream(serial_session(false), &inputs, 0, ops)
        });
        let serial = run?;
        plain.push_rep(&serial.times);

        let (run, _) = tracer.scope("pass.serial_collecting", None, |_| {
            ingest_stream(serial_session(true), &inputs, 0, ops)
        });
        let collecting = run?;
        traced.push_rep(&collecting.times);
        serial_phases.absorb(&SERIAL_PHASES, &collecting.merged_metrics());

        let (replayed, _) = tracer.scope("pass.replay", None, |tr| replay(&inputs, tr, ops));
        let replayed = replayed?;
        complement.push_rep(&replayed.complement_s);
        solve.push_rep(&replayed.solve_s);
        fit.push_rep(&replayed.fit_s);
        let session_fits: Vec<u64> = serial.reports.iter().map(|r| r.fit.to_bits()).collect();
        let replay_fits: Vec<u64> = replayed.fits.iter().map(|f| f.to_bits()).collect();
        ops.check(session_fits == replay_fits, || {
            "replayed complement → dtd → fit does not reproduce the session's fit bits".into()
        });

        let (run, _) = tracer.scope("pass.dist2", None, |_| {
            ingest_stream(
                distributed_session(ClusterConfig::new(2), 1, true),
                &inputs,
                0,
                ops,
            )
        });
        let run = run?;
        dist2.push_rep(&run.times);
        dist2_phases.absorb(&DIST_PHASES, &run.merged_metrics());
        if let Some(previous) = &dist2_run {
            ops.check(bit_identical(previous.factors(), run.factors()), || {
                "two dist2 passes over the same stream differ in factor bits".into()
            });
        }
        dist2_run = Some(run);

        let mut one_worker_factors = Vec::with_capacity(2);
        for (name, threads, samples) in [("pass.dist1", 1, &mut dist1), ("pass.par2", 2, &mut par2)]
        {
            let session = StreamingSession::resume(
                config(threads),
                ExecutionMode::Distributed(one_worker.clone()),
                replayed.factors[0].clone(),
            )
            .map_err(|e| format!("resume: {e}"))?;
            let (warm, _) = tracer.scope(name, None, |_| ingest_stream(session, &inputs, 1, ops));
            let warm = warm?;
            samples.push_rep(&warm.times);
            one_worker_factors.push(warm.factors().clone());
        }
        ops.check(
            bit_identical(&one_worker_factors[0], &one_worker_factors[1]),
            || "one and two kernel lanes produce different factor bits".into(),
        );

        if rounds == 0 {
            probes(
                &inputs,
                &replayed,
                &serial.session,
                out_dir,
                workload.name,
                smoke,
                &mut tracer,
                &mut metrics,
                ops,
            )?;
        }
        rounds += 1;
        if smoke || (rounds >= MIN_ROUNDS && Instant::now() >= deadline) {
            break;
        }
    }

    // ---- replayed layers and the session around them --------------------
    let scanned: usize = (1..steps).map(|t| inputs.stream.snapshot(t).nnz()).sum();
    let complement_s = complement.best_sum(1..steps);
    metrics.put("coo.complement_s", complement_s, "s");
    metrics.put(
        "coo.complement_mnnz_per_s",
        scanned as f64 / complement_s / 1e6,
        "Mnnz/s",
    );
    metrics.put("kruskal.fit_s", fit.best(steps - 1), "s");
    metrics.put("dtd.step_s", solve.best(probe_step(&inputs)), "s");
    metrics.put("als.cold_s", solve.best(0), "s");
    metrics.put("serial.cold_s", plain.best(0), "s");
    metrics.put("serial.warm_s", plain.best_sum(1..steps), "s");
    metrics.put("serial.step_max_s", plain.best_max(1..steps), "s");
    let children =
        complement.best_sum(0..steps) + solve.best_sum(0..steps) + fit.best_sum(0..steps);
    let ingest = plain.best_sum(0..steps);
    metrics.put("session.self_s", ingest - children, "s");
    metrics.put("session.children_frac", children / ingest, "ratio");

    // ---- distributed wall-clock: informational on this host -------------
    let dist2_run = dist2_run.expect("at least one round ran");
    let counts = traffic(&dist2_run);
    let registry = dist2_run.merged_metrics();
    metrics.put("distributed.dist2_cold_s", dist2.best(0), "s");
    metrics.put("distributed.dist2_warm_s", dist2.best_sum(1..steps), "s");
    metrics.put(
        "distributed.dist1_warm_s",
        dist1.best_sum(0..steps - 1),
        "s",
    );
    metrics.put("distributed.par2_warm_s", par2.best_sum(0..steps - 1), "s");
    metrics.put(
        "distributed.dist2_wire_mb",
        counts.wire_bytes as f64 / 1e6,
        "MB",
    );
    metrics.put(
        "distributed.dist2_collectives",
        counts.collectives as f64,
        "count",
    );
    let cache = dist2_run.session.plan_cache();
    metrics.put("distributed.plan_cache_hits", cache.hits() as f64, "count");
    metrics.put(
        "distributed.plan_cache_misses",
        cache.misses() as f64,
        "count",
    );
    metrics.put(
        "distributed.cells_coo",
        registry.counter_value("plan/adaptive_coo") as f64,
        "count",
    );
    metrics.put(
        "distributed.cells_plan",
        registry.counter_value("plan/adaptive_plan") as f64,
        "count",
    );

    // ---- the program's own registry, program-reported -------------------
    metrics.put(
        "obs.trace_overhead_frac",
        traced.best_sum(1..steps) / plain.best_sum(1..steps) - 1.0,
        "ratio",
    );
    serial_phases.emit("obs.serial", &mut metrics);
    dist2_phases.emit("obs.dist2", &mut metrics);

    println!(
        "serial warm {:.4} s plain, {:.4} s with the program's registry collecting",
        plain.best_sum(1..steps),
        traced.best_sum(1..steps)
    );
    println!(
        "{rounds} rounds; replayed complement + solve + fit cover {:.1} % of ingest; {} spans",
        100.0 * children / ingest,
        tracer.len()
    );
    let self_times = Value::Object(
        tracer
            .self_time_by_name()
            .into_iter()
            .map(|(name, secs)| (name.to_string(), Value::F64(secs)))
            .collect(),
    );
    let diagnostics = Value::Object(vec![
        ("rounds".into(), Value::U64(rounds as u64)),
        ("probe_step".into(), Value::U64(probe_step(&inputs) as u64)),
        (
            "serial_collecting_warm_s".into(),
            Value::F64(traced.best_sum(1..steps)),
        ),
        ("span_self_time_s".into(), self_times),
    ]);
    Ok(Report {
        metrics,
        diagnostics,
        spans: Some(tracer.to_value()),
    })
}
