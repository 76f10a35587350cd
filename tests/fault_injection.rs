//! Chaos suite: deterministic fault injection against the cluster runtime
//! and the streaming session's checkpoint/recovery driver.
//!
//! The two acceptance properties from the fault-tolerance design:
//!
//! 1. a mid-step worker crash with recovery enabled replays the step and
//!    produces factors **bit-identical** to a fault-free run;
//! 2. the same crash without recovery surfaces a typed error promptly —
//!    no deadlock, no timeout-backstop wait.

use dismastd_cluster::{
    AllreduceAlgo, Cluster, ClusterError, ClusterOptions, CommPolicy, FaultPlan, Payload,
};
use dismastd_core::{ClusterConfig, DecompConfig, ExecutionMode, HealPolicy, StreamingSession};
use dismastd_tensor::{SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn snapshot_pair() -> (SparseTensor, SparseTensor) {
    snapshot_pair_seeded(21)
}

fn snapshot_pair_seeded(seed: u64) -> (SparseTensor, SparseTensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let full_shape = [9usize, 8, 7];
    let mut full = SparseTensorBuilder::new(full_shape.to_vec());
    for _ in 0..200 {
        let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        full.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    let full = full.build().unwrap();
    let small = full.restrict(&[6, 6, 5]).unwrap();
    (small, full)
}

fn cfg() -> DecompConfig {
    DecompConfig::default().with_rank(3).with_max_iters(5)
}

// ---- runtime-level chaos -------------------------------------------------

#[test]
fn panicking_worker_aborts_the_run_promptly() {
    // Regression for the seed's deadlock-on-panic: peers used to block in
    // recv forever because every worker holds clones of all senders.
    let started = Instant::now();
    let err = Cluster::try_run(4, |ctx| {
        if ctx.rank() == 1 {
            panic!("chaos monkey");
        }
        // Everyone else enters a collective the dead worker never joins.
        let mut buf = vec![1.0f64; 64];
        ctx.try_allreduce_sum(&mut buf)?;
        Ok(buf[0])
    })
    .unwrap_err();
    match err {
        ClusterError::PeerCrashed { rank, cause } => {
            assert_eq!(rank, 1);
            assert!(cause.contains("chaos monkey"), "cause = {cause}");
        }
        other => panic!("expected PeerCrashed, got {other}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abort must arrive long before the 30s timeout backstop; took {:?}",
        started.elapsed()
    );
}

#[test]
fn size_mismatch_is_observed_on_every_rank() {
    // The seed asserted buffer lengths on rank 0 only; the other ranks
    // hung.  Now the root aborts the collective and every rank gets the
    // same typed error naming the offending contributor.
    let out = Cluster::run(3, |ctx| {
        let len = if ctx.rank() == 1 { 5 } else { 4 };
        let mut buf = vec![ctx.rank() as f64; len];
        ctx.try_allreduce_sum(&mut buf).err()
    })
    .unwrap();
    assert_eq!(out.len(), 3);
    for (rank, err) in out.into_iter().enumerate() {
        match err {
            Some(ClusterError::SizeMismatch {
                rank: bad,
                expected,
                found,
            }) => {
                assert_eq!(bad, 1, "observer rank {rank} must blame rank 1");
                assert_eq!(expected, 4);
                assert_eq!(found, 5);
            }
            other => panic!("rank {rank}: expected SizeMismatch, got {other:?}"),
        }
    }
}

#[test]
fn injected_crash_surfaces_with_rank_and_cause() {
    let plan = Arc::new(FaultPlan::seeded(7).crash_worker_at_collective(2, 1));
    let opts = ClusterOptions::default()
        .with_timeout(Duration::from_secs(20))
        .with_fault_plan(Arc::clone(&plan));
    let started = Instant::now();
    let err = Cluster::try_run_with_opts(4, &opts, |ctx| {
        for _ in 0..4 {
            ctx.try_barrier()?;
        }
        Ok(ctx.rank())
    })
    .unwrap_err();
    match err {
        ClusterError::PeerCrashed { rank, cause } => {
            assert_eq!(rank, 2);
            assert!(cause.contains("fault injection"), "cause = {cause}");
        }
        other => panic!("expected PeerCrashed, got {other}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(plan.remaining_crashes(), 0, "one-shot crash was consumed");
}

#[test]
fn message_faults_leave_logical_traffic_identical() {
    // Drops (with retransmit), duplicates (suppressed), and delays are all
    // masked faults: the computation and the *logical* CommStats totals
    // must match a fault-free run bit for bit, with the wire overhead
    // tallied separately.
    let workload = |ctx: &mut dismastd_cluster::WorkerCtx| {
        let me = ctx.rank() as f64;
        let world = ctx.world();
        let mut acc = 0.0;
        for round in 0..5 {
            let outgoing: Vec<Payload> = (0..world)
                .map(|d| Payload::F64(vec![me + round as f64; 32 + d]))
                .collect();
            let incoming = ctx.try_exchange(outgoing)?;
            for p in incoming {
                acc += p.try_into_f64()?.iter().sum::<f64>();
            }
            acc += ctx.try_allreduce_sum_scalar(me)?;
            // Mid-run, from every rank: the per-sender breakdown must
            // account for every logical byte even while faults fire.
            assert!(ctx.stats().reconciles());
        }
        Ok(acc)
    };

    let clean_opts = ClusterOptions::default();
    let (clean_results, clean_stats) =
        Cluster::try_run_with_opts(4, &clean_opts, workload).unwrap();

    let plan = Arc::new(
        FaultPlan::seeded(99)
            .with_message_drops(120)
            .with_duplicates(80)
            .with_delays(100, Duration::from_micros(200))
            .with_retransmit_delay(Duration::from_micros(100)),
    );
    let chaos_opts = ClusterOptions::default().with_fault_plan(plan);
    let (chaos_results, chaos_stats) =
        Cluster::try_run_with_opts(4, &chaos_opts, workload).unwrap();

    assert_eq!(
        clean_results, chaos_results,
        "masked faults changed results"
    );
    assert_eq!(clean_stats.bytes, chaos_stats.bytes);
    assert_eq!(clean_stats.messages, chaos_stats.messages);
    assert_eq!(clean_stats.collectives, chaos_stats.collectives);
    assert_eq!(clean_stats.bytes_by_sender, chaos_stats.bytes_by_sender);
    // Per-sender attribution accounts for every logical byte, faults or
    // not, and nothing fell into the out-of-range bucket.
    assert!(clean_stats.reconciles());
    assert!(chaos_stats.reconciles());
    assert_eq!(clean_stats.unattributed_bytes, 0);
    assert_eq!(chaos_stats.unattributed_bytes, 0);
    // The chaos run really did inject something.
    assert!(
        chaos_stats.retransmits > 0,
        "fault plan should have dropped or duplicated messages"
    );
    assert!(chaos_stats.duplicates_suppressed > 0);
    assert_eq!(clean_stats.retransmits, 0);
    assert_eq!(clean_stats.duplicates_suppressed, 0);
}

#[test]
fn fault_schedule_is_reproducible() {
    // Two runs under the same seed inject the same faults: identical
    // retransmit/duplicate counters, not just identical results.
    let run = || {
        let plan = Arc::new(
            FaultPlan::seeded(5)
                .with_message_drops(150)
                .with_duplicates(100),
        );
        let opts = ClusterOptions::default().with_fault_plan(plan);
        Cluster::try_run_with_opts(3, &opts, |ctx| {
            let mut buf = vec![ctx.rank() as f64; 50];
            for _ in 0..6 {
                ctx.try_allreduce_sum(&mut buf)?;
            }
            Ok(buf[0])
        })
        .unwrap()
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
    assert!(s1.retransmits > 0);
}

// ---- session-level recovery ----------------------------------------------

/// A fault plan that kills worker 1 early in a distributed step.  Flat,
/// the set-up all-reduce takes sequence numbers 0 and 1 and mode 0's two
/// row exchanges 2 and 3, so index 4 is the first mode's Gram all-reduce:
/// the crash hits mid-decomposition, after real work has started.
fn mid_step_crash(times: u32) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::seeded(11).crash_worker_at_collective_times(1, 4, times))
}

/// Replay-only recovery: up to `replays` in-place replays per rank, no
/// degraded-world fallback, no backoff wait.
fn replay_only(replays: u32) -> HealPolicy {
    HealPolicy::default()
        .with_max_respawns(replays)
        .with_degraded(false)
        .with_backoff_base(Duration::ZERO)
}

#[test]
fn chaos_recovery_reproduces_fault_free_factors_bit_identically() {
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));

    // Fault-free reference run.
    let mut clean = StreamingSession::new(cfg(), mode.clone());
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    // Chaos run: crash worker 1 mid-way through the second step, recover.
    let plan = mid_step_crash(1);
    let mut chaos = StreamingSession::new(cfg(), mode);
    chaos.ingest(&s0).unwrap();
    chaos.set_cluster_options(ClusterOptions::default().with_fault_plan(Arc::clone(&plan)));
    chaos.set_heal_policy(replay_only(2));
    let report = chaos.ingest(&s1).unwrap();

    let heal = report.heal.expect("a heal policy is installed");
    assert_eq!(heal.respawns, 1, "exactly one replay after the crash");
    assert!(!heal.degraded);
    assert_eq!(plan.remaining_crashes(), 0);
    let clean_factors = clean.factors().unwrap().factors();
    let chaos_factors = chaos.factors().unwrap().factors();
    for (a, b) in clean_factors.iter().zip(chaos_factors) {
        assert_eq!(
            a.max_abs_diff(b).unwrap(),
            0.0,
            "recovered factors must be bit-identical to the fault-free run"
        );
    }
}

#[test]
fn crash_without_recovery_fails_promptly_with_typed_error() {
    let (s0, s1) = snapshot_pair();
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
    sess.ingest(&s0).unwrap();
    let steps_before = sess.steps();
    sess.set_cluster_options(ClusterOptions::default().with_fault_plan(mid_step_crash(1)));

    let started = Instant::now();
    let err = sess.ingest(&s1).unwrap_err();
    match &err {
        TensorError::ClusterFault { rank, detail } => {
            assert_eq!(*rank, Some(1), "fault attributed to the crashed rank");
            assert!(detail.contains("worker 1 crashed"), "detail = {detail}");
            assert!(detail.contains("fault injection"), "detail = {detail}");
        }
        other => panic!("expected ClusterFault, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "abort fan-out must beat the 30s receive deadline; took {:?}",
        started.elapsed()
    );
    // The failed step committed nothing.
    assert_eq!(sess.steps(), steps_before);
    assert_eq!(sess.shape(), s0.shape());
}

#[test]
fn recovery_gives_up_once_the_retry_budget_is_exhausted() {
    let (s0, s1) = snapshot_pair();
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
    sess.ingest(&s0).unwrap();
    // Crash fires on the first attempt AND both replays.
    sess.set_cluster_options(ClusterOptions::default().with_fault_plan(mid_step_crash(3)));

    sess.set_heal_policy(replay_only(2));
    let err = sess.ingest(&s1).unwrap_err();
    match err {
        TensorError::ClusterFault { rank, detail } => {
            assert_eq!(rank, Some(1), "fault attributed to the crashed rank");
            assert!(
                detail.contains("heal ladder exhausted after 2 respawn(s)"),
                "detail = {detail}"
            )
        }
        other => panic!("expected ClusterFault, got {other:?}"),
    }
    // A subsequent fault-free attempt still works on the uncommitted state.
    sess.set_cluster_options(ClusterOptions::default());
    let report = sess.ingest(&s1).unwrap();
    assert!(!report.cold_start);
}

#[test]
fn a_surfaced_fault_leaves_nothing_behind_for_the_next_ingest() {
    // No heal policy: the crash surfaces, after the faulted step's grid
    // cells were compiled.  Ingesting a *different* snapshot at the same
    // step index must see none of that — bit-identical to a session
    // restored from the pre-step checkpoint, and without a single reused
    // cell.
    let (s0, s1) = snapshot_pair();
    let (_, other) = snapshot_pair_seeded(22);
    assert_eq!(other.shape(), s1.shape());
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));

    let mut sess = StreamingSession::new(cfg(), mode);
    sess.ingest(&s0).unwrap();
    let pre_step = sess.to_checkpoint();
    sess.set_cluster_options(ClusterOptions::default().with_fault_plan(mid_step_crash(1)));
    let err = sess.ingest(&s1).unwrap_err();
    assert!(matches!(err, TensorError::ClusterFault { .. }), "{err:?}");
    sess.set_cluster_options(ClusterOptions::default());
    let after_fault = sess.ingest(&other).unwrap();

    let mut restored = StreamingSession::from_checkpoint(pre_step).unwrap();
    let reference = restored.ingest(&other).unwrap();

    assert_eq!(after_fault.step, reference.step);
    assert_eq!(after_fault.loss.to_bits(), reference.loss.to_bits());
    assert_eq!(sess.factors(), restored.factors());
    assert_eq!(sess.plan_cache().hits(), 0);
}

#[test]
fn a_healed_step_validates_and_complements_once_and_shows_the_replay() {
    let (s0, s1) = snapshot_pair();
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
    sess.ingest(&s0).unwrap();
    sess.set_collect_metrics(true);
    sess.set_cluster_options(ClusterOptions::default().with_fault_plan(mid_step_crash(1)));
    sess.set_heal_policy(replay_only(2));
    let report = sess.ingest(&s1).unwrap();
    assert_eq!(report.heal.as_ref().map(|h| h.respawns), Some(1));

    let metrics = report.metrics.expect("collection is on");
    let span_count = |name: &str| -> u64 {
        metrics
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    };
    // The replay re-runs the decomposition, not the snapshot scans...
    assert_eq!(span_count("phase/validate"), 1);
    assert_eq!(span_count("phase/complement"), 1);
    assert_eq!(span_count("heal/replay"), 1);
    // ...nor the placement: the cells compiled for the first attempt serve
    // the same-world replay.
    assert_eq!(span_count("phase/plan_build"), 1);
    assert_eq!(
        metrics.counter_value("plan/cache_hit"),
        metrics.counter_value("plan/rebuild")
    );
    assert!(metrics.counter_value("plan/rebuild") > 0);
}

// ---- collective-layer chaos ----------------------------------------------

#[test]
fn masked_chaos_with_ring_and_compression_matches_a_clean_flat_run() {
    // Three invariances at once: masked faults (drops/dups/delays), the
    // ring allreduce, and the compression path with downcast off must all
    // leave the trajectory bit-identical to a clean flat-policy run.
    let (s0, s1) = snapshot_pair();
    let flat_mode = ExecutionMode::Distributed(ClusterConfig::new(3).with_comm(CommPolicy::flat()));
    let ring_mode = ExecutionMode::Distributed(
        ClusterConfig::new(3).with_comm(CommPolicy::default().with_allreduce(AllreduceAlgo::Ring)),
    );

    let mut clean = StreamingSession::new(cfg(), flat_mode);
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    let plan = Arc::new(
        FaultPlan::seeded(42)
            .with_message_drops(120)
            .with_duplicates(80)
            .with_delays(100, Duration::from_micros(200))
            .with_retransmit_delay(Duration::from_micros(100)),
    );
    let mut chaos = StreamingSession::new(cfg(), ring_mode);
    chaos.set_cluster_options(ClusterOptions::default().with_fault_plan(plan));
    chaos.ingest(&s0).unwrap();
    let report = chaos.ingest(&s1).unwrap();

    for (a, b) in clean
        .factors()
        .unwrap()
        .factors()
        .iter()
        .zip(chaos.factors().unwrap().factors())
    {
        assert_eq!(
            a.max_abs_diff(b).unwrap(),
            0.0,
            "ring + compression + masked chaos must not move a bit"
        );
    }
    let comm = report.comm.expect("distributed step reports comm");
    assert!(comm.reconciles());
    assert!(comm.retransmits > 0, "the chaos plan really fired");
    // Downcast is off, so no frame beat the flat payload: wire == logical.
    assert_eq!(comm.compressed_bytes, 0);
    assert_eq!(comm.wire_bytes(), comm.bytes);
}

#[test]
fn crash_recovery_under_ring_policy_stays_bit_identical() {
    // A worker crash while a posted (overlapped) exchange is still in
    // flight: the abort must fan out, recovery must replay, and the result
    // must match the clean run under the same policy bit for bit.
    let (s0, s1) = snapshot_pair();
    let ring_mode = ExecutionMode::Distributed(
        ClusterConfig::new(3).with_comm(CommPolicy::default().with_allreduce(AllreduceAlgo::Ring)),
    );

    let mut clean = StreamingSession::new(cfg(), ring_mode.clone());
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    // The ring collapses each allreduce to one sequence number (flat takes
    // two), so the crash index differs from `mid_step_crash`: set-up is
    // seq 0 and a mode-iteration three more, so seq 5 is the first
    // iteration's mode-1 refresh exchange — mode 0 is fully updated and
    // mode 1's solved rows are about to be posted.
    let plan = Arc::new(FaultPlan::seeded(11).crash_worker_at_collective_times(1, 5, 1));
    let mut chaos = StreamingSession::new(cfg(), ring_mode);
    chaos.ingest(&s0).unwrap();
    chaos.set_cluster_options(ClusterOptions::default().with_fault_plan(Arc::clone(&plan)));
    chaos.set_heal_policy(replay_only(2));
    let report = chaos.ingest(&s1).unwrap();

    let heal = report.heal.expect("a heal policy is installed");
    assert_eq!(heal.respawns, 1, "exactly one replay after the crash");
    assert_eq!(plan.remaining_crashes(), 0);
    for (a, b) in clean
        .factors()
        .unwrap()
        .factors()
        .iter()
        .zip(chaos.factors().unwrap().factors())
    {
        assert_eq!(a.max_abs_diff(b).unwrap(), 0.0);
    }
}

#[test]
fn masked_chaos_does_not_perturb_the_lossy_downcast_path() {
    // Even the lossy f32 path must be deterministic: masked faults change
    // the wire schedule but never which bits arrive.
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(
        ClusterConfig::new(3).with_comm(CommPolicy::default().with_downcast_f32(true)),
    );

    let mut clean = StreamingSession::new(cfg(), mode.clone());
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    let plan = Arc::new(
        FaultPlan::seeded(17)
            .with_message_drops(150)
            .with_duplicates(90),
    );
    let mut chaos = StreamingSession::new(cfg(), mode);
    chaos.set_cluster_options(ClusterOptions::default().with_fault_plan(plan));
    chaos.ingest(&s0).unwrap();
    chaos.ingest(&s1).unwrap();

    for (a, b) in clean
        .factors()
        .unwrap()
        .factors()
        .iter()
        .zip(chaos.factors().unwrap().factors())
    {
        assert_eq!(a.max_abs_diff(b).unwrap(), 0.0);
    }
    let (c, f) = (clean.comm_totals(), chaos.comm_totals());
    assert!(c.compressed_bytes > 0, "downcast produced frames");
    assert_eq!(c.bytes, f.bytes);
    assert_eq!(c.compressed_bytes, f.compressed_bytes);
    assert_eq!(c.downcast_rows, f.downcast_rows);
    assert!(f.reconciles());
    assert!(f.retransmits > 0, "the chaos plan really fired");
}

#[test]
fn checkpoint_round_trips_compression_counters() {
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(
        ClusterConfig::new(3).with_comm(CommPolicy::default().with_downcast_f32(true)),
    );
    let mut sess = StreamingSession::new(cfg(), mode);
    sess.ingest(&s0).unwrap();
    sess.ingest(&s1).unwrap();
    let totals = sess.comm_totals();
    assert!(totals.compressed_bytes > 0);
    assert!(totals.downcast_rows > 0);
    assert!(totals.wire_bytes() < totals.bytes);
    assert!(totals.reconciles());

    let path = std::env::temp_dir().join("dismastd_collectives_ckpt.json");
    sess.checkpoint(&path).unwrap();
    let restored = StreamingSession::restore(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.comm_totals(), totals);
    match restored.mode() {
        ExecutionMode::Distributed(cc) => assert!(cc.comm.downcast_f32),
        other => panic!("expected distributed mode, got {other:?}"),
    }
}

#[test]
fn frame_corruption_surfaces_as_a_typed_error_not_silent_damage() {
    // Corruption targets the opaque byte frames (the compressed exchanges);
    // the self-describing index block means a tampered frame is rejected
    // with a typed error — never decoded into wrong values.
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(
        ClusterConfig::new(3).with_comm(CommPolicy::default().with_downcast_f32(true)),
    );
    let mut sess = StreamingSession::new(cfg(), mode);
    sess.ingest(&s0).unwrap();
    let steps_before = sess.steps();
    sess.set_cluster_options(
        ClusterOptions::default()
            .with_fault_plan(Arc::new(FaultPlan::seeded(23).with_corruption(500))),
    );

    let started = Instant::now();
    let err = sess.ingest(&s1).unwrap_err();
    assert!(matches!(err, TensorError::ClusterFault { .. }), "{err:?}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "corruption abort must beat the receive deadline; took {:?}",
        started.elapsed()
    );
    // The poisoned step committed nothing.
    assert_eq!(sess.steps(), steps_before);
}

#[test]
fn on_disk_checkpoint_survives_a_simulated_process_death() {
    let (s0, s1) = snapshot_pair();
    let path = std::env::temp_dir().join("dismastd_chaos_ckpt.json");
    let mode = ExecutionMode::Distributed(ClusterConfig::new(2));

    // Fault-free reference.
    let mut clean = StreamingSession::new(cfg(), mode.clone());
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    // The "dying" process: checkpoint before the step, then fail it with a
    // crash schedule that outlives the in-process replay budget.
    let mut doomed = StreamingSession::new(cfg(), mode);
    doomed.ingest(&s0).unwrap();
    doomed.checkpoint(&path).unwrap();
    doomed.set_cluster_options(ClusterOptions::default().with_fault_plan(mid_step_crash(5)));
    doomed.set_heal_policy(replay_only(1));
    let err = doomed.ingest(&s1).unwrap_err();
    assert!(matches!(err, TensorError::ClusterFault { .. }));
    drop(doomed); // process death

    // A fresh process restores the pre-step checkpoint and replays.
    let mut revived = StreamingSession::restore(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(revived.steps(), 1);
    revived.ingest(&s1).unwrap();
    for (a, b) in clean
        .factors()
        .unwrap()
        .factors()
        .iter()
        .zip(revived.factors().unwrap().factors())
    {
        assert_eq!(a.max_abs_diff(b).unwrap(), 0.0);
    }
}
