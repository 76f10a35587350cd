//! Chaos suite: deterministic fault injection against the cluster runtime
//! and the streaming session's checkpoint/recovery driver.
//!
//! The two acceptance properties from the fault-tolerance design:
//!
//! 1. a mid-step worker crash with recovery enabled replays the step and
//!    produces factors **bit-identical** to a fault-free run;
//! 2. the same crash without recovery surfaces a typed error promptly —
//!    no deadlock, no timeout-backstop wait.

use dismastd_cluster::{AllreduceAlgo, Cluster, ClusterError, ClusterOptions, FaultPlan, Payload};
use dismastd_core::{
    ClusterConfig, DecompConfig, ExecutionMode, HealPolicy, StreamingSession, MAX_ITERS,
    MAX_RESTARTS, MAX_RIDGE_STEPS, MAX_WORKERS,
};
use dismastd_tensor::{SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
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

/// `cfg()` at R = 10: a mode's Gram partials pack 210 values, ten times
/// R = 3's 21, so every rank's share of every Gram reduction is a larger
/// slice of the row payloads.
fn r10_cfg() -> DecompConfig {
    cfg().with_rank(10)
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

/// The ring twin of `size_mismatch_is_observed_on_every_rank`: every rank
/// cuts `world` chunks whatever its length, so a rank whose length
/// disagrees runs the same message pattern, and the first receiver whose
/// chunk disagrees with the one it gets (rank 2 here; every rank before
/// it matched rank 0) names itself, on every rank, well inside the
/// receive backstop.  `expected` / `found` are that chunk's lengths,
/// received and own.
#[test]
fn ring_size_mismatch_is_observed_on_every_rank() {
    const BACKSTOP: Duration = Duration::from_secs(2);
    let opts = ClusterOptions::default().with_timeout(BACKSTOP);
    // (rank 2's length, everyone else's, the first disagreeing chunk's
    // lengths as rank 2 receives and holds it).  With 2 values against 3
    // on 4 ranks the lengths fall below the world: chunks of 1, 1, 1, 0
    // against 1, 1, 0, 0.
    for (odd, len, expected, found) in [(2usize, 3usize, 1usize, 0usize), (8, 10, 3, 2)] {
        let started = Instant::now();
        let (out, _) = Cluster::try_run_with_opts(4, &opts, |ctx| {
            let n = if ctx.rank() == 2 { odd } else { len };
            let mut buf = vec![1.0; n];
            Ok(ctx
                .try_allreduce_sum_with(&mut buf, AllreduceAlgo::Ring)
                .err())
        })
        .unwrap();
        let elapsed = started.elapsed();
        for (rank, err) in out.into_iter().enumerate() {
            assert_eq!(
                err,
                Some(ClusterError::SizeMismatch {
                    rank: 2,
                    expected,
                    found,
                }),
                "rank {rank} with rank 2 holding {odd} values against {len}"
            );
        }
        assert!(
            elapsed < BACKSTOP / 4,
            "the mismatch must abort the ring, not wait out the backstop: {elapsed:?}"
        );
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
            let mut sum = [me];
            ctx.try_allreduce_sum(&mut sum)?;
            acc += sum[0];
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

/// A fault plan that kills worker 1 early in a distributed step.  Set-up
/// takes no collective (the driver builds its Gram state), so mode 0's
/// two row exchanges are sequence numbers 0 and 1 (the refresh carrying
/// the reduce half of mode 0's Gram reduction) and index 2 is mode 1's
/// partials exchange, which carries the reduced Gram back to every rank:
/// the crash hits mid-decomposition, inside the first mode's Gram
/// reduction, after real work has started.
fn mid_step_crash(times: u32) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::seeded(11).crash_worker_at_collective_times(1, 2, times))
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
    assert!(heal.transitions.is_empty(), "no degradation");
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
    let steps_before = sess.to_checkpoint().step;
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
    assert_eq!(sess.to_checkpoint().step, steps_before);
    assert_eq!(sess.to_checkpoint().shape, s0.shape());
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
    let cold_cells = sess.plan_cache().misses();
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
    // ...and lays out its own placement: one per attempt, each the cells
    // of a fault-free step in the same world.
    let mut clean = StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();
    let cells = clean.plan_cache().misses() - cold_cells;
    assert!(cells > 0);
    let attempts = 2;
    assert_eq!(span_count("phase/partition"), attempts);
    assert_eq!(span_count("phase/plan_build"), attempts);
    assert_eq!(metrics.counter_value("plan/rebuild"), attempts * cells);
    assert_eq!(sess.plan_cache().misses(), cold_cells + attempts * cells);
    assert_eq!(sess.plan_cache().hits(), 0);
}

// ---- collective-layer chaos ----------------------------------------------

// Historical name: no all-reduce runs on the step any more; the Gram
// reductions ride the row exchanges this test perturbs.
#[test]
fn masked_chaos_on_the_ring_allreduce_matches_a_clean_run() {
    // Masked faults (drops/dups/delays) on the row exchanges and the Gram
    // slices riding them must leave the trajectory and the logical traffic
    // bit-identical to a clean run.
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));

    let mut clean = StreamingSession::new(r10_cfg(), mode.clone());
    clean.ingest(&s0).unwrap();
    let clean_report = clean.ingest(&s1).unwrap();

    let plan = Arc::new(
        FaultPlan::seeded(42)
            .with_message_drops(120)
            .with_duplicates(80)
            .with_delays(100, Duration::from_micros(200))
            .with_retransmit_delay(Duration::from_micros(100)),
    );
    let mut chaos = StreamingSession::new(r10_cfg(), mode);
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
            "masked chaos must not move a bit"
        );
    }
    let comm = report.comm.expect("distributed step reports comm");
    let clean_comm = clean_report.comm.expect("distributed step reports comm");
    assert!(comm.reconciles());
    assert!(comm.retransmits > 0, "the chaos plan really fired");
    assert_eq!(comm.bytes, clean_comm.bytes);
    assert_eq!(comm.collectives, clean_comm.collectives);
    assert_eq!(comm.wire_bytes(), comm.bytes);
}

// Historical name: there is no ring policy any more, only the larger R = 10
// Gram buffer it once selected the ring for.
#[test]
fn crash_recovery_under_ring_policy_stays_bit_identical() {
    // A worker crash while a posted (overlapped) exchange is still in
    // flight: the abort must fan out, recovery must replay, and the result
    // must match the clean run bit for bit.
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));

    let mut clean = StreamingSession::new(r10_cfg(), mode.clone());
    clean.ingest(&s0).unwrap();
    clean.ingest(&s1).unwrap();

    // A mode-iteration is two exchanges (its Gram reduction rides them)
    // and set-up none, so seq 3 is the first iteration's
    // mode-1 refresh exchange — mode 0 is fully updated and mode 1's
    // solved rows are about to be posted.
    let plan = Arc::new(FaultPlan::seeded(11).crash_worker_at_collective_times(1, 3, 1));
    let mut chaos = StreamingSession::new(r10_cfg(), mode);
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
fn checkpoint_round_trips_the_comm_counters() {
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));
    let mut sess = StreamingSession::new(cfg(), mode.clone());
    sess.ingest(&s0).unwrap();
    sess.ingest(&s1).unwrap();
    let totals = sess.comm_totals().clone();
    assert!(totals.bytes > 0);
    assert_eq!(totals.wire_bytes(), totals.bytes);
    assert!(totals.reconciles());

    let path = std::env::temp_dir().join("dismastd_collectives_ckpt.json");
    sess.checkpoint(&path).unwrap();
    let restored = StreamingSession::restore(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.comm_totals(), &totals);
    assert_eq!(restored.mode(), &mode);
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
    assert_eq!(revived.to_checkpoint().step, 1);
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

// ---- the checkpoint trust boundary ---------------------------------------

/// A checkpoint after one step, as JSON: a 3×3×3 session at rank 2.
fn one_step_checkpoint(mode: ExecutionMode) -> String {
    let mut b = SparseTensorBuilder::new(vec![3, 3, 3]);
    for e in 0..14usize {
        b.push(&[e % 3, (e / 3) % 3, (e / 9) % 3], 1.0 + e as f64 / 8.0)
            .unwrap();
    }
    let mut sess = StreamingSession::new(cfg().with_rank(2).with_max_iters(3), mode);
    sess.ingest(&b.build().unwrap()).unwrap();
    serde_json::to_string(&sess.to_checkpoint()).unwrap()
}

/// The byte ranges of `json`'s numbers and of its arrays' last elements
/// (an array's last element with the comma before it, or its one element),
/// outside strings.
fn numbers_and_last_elements(json: &[u8]) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let (mut numbers, mut lasts) = (Vec::new(), Vec::new());
    // Per open array: its first byte after `[`, and where its last
    // element starts (after the last comma at its depth).
    let mut open: Vec<Option<(usize, usize)>> = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < json.len() {
        let c = json[i];
        match c {
            b'"' if !in_string || json[i - 1] != b'\\' => in_string = !in_string,
            _ if in_string => {}
            b'[' => open.push(Some((i + 1, i + 1))),
            b'{' => open.push(None),
            b',' => {
                if let Some(Some((_, last))) = open.last_mut() {
                    *last = i;
                }
            }
            b']' | b'}' => {
                if let Some(Some((first, last))) = open.pop() {
                    if first < i {
                        lasts.push(last..i);
                    }
                }
            }
            b'-' | b'0'..=b'9' => {
                let end = (i..json.len())
                    .find(|&k| !matches!(json[k], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                    .unwrap_or(json.len());
                numbers.push(i..end);
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    (numbers, lasts)
}

/// Restores `json` and, when that succeeds, asks the session for two
/// predictions and one ingest of a snapshot grown by a row in every mode.
/// Errors are fine; only a panic fails.  Returns whether the session was
/// restored and whether it ingested.  A restored session holds a world and
/// iteration, restart and ridge budgets within their named caps (restore
/// refuses the rest), so every restored session can be asked to ingest.
fn restore_predict_ingest(json: &[u8], path: &std::path::Path) -> (bool, bool) {
    std::fs::write(path, json).unwrap();
    let Ok(mut sess) = StreamingSession::restore(path) else {
        return (false, false);
    };
    let shape = sess.to_checkpoint().shape;
    let _ = sess.predict(&vec![0; shape.len()]);
    let _ = sess.predict(
        &shape
            .iter()
            .map(|&s| s.saturating_sub(1))
            .collect::<Vec<_>>(),
    );
    let cfg = sess.to_checkpoint().cfg;
    let workers = match sess.mode() {
        ExecutionMode::Serial => 1,
        ExecutionMode::Distributed(cc) => cc.workers,
    };
    let budgets = [
        cfg.max_iters,
        cfg.numerics.watchdog.max_restarts,
        cfg.numerics.solver.max_ridge_steps as usize,
    ];
    assert!(
        workers <= MAX_WORKERS,
        "restore refuses workers = {workers}"
    );
    assert!(
        budgets[0] <= MAX_ITERS
            && budgets[1] <= MAX_RESTARTS
            && budgets[2] <= MAX_RIDGE_STEPS as usize,
        "restore refuses budgets {budgets:?}"
    );
    let grown: Vec<usize> = if shape.is_empty() {
        vec![3, 3, 3]
    } else {
        shape.iter().map(|&s| s + 1).collect()
    };
    if grown.iter().product::<usize>() > 4096 {
        return (true, false);
    }
    let mut b = SparseTensorBuilder::new(grown.clone());
    let mut idx = vec![0usize; grown.len()];
    for e in 0..grown.iter().product::<usize>() {
        let mut rest = e;
        for (i, &s) in idx.iter_mut().zip(&grown) {
            *i = rest % s;
            rest /= s;
        }
        if e % 3 != 1 {
            b.push(&idx, 1.0 + (e % 5) as f64 / 4.0).unwrap();
        }
    }
    let _ = sess.ingest(&b.build().unwrap());
    (true, true)
}

#[test]
fn restore_survives_hostile_checkpoint_json() {
    // From two valid checkpoints (serial and world 2, one step each): every
    // truncation point, seeded single-byte mutations, every number replaced
    // by 0, u64::MAX, −1 and 1e999, and every array one element shorter.
    let path =
        std::env::temp_dir().join(format!("dismastd_hostile_ckpt_{}.json", std::process::id()));
    let mut panicked = Vec::new();
    let (mut cases, mut restored, mut ingested) = (0usize, 0usize, 0usize);
    for (name, mode) in [
        ("serial", ExecutionMode::Serial),
        ("world 2", ExecutionMode::Distributed(ClusterConfig::new(2))),
    ] {
        let json = one_step_checkpoint(mode).into_bytes();
        let mut variants: Vec<(String, Vec<u8>)> = (0..json.len())
            .map(|cut| (format!("cut at {cut}"), json[..cut].to_vec()))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..400 {
            let at = rng.gen_range(0..json.len());
            let byte = match rng.gen_range(0..2) {
                0 => b"0123456789-+.eE,:[]{}\" n"[rng.gen_range(0..24usize)],
                _ => rng.gen_range(0..=255u8),
            };
            let mut v = json.clone();
            v[at] = byte;
            variants.push((format!("byte {at} = {byte:#04x}"), v));
        }
        let (numbers, lasts) = numbers_and_last_elements(&json);
        assert!(
            numbers.len() > 40 && lasts.len() >= 6,
            "{name}: the scan found the fields"
        );
        for range in &numbers {
            for sub in ["0", "18446744073709551615", "-1", "1e999"] {
                let v = [&json[..range.start], sub.as_bytes(), &json[range.end..]].concat();
                variants.push((format!("{range:?} = {sub}"), v));
            }
        }
        for range in &lasts {
            let v = [&json[..range.start], &json[range.end..]].concat();
            variants.push((format!("{range:?} dropped"), v));
        }
        for (case, v) in &variants {
            let run = std::panic::AssertUnwindSafe(|| restore_predict_ingest(v, &path));
            match std::panic::catch_unwind(run) {
                Ok((r, i)) => {
                    (restored, ingested) = (restored + usize::from(r), ingested + usize::from(i))
                }
                Err(_) => panicked.push(format!("{name}: {case}")),
            }
        }
        cases += variants.len();
    }
    std::fs::remove_file(&path).ok();
    // Most mutations land in a factor's digits and still restore.
    assert!(
        cases > 3000 && ingested > 250,
        "{cases} cases, {restored} restored, {ingested} ingested"
    );
    assert!(
        panicked.is_empty(),
        "{} of {cases} cases panicked: {panicked:#?}",
        panicked.len()
    );
}
