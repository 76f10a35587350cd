//! Deterministic-simulation (DST) suite: streaming sessions under
//! one-seed chaos with elastic membership, checked against the shadow
//! oracle after every step.
//!
//! Every scenario runs the observed session inside the virtual-time
//! simulator (`SimOptions`) with a seeded `FaultPlan` layered on top, so
//! a single u64 seed determines the scheduler interleaving, per-link
//! latencies, partition windows, and fault fates.  The acceptance
//! properties:
//!
//! 1. same seed ⇒ identical event trace and bit-identical factors;
//! 2. *different* seeds still converge to bit-identical factors — chaos
//!    may reorder the schedule but must never change the math;
//! 3. join-during-exchange, leave-during-solve, and
//!    partition-during-rebalance all pass a seed sweep with the shadow
//!    checker (bitwise vs a fault-free replica, tolerance vs the serial
//!    oracle) green after every step.
//!
//! Sweep width comes from `DISMASTD_DST_SEEDS` (default 8 locally; CI
//! runs 64).  On failure the panic message carries the seed, so any red
//! run replays exactly with `DISMASTD_DST_SEEDS` pinned and the seed
//! plugged into a one-off scenario.

use dismastd_cluster::{ClusterOptions, FaultPlan, PartitionWindow, SimOptions, SimProbe};
use dismastd_core::{
    dtd, ClusterConfig, DecompConfig, ExecutionMode, HealPolicy, HealTransition, NumericsPolicy,
    ShadowOracle, SolvePolicy, StepReport, StreamingSession, ThreadPolicy, VirtualClock,
};
use dismastd_data::StreamSequence;
use dismastd_integration_tests::{random_complement, random_factors, random_tensor};
use dismastd_tensor::{
    KruskalTensor, Matrix, NumericsReport, SparseTensor, SparseTensorBuilder, TensorError,
};
use std::sync::Arc;
use std::time::Duration;

fn dst_cfg() -> DecompConfig {
    DecompConfig::default().with_rank(3).with_max_iters(3)
}

fn sweep_seeds() -> Vec<u64> {
    let n = std::env::var("DISMASTD_DST_SEEDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(8);
    (0..n).collect()
}

/// Runs one 3-step streaming scenario under simulated chaos.
///
/// * `delta` — membership change requested before step `change_at`
///   (+n join, -n leave);
/// * `windows` — explicit partition windows, on top of one seeded one;
/// * `check` — replay every step through the [`ShadowOracle`].
///
/// Returns the per-step trace fingerprints and the final factor bits.
fn run_scenario(
    seed: u64,
    start_world: usize,
    delta: isize,
    change_at: usize,
    windows: &[PartitionWindow],
    check: bool,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let cfg = dst_cfg();
    let full = random_tensor(&[12, 10, 8], 400, 17);
    let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).expect("cuts");

    let probe = SimProbe::new();
    let mut sim = SimOptions::from_seed(seed)
        .with_seeded_partitions(1, 200_000)
        .with_probe(Arc::clone(&probe));
    for w in windows {
        sim = sim.with_partition(*w);
    }
    let plan = FaultPlan::seeded(seed ^ 0x5EED)
        .with_message_drops(100)
        .with_duplicates(100)
        .with_delays(100, Duration::from_millis(2));
    let opts = ClusterOptions::default()
        .with_fault_plan(Arc::new(plan))
        .with_sim(sim);

    let mut observed = StreamingSession::new(
        cfg,
        ExecutionMode::Distributed(ClusterConfig::new(start_world)),
    );
    observed.set_cluster_options(opts);
    let mut oracle = ShadowOracle::new(cfg, ClusterConfig::new(start_world));

    let mut trace = Vec::new();
    for (t, snap) in seq.iter().enumerate() {
        if t == change_at {
            if delta > 0 {
                observed
                    .request_join(delta as usize)
                    .unwrap_or_else(|e| panic!("seed {seed}: join request failed: {e}"));
            } else if delta < 0 {
                observed
                    .request_leave(delta.unsigned_abs())
                    .unwrap_or_else(|e| panic!("seed {seed}: leave request failed: {e}"));
            }
        }
        observed
            .ingest(snap)
            .unwrap_or_else(|e| panic!("seed {seed}: step {t} failed under chaos: {e}"));
        trace.push(probe.fingerprint());
        if check {
            oracle
                .check_step(snap, &observed)
                .unwrap_or_else(|e| panic!("seed {seed}: shadow check failed: {e}"));
        }
    }
    let factors = observed
        .factors()
        .expect("factors after 3 steps")
        .factors()
        .iter()
        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect();
    (trace, factors)
}

#[test]
fn same_seed_gives_identical_trace_and_factors() {
    let (trace_a, bits_a) = run_scenario(7, 2, 1, 1, &[], false);
    let (trace_b, bits_b) = run_scenario(7, 2, 1, 1, &[], false);
    assert_eq!(trace_a, trace_b, "same seed must replay the same schedule");
    assert_eq!(bits_a, bits_b, "same seed must replay identical factors");

    // A different seed reorders the schedule (different trace) but the
    // decomposition itself must be chaos-invariant: identical bits.
    let (trace_c, bits_c) = run_scenario(8, 2, 1, 1, &[], false);
    assert_ne!(trace_a, trace_c, "seed must drive the schedule trace");
    assert_eq!(bits_a, bits_c, "chaos must never change the math");
}

#[test]
fn thread_pool_size_never_changes_the_factor_bits() {
    // The intra-worker kernel pools chunk by row-disjoint run ranges, so
    // the lane count is purely a throughput knob — the distributed
    // factors must be bit-identical at every thread count.  `Fixed` pins
    // the count directly (it ignores `DISMASTD_THREADS`), so this test
    // cannot race other tests over the environment; the CI matrix covers
    // the env-var path by running the whole suite under
    // `DISMASTD_THREADS={1,4}`.
    let run = |threads: ThreadPolicy| {
        let cfg = dst_cfg().with_threads(threads);
        let full = random_tensor(&[12, 10, 8], 400, 17);
        let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).expect("cuts");
        let opts = ClusterOptions::default().with_sim(SimOptions::from_seed(11));
        let mut observed =
            StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(2)));
        observed.set_cluster_options(opts);
        let mut oracle = ShadowOracle::new(cfg, ClusterConfig::new(2));
        for (t, snap) in seq.iter().enumerate() {
            observed
                .ingest(snap)
                .unwrap_or_else(|e| panic!("threads {threads:?}: step {t} failed: {e}"));
            oracle
                .check_step(snap, &observed)
                .unwrap_or_else(|e| panic!("threads {threads:?}: shadow check failed: {e}"));
        }
        let bits: Vec<Vec<u64>> = observed
            .factors()
            .expect("factors after 3 steps")
            .factors()
            .iter()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        bits
    };
    // Fixed(4) over a 2-rank world gives each rank a 2-lane pool (and the
    // driver a 4-lane build pool), so the pooled paths genuinely run.
    let serial = run(ThreadPolicy::Fixed(1));
    let pooled = run(ThreadPolicy::Fixed(4));
    assert_eq!(serial, pooled, "thread count must never change factor bits");
}

#[test]
fn join_during_exchange_survives_the_seed_sweep() {
    for seed in sweep_seeds() {
        run_scenario(seed, 2, 1, 1, &[], true);
    }
}

#[test]
fn leave_during_solve_survives_the_seed_sweep() {
    for seed in sweep_seeds() {
        run_scenario(seed, 3, -1, 1, &[], true);
    }
}

#[test]
fn partition_during_rebalance_survives_the_seed_sweep() {
    // Isolate worker 0 across the opening of the membership step — the
    // exchange that redistributes rows must ride out the outage.
    let outage = PartitionWindow {
        a: 0,
        b: usize::MAX,
        start_ns: 0,
        end_ns: 150_000,
    };
    for seed in sweep_seeds() {
        run_scenario(seed, 2, 1, 1, &[outage], true);
    }
}

// ---- replicated solver decisions under chaos -----------------------------

/// One warm step from `old` over `arrivals` (entries outside the old box,
/// so the step's complement is `arrivals` itself) at `world` ranks, under
/// the seed's simulator and message chaos when a seed is given.
fn escalating_step(
    cfg: DecompConfig,
    old: &[Matrix],
    arrivals: &SparseTensor,
    world: usize,
    seed: Option<u64>,
) -> (StepReport, Vec<Vec<u64>>) {
    let mut sess = StreamingSession::resume(
        cfg,
        ExecutionMode::Distributed(ClusterConfig::new(world)),
        KruskalTensor::new(old.to_vec()).expect("old factors"),
    )
    .expect("resume");
    if let Some(seed) = seed {
        let plan = FaultPlan::seeded(seed ^ 0x5EED)
            .with_message_drops(100)
            .with_duplicates(100)
            .with_delays(100, Duration::from_millis(2));
        sess.set_cluster_options(
            ClusterOptions::default()
                .with_fault_plan(Arc::new(plan))
                .with_sim(SimOptions::from_seed(seed).with_seeded_partitions(1, 200_000)),
        );
    }
    let report = sess
        .ingest(arrivals)
        .unwrap_or_else(|e| panic!("seed {seed:?}, world {world}: escalating step failed: {e}"));
    (report, final_bits(&sess))
}

/// Every rank takes the solver decisions itself; nothing ships them.  When
/// the ladder actually escalates, chaos must still leave the run with the
/// fault-free run's decisions and factors — `run_distributed` fails the
/// step if any two ranks' decision digests differ — and one rank must
/// reproduce the serial solver bit for bit.
#[test]
fn escalating_decisions_agree_on_every_rank_under_the_seed_sweep() {
    // Fixture 1: a condition ceiling nothing passes — ridge on every solve.
    let forced_ridge = NumericsPolicy::default().with_solver(SolvePolicy {
        condition_limit: 1.0 + 1e-9,
        ..SolvePolicy::default()
    });
    let ridge_old = random_factors(&[4, 5, 3], 3, 10);
    let ridge_arrivals = random_complement(&[4, 5, 3], &[8, 8, 6], 110, 11);
    // Fixture 2: a non-growing mode whose old rows are collinear, so mode
    // 0's denominators are singular under the *default* policy.
    let collinear = Matrix::from_fn(3, 3, |i, _| 1.0 + 0.25 * i as f64);
    let collinear_old = vec![random_factors(&[4], 3, 2).remove(0), collinear];
    let mut b = SparseTensorBuilder::new(vec![6, 3]);
    for i0 in 4..6 {
        for i1 in 0..3 {
            b.push(&[i0, i1], 0.3 * (i0 + 2 * i1) as f64 - 1.0)
                .expect("in bounds");
        }
    }
    let collinear_arrivals = b.build().expect("valid shape");

    let base = dst_cfg().with_max_iters(5);
    let seeds = sweep_seeds().len().max(32) as u64;
    for (name, cfg, old, arrivals) in [
        (
            "forced ridge",
            base.with_numerics(forced_ridge),
            &ridge_old,
            &ridge_arrivals,
        ),
        ("collinear", base, &collinear_old, &collinear_arrivals),
    ] {
        let serial = dtd(arrivals, old, &cfg).expect("serial dtd");
        assert!(serial.numerics.escalated(), "{name}: {:?}", serial.numerics);
        let serial_bits = factor_bits(&serial.kruskal);
        let (one, one_bits) = escalating_step(cfg, old, arrivals, 1, None);
        assert_eq!(one.numerics, serial.numerics, "{name}: world 1");
        assert_eq!(
            one_bits, serial_bits,
            "{name}: world 1 ≡ serial, bit for bit"
        );

        // Summation order follows the world size, and an escalating system
        // is ill-conditioned by construction, so across worlds the λ and
        // condition extremes may drift; which tier served each solve may
        // not, and within a world nothing may move at all.
        let tiers = |n: &NumericsReport| {
            (
                n.cholesky_solves,
                n.lu_solves,
                n.ridge_solves,
                n.post_escalations,
            )
        };
        for world in 2..=4 {
            let (clean, clean_bits) = escalating_step(cfg, old, arrivals, world, None);
            assert_eq!(
                tiers(&clean.numerics),
                tiers(&serial.numerics),
                "{name}: world {world}: tier stream drifted from serial"
            );
            for seed in 0..seeds {
                let (report, bits) = escalating_step(cfg, old, arrivals, world, Some(seed));
                assert!(report.numerics.escalated(), "{name}: seed {seed}");
                assert_eq!(
                    report.numerics, clean.numerics,
                    "{name}: seed {seed}, world {world}: chaos changed the decisions"
                );
                assert_eq!(
                    bits, clean_bits,
                    "{name}: seed {seed}, world {world}: chaos changed the factors"
                );
            }
        }
    }
}

// ---- checkpoint/restore across membership changes ------------------------

#[test]
fn restore_into_a_larger_world_matches_the_elastic_join() {
    let cfg = dst_cfg();
    let full = random_tensor(&[12, 10, 8], 400, 17);
    let seq = StreamSequence::cut(&full, &[0.6, 1.0]).expect("cuts");
    let snaps: Vec<_> = seq.iter().collect();

    let mut elastic = StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(2)));
    elastic.ingest(snaps[0]).expect("step 0");
    let ckpt = elastic.to_checkpoint();

    // Path A: stay resident, grow elastically before step 1.
    elastic.request_join(1).expect("join");
    elastic.ingest(snaps[1]).expect("elastic step 1");

    // Path B: restore the step-0 checkpoint straight into the 3-worker
    // world and take the same step.
    let mut restored =
        StreamingSession::from_checkpoint_with_world(ckpt, 3).expect("restore into world 3");
    restored.ingest(snaps[1]).expect("restored step 1");

    let a = elastic.factors().expect("factors");
    let b = restored.factors().expect("factors");
    for (mode, (fa, fb)) in a.factors().iter().zip(b.factors()).enumerate() {
        let bits_a: Vec<u64> = fa.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = fb.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits_a, bits_b,
            "mode {mode}: restore-with-world must migrate to the same state the elastic join reaches"
        );
    }
}

#[test]
fn restore_with_world_rejects_zero_and_serial_mismatch() {
    let cfg = dst_cfg();
    let full = random_tensor(&[10, 9, 8], 200, 3);
    let seq = StreamSequence::cut(&full, &[1.0]).expect("cuts");

    let mut serial = StreamingSession::new(cfg, ExecutionMode::Serial);
    serial
        .ingest(seq.iter().next().expect("one snapshot"))
        .expect("ingest");
    let ckpt = serial.to_checkpoint();

    match StreamingSession::from_checkpoint_with_world(ckpt.clone(), 0) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(msg.contains("workers"), "unexpected message: {msg}")
        }
        other => panic!("workers=0 must fail typed, got {other:?}"),
    }
    match StreamingSession::from_checkpoint_with_world(ckpt.clone(), 3) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(msg.contains("serial"), "unexpected message: {msg}")
        }
        other => panic!("serial checkpoint into a 3-worker cluster must fail typed, got {other:?}"),
    }
    // world 1 is the identity restore for a serial checkpoint.
    StreamingSession::from_checkpoint_with_world(ckpt, 1).expect("serial -> world 1 is fine");
}

// ---- supervised crash-and-rejoin (the `heal_` sweep; CI runs it as its
// ---- own matrix entry) ---------------------------------------------------

/// Heal policy for the sweeps: seeded backoff spent through a virtual
/// clock, so the exponential ladder costs zero wall-clock.
fn heal_policy(seed: u64) -> HealPolicy {
    HealPolicy::default()
        .with_backoff_seed(seed)
        .with_clock(Arc::new(VirtualClock::new()))
}

fn factor_bits(k: &KruskalTensor) -> Vec<Vec<u64>> {
    k.factors()
        .iter()
        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn final_bits(s: &StreamingSession) -> Vec<Vec<u64>> {
    factor_bits(s.factors().expect("factors after the stream"))
}

/// Runs the 3-step stream under an installed heal policy, arming `chaos` (layered
/// on the seed's simulator) before step `crash_step`.  With `join_at`, one
/// worker joins right before the crash step, so the heal replays race an
/// in-flight membership change.  Panics (with the seed) if any step fails
/// to heal or the shadow oracle disagrees.
fn run_heal_scenario(
    seed: u64,
    start_world: usize,
    crash_step: usize,
    join_at: bool,
    chaos: impl Fn(SimOptions) -> ClusterOptions,
) -> (Vec<StepReport>, Vec<Vec<u64>>) {
    let cfg = dst_cfg();
    let full = random_tensor(&[12, 10, 8], 400, 17);
    let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).expect("cuts");

    let mut observed = StreamingSession::new(
        cfg,
        ExecutionMode::Distributed(ClusterConfig::new(start_world)),
    );
    observed.set_cluster_options(ClusterOptions::default().with_sim(SimOptions::from_seed(seed)));
    observed.set_heal_policy(heal_policy(seed));
    let mut oracle = ShadowOracle::new(cfg, ClusterConfig::new(start_world));

    let mut reports = Vec::new();
    for (t, snap) in seq.iter().enumerate() {
        if t == crash_step {
            if join_at {
                observed
                    .request_join(1)
                    .unwrap_or_else(|e| panic!("seed {seed}: join request failed: {e}"));
            }
            observed.set_cluster_options(chaos(SimOptions::from_seed(seed)));
        }
        let report = observed
            .ingest(snap)
            .unwrap_or_else(|e| panic!("seed {seed}: step {t} failed to heal: {e}"));
        reports.push(report);
        oracle
            .check_step(snap, &observed)
            .unwrap_or_else(|e| panic!("seed {seed}: shadow check failed after heal: {e}"));
    }
    (reports, final_bits(&observed))
}

/// A fault-free reference run of the same stream: `start_world` workers,
/// optionally shrunk/grown by `delta` before step `change_at`.
fn clean_reference(start_world: usize, delta: isize, change_at: usize) -> Vec<Vec<u64>> {
    let cfg = dst_cfg();
    let full = random_tensor(&[12, 10, 8], 400, 17);
    let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).expect("cuts");
    let mut s = StreamingSession::new(
        cfg,
        ExecutionMode::Distributed(ClusterConfig::new(start_world)),
    );
    for (t, snap) in seq.iter().enumerate() {
        if t == change_at {
            if delta > 0 {
                s.request_join(delta as usize).expect("join");
            } else if delta < 0 {
                s.request_leave(delta.unsigned_abs()).expect("leave");
            }
        }
        s.ingest(snap).expect("clean reference step");
    }
    final_bits(&s)
}

/// A worker crashes early in the step (first exchange); the supervisor
/// respawns it from the pre-step checkpoint and the healed stream is
/// bit-identical to a fault-free run at the same world — without the
/// caller ever seeing an error.
#[test]
fn heal_crash_during_exchange_survives_the_seed_sweep() {
    let clean = clean_reference(3, 0, usize::MAX);
    for seed in sweep_seeds() {
        let (reports, bits) = run_heal_scenario(seed, 3, 1, false, |sim| {
            ClusterOptions::default().with_sim(sim.with_crash_and_rejoin(1, 2, 0))
        });
        let heal = reports[1].heal.as_ref().expect("heal report on step 1");
        assert_eq!(heal.respawns, 1, "seed {seed}: one respawn heals the crash");
        assert!(heal.backoff_ns > 0, "seed {seed}: backoff must be spent");
        assert!(!heal.degraded, "seed {seed}: no degradation needed");
        assert_eq!(
            bits, clean,
            "seed {seed}: healed factors must be bit-identical to a fault-free run"
        );
    }
}

/// The crash lands late in the step (inside the ALS solve iterations);
/// same contract.
#[test]
fn heal_crash_during_solve_survives_the_seed_sweep() {
    let clean = clean_reference(3, 0, usize::MAX);
    for seed in sweep_seeds() {
        let (reports, bits) = run_heal_scenario(seed, 3, 1, false, |sim| {
            ClusterOptions::default().with_sim(sim.with_crash_and_rejoin(2, 9, 0))
        });
        let heal = reports[1].heal.as_ref().expect("heal report on step 1");
        assert_eq!(heal.respawns, 1, "seed {seed}");
        assert_eq!(
            bits, clean,
            "seed {seed}: healed factors must be bit-identical to a fault-free run"
        );
    }
}

/// The same rank dies twice (the crash survives the first replay); the
/// default budget of two respawns absorbs both.
#[test]
fn heal_double_crash_of_the_same_rank_survives_the_seed_sweep() {
    let clean = clean_reference(3, 0, usize::MAX);
    for seed in sweep_seeds() {
        let (reports, bits) = run_heal_scenario(seed, 3, 1, false, |sim| {
            ClusterOptions::default()
                .with_sim(sim)
                .with_fault_plan(Arc::new(
                    FaultPlan::seeded(seed ^ 0xDEAD).crash_worker_at_collective_times(1, 3, 2),
                ))
        });
        let heal = reports[1].heal.as_ref().expect("heal report on step 1");
        assert_eq!(
            heal.respawns, 2,
            "seed {seed}: both crashes must be respawned through"
        );
        assert!(!heal.degraded, "seed {seed}");
        assert_eq!(bits, clean, "seed {seed}: bit-identical after double heal");
    }
}

/// The crash races an **in-flight membership change**: a join is queued
/// for the same step the crash fires in.  The join is applied at the step
/// boundary before the first attempt, so every replay re-runs in the
/// already-grown world and the result matches a fault-free elastic join.
#[test]
fn heal_crash_during_membership_change_survives_the_seed_sweep() {
    let clean = clean_reference(2, 1, 1);
    for seed in sweep_seeds() {
        let (reports, bits) = run_heal_scenario(seed, 2, 1, true, |sim| {
            ClusterOptions::default().with_sim(sim.with_crash_and_rejoin(1, 2, 0))
        });
        let heal = reports[1].heal.as_ref().expect("heal report on step 1");
        assert!(heal.respawns >= 1, "seed {seed}");
        assert_eq!(
            bits, clean,
            "seed {seed}: heal must preserve the in-flight join's outcome"
        );
    }
}

/// A rank that keeps dying exhausts its respawn budget; instead of
/// failing, the supervisor falls back to a **degraded world** — the
/// stream continues at reduced parallelism with a typed transition on the
/// report, and the shadow oracle stays green across the shrink.
#[test]
fn heal_budget_exhaustion_degrades_instead_of_failing() {
    // The departing rank is the highest (world 3 -> 2 drops rank 2), so
    // after the shrink the armed crash has no rank to fire on.
    let clean = clean_reference(3, -1, 1);
    for seed in sweep_seeds() {
        let cfg = dst_cfg();
        let full = random_tensor(&[12, 10, 8], 400, 17);
        let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).expect("cuts");

        let mut observed =
            StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(3)));
        observed
            .set_cluster_options(ClusterOptions::default().with_sim(SimOptions::from_seed(seed)));
        observed.set_heal_policy(heal_policy(seed).with_max_respawns(1));
        let mut oracle = ShadowOracle::new(cfg, ClusterConfig::new(3));

        let mut reports = Vec::new();
        for (t, snap) in seq.iter().enumerate() {
            if t == 1 {
                // Rank 2 dies at its 3rd collective on every attempt.
                observed.set_cluster_options(
                    ClusterOptions::default()
                        .with_sim(SimOptions::from_seed(seed))
                        .with_fault_plan(Arc::new(
                            FaultPlan::seeded(seed ^ 0xFA11).crash_worker_at_collective_times(
                                2,
                                3,
                                u32::MAX,
                            ),
                        )),
                );
            }
            let report = observed
                .ingest(snap)
                .unwrap_or_else(|e| panic!("seed {seed}: step {t} must degrade, not fail: {e}"));
            reports.push(report);
            oracle
                .check_step(snap, &observed)
                .unwrap_or_else(|e| panic!("seed {seed}: shadow check failed: {e}"));
        }

        let heal = reports[1].heal.as_ref().expect("heal report on step 1");
        assert!(heal.degraded, "seed {seed}: the step must degrade");
        assert_eq!(
            heal.transitions,
            vec![HealTransition::Degraded {
                from_world: 3,
                to_world: 2,
            }],
            "seed {seed}: exactly one typed degradation"
        );
        assert_eq!(heal.respawns, 1, "seed {seed}: the budget was spent first");
        match observed.mode() {
            ExecutionMode::Distributed(cc) => {
                assert_eq!(
                    cc.workers, 2,
                    "seed {seed}: the stream continues at world 2"
                )
            }
            other => panic!("seed {seed}: expected distributed mode, got {other:?}"),
        }
        assert_eq!(
            final_bits(&observed),
            clean,
            "seed {seed}: the degraded stream must match a voluntary leave at the same step"
        );
    }
}

/// When degradation is disabled the exhausted ladder surfaces a typed
/// `ClusterFault` annotated with the heal history — not a hang, not a
/// panic — and the session stays usable on its uncommitted state.
#[test]
fn heal_ladder_exhaustion_is_a_typed_error() {
    let cfg = dst_cfg();
    let full = random_tensor(&[12, 10, 8], 400, 17);
    let seq = StreamSequence::cut(&full, &[0.6, 1.0]).expect("cuts");
    let snaps: Vec<_> = seq.iter().collect();

    let mut sess = StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(2)));
    sess.ingest(snaps[0]).expect("clean step 0");
    sess.set_heal_policy(heal_policy(5).with_max_respawns(1).with_degraded(false));
    sess.set_cluster_options(
        ClusterOptions::default()
            .with_sim(SimOptions::from_seed(5))
            .with_fault_plan(Arc::new(
                FaultPlan::seeded(5).crash_worker_at_collective_times(1, 2, u32::MAX),
            )),
    );
    match sess.ingest(snaps[1]) {
        Err(TensorError::ClusterFault { rank, detail }) => {
            assert_eq!(rank, Some(1), "the fault stays attributed");
            assert!(
                detail.contains("heal ladder exhausted"),
                "the error carries the heal history: {detail}"
            );
        }
        other => panic!("expected a typed ClusterFault, got {other:?}"),
    }
    // The session still works once the chaos is lifted.
    sess.set_cluster_options(ClusterOptions::default());
    sess.ingest(snaps[1]).expect("post-give-up step");
}

// ---- restore_with_world / from_checkpoint_with_world error paths ---------

#[test]
fn restore_with_world_file_error_paths_are_typed() {
    let dir = std::env::temp_dir();

    // Missing file.
    let missing = dir.join("dismastd_dst_no_such_ckpt.json");
    let _ = std::fs::remove_file(&missing);
    match StreamingSession::restore_with_world(&missing, 2) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(msg.contains("checkpoint read"), "unexpected message: {msg}")
        }
        other => panic!("missing checkpoint must fail typed, got {other:?}"),
    }

    // Corrupt JSON.
    let corrupt = dir.join("dismastd_dst_corrupt_ckpt.json");
    std::fs::write(&corrupt, b"{\"cfg\": not json").expect("write corrupt file");
    match StreamingSession::restore_with_world(&corrupt, 2) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(
                msg.contains("checkpoint decode"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("corrupt checkpoint must fail typed, got {other:?}"),
    }
    let _ = std::fs::remove_file(&corrupt);

    // A real checkpoint file, restored with invalid world sizes.
    let cfg = dst_cfg();
    let full = random_tensor(&[10, 9, 8], 200, 3);
    let seq = StreamSequence::cut(&full, &[1.0]).expect("cuts");
    let mut serial = StreamingSession::new(cfg, ExecutionMode::Serial);
    serial
        .ingest(seq.iter().next().expect("one snapshot"))
        .expect("ingest");
    let valid = dir.join("dismastd_dst_serial_ckpt.json");
    serial.checkpoint(&valid).expect("write checkpoint");

    match StreamingSession::restore_with_world(&valid, 0) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(msg.contains("workers"), "unexpected message: {msg}")
        }
        other => panic!("workers=0 from file must fail typed, got {other:?}"),
    }
    match StreamingSession::restore_with_world(&valid, 3) {
        Err(TensorError::InvalidArgument(msg)) => {
            assert!(msg.contains("serial"), "unexpected message: {msg}")
        }
        other => panic!("serial->3 from file must fail typed, got {other:?}"),
    }
    // The identity restore from the same file stays fine.
    StreamingSession::restore_with_world(&valid, 1).expect("serial -> world 1");
    let _ = std::fs::remove_file(&valid);
}

#[test]
fn membership_requests_validate_eagerly() {
    let cfg = dst_cfg();

    let mut serial = StreamingSession::new(cfg, ExecutionMode::Serial);
    assert!(
        matches!(serial.request_join(1), Err(TensorError::InvalidArgument(_))),
        "serial sessions have no cluster to grow"
    );

    let mut dist = StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(2)));
    assert!(
        matches!(dist.request_join(0), Err(TensorError::InvalidArgument(_))),
        "zero-count changes are meaningless"
    );
    assert!(
        matches!(dist.request_leave(2), Err(TensorError::InvalidArgument(_))),
        "the cluster can never drop below one worker"
    );
    // A valid queue is visible until the next ingest applies it.
    dist.request_join(2).expect("join 2");
    dist.request_leave(1).expect("leave 1 of the queued 4");
    assert_eq!(dist.pending_membership().len(), 2);
}
