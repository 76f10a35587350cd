//! The loom barrier crash scenarios, ported onto [`SimNet`] seed sweeps.
//!
//! `loom_barrier.rs` explores every interleaving of a crash against
//! barrier traffic under the loom model checker (compiled only with
//! `--cfg loom`).  This suite replays the same four scenarios on the
//! deterministic simulator in the ordinary test build: each seed picks a
//! different (but reproducible) schedule, so a sweep probes the same
//! races continuously in CI without the loom toolchain.  The property is
//! unchanged — **no schedule of a crash against collective traffic may
//! strand a peer until the timeout backstop**; every survivor wakes with
//! the originating `PeerCrashed` error.
//!
//! The suite also covers the [`FaultPlan::crash_and_rejoin`] point the
//! supervision layer heals from, under the simulator: the crash fires
//! exactly once, the retry run re-admits the crashed rank after a virtual
//! recovery delay, and the healed run is bit-identical to a fault-free one.

use dismastd_cluster::{
    Cluster, ClusterError, ClusterOptions, FaultPlan, Payload, SimOptions, SimProbe,
};
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 4;
const BARRIERS: u64 = 3;

/// Timeout backstop: generous enough (in virtual time) that a correct
/// abort never races it, so a surfaced `Timeout` is a stranded-peer bug.
const BACKSTOP: Duration = Duration::from_secs(20);

/// Seeds to sweep; `DISMASTD_DST_SEEDS` widens the sweep in CI.
fn seeds() -> Vec<u64> {
    let n = std::env::var("DISMASTD_DST_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8u64);
    (0..n).collect()
}

/// Runs `WORLD` workers through `BARRIERS` barriers on the simulator
/// under `plan`, returning the run's error.
fn sim_barrier_run(seed: u64, plan: FaultPlan) -> ClusterError {
    let opts = ClusterOptions::no_timeout()
        .with_timeout(BACKSTOP)
        .with_sim(SimOptions::from_seed(seed))
        .with_fault_plan(Arc::new(plan));
    Cluster::try_run_with_opts(WORLD, &opts, |ctx| {
        for _ in 0..BARRIERS {
            ctx.try_barrier()?;
        }
        Ok(())
    })
    .expect_err("an armed crash must fail the run")
}

fn assert_crashed_at(seed: u64, err: &ClusterError, ranks: &[usize]) {
    match err {
        ClusterError::PeerCrashed { rank, cause } => {
            assert!(
                ranks.contains(rank),
                "seed {seed}: expected the crash at one of {ranks:?}, got rank {rank} ({cause})"
            );
            assert!(
                cause.contains("fault injection"),
                "seed {seed}: expected the injected crash as root cause, got: {cause}"
            );
        }
        other => panic!("seed {seed}: expected PeerCrashed, got {other:?}"),
    }
}

/// Crash **before arriving**: worker 2 dies on entry to collective 0.
/// Rank 0 is blocked collecting tokens; ranks 1 and 3 await release.
#[test]
fn crash_before_arrive_wakes_all_peers_on_every_seed() {
    for seed in seeds() {
        let err = sim_barrier_run(seed, FaultPlan::seeded(11).crash_worker_at_collective(2, 0));
        assert_crashed_at(seed, &err, &[2]);
    }
}

/// Crash **after arriving**: worker 1 completes barrier 0 and dies
/// entering barrier 1, racing a barrier the peers believe is healthy.
#[test]
fn crash_after_arrive_aborts_the_next_barrier_on_every_seed() {
    for seed in seeds() {
        let err = sim_barrier_run(seed, FaultPlan::seeded(12).crash_worker_at_collective(1, 1));
        assert_crashed_at(seed, &err, &[1]);
    }
}

/// **Duplicate abort**: two crashes at the same collective race their
/// abort fan-outs; the run must settle on one root cause, not deadlock.
#[test]
fn duplicate_abort_is_idempotent_on_every_seed() {
    for seed in seeds() {
        let err = sim_barrier_run(
            seed,
            FaultPlan::seeded(13)
                .crash_worker_at_collective(1, 1)
                .crash_worker_at_collective(3, 1),
        );
        assert_crashed_at(seed, &err, &[1, 3]);
    }
}

/// The crash racing **point-to-point data traffic**: the survivor is
/// blocked in an exchange's receive from the crashed rank, which will
/// never be served.  The abort fan-out —
/// not the simulator's deadlock detector, which would surface `Timeout`
/// — must wake it with the peer's error.
#[test]
fn crash_wakes_a_blocked_point_to_point_receive_on_every_seed() {
    for seed in seeds() {
        let opts = ClusterOptions::no_timeout()
            .with_timeout(BACKSTOP)
            .with_sim(SimOptions::from_seed(seed))
            .with_fault_plan(Arc::new(
                FaultPlan::seeded(14).crash_worker_at_collective(0, 0),
            ));
        let err = Cluster::try_run_with_opts(2, &opts, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_barrier()?; // crashes here
                Ok(())
            } else {
                // Blocked in an exchange's receive from rank 0, which
                // never sends.
                ctx.try_exchange(vec![Payload::Empty, Payload::Empty])
                    .map(|_| ())
            }
        })
        .expect_err("the armed crash must fail the run");
        assert_crashed_at(seed, &err, &[0]);
    }
}

// ---- crash-and-rejoin ------------------------------------------------------

/// The SPMD body healed runs are compared over: a few barriers and an
/// all-reduce whose result is exact in f64, so bit-identity is checkable.
fn body(ctx: &mut dismastd_cluster::WorkerCtx) -> dismastd_cluster::ClusterResult<f64> {
    let mut acc = 0.0;
    for round in 0..BARRIERS {
        let mut sum = [(ctx.rank() as u64 + round) as f64];
        ctx.try_allreduce_sum(&mut sum)?;
        acc += sum[0];
        ctx.try_barrier()?;
    }
    Ok(acc)
}

/// The point fires exactly once: the first run crashes rank 1 at its
/// `k`-th collective; a retry with the *same* plan re-admits the rank
/// after a virtual recovery delay and completes with clean results.
#[test]
fn crash_and_rejoin_fires_once_then_heals_on_every_seed() {
    for seed in seeds() {
        let plan = Arc::new(FaultPlan::seeded(seed).crash_and_rejoin(1, 2, 50_000));
        let sim_opts = |sim: SimOptions| {
            ClusterOptions::default()
                .with_sim(sim)
                .with_fault_plan(Arc::clone(&plan))
        };
        assert_eq!(plan.remaining_crashes(), 1);

        // Run 1: the crash fires at rank 1's collective #2.
        let opts = sim_opts(SimOptions::from_seed(seed));
        let err = Cluster::try_run_with_opts(3, &opts, body)
            .expect_err("the armed fate must fail the first run");
        match &err {
            ClusterError::PeerCrashed { rank, cause } => {
                assert_eq!(*rank, 1, "seed {seed}");
                assert!(cause.contains("crash-and-rejoin"), "seed {seed}: {cause}");
            }
            other => panic!("seed {seed}: expected PeerCrashed, got {other:?}"),
        }
        assert_eq!(plan.remaining_crashes(), 0);

        // Run 2 (the respawn): the crash is consumed; rank 1 rejoins late
        // — a virtual sleep of the recovery delay — and the run completes
        // with the same results as a fault-free cluster.
        let probe = SimProbe::new();
        let opts = sim_opts(SimOptions::from_seed(seed).with_probe(Arc::clone(&probe)));
        let (healed, _) = Cluster::try_run_with_opts(3, &opts, body)
            .expect("retry after the consumed crash must succeed");
        assert!(
            probe.virtual_ns() >= 50_000,
            "seed {seed}: the rejoin delay must be spent in virtual time \
             (virtual_ns = {})",
            probe.virtual_ns()
        );

        let clean_opts = ClusterOptions::default().with_sim(SimOptions::from_seed(seed));
        let (clean, _) = Cluster::try_run_with_opts(3, &clean_opts, body).unwrap();
        for (rank, (h, c)) in healed.iter().zip(&clean).enumerate() {
            assert_eq!(
                h.to_bits(),
                c.to_bits(),
                "seed {seed}: healed rank {rank} must be bit-identical to the clean run"
            );
        }
    }
}

/// The rejoin delay is consumed by exactly one run: a third run with the
/// same plan starts rank 0 immediately.
#[test]
fn rejoin_delay_is_consumed_once() {
    let plan = Arc::new(FaultPlan::seeded(7).crash_and_rejoin(0, 0, 250_000));
    let sim_opts = |probe: &Arc<SimProbe>| {
        ClusterOptions::default()
            .with_sim(SimOptions::from_seed(7).with_probe(Arc::clone(probe)))
            .with_fault_plan(Arc::clone(&plan))
    };
    let opts = sim_opts(&SimProbe::new());
    Cluster::try_run_with_opts(2, &opts, body).expect_err("armed crash");

    let probe2 = SimProbe::new();
    Cluster::try_run_with_opts(2, &sim_opts(&probe2), body).expect("first retry heals");
    assert!(
        probe2.virtual_ns() >= 250_000,
        "retry pays the rejoin delay"
    );

    let probe3 = SimProbe::new();
    let opts = sim_opts(&probe3);
    Cluster::try_run_with_opts(2, &opts, body).expect("later runs stay healthy");
    assert!(
        probe3.virtual_ns() < 250_000,
        "the rejoin delay must be spent once, not on every later run \
         (virtual_ns = {})",
        probe3.virtual_ns()
    );
}
