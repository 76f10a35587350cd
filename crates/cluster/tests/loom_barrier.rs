//! Loom schedule-exploration model of the abortable barrier.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (run via
//! `cargo run -p dismastd-xtask -- audit --loom-only`).  Each scenario
//! arms a deterministic [`FaultPlan`] crash point and lets the loom
//! harness perturb the schedule at the runtime's coordination edges —
//! token sends, abort fan-outs, blocking receives, crash firing — across
//! many seeds.  The property under test is the abort protocol's safety
//! net: **no interleaving of a crash against barrier traffic may strand
//! a peer until the timeout backstop**; every survivor must wake with
//! the originating `PeerCrashed` error.
#![cfg(loom)]

use dismastd_cluster::{Cluster, ClusterError, ClusterOptions, FaultPlan, Payload};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 4;
const BARRIERS: u64 = 3;

/// The timeout backstop: generous enough that a correct abort (which
/// takes microseconds) never races it, so any `Timeout` escaping the run
/// is a genuine stranded-peer bug, not schedule noise.
const BACKSTOP: Duration = Duration::from_secs(20);

/// Runs `WORLD` workers through `BARRIERS` barriers under `plan` and
/// returns the run's error.  Panics if the cluster succeeds (every
/// scenario arms at least one crash) or if a survivor was left to hit
/// the timeout backstop.
fn barrier_run(plan: FaultPlan) -> ClusterError {
    let opts = ClusterOptions::no_timeout()
        .with_timeout(BACKSTOP)
        .with_fault_plan(Arc::new(plan));
    let started = Instant::now();
    let err = Cluster::try_run_with_opts(WORLD, &opts, |ctx| {
        for _ in 0..BARRIERS {
            ctx.try_barrier()?;
        }
        Ok(())
    })
    .expect_err("an armed crash must fail the run");
    assert!(
        started.elapsed() < BACKSTOP,
        "peers must be woken by the abort fan-out, not the timeout backstop"
    );
    err
}

fn assert_crashed_at(err: &ClusterError, ranks: &[usize]) {
    match err {
        ClusterError::PeerCrashed { rank, cause } => {
            assert!(
                ranks.contains(rank),
                "expected the crash to originate at one of {ranks:?}, got rank {rank} ({cause})"
            );
            assert!(
                cause.contains("fault injection"),
                "expected the injected crash as root cause, got: {cause}"
            );
        }
        other => panic!("expected PeerCrashed, got {other:?}"),
    }
}

/// Crash **before arriving**: worker 2 dies on entry to collective 0,
/// before sending its arrive token.  Rank 0 is blocked collecting
/// tokens; ranks 1 and 3 are blocked awaiting release.  All must wake
/// with rank 2's error under every explored schedule.
#[test]
fn crash_before_arrive_wakes_all_peers() {
    loom::model(|| {
        let err = barrier_run(FaultPlan::seeded(11).crash_worker_at_collective(2, 0));
        assert_crashed_at(&err, &[2]);
    });
}

/// Crash **after arriving**: worker 1 completes barrier 0 (token sent,
/// release received) and dies entering barrier 1.  The crash now races
/// a barrier the peers believe is healthy; the abort must still win.
#[test]
fn crash_after_arrive_aborts_the_next_barrier() {
    loom::model(|| {
        let err = barrier_run(FaultPlan::seeded(12).crash_worker_at_collective(1, 1));
        assert_crashed_at(&err, &[1]);
    });
}

/// **Duplicate abort**: two workers crash at the same collective, so two
/// abort fan-outs race each other and every survivor receives a second
/// abort while already poisoned.  The run must settle on one of the two
/// root causes and never deadlock or double-panic.
#[test]
fn duplicate_abort_is_idempotent() {
    loom::model(|| {
        let err = barrier_run(
            FaultPlan::seeded(13)
                .crash_worker_at_collective(1, 1)
                .crash_worker_at_collective(3, 1),
        );
        assert_crashed_at(&err, &[1, 3]);
    });
}

/// The crash can also race **point-to-point data traffic** inside the
/// same schedule: the survivor blocked in an exchange's receive from the
/// crashed rank must get the peer's error, not its own timeout.
#[test]
fn crash_wakes_a_blocked_point_to_point_receive() {
    loom::model(|| {
        let opts = ClusterOptions::no_timeout()
            .with_timeout(BACKSTOP)
            .with_fault_plan(Arc::new(
                FaultPlan::seeded(14).crash_worker_at_collective(0, 0),
            ));
        let started = Instant::now();
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
        assert!(
            started.elapsed() < BACKSTOP,
            "receive must be woken by the abort"
        );
        assert_crashed_at(&err, &[0]);
    });
}
