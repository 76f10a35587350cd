//! # dismastd-cluster
//!
//! An in-process, multi-threaded **cluster simulator**: the distributed
//! substrate DisMASTD runs on in this reproduction.
//!
//! The paper evaluates on a 15-node Spark cluster.  Here each "worker node"
//! is an OS thread executing the same SPMD closure; workers communicate
//! exclusively through the [`WorkerCtx`] message-passing API (point-to-point
//! sends, barriers, broadcasts, all-reduce, all-to-all exchange), and every
//! byte crossing a worker boundary is tallied in [`CommStats`].  That keeps
//! the quantities the paper reasons about — per-worker compute, collective
//! counts, bytes on the network, load balance — faithful, while the actual
//! data movement is a channel send.
//!
//! [`CostModel`] adds the Spark-flavoured overheads (task startup, network
//! bandwidth/latency) that the experiment harness uses to model cluster
//! wall-clock from measured compute + counted bytes (the effect behind the
//! paper's Fig. 7 observation that startup costs dominate small datasets).
//!
//! The runtime is **fault-tolerant**: failures are typed ([`ClusterError`]),
//! a crashed worker aborts its peers instead of deadlocking them, every
//! primitive is fallible (`try_*`), and deterministic chaos can be
//! injected via a seeded [`FaultPlan`] through [`ClusterOptions`].

pub mod clock;
pub mod comm;
pub mod cost;
pub mod error;
pub mod fault;
pub mod runtime;
pub mod sim;
pub mod supervisor;
pub mod wire;

pub use clock::{Clock, RealClock, SharedClock, VirtualClock};
pub use comm::{BufferPool, CommStats, CommStatsSnapshot, Payload};
pub use cost::CostModel;
pub use error::{ClusterError, ClusterResult};
pub use fault::FaultPlan;
pub use runtime::{Cluster, ClusterOptions, Framed, PendingExchange, WorkerCtx};
pub use sim::{CrashAndRejoin, PartitionWindow, SimOptions, SimProbe};
pub use supervisor::{HealAction, HealPolicy, Supervisor};
pub use wire::{decode_rows, maybe_compress, AllreduceAlgo, CommPolicy, WireMeta};

#[cfg(test)]
mod proptests {
    use crate::{Cluster, Payload};
    use proptest::prelude::*;

    /// A random messaging plan: (src, dst, tag, value) tuples with unique
    /// (src, dst, tag) triples so expected deliveries are unambiguous.
    fn plan_strategy(world: usize) -> impl Strategy<Value = Vec<(usize, usize, u64, f64)>> {
        prop::collection::btree_set((0..world, 0..world, 0u64..8), 0..24).prop_map(|set| {
            set.into_iter()
                .enumerate()
                .map(|(i, (s, d, t))| (s, d, t, i as f64))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary tagged point-to-point patterns neither deadlock nor
        /// misdeliver: every worker receives exactly what was addressed to
        /// it, matched by (src, tag), regardless of send/receive order.
        #[test]
        fn random_message_patterns_deliver_exactly(
            world in 1usize..5,
            plan in (1usize..5).prop_flat_map(plan_strategy),
        ) {
            let plan: Vec<(usize, usize, u64, f64)> = plan
                .into_iter()
                .filter(|&(s, d, _, _)| s < world && d < world)
                .collect();
            let plan_ref = &plan;
            let results = Cluster::try_run(world, move |ctx| {
                let me = ctx.rank();
                // Phase 1: send everything this rank originates.
                for &(s, d, t, v) in plan_ref {
                    if s == me {
                        ctx.try_send(d, t, Payload::F64(vec![v]))?;
                    }
                }
                // Phase 2: receive everything addressed here (any order).
                let mut got = Vec::new();
                for &(s, d, t, _) in plan_ref {
                    if d == me {
                        got.push((s, t, ctx.try_recv(s, t)?.into_f64()[0]));
                    }
                }
                Ok(got)
            }).unwrap();
            for (me, got) in results.into_iter().enumerate() {
                for (s, t, v) in got {
                    let expected = plan
                        .iter()
                        .find(|&&(ps, pd, pt, _)| ps == s && pd == me && pt == t)
                        .expect("message was planned")
                        .3;
                    prop_assert_eq!(v, expected);
                }
            }
        }

        /// Chained collectives on random worlds stay consistent.
        #[test]
        fn collective_chains_are_consistent(world in 1usize..6, rounds in 1usize..5) {
            let results = Cluster::try_run(world, |ctx| {
                let mut acc = 0.0;
                for round in 0..rounds {
                    acc += ctx.try_allreduce_sum_scalar((ctx.rank() + round) as f64)?;
                    ctx.try_barrier()?;
                }
                Ok(acc)
            }).unwrap();
            let expected: f64 = (0..rounds)
                .map(|round| {
                    (0..world).map(|r| (r + round) as f64).sum::<f64>()
                })
                .sum();
            for r in results {
                prop_assert!((r - expected).abs() < 1e-12);
            }
        }
    }
}
