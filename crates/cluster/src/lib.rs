//! # dismastd-cluster
//!
//! An in-process, multi-threaded **cluster simulator**: the distributed
//! substrate DisMASTD runs on in this reproduction.
//!
//! The paper evaluates on a 15-node Spark cluster.  Here each "worker node"
//! is an OS thread executing the same SPMD closure; workers communicate
//! exclusively through the [`WorkerCtx`] collectives (barrier, gather,
//! all-reduce, all-to-all exchange), and every byte crossing a worker
//! boundary is tallied in [`CommStats`].  That keeps
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
//! a crashed worker aborts its peers — the notice carries its error value —
//! instead of deadlocking them, and every primitive is fallible (`try_*`).
//! Deterministic chaos is injected only via a seeded [`FaultPlan`] through
//! [`ClusterOptions`] — message fates, crashes and crash-and-rejoin — on
//! real threads and under the [`SimOptions`] scheduler alike.

pub mod clock;
mod collectives;
pub mod comm;
pub mod cost;
pub mod error;
pub mod fault;
pub mod runtime;
pub mod sim;
pub mod supervisor;
mod transport;
pub mod wire;

pub use clock::{Clock, RealClock, SharedClock, VirtualClock};
pub use comm::{BufferPool, CommStats, CommStatsSnapshot, Payload};
pub use cost::CostModel;
pub use error::{ClusterError, ClusterResult};
pub use fault::FaultPlan;
pub use runtime::{Cluster, ClusterOptions, PendingExchange, WorkerCtx};
pub use sim::{PartitionWindow, SimOptions, SimProbe};
pub use supervisor::{HealAction, HealPolicy, Supervisor};
pub use wire::{decode_rows, decode_rows_and_tail, AllreduceAlgo};

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

        /// Arbitrary message patterns neither deadlock nor misdeliver:
        /// eight exchanges are posted (exchange `t` carries the plan's
        /// messages of tag `t`) and completed in reverse order, so every
        /// payload but the last exchange's waits in the tag-matching
        /// buffer, and every worker receives exactly what was addressed
        /// to it.
        #[test]
        fn random_message_patterns_deliver_exactly(
            world in 1usize..5,
            plan in (1usize..5).prop_flat_map(plan_strategy),
        ) {
            const TAGS: u64 = 8;
            let plan: Vec<(usize, usize, u64, f64)> = plan
                .into_iter()
                .filter(|&(s, d, _, _)| s < world && d < world)
                .collect();
            let plan_ref = &plan;
            let addressed = |s: usize, d: usize, t: u64| -> Vec<f64> {
                plan_ref
                    .iter()
                    .filter(|&&(ps, pd, pt, _)| (ps, pd, pt) == (s, d, t))
                    .map(|p| p.3)
                    .collect()
            };
            let results = Cluster::try_run(world, |ctx| {
                let me = ctx.rank();
                let mut posted = Vec::new();
                for t in 0..TAGS {
                    let mut outgoing: Vec<Payload> =
                        (0..world).map(|d| Payload::F64(addressed(me, d, t))).collect();
                    posted.push(ctx.post_exchange(&mut outgoing)?);
                }
                let mut got = Vec::new();
                for (t, pending) in posted.into_iter().enumerate().rev() {
                    let mut incoming = Vec::new();
                    ctx.complete_exchange(pending, &mut incoming)?;
                    for (s, payload) in incoming.into_iter().enumerate() {
                        got.push((s, t as u64, payload.try_into_f64()?));
                    }
                }
                Ok(got)
            }).unwrap();
            for (me, got) in results.into_iter().enumerate() {
                prop_assert_eq!(got.len(), world * TAGS as usize);
                for (s, t, v) in got {
                    prop_assert_eq!(v, addressed(s, me, t));
                }
            }
        }

        /// Chained collectives on random worlds stay consistent.
        #[test]
        fn collective_chains_are_consistent(world in 1usize..6, rounds in 1usize..5) {
            let results = Cluster::try_run(world, |ctx| {
                let mut acc = 0.0;
                for round in 0..rounds {
                    let mut sum = [(ctx.rank() + round) as f64];
                    ctx.try_allreduce_sum(&mut sum)?;
                    acc += sum[0];
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
