// Triangular and multi-buffer numeric loops read clearer with explicit
// indices; suppress the iterator-style lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! # dismastd-core
//!
//! DisMASTD — distributed multi-aspect streaming CP tensor decomposition
//! (Yang et al., ICDE 2021).
//!
//! * [`StreamingSession`] — the high-level API: feed nested snapshots, get
//!   CP factors back.  Every step — the cold start with no history, each
//!   warm step over the complement — is one [`decompose`] call on the
//!   session's world (`ExecutionMode::Serial` is world 1);
//! * [`decompose`] — the one solver entry: the Dynamic Tensor
//!   Decomposition of Alg. 1 with the Eq. 5 block update rules, for
//!   arbitrary tensor order, on any world size.  An empty history is
//!   static CP-ALS (the DMS-MG baseline at world ≥ 2);
//! * [`distributed`] — the engine of Sec. IV-B behind it (per-mode MTTKRP
//!   partials, row routing, cached `R x R` products, Gram reductions riding
//!   the row exchanges, loss reuse) — the one ALS loop; world 1 runs on the
//!   caller's thread.  [`dtd()`](crate::dtd::dtd) and
//!   [`als::cp_als`] are its world-1 calls;
//! * [`loss`] — the Eq. 4 objective assembled from maintained intermediates
//!   (Sec. IV-B4) and its brute-force oracle.
//!
//! Distributed execution is fault-tolerant: cluster failures surface as
//! `TensorError::ClusterFault`, sessions checkpoint/restore their durable
//! state ([`SessionCheckpoint`]), and with a [`HealPolicy`] installed
//! [`StreamingSession::ingest`] replays a faulted step under the
//! supervisor's respawn → degrade ladder.  Deterministic
//! chaos testing plugs in through [`ClusterOptions`] / [`FaultPlan`],
//! optionally inside the virtual-time simulator ([`SimOptions`]); the
//! cluster grows and shrinks between steps via
//! [`StreamingSession::set_workers`], and [`shadow::ShadowOracle`]
//! cross-checks simulated runs step by step.

pub mod als;
pub mod config;
pub mod distributed;
pub mod dtd;
pub mod loss;
pub mod session;
pub mod shadow;

pub use config::{
    DecompConfig, NumericsPolicy, WatchdogPolicy, MAX_ITERS, MAX_RESTARTS, MAX_RIDGE_STEPS,
};
pub use dismastd_cluster::{
    ClusterError, ClusterOptions, FaultPlan, HealAction, HealPolicy, PartitionWindow, SimOptions,
    SimProbe, Supervisor, VirtualClock,
};
pub use dismastd_obs::MetricsSnapshot;
pub use dismastd_tensor::{
    NumericsReport, QuarantineCounts, SolvePolicy, SolveTier, ThreadPolicy, ValidationMode,
};
pub use distributed::{decompose, ClusterConfig, Decomposition, PlanCache};
pub use dtd::dtd;
pub use session::{
    ExecutionMode, HealReport, HealTransition, SessionCheckpoint, StepReport, StreamingSession,
    MAX_WORKERS,
};
pub use shadow::ShadowOracle;

#[cfg(test)]
mod proptests {
    use crate::config::DecompConfig;
    use crate::distributed::{decompose, ClusterConfig};
    use crate::dtd::dtd;
    use crate::loss::naive_dtd_loss;
    use dismastd_tensor::{Matrix, SparseTensor, SparseTensorBuilder};
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A random DTD problem: old factors over an old box, and complement
    /// nonzeros strictly outside it.
    #[derive(Debug, Clone)]
    struct Problem {
        complement: SparseTensor,
        old_factors: Vec<Matrix>,
    }

    fn problem_strategy() -> impl Strategy<Value = Problem> {
        (
            prop::collection::vec((2usize..5, 1usize..4), 2..4), // (old, growth) per mode
            0u64..10_000,                                        // seed
            5usize..40,                                          // nnz
        )
            .prop_map(|(dims, seed, nnz)| {
                let old_shape: Vec<usize> = dims.iter().map(|&(o, _)| o).collect();
                let new_shape: Vec<usize> = dims.iter().map(|&(o, d)| o + d).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let old_factors: Vec<Matrix> = old_shape
                    .iter()
                    .map(|&s| Matrix::random(s, 2, &mut rng))
                    .collect();
                let mut b = SparseTensorBuilder::new(new_shape.clone());
                let mut placed = 0;
                let mut attempts = 0;
                while placed < nnz && attempts < nnz * 50 {
                    attempts += 1;
                    let idx: Vec<usize> = new_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
                    if idx.iter().zip(&old_shape).all(|(i, old)| i < old) {
                        continue;
                    }
                    b.push(&idx, rng.gen_range(-1.0..1.0)).expect("in bounds");
                    placed += 1;
                }
                Problem {
                    complement: b.build().expect("valid shape"),
                    old_factors,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dtd_loss_is_monotone_and_matches_oracle(p in problem_strategy()) {
            let cfg = DecompConfig::default().with_rank(2).with_max_iters(6);
            let out = dtd(&p.complement, &p.old_factors, &cfg).unwrap();
            for w in out.loss_trace.windows(2) {
                prop_assert!(
                    w[1] <= w[0] + 1e-7 * (1.0 + w[0].abs()),
                    "loss increased: {:?}",
                    out.loss_trace
                );
            }
            let reported = *out.loss_trace.last().unwrap();
            let naive = naive_dtd_loss(
                &p.complement,
                &p.old_factors,
                out.kruskal.factors(),
                cfg.forgetting,
            )
            .unwrap();
            prop_assert!(
                (reported - naive).abs() < 1e-7 * (1.0 + naive.abs()),
                "reported {reported} vs oracle {naive}"
            );
        }

        #[test]
        fn distributed_matches_serial(p in problem_strategy(), workers in 1usize..5) {
            let cfg = DecompConfig::default().with_rank(2).with_max_iters(4);
            let serial = dtd(&p.complement, &p.old_factors, &cfg).unwrap();
            let dist = decompose(
                &p.complement,
                &p.old_factors,
                &cfg,
                &ClusterConfig::new(workers),
            )
            .unwrap();
            prop_assert_eq!(serial.loss_trace.len(), dist.loss_trace.len());
            for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
                prop_assert!(
                    (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                    "workers={}: {} vs {}", workers, a, b
                );
            }
        }
    }
}
