//! Numerical-robustness suite: adversarial streams against the conditioned
//! solver ladder, the divergence watchdog, and validated ingest.
//!
//! Acceptance properties:
//!
//! 1. degenerate inputs (collinear factors, rank-deficient Grams, empty
//!    complements) decompose without panics or non-finite output, with the
//!    fired solver tiers visible in the step/decomposition reports;
//! 2. invalid data (NaN nonzeros) is rejected with a typed error naming the
//!    coordinate under `Strict` validation and dropped-and-counted under
//!    `Quarantine`, where the stream still converges;
//! 3. every rank of the distributed engine takes each solver decision itself
//!    from the replicated Gram state — a pure function of identical bits —
//!    so when regularization fires the factors match the serial trajectory,
//!    repeated runs are bit-identical, and a numeric failure is the same
//!    typed error on every rank rather than a cluster fault.

use dismastd_cluster::CommPolicy;
use dismastd_core::{
    dismastd, dtd, ClusterConfig, DecompConfig, ExecutionMode, NumericsPolicy, SolvePolicy,
    StreamingSession, ValidationMode, WatchdogPolicy,
};
use dismastd_tensor::{Matrix, SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cfg() -> DecompConfig {
    DecompConfig::default().with_rank(3).with_max_iters(5)
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

fn random_snapshot(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        b.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    b.build().unwrap()
}

fn assert_all_finite(factors: &[Matrix]) {
    for f in factors {
        assert!(
            f.as_slice().iter().all(|v| v.is_finite()),
            "non-finite factor entries"
        );
    }
}

// ---- degraded-mode solves ------------------------------------------------

#[test]
fn collinear_old_factors_escalate_and_stay_finite() {
    // Mode 1 does not grow, so its Gram is built from the old rows alone —
    // and those are collinear (identical columns), making the Gram rank 1
    // and the mode-0 denominators singular.  The solver ladder must carry
    // the decomposition to a finite answer under the *default* policy.
    let mut collinear = Matrix::zeros(3, 3);
    for i in 0..3 {
        let v = 1.0 + 0.25 * i as f64;
        for c in 0..3 {
            collinear.row_mut(i)[c] = v;
        }
    }
    let old = vec![
        {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            Matrix::random(4, 3, &mut rng)
        },
        collinear,
    ];
    // Complement: new rows in mode 0 only (mode 1 keeps its 3 rows).
    let mut b = SparseTensorBuilder::new(vec![6, 3]);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for i0 in 4..6 {
        for i1 in 0..3 {
            b.push(&[i0, i1], rng.gen_range(-1.0..1.0)).unwrap();
        }
    }
    let x = b.build().unwrap();

    let out = dtd(&x, &old, &cfg()).unwrap();
    assert!(out.numerics.escalated(), "{:?}", out.numerics);
    assert_all_finite(out.kruskal.factors());
    assert!(out.loss_trace.iter().all(|l| l.is_finite()));
}

#[test]
fn empty_slice_snapshot_is_harmless() {
    // The snapshot grows in every mode but brings zero new nonzeros, so the
    // new-row Gram blocks are all-zero — the ridge floor must handle the
    // resulting zero denominators without panicking.
    let s0 = random_snapshot(&[5, 5, 4], 60, 3);
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
    sess.ingest(&s0).unwrap();
    let grown = {
        let mut b = SparseTensorBuilder::new(vec![7, 7, 5]);
        for (idx, v) in s0.iter() {
            let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
            b.push(&idx, v).unwrap();
        }
        b.build().unwrap()
    };
    let r = sess.ingest(&grown).unwrap();
    assert_eq!(r.processed_nnz, 0);
    assert!(r.loss.is_finite());
    assert_all_finite(sess.factors().unwrap().factors());
}

// ---- validated ingest ----------------------------------------------------

#[test]
fn strict_validation_names_the_offending_coordinate() {
    let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
    b.push(&[0, 0, 0], 1.0).unwrap();
    b.push(&[2, 3, 1], f64::NAN).unwrap();
    b.push(&[3, 3, 3], 2.0).unwrap();
    let dirty = b.build().unwrap();

    // Strict is the default policy.
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
    match sess.ingest(&dirty) {
        Err(TensorError::NonFiniteValue { index, value }) => {
            assert_eq!(index, vec![2, 3, 1]);
            assert!(value.is_nan());
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
    // The failed ingest left the session untouched and usable.
    assert_eq!(sess.steps(), 0);
    let clean = random_snapshot(&[4, 4, 4], 30, 4);
    assert!(sess.ingest(&clean).is_ok());
}

#[test]
fn quarantine_validation_drops_counts_and_converges() {
    let shape = [6usize, 6, 5];
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..80 {
        let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        b.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    b.push(&[0, 1, 2], f64::NAN).unwrap();
    b.push(&[1, 2, 3], f64::INFINITY).unwrap();
    let dirty = b.build().unwrap();

    let cfg = cfg().with_validation(ValidationMode::Quarantine);
    let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
    let r = sess.ingest(&dirty).unwrap();
    assert_eq!(r.quarantined, 2);
    assert!(r.loss.is_finite());
    assert!(r.fit.is_finite());
    assert_all_finite(sess.factors().unwrap().factors());

    // A dirty *warm* step quarantines too, and the stream keeps going.
    let mut b = SparseTensorBuilder::new(vec![8, 8, 6]);
    for (idx, v) in dirty.iter() {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        b.push(&idx, v).unwrap();
    }
    b.push(&[7, 7, 5], f64::NAN).unwrap();
    b.push(&[6, 7, 5], 1.0).unwrap();
    let dirty2 = b.build().unwrap();
    let r2 = sess.ingest(&dirty2).unwrap();
    assert_eq!(r2.quarantined, 3); // the two old NaN/Inf entries + the new one
    assert!(r2.loss.is_finite());
    assert_all_finite(sess.factors().unwrap().factors());
}

#[test]
fn quarantine_works_distributed_too() {
    let mut b = SparseTensorBuilder::new(vec![6, 6, 5]);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for _ in 0..70 {
        let idx: Vec<usize> = [6usize, 6, 5]
            .iter()
            .map(|&s| rng.gen_range(0..s))
            .collect();
        b.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    b.push(&[5, 5, 4], f64::NAN).unwrap();
    let dirty = b.build().unwrap();

    let cfg = cfg().with_validation(ValidationMode::Quarantine);
    let mut sess = StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(3)));
    let r = sess.ingest(&dirty).unwrap();
    assert_eq!(r.quarantined, 1);
    assert!(r.loss.is_finite());
    assert!(r.comm.is_some());
}

// ---- divergence watchdog -------------------------------------------------

#[test]
fn watchdog_reports_divergence_and_leaves_session_usable() {
    // Validation off lets the NaN reach the solver; every attempt fails
    // numerically (the conditioned solver refuses to emit non-finite
    // factors), so the watchdog exhausts its restart budget and surfaces a
    // typed Diverged error without corrupting the session.
    let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
    b.push(&[0, 0, 0], 1.0).unwrap();
    b.push(&[1, 1, 1], f64::NAN).unwrap();
    b.push(&[2, 2, 2], 2.0).unwrap();
    let dirty = b.build().unwrap();

    let wd = WatchdogPolicy::default();
    let cfg = cfg().with_validation(ValidationMode::Off);
    let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
    match sess.ingest(&dirty) {
        Err(TensorError::Diverged { restarts, detail }) => {
            assert_eq!(restarts, wd.max_restarts);
            assert!(!detail.is_empty(), "detail should explain the failure");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    // Durable state untouched; a clean snapshot then ingests normally.
    assert_eq!(sess.steps(), 0);
    assert!(sess.factors().is_none());
    let clean = random_snapshot(&[4, 4, 4], 25, 7);
    let r = sess.ingest(&clean).unwrap();
    assert_eq!(r.watchdog_restarts, 0);
    assert!(r.loss.is_finite());
}

#[test]
fn watchdog_disabled_propagates_solver_errors_without_retrying() {
    // With the watchdog off the numeric failure surfaces directly (no
    // Diverged wrapper, no retries) — the caller opted out of supervision.
    let mut b = SparseTensorBuilder::new(vec![4, 4]);
    b.push(&[0, 0], f64::NAN).unwrap();
    b.push(&[3, 3], 1.0).unwrap();
    let dirty = b.build().unwrap();

    let numerics = NumericsPolicy::default()
        .with_validation(ValidationMode::Off)
        .with_watchdog(WatchdogPolicy {
            enabled: false,
            ..WatchdogPolicy::default()
        });
    let cfg = DecompConfig::default()
        .with_rank(2)
        .with_max_iters(3)
        .with_numerics(numerics);
    let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
    let err = sess.ingest(&dirty).unwrap_err();
    assert!(
        !matches!(err, TensorError::Diverged { .. }),
        "watchdog off must not wrap the error: {err:?}"
    );
    assert_eq!(sess.steps(), 0);
}

#[test]
fn watchdog_retry_reuses_the_steps_plans_and_matches_the_damped_run() {
    // The lossy f32 row downcast is allowed only under the watchdog because
    // its rounding can nudge the loss upwards.  With a zero-tolerance,
    // patience-1 watchdog that happens on this stream's warm step: the
    // first attempt is discarded and the retry at μ/2 passes.
    let strict = |mu: f64| {
        DecompConfig::default()
            .with_rank(3)
            .with_max_iters(30)
            .with_tolerance(0.0)
            .with_forgetting(mu)
            .with_numerics(NumericsPolicy::default().with_watchdog(WatchdogPolicy {
                max_restarts: 4,
                patience: 1,
                increase_tolerance: 0.0,
                ..WatchdogPolicy::default()
            }))
    };
    let mode = ExecutionMode::Distributed(
        ClusterConfig::new(2).with_comm(CommPolicy::default().with_downcast_f32(true)),
    );
    // A cold start on the leading block, then the full tensor.
    let s1 = random_snapshot(&[10, 9, 8], 300, 9);
    let s0 = s1.restrict(&[7, 7, 6]).unwrap();

    let mut retried = StreamingSession::new(strict(0.8), mode.clone());
    retried.ingest(&s0).unwrap();
    let cold_cells = retried.plan_cache().misses();
    let r = retried.ingest(&s1).unwrap();
    assert_eq!(r.watchdog_restarts, 1, "the stream must force one restart");
    assert_eq!(r.effective_forgetting, 0.4);

    // A fresh session handed the damped μ up front needs no restart (the
    // cold start does not depend on μ) and lands on the same bits.
    let mut damped = StreamingSession::new(strict(0.4), mode);
    damped.ingest(&s0).unwrap();
    let d = damped.ingest(&s1).unwrap();
    assert_eq!(d.watchdog_restarts, 0);
    assert_eq!(retried.factors(), damped.factors());
    assert_eq!(r.loss.to_bits(), d.loss.to_bits());

    // The step's cells were compiled once and served to the retry.
    let warm_cells = damped.plan_cache().misses() - cold_cells;
    assert!(warm_cells > 0);
    assert_eq!(retried.plan_cache().misses(), cold_cells + warm_cells);
    assert_eq!(retried.plan_cache().hits(), warm_cells);
    assert_eq!(damped.plan_cache().hits(), 0);
}

#[test]
fn a_nan_on_a_distributed_step_is_a_numeric_failure_not_a_cluster_fault() {
    // Validation off lets the NaN reach the solver.  It poisons mode 0's
    // Gram, and every rank refuses the next mode's denominators at the same
    // point — after the fence, before anything new is posted — so no rank
    // is left sending to a peer that already returned, and the typed
    // numeric error surfaces every time instead of racing a crashed-peer
    // report.
    let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
    b.push(&[0, 0, 0], 1.0).unwrap();
    b.push(&[1, 1, 1], f64::NAN).unwrap();
    b.push(&[2, 2, 2], 2.0).unwrap();
    let dirty = b.build().unwrap();
    let clean = random_snapshot(&[4, 4, 4], 25, 7);

    for world in [2usize, 3, 4] {
        for watchdog in [true, false] {
            let wd = WatchdogPolicy {
                enabled: watchdog,
                ..WatchdogPolicy::default()
            };
            let numerics = NumericsPolicy::default()
                .with_validation(ValidationMode::Off)
                .with_watchdog(wd);
            for repeat in 0..20 {
                let mut sess = StreamingSession::new(
                    cfg().with_numerics(numerics),
                    ExecutionMode::Distributed(ClusterConfig::new(world)),
                );
                match (watchdog, sess.ingest(&dirty)) {
                    (true, Err(TensorError::Diverged { restarts, .. })) => {
                        assert_eq!(restarts, wd.max_restarts)
                    }
                    (false, Err(TensorError::NonFiniteValue { value, .. })) => {
                        assert!(value.is_nan())
                    }
                    (_, other) => panic!(
                        "world {world}, watchdog {watchdog}, repeat {repeat}: \
                         expected a numeric failure, got {other:?}"
                    ),
                }
                // Durable state untouched; a clean snapshot then ingests.
                assert_eq!(sess.steps(), 0);
                assert!(sess.factors().is_none());
                assert!(sess.ingest(&clean).unwrap().loss.is_finite());
            }
        }
    }
}

// ---- replicated decisions: serial/distributed consistency ----------------

/// Policy whose condition ceiling rejects everything, forcing the ridge
/// tier on every solve.
fn forced_ridge() -> NumericsPolicy {
    NumericsPolicy::default().with_solver(SolvePolicy {
        condition_limit: 1.0 + 1e-9,
        ..SolvePolicy::default()
    })
}

#[test]
fn forced_ridge_single_worker_matches_serial_bitwise() {
    let old_shape = [4usize, 4, 3];
    let old: Vec<Matrix> = {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        old_shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect()
    };
    let x = random_complement(&old_shape, &[6, 6, 5], 50, 9);
    let cfg = cfg().with_numerics(forced_ridge());

    let serial = dtd(&x, &old, &cfg).unwrap();
    assert!(serial.numerics.ridge_solves > 0);
    assert_eq!(serial.numerics.cholesky_solves, 0);
    assert_eq!(serial.numerics.lu_solves, 0);

    let dist = dismastd(&x, &old, &cfg, &ClusterConfig::new(1)).unwrap();
    // The rank's own decisions mirror the serial solver's exactly.
    assert_eq!(dist.numerics, serial.numerics);
    assert_eq!(dist.loss_trace, serial.loss_trace);
    for (a, b) in serial.kruskal.factors().iter().zip(dist.kruskal.factors()) {
        assert_eq!(a.max_abs_diff(b).unwrap(), 0.0, "factors diverged");
    }
}

#[test]
fn forced_ridge_multi_worker_applies_identical_decisions() {
    let old_shape = [4usize, 5, 3];
    let old: Vec<Matrix> = {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        old_shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect()
    };
    let x = random_complement(&old_shape, &[8, 8, 6], 110, 11);
    let cfg = cfg().with_numerics(forced_ridge());

    let serial = dtd(&x, &old, &cfg).unwrap();
    assert!(serial.numerics.ridge_solves > 0);

    for workers in [2usize, 3, 4] {
        let dist = dismastd(&x, &old, &cfg, &ClusterConfig::new(workers)).unwrap();
        // Identical decision stream: same solves, same tiers, same λ/cond
        // extremes on every rank — regularization is deterministic.
        assert_eq!(dist.numerics, serial.numerics, "workers={workers}");
        for (a, b) in serial.kruskal.factors().iter().zip(dist.kruskal.factors()) {
            assert!(
                a.max_abs_diff(b).unwrap() < 1e-6,
                "workers={workers}: factors drifted"
            );
        }
        assert_all_finite(dist.kruskal.factors());
    }
}

#[test]
fn forced_ridge_distributed_runs_are_reproducible() {
    let old_shape = [4usize, 4, 3];
    let old: Vec<Matrix> = {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        old_shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect()
    };
    let x = random_complement(&old_shape, &[7, 7, 5], 80, 13);
    let cfg = cfg().with_numerics(forced_ridge());
    let cc = ClusterConfig::new(3);

    let a = dismastd(&x, &old, &cfg, &cc).unwrap();
    let b = dismastd(&x, &old, &cfg, &cc).unwrap();
    assert!(a.numerics.ridge_solves > 0);
    assert_eq!(a.numerics, b.numerics);
    assert_eq!(a.loss_trace, b.loss_trace);
    for (fa, fb) in a.kruskal.factors().iter().zip(b.kruskal.factors()) {
        assert_eq!(fa.max_abs_diff(fb).unwrap(), 0.0);
    }
}

#[test]
fn default_policy_session_reports_no_escalation_on_clean_data() {
    let s0 = random_snapshot(&[6, 6, 5], 70, 14);
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
    let r = sess.ingest(&s0).unwrap();
    assert!(r.numerics.cholesky_solves > 0);
    assert!(!r.numerics.escalated(), "{:?}", r.numerics);
    assert_eq!(r.quarantined, 0);
    assert_eq!(r.watchdog_restarts, 0);
}
