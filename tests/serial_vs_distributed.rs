//! The central correctness contract of the distributed engine: for any
//! worker count and either partitioner, distributed DisMASTD follows the
//! same optimisation trajectory as the serial DTD solver (up to
//! floating-point summation order).

use dismastd_core::{decompose, dtd, ClusterConfig, DecompConfig, ThreadPolicy};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_integration_tests::{
    random_complement, random_factors, random_tensor, untouched_old_rows,
};
use dismastd_partition::Partitioner;
use dismastd_tensor::Matrix;

fn assert_traces_close(serial: &[f64], dist: &[f64], tol: f64, what: &str) {
    assert_eq!(serial.len(), dist.len(), "{what}: iteration counts differ");
    for (i, (a, b)) in serial.iter().zip(dist).enumerate() {
        assert!(
            (a - b).abs() < tol * (1.0 + a.abs()),
            "{what}: iter {i}: serial {a} vs distributed {b}"
        );
    }
}

#[test]
fn dismastd_equivalence_across_worker_counts() {
    let old_shape = [8usize, 7, 6];
    let new_shape = [12usize, 11, 9];
    let old = random_factors(&old_shape, 4, 1);
    let x = random_complement(&old_shape, &new_shape, 300, 2);
    let cfg = DecompConfig::default().with_rank(4).with_max_iters(7);

    let serial = dtd(&x, &old, &cfg).expect("serial runs");
    for workers in [1usize, 2, 3, 5, 8] {
        for p in [Partitioner::Gtp, Partitioner::Mtp] {
            let out = decompose(
                &x,
                &old,
                &cfg,
                &ClusterConfig::new(workers).with_partitioner(p),
            )
            .expect("distributed runs");
            assert_traces_close(
                &serial.loss_trace,
                &out.loss_trace,
                1e-6,
                &format!("workers={workers} {p:?}"),
            );
            // Final factors agree entry-wise.
            for (fs, fd) in serial.kruskal.factors().iter().zip(out.kruskal.factors()) {
                assert!(
                    fs.max_abs_diff(fd).expect("same shape") < 1e-5,
                    "workers={workers} {p:?}: factors diverged"
                );
            }
        }
    }
}

#[test]
fn identities_hold_where_old_rows_leave_the_loop() {
    // A Clothing-like Zipf step: the long, skewed first mode leaves old
    // rows that no complement nonzero references, so every solver writes
    // them from the mode's map instead of solving them.
    let full = DatasetSpec::clothing(0.05).generate().expect("generates");
    let stream = StreamSequence::cut(&full, &[0.9, 1.0]).expect("cuts");
    let (prev, next) = (stream.snapshot(0), stream.snapshot(1));
    let x = next.complement(prev.shape()).expect("complement");
    assert!(
        untouched_old_rows(&x, prev.shape()) > 0,
        "the step must leave old rows untouched"
    );

    let old = random_factors(prev.shape(), 4, 11);
    let cfg = |threads| {
        DecompConfig::default()
            .with_rank(4)
            .with_max_iters(5)
            .with_threads(ThreadPolicy::Fixed(threads))
    };
    let bits = |factors: &[Matrix]| -> Vec<u64> {
        factors
            .iter()
            .flat_map(|f| f.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    };
    let serial = dtd(&x, &old, &cfg(1)).expect("serial runs");
    let serial4 = dtd(&x, &old, &cfg(4)).expect("serial runs");
    assert_eq!(
        bits(serial.kruskal.factors()),
        bits(serial4.kruskal.factors())
    );
    assert_eq!(serial.loss_trace, serial4.loss_trace);
    for workers in 1usize..=4 {
        let run = |threads| {
            decompose(&x, &old, &cfg(threads), &ClusterConfig::new(workers))
                .expect("distributed runs")
        };
        let (one, four) = (run(1), run(4));
        let what = format!("workers={workers}");
        assert_eq!(
            bits(one.kruskal.factors()),
            bits(four.kruskal.factors()),
            "{what}: threads 1 vs 4"
        );
        assert_eq!(one.loss_trace, four.loss_trace, "{what}: threads 1 vs 4");
        if workers == 1 {
            assert_eq!(
                bits(one.kruskal.factors()),
                bits(serial.kruskal.factors()),
                "serial vs world 1"
            );
        }
        assert_traces_close(&serial.loss_trace, &one.loss_trace, 1e-6, &what);
        for (fs, fd) in serial.kruskal.factors().iter().zip(one.kruskal.factors()) {
            assert!(
                fs.max_abs_diff(fd).expect("same shape") < 1e-5,
                "{what}: factors diverged"
            );
        }
    }
}

#[test]
fn dmsmg_equivalence_with_static_als() {
    let x = random_tensor(&[14, 12, 10], 400, 3);
    let cfg = DecompConfig::default().with_rank(4).with_max_iters(6);
    let serial = dismastd_core::als::cp_als(&x, &cfg).expect("als runs");
    for workers in [2usize, 4, 6] {
        let out = decompose(&x, &[], &cfg, &ClusterConfig::new(workers)).expect("runs");
        assert_traces_close(
            &serial.loss_trace,
            &out.loss_trace,
            1e-6,
            &format!("dms-mg workers={workers}"),
        );
    }
}

#[test]
fn fourth_order_distributed_equivalence() {
    let old_shape = [4usize, 4, 3, 3];
    let new_shape = [6usize, 6, 5, 4];
    let old = random_factors(&old_shape, 3, 5);
    let x = random_complement(&old_shape, &new_shape, 150, 6);
    let cfg = DecompConfig::default().with_rank(3).with_max_iters(5);
    let serial = dtd(&x, &old, &cfg).expect("serial runs");
    let out = decompose(&x, &old, &cfg, &ClusterConfig::new(3)).expect("runs");
    assert_traces_close(&serial.loss_trace, &out.loss_trace, 1e-6, "order-4");
}

#[test]
fn communication_scales_with_workers_not_iterations_blowup() {
    let x = random_tensor(&[20, 20, 20], 800, 7);
    let cfg = DecompConfig::default().with_rank(4).with_max_iters(4);
    let mut last_bytes = 0u64;
    for workers in [2usize, 4, 8] {
        let out = decompose(&x, &[], &cfg, &ClusterConfig::new(workers)).expect("runs");
        // More workers → more cross-worker row traffic (monotone here
        // because the tensor is fixed and partitions only get finer).
        assert!(
            out.comm.bytes >= last_bytes,
            "bytes fell: {} -> {} at workers={workers}",
            last_bytes,
            out.comm.bytes
        );
        last_bytes = out.comm.bytes;
        // Collectives per iteration: per mode 2 exchanges, every mode's
        // Gram reduction (the last one's with the loss slot) riding them;
        // the gather adds one per run and set-up none (the exact count is
        // pinned in `distributed.rs`) — just sanity-bound it.
        let per_iter = out.comm.collectives / out.iterations as u64;
        assert!(per_iter >= 3, "suspiciously few collectives: {per_iter}");
        assert!(per_iter <= 40, "collective storm: {per_iter}");
    }
}

#[test]
fn convergence_decision_is_consistent_distributed() {
    // With a generous tolerance both serial and distributed must stop at
    // the same iteration (they evaluate the same replicated loss), though
    // a distributed rank learns iteration t's loss one mode late, from
    // iteration t + 1's first partials exchange.
    let old_shape = [6usize, 6, 6];
    let old = random_factors(&old_shape, 3, 8);
    let x = random_complement(&old_shape, &[9, 9, 9], 200, 9);
    let cfg = DecompConfig::default()
        .with_rank(3)
        .with_max_iters(30)
        .with_tolerance(1e-3);
    let serial = dtd(&x, &old, &cfg).expect("serial");
    assert!(
        serial.iterations < 30,
        "tolerance should trigger early stop"
    );
    for workers in 1usize..=4 {
        let dist = decompose(&x, &old, &cfg, &ClusterConfig::new(workers)).expect("dist");
        assert_eq!(serial.iterations, dist.iterations, "workers={workers}");
        assert_traces_close(
            &serial.loss_trace,
            &dist.loss_trace,
            1e-6,
            &format!("workers={workers}"),
        );
    }
}

#[test]
fn setup_bytes_match_theorem4_shape() {
    // Theorem 4: O(nnz + M N R² + N I R + N d R).  Check the dominant nnz
    // term: doubling the nonzeros roughly doubles setup bytes.
    let cfg = DecompConfig::default().with_rank(4).with_max_iters(2);
    let small = random_tensor(&[30, 30, 30], 1000, 10);
    let large = random_tensor(&[30, 30, 30], 2000, 11);
    let a = decompose(&small, &[], &cfg, &ClusterConfig::new(4)).expect("runs");
    let b = decompose(&large, &[], &cfg, &ClusterConfig::new(4)).expect("runs");
    let ratio = b.setup_bytes as f64 / a.setup_bytes as f64;
    assert!(
        (1.2..3.0).contains(&ratio),
        "setup bytes ratio {ratio} out of range ({} vs {})",
        a.setup_bytes,
        b.setup_bytes
    );
}
