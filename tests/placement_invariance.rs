//! Placement must never change the mathematics: the distributed result is
//! determined by the algorithm, not by where cells land.  These tests pin
//! that invariant across placement strategies, partitioners, and worker
//! counts, plus higher-order and stress configurations.

use dismastd_core::{decompose, dtd, ClusterConfig, DecompConfig, ExecutionMode, StreamingSession};
use dismastd_integration_tests::{random_complement, random_factors, random_tensor};
use dismastd_partition::{CellAssignment, Partitioner};

#[test]
fn block_grid_and_scatter_agree_numerically() {
    let old_shape = [8usize, 7, 6];
    let old = random_factors(&old_shape, 3, 21);
    let x = random_complement(&old_shape, &[12, 11, 10], 250, 22);
    let cfg = DecompConfig::default().with_rank(3).with_max_iters(5);
    let serial = dtd(&x, &old, &cfg).expect("serial runs");
    for assignment in [CellAssignment::BlockGrid, CellAssignment::Scatter] {
        let out = decompose(
            &x,
            &old,
            &cfg,
            &ClusterConfig::new(4).with_cell_assignment(assignment),
        )
        .expect("distributed runs");
        for (a, b) in serial.loss_trace.iter().zip(&out.loss_trace) {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                "{assignment:?}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn block_grid_moves_fewer_bytes_than_scatter() {
    // The locality argument, end to end: same algorithm, same answers,
    // less traffic under the medium-grain block layout.
    let x = random_tensor(&[40, 40, 40], 5000, 23);
    let cfg = DecompConfig::default().with_rank(4).with_max_iters(3);
    let bytes_of = |assignment| {
        dismastd_core::decompose(
            &x,
            &[],
            &cfg,
            &ClusterConfig::new(8).with_cell_assignment(assignment),
        )
        .expect("runs")
        .comm
        .bytes
    };
    let block = bytes_of(CellAssignment::BlockGrid);
    let scatter = bytes_of(CellAssignment::Scatter);
    assert!(
        block < scatter,
        "block grid {block} bytes should undercut scatter {scatter}"
    );
}

#[test]
fn per_sender_traffic_is_reported_and_bounded() {
    let x = random_tensor(&[30, 30, 30], 3000, 24);
    let cfg = DecompConfig::default().with_rank(3).with_max_iters(3);
    let out = decompose(&x, &[], &cfg, &ClusterConfig::new(4)).expect("runs");
    assert_eq!(out.comm.bytes_by_sender.len(), 4);
    assert_eq!(
        out.comm.bytes_by_sender.iter().sum::<u64>(),
        out.comm.bytes,
        "per-sender bytes must add up to the total"
    );
    // No single worker should carry essentially all traffic on uniform data.
    let per_sender = &out.comm.bytes_by_sender;
    let mean = per_sender.iter().sum::<u64>() as f64 / per_sender.len() as f64;
    let imbalance = per_sender.iter().max().copied().unwrap_or(0) as f64 / mean;
    assert!(
        imbalance < 3.0,
        "sender imbalance {imbalance} suspiciously high: {:?}",
        out.comm.bytes_by_sender
    );
}

#[test]
fn fifth_order_stream_serial_vs_distributed() {
    let old_shape = [3usize, 3, 3, 3, 3];
    let new_shape = [5usize, 4, 5, 4, 4];
    let old = random_factors(&old_shape, 2, 25);
    let x = random_complement(&old_shape, &new_shape, 120, 26);
    let cfg = DecompConfig::default().with_rank(2).with_max_iters(4);
    let serial = dtd(&x, &old, &cfg).expect("serial runs");
    let dist = decompose(&x, &old, &cfg, &ClusterConfig::new(3)).expect("distributed runs");
    for (a, b) in serial.loss_trace.iter().zip(&dist.loss_trace) {
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
    }
    assert_eq!(dist.kruskal.order(), 5);
}

#[test]
fn stress_long_distributed_stream() {
    // 8 snapshots over a 6-worker cluster: losses finite and monotone per
    // step, comm accounted every step, factors usable at the end.
    let full = random_tensor(&[36, 32, 28], 6000, 27);
    let fractions: Vec<f64> = (0..8).map(|i| 0.65 + 0.05 * i as f64).collect();
    let seq = dismastd_data::StreamSequence::cut(&full, &fractions).expect("cuts");
    let cfg = DecompConfig::default().with_rank(5).with_max_iters(4);
    let mut session = StreamingSession::new(
        cfg,
        ExecutionMode::Distributed(ClusterConfig::new(6).with_partitioner(Partitioner::Gtp)),
    );
    for snap in seq.iter() {
        let r = session.ingest(snap).expect("nested snapshots");
        assert!(r.loss.is_finite());
        let comm = r.comm.expect("distributed mode reports comm");
        assert_eq!(comm.bytes_by_sender.iter().sum::<u64>(), comm.bytes);
    }
    let k = session.factors().expect("stream ingested");
    assert_eq!(k.shape(), full.shape().to_vec());
    // Prediction works on the final model.
    let sess2 = session;
    assert!(sess2.predict(&[0, 0, 0]).expect("in range").is_finite());
}
