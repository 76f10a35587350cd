//! Streaming-session behaviour across execution modes and longer horizons.

use dismastd_core::{ClusterConfig, DecompConfig, ExecutionMode, StreamingSession};
use dismastd_data::StreamSequence;
use dismastd_integration_tests::random_tensor;
use dismastd_partition::Partitioner;

fn cfg() -> DecompConfig {
    DecompConfig::default().with_rank(4).with_max_iters(6)
}

#[test]
fn serial_and_distributed_sessions_agree_on_loss() {
    let full = random_tensor(&[25, 20, 15], 1200, 1);
    let seq = StreamSequence::cut(&full, &StreamSequence::paper_fractions()).expect("cuts");

    let mut serial = StreamingSession::new(cfg(), ExecutionMode::Serial);
    let mut dist = StreamingSession::new(cfg(), ExecutionMode::Distributed(ClusterConfig::new(3)));
    for snap in seq.iter() {
        let rs = serial.ingest(snap).expect("serial ingest");
        let rd = dist.ingest(snap).expect("distributed ingest");
        assert!(
            (rs.loss - rd.loss).abs() < 1e-5 * (1.0 + rs.loss.abs()),
            "step {}: serial {} vs distributed {}",
            rs.step,
            rs.loss,
            rd.loss
        );
        assert!((rs.fit - rd.fit).abs() < 1e-5);
    }
}

#[test]
fn long_streaming_horizon_stays_stable() {
    // 10 snapshots; losses and fits stay finite, shapes grow, and the
    // processed nnz stays well below the full snapshot after warm-up.
    let full = random_tensor(&[40, 35, 30], 4000, 2);
    let fractions: Vec<f64> = (0..10).map(|i| 0.55 + 0.05 * i as f64).collect();
    let seq = StreamSequence::cut(&full, &fractions).expect("cuts");
    let mut session = StreamingSession::new(cfg(), ExecutionMode::Serial);
    for (t, snap) in seq.iter().enumerate() {
        let r = session.ingest(snap).expect("nested");
        assert!(r.loss.is_finite() && r.fit.is_finite());
        if t > 0 {
            assert!(
                r.processed_nnz < r.snapshot_nnz,
                "step {t} processed everything"
            );
        }
    }
    assert_eq!(session.to_checkpoint().step, 10);
}

#[test]
fn both_partitioners_work_in_sessions() {
    let full = random_tensor(&[20, 18, 16], 900, 3);
    let seq = StreamSequence::cut(&full, &[0.8, 1.0]).expect("cuts");
    for p in [Partitioner::Gtp, Partitioner::Mtp] {
        let mut session = StreamingSession::new(
            cfg(),
            ExecutionMode::Distributed(ClusterConfig::new(4).with_partitioner(p)),
        );
        for snap in seq.iter() {
            let r = session.ingest(snap).expect("ingest");
            assert!(r.comm.is_some(), "{p:?} must report comm stats");
        }
    }
}

#[test]
fn streaming_beats_recompute_in_processed_volume() {
    // The headline DisMASTD claim, in its volume form: over a stream, the
    // total nonzeros processed by DTD is far less than what re-computation
    // processes (which is Σ_t nnz(X^t)).
    let full = random_tensor(&[30, 30, 30], 3000, 4);
    let seq = StreamSequence::cut(&full, &StreamSequence::paper_fractions()).expect("cuts");
    let mut session = StreamingSession::new(cfg(), ExecutionMode::Serial);
    let mut processed_total = 0usize;
    let mut recompute_total = 0usize;
    for snap in seq.iter() {
        let r = session.ingest(snap).expect("nested");
        processed_total += r.processed_nnz;
        recompute_total += snap.nnz();
    }
    // DisMASTD processes each nonzero exactly once (when it first appears);
    // re-computation processes the 75% core six times over.
    assert_eq!(processed_total, full.nnz());
    assert!(
        recompute_total > 3 * processed_total,
        "{recompute_total} vs {processed_total}"
    );
}

#[test]
fn empty_growth_step_is_harmless() {
    let full = random_tensor(&[10, 10, 10], 300, 5);
    let mut session = StreamingSession::new(cfg(), ExecutionMode::Serial);
    session.ingest(&full).expect("cold start");
    // Same snapshot again: zero complement.
    let r = session.ingest(&full).expect("idempotent ingest");
    assert_eq!(r.processed_nnz, 0);
    assert!(r.loss.is_finite());
}

/// One step of a [`CrossPathCase`] schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Ingest snapshot `t`.
    Ingest(usize),
    /// Checkpoint the session through its JSON form and restore it.
    Restore,
}

struct CrossPathCase {
    name: &'static str,
    /// The stream's full tensor and its snapshot fractions.
    stream: fn() -> (dismastd_tensor::SparseTensor, Vec<f64>),
    cfg: DecompConfig,
    ops: &'static [Op],
    /// Watchdog restarts the schedule must see, summed over its steps.
    restarts: usize,
}

fn paper_stream() -> (dismastd_tensor::SparseTensor, Vec<f64>) {
    (
        random_tensor(&[25, 20, 15], 1200, 1),
        StreamSequence::paper_fractions(),
    )
}

/// A stream whose warm step makes a zero-tolerance, patience-1 watchdog
/// restart once (seed 53, the one `numerics_robustness` uses).
fn restarting_stream() -> (dismastd_tensor::SparseTensor, Vec<f64>) {
    (random_tensor(&[10, 9, 8], 300, 53), vec![0.7, 1.0])
}

/// The same bits, whichever way a snapshot reaches the session: one
/// session is fed a stream's snapshots, prefix views of one store, so its
/// warm steps read only what arrived; the other is fed a fresh owned copy
/// per ingest (a JSON round trip: the same entries in the same order, in a
/// store of its own), so every step scans.  At world 1 and world 2 every
/// step's fit, loss, nonzero counts, quarantine count and factors are
/// bit-equal, across a skipped snapshot, a repeated view, a restore (whose
/// first step scans: the mark is not checkpointed) and a watchdog restart
/// (the carried `‖X‖²` serves every attempt).
#[test]
fn a_stream_and_owned_copies_of_its_snapshots_give_the_same_bits() {
    use dismastd_core::{NumericsPolicy, StepReport, WatchdogPolicy};
    use dismastd_tensor::SparseTensor;
    use Op::{Ingest, Restore};

    let restarting = cfg()
        .with_rank(3)
        .with_max_iters(30)
        .with_tolerance(0.0)
        .with_numerics(NumericsPolicy::default().with_watchdog(WatchdogPolicy {
            max_restarts: 4,
            patience: 1,
            increase_tolerance: 0.0,
            ..WatchdogPolicy::default()
        }));
    let cases = [
        CrossPathCase {
            name: "every step",
            stream: paper_stream,
            cfg: cfg(),
            ops: &[
                Ingest(0),
                Ingest(1),
                Ingest(2),
                Ingest(3),
                Ingest(4),
                Ingest(5),
            ],
            restarts: 0,
        },
        CrossPathCase {
            name: "a skipped snapshot",
            stream: paper_stream,
            cfg: cfg(),
            ops: &[Ingest(0), Ingest(1), Ingest(3), Ingest(5)],
            restarts: 0,
        },
        CrossPathCase {
            name: "the same view twice",
            stream: paper_stream,
            cfg: cfg(),
            ops: &[Ingest(0), Ingest(1), Ingest(1), Ingest(2)],
            restarts: 0,
        },
        CrossPathCase {
            name: "a restore mid-stream",
            stream: paper_stream,
            cfg: cfg(),
            ops: &[
                Ingest(0),
                Ingest(1),
                Ingest(2),
                Restore,
                Ingest(3),
                Ingest(4),
            ],
            restarts: 0,
        },
        CrossPathCase {
            name: "a watchdog restart on a warm step",
            stream: restarting_stream,
            cfg: restarting,
            ops: &[Ingest(0), Ingest(1)],
            restarts: 1,
        },
    ];

    let owned_copy = |s: &SparseTensor| -> SparseTensor {
        serde_json::from_str(&serde_json::to_string(s).unwrap()).unwrap()
    };
    let step_bits = |r: &StepReport, sess: &StreamingSession| {
        let mut bits = vec![
            r.fit.to_bits(),
            r.loss.to_bits(),
            r.processed_nnz as u64,
            r.snapshot_nnz as u64,
            r.quarantined,
        ];
        for f in sess.factors().unwrap().factors() {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    };
    let reads = |r: &StepReport| {
        let m = r.metrics.as_ref().unwrap();
        [0, 1].map(|label| m.counter_at("ingest/resident_read", label))
    };
    let restored = |sess: &StreamingSession| {
        let json = serde_json::to_string(&sess.to_checkpoint()).unwrap();
        let mut sess = StreamingSession::from_checkpoint(serde_json::from_str(&json).unwrap())
            .expect("restores");
        sess.set_collect_metrics(true);
        sess
    };

    for case in &cases {
        let (full, fractions) = (case.stream)();
        let seq = StreamSequence::cut(&full, &fractions).unwrap();
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Distributed(ClusterConfig::new(2)),
        ] {
            let what = format!("{} on {mode:?}", case.name);
            let mut on_store = StreamingSession::new(case.cfg, mode.clone());
            let mut on_copies = StreamingSession::new(case.cfg, mode.clone());
            on_store.set_collect_metrics(true);
            on_copies.set_collect_metrics(true);
            let (mut restarts, mut after_restore) = (0, false);
            for (k, op) in case.ops.iter().enumerate() {
                let t = match *op {
                    Restore => {
                        on_store = restored(&on_store);
                        on_copies = restored(&on_copies);
                        after_restore = true;
                        continue;
                    }
                    Ingest(t) => t,
                };
                let got = on_store.ingest(seq.snapshot(t)).unwrap();
                // A fresh copy per ingest: a repeated copy would share a store.
                let want = on_copies.ingest(&owned_copy(seq.snapshot(t))).unwrap();
                assert_eq!(
                    step_bits(&got, &on_store),
                    step_bits(&want, &on_copies),
                    "{what}: op {k} ({op:?})"
                );
                assert_eq!(got.watchdog_restarts, want.watchdog_restarts);
                restarts += got.watchdog_restarts;
                // The stream's warm steps read what arrived; the first step
                // and the first after a restore scan, as every copy does.
                let snapshot = got.snapshot_nnz as u64;
                let scanned = [snapshot, snapshot];
                let expected = match (k, after_restore) {
                    // A cold start takes no complement.
                    (0, _) => [snapshot, 0],
                    (_, true) => scanned,
                    _ => [got.processed_nnz as u64; 2],
                };
                assert_eq!(reads(&got), expected, "{what}: op {k} ({op:?})");
                if k > 0 {
                    assert_eq!(reads(&want), scanned, "{what}: op {k} ({op:?})");
                }
                after_restore = false;
            }
            assert_eq!(restarts, case.restarts, "{what}");
        }
    }
}
