//! End-to-end pipeline: dataset profile → streaming sequence → DisMASTD →
//! decomposition quality, exercising every crate together.

use dismastd_core::{DecompConfig, ExecutionMode, StreamingSession};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_integration_tests::random_tensor;
use dismastd_tensor::{KruskalTensor, Matrix, SparseTensorBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn paper_pipeline_on_scaled_netflix() {
    // Generate the Netflix-like profile, stream it 75% → 100%, and check
    // the session's invariants at each step.
    let full = DatasetSpec::netflix(0.08).generate().expect("generates");
    let seq =
        StreamSequence::cut(&full, &StreamSequence::paper_fractions()).expect("valid schedule");
    let cfg = DecompConfig::default().with_rank(5).with_max_iters(8);
    let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);

    let mut prev_nnz = 0usize;
    for (t, snap) in seq.iter().enumerate() {
        let report = session.ingest(snap).expect("nested snapshots");
        assert_eq!(report.step, t);
        assert_eq!(report.cold_start, t == 0);
        assert!(report.loss.is_finite());
        assert!(report.fit.is_finite());
        if t > 0 {
            // DTD touches only the complement.
            assert_eq!(report.processed_nnz, snap.nnz() - prev_nnz);
        }
        prev_nnz = snap.nnz();
    }
    assert_eq!(session.to_checkpoint().step, 6);
    assert_eq!(session.to_checkpoint().shape, full.shape());
}

#[test]
fn streaming_tracks_an_evolving_low_rank_signal() {
    // Ground truth: a rank-3 tensor over the final shape.  Each snapshot
    // reveals the sub-box.  After streaming, the fit on the full tensor must
    // be close to what a from-scratch ALS achieves.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let shape = [24usize, 20, 16];
    let truth = KruskalTensor::new(
        shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect(),
    )
    .expect("equal ranks");
    let dense = truth.to_dense().expect("small tensor");
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    for (idx, v) in dense.iter_all() {
        b.push(&idx, v).expect("in bounds");
    }
    let full = b.build().expect("valid");

    let cfg = DecompConfig::default()
        .with_rank(3)
        .with_max_iters(40)
        .with_forgetting(1.0);
    let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);
    let mut final_fit = 0.0;
    for f in [0.6f64, 0.8, 1.0] {
        let bounds: Vec<usize> = shape
            .iter()
            .map(|&s| ((s as f64 * f).ceil() as usize).min(s))
            .collect();
        let snap = full.restrict(&bounds).expect("bounds fit");
        final_fit = session.ingest(&snap).expect("nested").fit;
    }

    let scratch = dismastd_core::als::cp_als(&full, &cfg).expect("als runs");
    let scratch_fit = scratch.kruskal.fit(&full).expect("non-zero tensor");
    assert!(
        final_fit > scratch_fit - 0.1,
        "streaming fit {final_fit} far below from-scratch fit {scratch_fit}"
    );
    assert!(
        final_fit > 0.8,
        "low-rank signal should be fit well: {final_fit}"
    );
}

#[test]
fn io_round_trip_through_decomposition() {
    // Write a tensor to the COO text format, read it back, decompose both,
    // and verify identical results (exercises data::io + core determinism).
    let t = random_tensor(&[12, 10, 8], 200, 7);
    let mut buf = Vec::new();
    dismastd_data::io::write_coo_text(&t, &mut buf).expect("writes");
    let back = dismastd_data::io::read_coo_text(buf.as_slice()).expect("reads");
    assert_eq!(back, t);

    let cfg = DecompConfig::default().with_rank(3).with_max_iters(5);
    let a = dismastd_core::als::cp_als(&t, &cfg).expect("als");
    let b = dismastd_core::als::cp_als(&back, &cfg).expect("als");
    assert_eq!(a.loss_trace, b.loss_trace);
}

#[test]
fn all_dataset_profiles_stream_cleanly() {
    for spec in DatasetSpec::all(0.05) {
        let full = spec.generate().expect("generates");
        let seq = StreamSequence::cut(&full, &[0.8, 1.0]).expect("schedule");
        let cfg = DecompConfig::default().with_rank(4).with_max_iters(3);
        let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);
        for snap in seq.iter() {
            let r = session.ingest(snap).expect("nested");
            assert!(r.loss.is_finite(), "{}", spec.name);
        }
    }
}
