//! Observability suite: the per-phase span registry and the metrics
//! snapshot surfaced on [`StepReport`].
//!
//! The accounting properties under test:
//!
//! 1. collection is opt-in — the default path reports no metrics;
//! 2. serial phase spans are non-overlapping on one thread, so their sum
//!    is bounded by the step's wall-clock;
//! 3. a distributed run's merged snapshot (driver + every rank) covers at
//!    least 90% of the step's wall-clock — the instrumentation does not
//!    lose whole phases;
//! 4. the `comm/msg_bytes` histogram reconciles *exactly* with the
//!    cluster's logical byte counter, faults or not;
//! 5. no recording is silently dropped: a collected run (including the
//!    pooled kernels' worker threads) reports `dropped_metrics == 0`.

use dismastd_cluster::{ClusterOptions, FaultPlan};
use dismastd_core::{
    ClusterConfig, DecompConfig, ExecutionMode, MetricsSnapshot, StepReport, StreamingSession,
    ThreadPolicy,
};
use dismastd_tensor::{SparseTensor, SparseTensorBuilder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Every test in this binary runs sessions, and the dropped-metric tally
/// is process-global (it only counts while some collector is active).  A
/// test running a session *without* collection must therefore not overlap
/// a test asserting `dropped_metrics == 0` under collection — serialize
/// them all on one lock.
fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn snapshot_pair() -> (SparseTensor, SparseTensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let full_shape = [14usize, 12, 10];
    let mut full = SparseTensorBuilder::new(full_shape.to_vec());
    for _ in 0..1200 {
        let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        full.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    let full = full.build().unwrap();
    let small = full.restrict(&[11, 10, 8]).unwrap();
    (small, full)
}

fn cfg() -> DecompConfig {
    DecompConfig::default().with_rank(4).with_max_iters(6)
}

/// Runs cold start + one incremental step, metrics on, and returns the
/// incremental report.
fn collected_step(mode: ExecutionMode) -> StepReport {
    let (s0, s1) = snapshot_pair();
    let mut sess = StreamingSession::new(cfg(), mode);
    sess.set_collect_metrics(true);
    sess.ingest(&s0).unwrap();
    sess.ingest(&s1).unwrap()
}

#[test]
fn metrics_are_opt_in() {
    let _serial = serial();
    let (s0, _) = snapshot_pair();
    let mut sess = StreamingSession::new(cfg(), ExecutionMode::Serial);
    let report = sess.ingest(&s0).unwrap();
    assert!(report.metrics.is_none(), "no collection was requested");

    // Toggling mid-session works and does not disturb earlier state.
    sess.set_collect_metrics(true);
    assert!(sess.collect_metrics());
}

#[test]
fn serial_phase_spans_sum_within_step_elapsed() {
    let _serial = serial();
    let report = collected_step(ExecutionMode::Serial);
    let m = report.metrics.as_ref().expect("metrics were collected");

    // Phase spans are non-overlapping on the single driver thread, so
    // their sum can never exceed the step's wall-clock envelope.
    let phase_ns = m.phase_total_ns();
    assert!(phase_ns > 0, "no phase time recorded:\n{}", m.to_text());
    assert!(
        phase_ns <= report.elapsed.as_nanos() as u64,
        "phase sum {phase_ns}ns exceeds elapsed {:?}",
        report.elapsed
    );

    // The solver's main phases all fired, once per iteration per mode.
    for phase in ["phase/mttkrp", "phase/solve", "phase/gram", "phase/loss"] {
        assert!(
            m.span_total_ns(phase) > 0,
            "{phase} missing:\n{}",
            m.to_text()
        );
    }

    // Every normal-equation solve escalated through a tier the counter saw.
    let solves =
        report.numerics.cholesky_solves + report.numerics.lu_solves + report.numerics.ridge_solves;
    assert_eq!(m.counter_value("solve/tier"), solves);
}

#[test]
fn distributed_metrics_cover_the_wall_clock() {
    let _serial = serial();
    let report = collected_step(ExecutionMode::Distributed(ClusterConfig::new(2)));
    let m = report.metrics.as_ref().expect("metrics were collected");

    // The merged snapshot holds the driver's prep spans plus *both* ranks'
    // solver spans; with two ranks running the full window concurrently,
    // losing a whole phase to missing instrumentation would show up as a
    // sum well below the wall-clock.
    let phase_ns = m.phase_total_ns() as f64;
    let elapsed_ns = report.elapsed.as_nanos() as f64;
    assert!(
        phase_ns >= 0.9 * elapsed_ns,
        "phase sum {:.3}ms < 90% of elapsed {:.3}ms:\n{}",
        phase_ns / 1e6,
        elapsed_ns / 1e6,
        m.to_text()
    );

    // Driver prep and worker phases both made it into the merge.
    for phase in [
        "phase/partition",
        "phase/plan_build",
        "phase/setup",
        "phase/mttkrp",
        "phase/exchange",
        "phase/solve",
        "phase/gram",
        "phase/loss",
        "phase/gather",
    ] {
        assert!(
            m.span_total_ns(phase) > 0,
            "{phase} missing:\n{}",
            m.to_text()
        );
    }
    // The overlapped collective layer splits each exchange into a post and
    // a wait half; the combined `comm/exchange` span only appears on the
    // non-overlapped path.
    for comm in [
        "comm/exchange_post",
        "comm/exchange_wait",
        "comm/broadcast",
        "comm/allreduce",
    ] {
        assert!(m.span_total_ns(comm) > 0, "{comm} missing");
    }

    // Every logical byte the cluster counted passed through the histogram
    // at the same call site, so the totals must agree exactly.
    let comm = report.comm.as_ref().expect("distributed step has comm");
    assert!(comm.reconciles());
    assert_eq!(comm.unattributed_bytes, 0);
    let hist = m.histogram("comm/msg_bytes").expect("msg_bytes histogram");
    assert_eq!(hist.total, comm.bytes);
    assert_eq!(hist.count, comm.messages);
}

#[test]
fn comm_accounting_reconciles_under_fault_injection() {
    let _serial = serial();
    let (s0, s1) = snapshot_pair();
    let mode = ExecutionMode::Distributed(ClusterConfig::new(3));

    // Fault-free reference with metrics on.
    let mut clean = StreamingSession::new(cfg(), mode.clone());
    clean.set_collect_metrics(true);
    clean.ingest(&s0).unwrap();
    let clean_report = clean.ingest(&s1).unwrap();

    // Same computation under masked faults: drops with retransmit plus
    // duplicate deliveries.
    let plan = Arc::new(
        FaultPlan::seeded(17)
            .with_message_drops(40)
            .with_duplicates(30)
            .with_retransmit_delay(Duration::from_micros(50)),
    );
    let mut chaos = StreamingSession::new(cfg(), mode);
    chaos.set_collect_metrics(true);
    chaos.ingest(&s0).unwrap();
    chaos.set_cluster_options(ClusterOptions::default().with_fault_plan(plan));
    let chaos_report = chaos.ingest(&s1).unwrap();

    for (name, report) in [("clean", &clean_report), ("chaos", &chaos_report)] {
        let comm = report.comm.as_ref().unwrap();
        assert!(comm.reconciles(), "{name}: per-sender breakdown drifted");
        assert_eq!(comm.unattributed_bytes, 0, "{name}");
        let m = report.metrics.as_ref().unwrap();
        let hist = m.histogram("comm/msg_bytes").unwrap();
        // Retransmits and duplicates are wire-level noise; the histogram
        // tracks logical sends, so it matches the logical totals exactly.
        assert_eq!(hist.total, comm.bytes, "{name}");
        assert_eq!(hist.count, comm.messages, "{name}");
    }
    assert!(chaos_report.comm.as_ref().unwrap().retransmits > 0);

    // Masked faults change neither the math nor the logical traffic.
    assert_eq!(
        clean_report.comm.as_ref().unwrap().bytes,
        chaos_report.comm.as_ref().unwrap().bytes
    );
    assert_eq!(clean_report.loss, chaos_report.loss);
}

#[test]
fn no_recording_is_dropped_under_collection() {
    let _serial = serial();
    // Multi-lane kernel pools: Fixed(4) over a 2-rank world gives every
    // rank a 2-lane pool, so pool worker threads really run chunks and
    // their child snapshots must be absorbed, not lost.  The stream is
    // denser than `snapshot_pair` so a cell holds enough runs to be
    // chunked across the lanes.
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let full_shape = [30usize, 24, 20];
    let mut full = SparseTensorBuilder::new(full_shape.to_vec());
    for _ in 0..6000 {
        let idx: Vec<usize> = full_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        full.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    let full = full.build().unwrap();
    let s0 = full.restrict(&[24, 20, 16]).unwrap();
    let s1 = full;
    let cluster = ClusterConfig::new(2);
    let mut sess = StreamingSession::new(
        cfg().with_threads(ThreadPolicy::Fixed(4)),
        ExecutionMode::Distributed(cluster),
    );
    sess.set_collect_metrics(true);
    sess.ingest(&s0).unwrap();
    let report = sess.ingest(&s1).unwrap();
    let m = report.metrics.as_ref().expect("metrics were collected");
    assert_eq!(
        m.dropped_metrics,
        0,
        "recordings leaked to threads with no registry:\n{}",
        m.to_text()
    );
    // The step's cells were laid out, and their pooled kernels accounted
    // every chunk.
    assert!(m.counter_value("plan/rebuild") > 0, "\n{}", m.to_text());
    assert!(m.counter_value("pool/chunks") > 0, "\n{}", m.to_text());
    // Merging never sums the dropped tallies (windows overlap), so a
    // merged clean run still reports zero.
    let mut acc = MetricsSnapshot::default();
    acc.merge(m);
    assert_eq!(acc.dropped_metrics, 0);
}

#[test]
fn snapshot_merge_and_exporters_round_trip() {
    let _serial = serial();
    let report = collected_step(ExecutionMode::Distributed(ClusterConfig::new(2)));
    let m = report.metrics.unwrap();
    assert!(!m.is_empty());

    // Merging a snapshot into a default one reproduces it.
    let mut acc = MetricsSnapshot::default();
    acc.merge(&m);
    assert_eq!(acc, m);

    // Text export names every phase; JSON export parses back.
    let text = m.to_text();
    assert!(text.contains("phase/mttkrp"));
    let json = m.to_json().unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, m);
}
