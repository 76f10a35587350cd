//! The three workloads, their generated inputs, and the stream passes both
//! modes share.

use dismastd_core::{
    ClusterConfig, DecompConfig, ExecutionMode, MetricsSnapshot, StepReport, StreamingSession,
    ThreadPolicy,
};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_tensor::KruskalTensor;
use std::time::Instant;

/// Shrink factor of `--smoke` runs.
pub const SMOKE_SCALE: f64 = 0.2;

pub struct Workload {
    pub name: &'static str,
    spec: fn(f64) -> DatasetSpec,
    scale: f64,
    fractions: fn() -> Vec<f64>,
}

/// Sixteen snapshots from 85 % to 100 % by 1 %: many small steps over a
/// large resident snapshot, so per-step fixed costs weigh as much as the
/// kernel.
fn fine_fractions() -> Vec<f64> {
    (85..=100).map(|p| p as f64 / 100.0).collect()
}

/// Why each workload exists is recorded in `BENCHMARK.json` and the README;
/// here are only the recipes.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "clothing_rows",
        spec: DatasetSpec::clothing,
        scale: 1.0,
        fractions: StreamSequence::paper_fractions,
    },
    Workload {
        name: "netflix_nnz",
        spec: DatasetSpec::netflix,
        scale: 0.7,
        fractions: StreamSequence::paper_fractions,
    },
    Workload {
        name: "synthetic_fine",
        spec: DatasetSpec::synthetic,
        scale: 0.8,
        fractions: fine_fractions,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generated inputs of one run.  The program under test sees only these.
pub struct Inputs {
    pub stream: StreamSequence,
    pub generate_s: f64,
    pub cut_s: f64,
}

impl Inputs {
    pub fn steps(&self) -> usize {
        self.stream.len()
    }

    pub fn full_nnz(&self) -> usize {
        self.stream.snapshot(self.steps() - 1).nnz()
    }

    /// Nonzeros step `t` must process: the whole first snapshot, then the
    /// growth of the nested sequence — an oracle that does not call
    /// `complement`.
    pub fn expected_nnz(&self, t: usize) -> usize {
        let now = self.stream.snapshot(t).nnz();
        if t == 0 {
            now
        } else {
            now - self.stream.snapshot(t - 1).nnz()
        }
    }
}

impl Workload {
    /// One set-up pass: `DatasetSpec::generate` then `StreamSequence::cut`.
    pub fn set_up(&self, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let scale = if smoke {
            self.scale * SMOKE_SCALE
        } else {
            self.scale
        };
        let mut spec = (self.spec)(scale);
        spec.seed = seed;
        let start = Instant::now();
        let full = spec.generate().map_err(|e| format!("generate: {e}"))?;
        let generate_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let stream =
            StreamSequence::cut(&full, &(self.fractions)()).map_err(|e| format!("cut: {e}"))?;
        let cut_s = start.elapsed().as_secs_f64();
        Ok(Inputs {
            stream,
            generate_s,
            cut_s,
        })
    }
}

/// Paper defaults (R = 10, μ = 0.8, 10 iterations, tolerance 0) with the
/// thread count pinned, so `DISMASTD_THREADS` cannot leak in.
pub fn config(threads: usize) -> DecompConfig {
    DecompConfig::default().with_threads(ThreadPolicy::Fixed(threads))
}

/// Operations attempted and failed.  An `Err`, a correctness miss or a
/// panic is a failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one attempted operation and returns its value, recording an
    /// `Err` as a failure.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.fail(msg.clone());
            msg
        })
    }

    /// Records a correctness miss unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.failed += 1;
        self.failures.push(what);
    }
}

/// One pass of a session over the stream, one timed `ingest` per snapshot:
/// a closed loop with one client.
pub struct StreamRun {
    pub times: Vec<f64>,
    pub reports: Vec<StepReport>,
    pub session: StreamingSession,
}

impl StreamRun {
    pub fn final_fit(&self) -> f64 {
        self.reports.last().map_or(f64::NAN, |r| r.fit)
    }

    pub fn factors(&self) -> &KruskalTensor {
        self.session
            .factors()
            .expect("a session that ingested a snapshot holds factors")
    }

    /// The program's own `phase/*` registry summed over steps (only with
    /// `collect` on).
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for m in self.reports.iter().filter_map(|r| r.metrics.as_ref()) {
            merged.merge(m);
        }
        merged
    }
}

/// Ingests snapshots `first..` into `session`, checking every report:
/// `processed_nnz` against the oracle and, on distributed steps, the
/// traffic ledger's `reconciles()`.
pub fn ingest_stream(
    session: StreamingSession,
    inputs: &Inputs,
    first: usize,
    ops: &mut Ops,
) -> Result<StreamRun, String> {
    ingest_stream_with(session, inputs, first, ops, || {})
}

/// [`ingest_stream`] calling `before_step` ahead of every `ingest`, outside
/// the step's timing.
pub fn ingest_stream_with(
    mut session: StreamingSession,
    inputs: &Inputs,
    first: usize,
    ops: &mut Ops,
    mut before_step: impl FnMut(),
) -> Result<StreamRun, String> {
    let label = match session.mode() {
        ExecutionMode::Serial => "serial".to_string(),
        ExecutionMode::Distributed(c) => format!("dist{}", c.workers),
    };
    let mut times = Vec::with_capacity(inputs.steps() - first);
    let mut reports = Vec::with_capacity(inputs.steps() - first);
    for t in first..inputs.steps() {
        before_step();
        let start = Instant::now();
        let result = session.ingest(inputs.stream.snapshot(t));
        times.push(start.elapsed().as_secs_f64());
        let report = ops.attempt(&format!("{label} ingest step {t}"), result)?;
        ops.check(report.processed_nnz == inputs.expected_nnz(t), || {
            format!(
                "{label} step {t}: processed_nnz {} != expected {}",
                report.processed_nnz,
                inputs.expected_nnz(t)
            )
        });
        if let Some(comm) = &report.comm {
            ops.check(comm.reconciles(), || {
                format!("{label} step {t}: comm ledger does not reconcile")
            });
        }
        reports.push(report);
    }
    Ok(StreamRun {
        times,
        reports,
        session,
    })
}

pub fn serial_session(collect: bool) -> StreamingSession {
    let mut session = StreamingSession::new(config(1), ExecutionMode::Serial);
    session.set_collect_metrics(collect);
    session
}

pub fn distributed_session(
    cluster: ClusterConfig,
    threads: usize,
    collect: bool,
) -> StreamingSession {
    let mut session = StreamingSession::new(config(threads), ExecutionMode::Distributed(cluster));
    session.set_collect_metrics(collect);
    session
}

/// Traffic counts of a distributed pass, summed over steps.
pub struct Traffic {
    pub wire_bytes: u64,
    /// Σ over steps of the busiest sender's bytes — the straggler's traffic.
    pub max_rank_bytes: u64,
    pub collectives: u64,
}

pub fn traffic(run: &StreamRun) -> Traffic {
    let mut total = Traffic {
        wire_bytes: 0,
        max_rank_bytes: 0,
        collectives: 0,
    };
    for comm in run.reports.iter().filter_map(|r| r.comm.as_ref()) {
        total.wire_bytes += comm.wire_bytes();
        total.max_rank_bytes += comm.bytes_by_sender.iter().copied().max().unwrap_or(0);
        total.collectives += comm.collectives;
    }
    total
}

/// Largest absolute entry-wise distance between two decompositions of one
/// shape; infinite when the shapes differ.
pub fn max_abs_diff(a: &KruskalTensor, b: &KruskalTensor) -> f64 {
    if a.order() != b.order() {
        return f64::INFINITY;
    }
    a.factors()
        .iter()
        .zip(b.factors())
        .map(|(x, y)| x.max_abs_diff(y).unwrap_or(f64::INFINITY))
        .fold(0.0, f64::max)
}

/// True when both decompositions hold the same factor bits.
pub fn bit_identical(a: &KruskalTensor, b: &KruskalTensor) -> bool {
    a.order() == b.order()
        && a.factors().iter().zip(b.factors()).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
