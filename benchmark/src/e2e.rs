//! `--trace 0`: the end-to-end metrics, measured with tracing off.
//!
//! Order is fixed — set-up passes, serial timed passes, dist4 count pass,
//! dist2 cross-check, peak RSS — so allocator and page-fault history is the
//! same in every run.

use crate::estimate::{quantile, Samples};
use crate::host;
use crate::report::{Metrics, Report};
use crate::workload::{
    distributed_session, ingest_stream, ingest_stream_with, max_abs_diff, serial_session, traffic,
    Ops, Workload,
};
use dismastd_core::ClusterConfig;
use serde::Value;
use std::time::{Duration, Instant};

/// Set-up passes per run; `setup_s` is the fastest.
const SETUP_PASSES: usize = 3;
/// Fewest serial repetitions of a full run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Most serial repetitions: past this the minimum no longer moves.
const MAX_REPS: usize = 30;
/// Repetitions of a `--smoke` run.
const SMOKE_REPS: usize = 2;

/// Largest entry-wise distance allowed between the factors of two world
/// sizes: the repository's own serial-vs-distributed test tolerance.  World
/// size changes the order of the Gram and MTTKRP reductions, so the bits
/// differ; only thread count and repetition leave them untouched.
const FACTOR_TOLERANCE: f64 = 1e-5;
/// Quantile of the interleaved memory-probe passes the serial timings are
/// divided by.
const PROBE_QUANTILE: f64 = 0.05;
/// The probe quantile on the sizing host when nothing else runs on it.
const PROBE_NOMINAL_S: f64 = 0.016;
/// Absolute fit distance allowed between the serial and distributed paths.
const FIT_TOLERANCE: f64 = 1e-6;

pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    smoke: bool,
    ops: &mut Ops,
) -> Result<Report, String> {
    // ---- set-up: same seed, same inputs, several passes ----------------
    let passes = if smoke { 1 } else { SETUP_PASSES };
    let mut inputs = workload.set_up(seed, smoke)?;
    let mut setup_samples = vec![inputs.generate_s + inputs.cut_s];
    while setup_samples.len() < passes {
        // Drop the previous copy first: peak RSS should hold one stream.
        drop(inputs);
        inputs = workload.set_up(seed, smoke)?;
        setup_samples.push(inputs.generate_s + inputs.cut_s);
    }
    let setup_raw_s = setup_samples.iter().copied().fold(f64::INFINITY, f64::min);
    let steps = inputs.steps();

    // ---- serial timed passes: best-of-R per step -----------------------
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut samples = Samples::new(steps);
    let mut reference: Option<Vec<(u64, u64)>> = None;
    let mut serial_fit = f64::NAN;
    let probe = host::MemProbe::new();
    let mut probe_samples = Vec::new();
    loop {
        let run = ingest_stream_with(serial_session(false), &inputs, 0, ops, || {
            probe_samples.push(probe.pass());
        })?;
        samples.push_rep(&run.times);
        // Every repetition must reproduce the first one's fit and loss bits.
        let bits: Vec<(u64, u64)> = run
            .reports
            .iter()
            .map(|r| (r.fit.to_bits(), r.loss.to_bits()))
            .collect();
        match &reference {
            None => {
                serial_fit = run.final_fit();
                reference = Some(bits);
            }
            Some(first) => ops.check(*first == bits, || {
                format!("serial repetition {} changed fit/loss bits", samples.reps())
            }),
        }
        let reps = samples.reps();
        let done = if smoke {
            reps >= SMOKE_REPS
        } else {
            reps >= MAX_REPS || (reps >= MIN_REPS && Instant::now() >= deadline)
        };
        if done {
            break;
        }
    }

    // ---- distributed count passes: more ranks than cores ---------------
    let dist4 = ingest_stream(
        distributed_session(ClusterConfig::new(4), 1, false),
        &inputs,
        0,
        ops,
    )?;
    let counts = traffic(&dist4);
    let dist2 = ingest_stream(
        distributed_session(ClusterConfig::new(2), 1, false),
        &inputs,
        0,
        ops,
    )?;
    let gap = max_abs_diff(dist2.factors(), dist4.factors());
    println!("dist2 vs dist4 max abs factor diff {gap:e}");
    ops.check(gap <= FACTOR_TOLERANCE, || {
        format!("dist2 and dist4 final factors are {gap:e} apart")
    });
    for (name, run) in [("dist2", &dist2), ("dist4", &dist4)] {
        let gap = (run.final_fit() - serial_fit).abs();
        ops.check(gap <= FIT_TOLERANCE, || {
            format!("{name} final fit is {gap:e} away from serial")
        });
    }

    let peak_rss_mb = host::peak_rss_mb().ok_or("no VmHWM line in /proc/self/status")?;

    // ---- metrics -------------------------------------------------------
    let mut metrics = Metrics::default();
    // Seconds over a fast memory-probe pass of the same run: a host that is
    // slow for the whole run slows both, and the ratio holds.  The probe's
    // 5th percentile, not its minimum: a pass is short, a hundred of them
    // are interleaved, and the single fastest one repeated worse (6 % against
    // 3 % quartile distance over ten runs) than the fast tail's edge.
    let probe_s = quantile(&probe_samples, PROBE_QUANTILE);
    // Set-up must be reported in seconds, so it is scaled to the sizing
    // host's speed instead: equal to the measured seconds on a calm host.
    metrics.put("setup_s", setup_raw_s * PROBE_NOMINAL_S / probe_s, "s");
    let cold_s = samples.best(0);
    let warm_s = samples.best_sum(1..steps);
    let step_max_s = samples.best_max(1..steps);
    metrics.put("serial_cold_rel", cold_s / probe_s, "ratio");
    metrics.put("serial_warm_rel", warm_s / probe_s, "ratio");
    metrics.put("serial_step_max_rel", step_max_s / probe_s, "ratio");
    metrics.put("dist4_wire_mb", counts.wire_bytes as f64 / 1e6, "MB");
    metrics.put(
        "dist4_max_rank_mb",
        counts.max_rank_bytes as f64 / 1e6,
        "MB",
    );
    metrics.put("dist4_collectives", counts.collectives as f64, "count");
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    metrics.put("final_fit", serial_fit, "ratio");

    let floats = |v: Vec<f64>| Value::Array(v.into_iter().map(Value::F64).collect());
    let per_step = |f: &dyn Fn(usize) -> f64| floats((0..steps).map(f).collect());
    let diagnostics = Value::Object(vec![
        ("serial_reps".into(), Value::U64(samples.reps() as u64)),
        ("serial_cold_s".into(), Value::F64(cold_s)),
        ("serial_warm_s".into(), Value::F64(warm_s)),
        ("serial_step_max_s".into(), Value::F64(step_max_s)),
        ("mem_probe_s".into(), Value::F64(probe_s)),
        ("setup_raw_s".into(), Value::F64(setup_raw_s)),
        (
            "serial_two_fastest_gap".into(),
            Value::F64(samples.two_fastest_gap()),
        ),
        ("serial_step_best_s".into(), per_step(&|t| samples.best(t))),
        (
            "serial_step_median_s".into(),
            per_step(&|t| samples.quantile(t, 0.5)),
        ),
        (
            "serial_step_p90_s".into(),
            per_step(&|t| samples.quantile(t, 0.9)),
        ),
        (
            "serial_step_samples_s".into(),
            Value::Array(
                (0..steps)
                    .map(|t| floats(samples.samples(t).to_vec()))
                    .collect(),
            ),
        ),
        ("mem_probe_samples_s".into(), floats(probe_samples)),
        ("setup_pass_s".into(), floats(setup_samples)),
        ("data_nnz".into(), Value::U64(inputs.full_nnz() as u64)),
        ("dist4_wall_s".into(), Value::F64(dist4.times.iter().sum())),
        ("dist2_wall_s".into(), Value::F64(dist2.times.iter().sum())),
    ]);
    println!(
        "serial: R = {} repetitions, two fastest samples of every step within {:.1} %",
        samples.reps(),
        100.0 * samples.two_fastest_gap()
    );
    println!(
        "  cold {cold_s:.4} s  warm {warm_s:.4} s  slowest warm step {step_max_s:.4} s  set-up {setup_raw_s:.4} s  memory probe {probe_s:.5} s"
    );
    for t in 0..steps {
        println!(
            "  step {t:2}: best {:.4} s  median {:.4} s  p90 {:.4} s",
            samples.best(t),
            samples.quantile(t, 0.5),
            samples.quantile(t, 0.9)
        );
    }
    Ok(Report {
        metrics,
        diagnostics,
        spans: None,
    })
}
