//! The repository's performance benchmark.
//!
//! ```text
//! dismastd-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! dismastd-benchmark --smoke
//! ```
//!
//! One invocation generates one workload's inputs from the seed, measures
//! for `--seconds`, checks the program's outputs, prints every metric by
//! name with its unit, writes a result file (and, traced, a span file) and
//! ends with one JSON line.  `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` measures the per-layer metrics.  See the
//! README beside this crate for the estimator and the workloads.

mod e2e;
mod estimate;
mod host;
mod layers;
mod report;
mod spans;
mod workload;

use report::Report;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Ops, Workload, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; `run_seconds`
/// of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Seed of `--smoke` runs.
const SMOKE_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dismastd-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>]\n       dismastd-benchmark --smoke",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        smoke: false,
    };
    let mut seed_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => {
                args.seed = number()?;
                seed_given = true;
            }
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if !args.smoke && (args.workload.is_none() || !seed_given) {
        return Err(usage());
    }
    Ok(args)
}

/// Runs one mode of one workload, turning a panic into a failed operation.
fn measure(
    workload: &'static Workload,
    args: &Args,
    seed: u64,
    trace: bool,
    host: &host::HostFingerprint,
    ops: &mut Ops,
) -> Option<Report> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if trace {
            layers::run(
                workload,
                seed,
                args.seconds,
                args.smoke,
                host,
                &args.out,
                ops,
            )
        } else {
            e2e::run(workload, seed, args.seconds, args.smoke, ops)
        }
    }));
    match outcome {
        Ok(Ok(report)) => Some(report),
        // An `Err` from an operation of the program under test was counted
        // where it happened; one from anywhere else (set-up, a result file)
        // fails the run all the same.
        Ok(Err(msg)) => {
            if ops.failures.last() != Some(&msg) {
                ops.fail(msg);
            }
            None
        }
        Err(_) => {
            ops.attempted += 1;
            ops.fail("panic while measuring".into());
            None
        }
    }
}

fn host_value(host: &host::HostFingerprint) -> Value {
    Value::Object(vec![
        ("cores".into(), Value::U64(host.cores as u64)),
        ("spin_s".into(), Value::F64(host.spin_s)),
        ("par2_speedup".into(), Value::F64(host.par2_speedup)),
        ("mem_s".into(), Value::F64(host.mem_s)),
    ])
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the metrics, writes the result and span files, and returns the
/// result line.
fn publish(
    workload: &Workload,
    args: &Args,
    seed: u64,
    trace: bool,
    host: &host::HostFingerprint,
    report: Option<Report>,
    ops: &Ops,
) -> Result<String, String> {
    let correct = report.is_some() && ops.failed == 0;
    let mut result = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(ops.attempted.max(1))),
        ("failed".to_string(), Value::U64(ops.failed)),
    ];
    let mut record = vec![
        ("workload".to_string(), Value::Str(workload.name.into())),
        ("seed".to_string(), Value::U64(seed)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("trace".to_string(), Value::U64(trace as u64)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        (
            "git_rev".to_string(),
            Value::Str(host::git_rev(
                &Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
            )),
        ),
        ("rustc".to_string(), Value::Str(host::rustc_version())),
        ("host".to_string(), host_value(host)),
        // Taken again after measuring: a host that changed speed mid-run
        // shows here.
        ("host_after".to_string(), host_value(&host::fingerprint())),
        (
            "failures".to_string(),
            Value::Array(ops.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}.seed{seed}.trace{}", workload.name, trace as u8);
    match report {
        Some(report) => {
            for (name, value, unit) in report.metrics.iter() {
                println!("{name} = {value} {unit}");
            }
            result.push(("metrics".into(), report.metrics.to_value()));
            record.push(("diagnostics".into(), report.diagnostics));
            if let Some(spans) = report.spans {
                write_json(
                    &args.out.join(format!("{}.trace.json", workload.name)),
                    &spans,
                )?;
            }
        }
        None => result.push(("metrics".into(), Value::Object(Vec::new()))),
    }
    record.extend(result.iter().cloned());
    write_json(
        &args.out.join(format!("{stem}.json")),
        &Value::Object(record),
    )?;
    serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())
}

/// `--smoke`: every workload, both modes, shrunk; emitted names and units
/// must match `BENCHMARK.json` exactly.
fn smoke(args: &Args, host: &host::HostFingerprint) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut problems = Vec::new();
    let declared_workloads = report::declared_field(&declared, "workloads", "name")?;
    let own: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    if declared_workloads != own {
        problems.push(format!(
            "workloads: {declared_workloads:?} declared, {own:?} built in"
        ));
    }
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let mut ops = Ops::default();
            let report = measure(workload, args, SMOKE_SEED, trace, host, &mut ops);
            let list = report::metric_list(trace);
            if let Some(report) = &report {
                let expected = report::declared(&declared, list)?;
                for p in report::schema_mismatches(&report.metrics, &expected) {
                    problems.push(format!("{} {list}: {p}", workload.name));
                }
            }
            problems.extend(
                ops.failures
                    .iter()
                    .map(|f| format!("{}: {f}", workload.name)),
            );
            publish(workload, args, SMOKE_SEED, trace, host, report, &ops)?;
        }
    }
    if problems.is_empty() {
        println!("smoke: every workload ran and emitted exactly the declared metrics");
        Ok(())
    } else {
        Err(format!("smoke failed:\n  {}", problems.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    host::pin_allocator();
    let host = host::fingerprint();
    if args.smoke {
        return match smoke(&args, &host) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let Some(workload) = workload::find(name) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    let mut ops = Ops::default();
    let report = measure(workload, &args, args.seed, args.trace, &host, &mut ops);
    match publish(workload, &args, args.seed, args.trace, &host, report, &ops) {
        Ok(line) => {
            println!("{line}");
            if ops.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
