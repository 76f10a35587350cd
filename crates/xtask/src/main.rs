//! CLI for the workspace lint & audit driver; see the crate docs.

use dismastd_xtask::{workspace, Diagnostic};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("analyze") => run_analyze(&args[1..]),
        Some("audit") => audit(&args[1..]),
        _ => {
            eprintln!("usage: dismastd-xtask <lint|analyze|audit> [options]");
            eprintln!(
                "  lint    [--files <f.rs>…] [--json|--github]   L1-L5, L9 invariant lints (workspace by default)"
            );
            eprintln!(
                "  analyze [--write-budget] [--json|--github]    L6-L8, L10 interprocedural audits (call graph); --write-budget rewrites test_only.txt"
            );
            eprintln!("  audit   [--loom-only|--tsan-only]             loom barrier model + TSan chaos run");
            ExitCode::from(2)
        }
    }
}

/// How findings are rendered: human `file:line:col`, one JSON object
/// per line, or GitHub workflow annotations.
#[derive(Clone, Copy, PartialEq)]
enum Output {
    Human,
    Json,
    Github,
}

impl Output {
    /// Extracts `--json`/`--github` from `args`, returning the mode and
    /// the remaining arguments.
    fn extract(args: &[String]) -> (Output, Vec<String>) {
        let mut mode = Output::Human;
        let mut rest = Vec::new();
        for a in args {
            match a.as_str() {
                "--json" => mode = Output::Json,
                "--github" => mode = Output::Github,
                _ => rest.push(a.clone()),
            }
        }
        (mode, rest)
    }

    fn emit(self, d: &Diagnostic) {
        match self {
            Output::Human => println!("{d}"),
            Output::Json => println!("{}", d.to_json()),
            Output::Github => println!("{}", d.to_github()),
        }
    }
}

fn workspace_root() -> PathBuf {
    // The binary is built from the workspace, so the compile-time
    // manifest dir is always two levels below the root; fall back to a
    // cwd walk when the binary was relocated.
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("Cargo.toml").exists() {
        return compiled;
    }
    std::env::current_dir()
        .ok()
        .and_then(|d| workspace::find_root(&d))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn lint(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let (out, args) = Output::extract(args);
    let (diags, files) = if args.first().map(String::as_str) == Some("--files") {
        let mut diags = Vec::new();
        for f in &args[1..] {
            let path = PathBuf::from(f);
            match std::fs::read_to_string(&path) {
                Ok(src) => {
                    diags.extend(dismastd_xtask::lint_source(
                        &path,
                        &src,
                        dismastd_xtask::LintScope::ALL,
                    ));
                }
                Err(e) => {
                    eprintln!("error: cannot read {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (diags, args.len() - 1)
    } else {
        match workspace::lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    };
    for d in &diags {
        out.emit(d);
    }
    if diags.is_empty() {
        if out == Output::Human {
            println!("xtask lint: {files} files clean (L1 panic-path, L2 determinism, L3 span-taxonomy, L4 error-hygiene, L5 clock-hygiene, L9 narrowing-cast)");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint: {} violation(s) across {files} files; \
             acknowledge deliberate ones with `// lint:allow(<name>): <reason>`",
            diags.len()
        );
        ExitCode::FAILURE
    }
}

fn run_analyze(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let (out, args) = Output::extract(args);
    if args.first().map(String::as_str) == Some("--write-budget") {
        return match workspace::write_budget(&root) {
            Ok(test_only) => {
                println!(
                    "xtask analyze: wrote {test_only} entries to {}",
                    workspace::TEST_ONLY_PATH
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot rewrite the test-only budget: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (analysis, files) = match workspace::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &analysis.diags {
        out.emit(d);
    }
    if analysis.diags.is_empty() {
        if out == Output::Human {
            println!(
                "xtask analyze: {} fns across {files} files clean (L6 collective-order, \
                 L7 panic-reachability: no public fn reaches a panic, L8 alloc-hygiene, \
                 L10 unreached: {} test-only entries matched)",
                analysis.fn_count,
                analysis.unreached.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask analyze: {} violation(s) across {files} files; hoist/fix the code, add \
             `// lint:allow(<name>): <reason>` (L8), or (L10, after review) run \
             `cargo run -p dismastd-xtask -- analyze --write-budget`",
            analysis.diags.len()
        );
        ExitCode::FAILURE
    }
}

fn audit(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let only = args.first().map(String::as_str);
    let mut failed = false;

    if only != Some("--tsan-only") {
        println!("==> loom barrier model (RUSTFLAGS=--cfg loom)");
        let status = Command::new("cargo")
            .current_dir(&root)
            .args(["test", "-p", "dismastd-cluster", "--test", "loom_barrier"])
            .env("RUSTFLAGS", "--cfg loom")
            .status();
        match status {
            Ok(s) if s.success() => println!("loom model: ok"),
            Ok(s) => {
                eprintln!("loom model failed: {s}");
                failed = true;
            }
            Err(e) => {
                eprintln!("loom model could not run: {e}");
                failed = true;
            }
        }
    }

    if only != Some("--loom-only") {
        println!("==> ThreadSanitizer chaos run (scripts/tsan.sh)");
        let status = Command::new("bash")
            .current_dir(&root)
            .arg("scripts/tsan.sh")
            .status();
        match status {
            Ok(s) if s.success() => println!("tsan: ok"),
            Ok(s) => {
                eprintln!("tsan failed: {s}");
                failed = true;
            }
            Err(e) => {
                eprintln!("tsan could not run: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
