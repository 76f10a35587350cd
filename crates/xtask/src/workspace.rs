//! Workspace discovery and the per-crate lint scoping table.
//!
//! Scoping rationale (see DESIGN.md "Static analysis & determinism
//! audit"):
//!
//! - **L1 panic-path** covers every production crate — the solve,
//!   ingest, comm, observability, bench, and example surfaces.  The old
//!   grep audit hand-listed sixteen files; this table covers whole
//!   source trees, so a new file is audited the moment it exists.
//! - **L2 determinism** covers the crates that feed the bit-identical
//!   serial-vs-distributed factor path: `tensor`, `partition`, `core`,
//!   `cluster`.  `data`, `obs`, and `bench` may use wall clocks and
//!   hash containers freely.
//! - **L3 span-taxonomy** covers every crate that emits metrics.
//! - **L4 error-hygiene** covers the crates whose public APIs promise
//!   typed errors: `cluster`, `core`, `tensor`.
//! - **L5 clock-hygiene** rides with the full scope (`tensor`, `core`,
//!   `cluster`): raw `Instant::now` / `SystemTime::now` /
//!   `thread::sleep` calls must route through the `Clock` abstraction
//!   so the deterministic simulator can virtualise time;
//!   `cluster/src/clock.rs` is the one sanctioned home.
//! - **L9 narrowing-cast** covers the crates that fill `u32` index
//!   buffers and row tables: `tensor`, `partition`, `core`, `data`.
//!
//! The integration-test crate (`tests/`) and `vendor/` are deliberately
//! out of scope: the former is all test code, the latter is third-party
//! stand-ins.

use crate::analyze::{self, Analysis, AnalyzeConfig};
use crate::lints::{lint_source, Diagnostic, LintScope};
use crate::unreached::{self, Reachability};
use std::path::{Path, PathBuf};

/// One lint target: a directory tree and the lints that apply to it.
pub struct ScopedDir {
    pub dir: &'static str,
    pub scope: LintScope,
}

/// The scoping table, workspace-root-relative.
pub fn scoped_dirs() -> Vec<ScopedDir> {
    let l1 = LintScope {
        panic_path: true,
        span_taxonomy: true,
        ..Default::default()
    };
    let det = LintScope {
        panic_path: true,
        determinism: true,
        span_taxonomy: true,
        ..Default::default()
    };
    let full = LintScope {
        narrowing_cast: false,
        ..LintScope::ALL
    };
    let indexed = |scope| LintScope {
        narrowing_cast: true,
        ..scope
    };
    vec![
        ScopedDir {
            dir: "crates/tensor/src",
            scope: indexed(full),
        },
        ScopedDir {
            dir: "crates/partition/src",
            scope: indexed(det),
        },
        ScopedDir {
            dir: "crates/core/src",
            scope: indexed(full),
        },
        ScopedDir {
            dir: "crates/cluster/src",
            scope: full,
        },
        ScopedDir {
            dir: "crates/data/src",
            scope: indexed(l1),
        },
        ScopedDir {
            dir: "crates/obs/src",
            scope: l1,
        },
        ScopedDir {
            dir: "crates/bench/src",
            scope: l1,
        },
        // Criterion harnesses are test-adjacent: they run offline on
        // compile-time-constant inputs and panic-at-setup is their
        // designed failure mode, so only the taxonomy lint applies.
        ScopedDir {
            dir: "crates/bench/benches",
            scope: LintScope {
                span_taxonomy: true,
                ..Default::default()
            },
        },
        ScopedDir {
            dir: "examples",
            scope: l1,
        },
    ]
}

/// Locates the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All `.rs` files under `dir`, recursively, in sorted order (stable
/// diagnostics across runs and machines).
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Directories indexed into the interprocedural call graph (L6–L8): the
/// library crates.  Everything the distributed solve path can reach is
/// here, and every `pub fn` here is under L7's rule; bench, examples, and
/// the xtask itself are not part of that graph.
pub fn analyzed_dirs() -> Vec<&'static str> {
    vec![
        "crates/tensor/src",
        "crates/partition/src",
        "crates/core/src",
        "crates/cluster/src",
        "crates/data/src",
        "crates/obs/src",
    ]
}

/// Directories indexed into the reachability audit (L10) beside the
/// library crates: the programs whose calls count.  Their functions root
/// the audit where `AnalyzeConfig::l10_root_prefixes` says so (every bin,
/// bench harness, example and the benchmark; not the bench library, which
/// is reached through its bins).  The benchmark is read, never edited.
pub fn program_dirs() -> Vec<&'static str> {
    vec![
        "crates/bench/src",
        "crates/bench/benches",
        "examples",
        "benchmark/src",
    ]
}

/// Workspace-root-relative location of the L10 kept-API roots.
pub const API_ROOTS_PATH: &str = "crates/xtask/api_roots.txt";

/// Workspace-root-relative location of the L10 test-only budget.
pub const TEST_ONLY_PATH: &str = "crates/xtask/test_only.txt";

/// Reads every `.rs` file under `dirs` as `(root-relative path, source)`.
fn read_dirs(root: &Path, dirs: &[&str]) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for dir in dirs {
        let dir = root.join(dir);
        if !dir.exists() {
            continue;
        }
        for path in rust_files(&dir) {
            let src = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push((rel, src));
        }
    }
    Ok(files)
}

/// Reads every analyzed source file as `(root-relative path, source)`.
pub fn analyzed_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    read_dirs(root, &analyzed_dirs())
}

/// Runs L10 over the workspace against the on-disk `api_roots.txt` (a
/// missing file reads as empty).
pub fn reachability(root: &Path, library: &[(PathBuf, String)]) -> std::io::Result<Reachability> {
    let programs = read_dirs(root, &program_dirs())?;
    let api_roots = std::fs::read_to_string(root.join(API_ROOTS_PATH)).unwrap_or_default();
    Ok(unreached::audit(
        library,
        &programs,
        &AnalyzeConfig::workspace(),
        &api_roots,
        Path::new(API_ROOTS_PATH),
    ))
}

/// Runs the interprocedural audits (L6–L8 findings + the audit tables
/// checked against the index + the L10 surface checked against the api
/// roots and the test-only budget).  Stale table entries and L10
/// mismatches are appended to `Analysis::diags`; a missing test-only file
/// reads as empty, so every unreached function reports until
/// `--write-budget` creates it.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Analysis, usize)> {
    let files = analyzed_files(root)?;
    let count = files.len();
    let mut analysis = analyze_files(&files);
    let mut stale = std::mem::take(&mut analysis.stale_tables);
    analysis.diags.append(&mut stale);
    let mut reach = reachability(root, &files)?;
    analysis.diags.append(&mut reach.diags);
    let test_only = std::fs::read_to_string(root.join(TEST_ONLY_PATH)).unwrap_or_default();
    analysis.diags.extend(unreached::compare_test_only(
        &reach.unreached,
        &test_only,
        Path::new(TEST_ONLY_PATH),
    ));
    analysis.unreached = reach.unreached;
    Ok((analysis, count))
}

/// Rewrites the L10 test-only list from a fresh analysis (reasons of
/// entries it already lists are kept).  Returns the entry count written.
pub fn write_budget(root: &Path) -> std::io::Result<usize> {
    let files = analyzed_files(root)?;
    let reach = reachability(root, &files)?;
    let previous = std::fs::read_to_string(root.join(TEST_ONLY_PATH)).unwrap_or_default();
    std::fs::write(
        root.join(TEST_ONLY_PATH),
        unreached::render_test_only(&reach.unreached, &previous),
    )?;
    Ok(reach.unreached.len())
}

/// The pure-file entry used by both [`analyze_workspace`] and the
/// fixture tests: workspace configuration, no L10.
pub fn analyze_files(files: &[(PathBuf, String)]) -> Analysis {
    analyze::analyze_files(files, &AnalyzeConfig::workspace())
}

/// Lints the whole workspace rooted at `root`.  Returns the diagnostics
/// and the number of files examined.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut diags = Vec::new();
    let mut files = 0usize;
    for scoped in scoped_dirs() {
        let dir = root.join(scoped.dir);
        if !dir.exists() {
            continue;
        }
        for path in rust_files(&dir) {
            let src = std::fs::read_to_string(&path)?;
            files += 1;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            diags.extend(lint_source(&rel, &src, scoped.scope));
        }
    }
    Ok((diags, files))
}
