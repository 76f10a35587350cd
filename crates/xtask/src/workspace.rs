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

/// Directories indexed into the interprocedural call graph (L6–L8).
/// Everything the distributed solve path can reach is here; bench,
/// examples, and the xtask itself are not part of that graph.
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

/// Workspace-root-relative location of the L7 panic budget.
pub const BUDGET_PATH: &str = "crates/xtask/panic_budget.txt";

/// Reads every analyzed source file as `(root-relative path, source)`.
pub fn analyzed_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for dir in analyzed_dirs() {
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

/// Runs the interprocedural audits (L6/L8 findings + the L7 surface
/// checked against the on-disk budget + the audit tables checked against
/// the index).  Stale table entries and budget mismatches are appended to
/// `Analysis::diags`; a missing budget file reads as empty, so every
/// entry reports as unbudgeted until `--write-budget` creates it.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Analysis, usize)> {
    let files = analyzed_files(root)?;
    let count = files.len();
    let mut analysis = analyze_files(&files);
    let mut stale = std::mem::take(&mut analysis.stale_tables);
    analysis.diags.append(&mut stale);
    let on_disk = std::fs::read_to_string(root.join(BUDGET_PATH)).unwrap_or_default();
    let mut budget_diags =
        analyze::compare_budget(&analysis.budget, &on_disk, Path::new(BUDGET_PATH));
    analysis.diags.append(&mut budget_diags);
    Ok((analysis, count))
}

/// The pure-file entry used by both [`analyze_workspace`] and the
/// fixture tests: workspace configuration, no budget comparison.
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
