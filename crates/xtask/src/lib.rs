//! # dismastd-xtask
//!
//! The workspace's static-analysis and audit driver:
//!
//! ```text
//! cargo run -p dismastd-xtask -- lint     # L1–L5, L9 per-file invariant lints
//! cargo run -p dismastd-xtask -- analyze  # L6–L8 interprocedural audits
//! cargo run -p dismastd-xtask -- audit    # loom barrier model + TSan chaos run
//! ```
//!
//! The lints replace the old `sed`/`grep` gates in `scripts/check.sh`
//! with a token-level parse of every production crate:
//!
//! | lint | name                | invariant |
//! |------|---------------------|-----------|
//! | L1   | `panic_path`        | no `unwrap`/`expect`/panic-macros in production code |
//! | L2   | `determinism`       | no hash containers, wall clocks, or OS-seeded RNG in the bit-identical crates |
//! | L3   | `span_taxonomy`     | every obs label resolves in `dismastd_obs::taxonomy` |
//! | L4   | `error_hygiene`     | public fallible APIs return typed errors, not `Box<dyn Error>` |
//! | L5   | `clock_hygiene`     | raw OS-clock calls only inside the `Clock` abstraction |
//! | L6   | `collective_order`  | no collective reachable from `worker_body` under a rank-conditioned branch |
//! | L7   | `panic_reachability`| no public fn of a library crate transitively reaches a panic site |
//! | L8   | `alloc_hygiene`     | the steady-state MTTKRP/exchange/gram graph is allocation-free |
//! | L9   | `narrowing_cast`    | no unchecked `as u32` where coordinates and row ids are stored as `u32` |
//!
//! L1–L5 and L9 are per-file token scans ([`lints`]); L6–L8 run over a
//! workspace-wide call graph ([`graph`], [`analyze`]) and attach a full
//! `file:line:col` call chain to every finding.
//!
//! Escape hatch: `// lint:allow(<name>): <reason>` on the violating
//! line, or standalone on the line above (attribute style).  L6 and L7
//! honour no allows: a public function that can reach a panic returns a
//! typed error instead.
//!
//! Both `lint` and `analyze` take `--json` (one JSON object per
//! diagnostic line) and `--github` (workflow annotations).

pub mod analyze;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod unreached;
pub mod workspace;

pub use analyze::{analyze_files, Analysis, AnalyzeConfig};
pub use graph::CallGraph;
pub use lints::{lint_source, Diagnostic, LintId, LintScope};
