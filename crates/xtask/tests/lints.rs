//! Fixture-driven tests for the invariant lints.
//!
//! Each file under `tests/fixtures/` trips exactly one lint at known
//! lines (or none, for `clean.rs`); the assertions pin the `file:line`
//! diagnostics so a lint regression shows up as a test diff, not as a
//! silently narrower audit.  The final test lints the real workspace —
//! the tool's own dogfood gate.

use dismastd_xtask::{lint_source, LintId, LintScope};
use std::path::{Path, PathBuf};

fn fixture_diags(name: &str) -> Vec<dismastd_xtask::Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(&PathBuf::from(name), &src, LintScope::ALL)
}

/// Asserts the diagnostics are exactly `(lint, line)` in order, and that
/// each renders with the `file:line:` prefix the CI log promises.
fn assert_exact(name: &str, expected: &[(LintId, u32)]) {
    let diags = fixture_diags(name);
    let got: Vec<(LintId, u32)> = diags.iter().map(|d| (d.lint, d.line)).collect();
    assert_eq!(
        got,
        expected,
        "{name} diagnostics:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    for d in &diags {
        let rendered = d.to_string();
        assert!(
            rendered.starts_with(&format!("{name}:{}:", d.line)),
            "diagnostic must lead with file:line, got {rendered}"
        );
        assert!(
            rendered.contains(&format!("{}({})", d.lint.code(), d.lint.name())),
            "diagnostic must name its lint, got {rendered}"
        );
    }
}

#[test]
fn l1_flags_unwrap_expect_and_panic_but_honours_allow_and_tests() {
    assert_exact(
        "l1_panic.rs",
        &[
            (LintId::PanicPath, 4),
            (LintId::PanicPath, 8),
            (LintId::PanicPath, 12),
        ],
    );
}

#[test]
fn l1_still_audits_code_after_an_inline_test_module() {
    // The sed-based audit stopped at the first `#[cfg(test)]`; both the
    // function before it and the one after must be flagged.
    assert_exact(
        "l1_after_test_module.rs",
        &[(LintId::PanicPath, 10), (LintId::PanicPath, 22)],
    );
}

#[test]
fn l2_flags_hash_containers_and_wall_clocks() {
    // Line 10's `SystemTime::now()` trips both the determinism lint (the
    // ident) and the clock-hygiene lint (the call) under the full scope.
    assert_exact(
        "l2_determinism.rs",
        &[
            (LintId::Determinism, 3),
            (LintId::Determinism, 10),
            (LintId::ClockHygiene, 10),
        ],
    );
}

#[test]
fn l2_confines_raw_thread_creation_to_the_sanctioned_modules() {
    // `thread::spawn`, `thread::Builder`, and `thread::scope` all trip the
    // confinement rule; the allow directive and test code stay clean, and
    // the HashMap lines prove the rest of L2 still fires in this file.
    assert_exact(
        "l2_threading.rs",
        &[
            (LintId::Determinism, 5),
            (LintId::Determinism, 9),
            (LintId::Determinism, 13),
            (LintId::Determinism, 21),
            (LintId::Determinism, 22),
        ],
    );
}

#[test]
fn l2_threading_exemption_is_per_rule_in_pool_and_runtime() {
    // Linting the same source as `pool.rs` / `runtime.rs` drops only the
    // thread-creation diagnostics — the HashMap violations must survive,
    // or the exemption would be a blanket L2 opt-out.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/l2_threading.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    for sanctioned in ["pool.rs", "runtime.rs"] {
        let diags = lint_source(&PathBuf::from(sanctioned), &src, LintScope::ALL);
        let got: Vec<(LintId, u32)> = diags.iter().map(|d| (d.lint, d.line)).collect();
        assert_eq!(
            got,
            vec![(LintId::Determinism, 21), (LintId::Determinism, 22)],
            "{sanctioned}: {diags:?}"
        );
    }
}

#[test]
fn l3_flags_unregistered_labels_with_a_suggestion() {
    assert_exact(
        "l3_taxonomy.rs",
        &[(LintId::SpanTaxonomy, 8), (LintId::SpanTaxonomy, 12)],
    );
    let diags = fixture_diags("l3_taxonomy.rs");
    assert!(
        diags[0].message.contains("phase/mttkrp"),
        "near-miss should suggest the registered label: {}",
        diags[0].message
    );
    assert!(
        diags[1].message.contains("plan/rebuild"),
        "near-miss should suggest the registered label: {}",
        diags[1].message
    );
}

#[test]
fn l4_flags_leaked_box_dyn_error_only() {
    assert_exact("l4_boxdyn.rs", &[(LintId::ErrorHygiene, 5)]);
}

#[test]
fn l5_flags_raw_clock_calls_but_honours_allow_and_tests() {
    // Line 8's `Instant::now()` also trips L2 under the full scope —
    // pinned here so the cross-hit stays visible.
    assert_exact(
        "l5_clock.rs",
        &[
            (LintId::ClockHygiene, 4),
            (LintId::Determinism, 8),
            (LintId::ClockHygiene, 8),
        ],
    );
}

#[test]
fn l9_flags_unchecked_u32_narrowing_but_not_literals_try_from_or_tests() {
    assert_exact(
        "l9_narrowing_guilty.rs",
        &[(LintId::NarrowingCast, 4), (LintId::NarrowingCast, 8)],
    );
}

#[test]
fn l9_honours_an_allow_that_names_the_guard() {
    // Lines 6 (standalone allow above) and 10 (trailing) are excused; the
    // unguarded control on line 14 still fires.
    assert_exact("l9_narrowing_allowed.rs", &[(LintId::NarrowingCast, 14)]);
}

#[test]
fn allow_placements_trailing_and_standalone_both_bind_per_lint() {
    // Lines 7 (trailing) and 12 (under a standalone allow) are excused;
    // the unprotected control on line 16 still fires, and line 21's
    // multi-lint `SystemTime::now()` keeps its L2 finding because the
    // standalone allow names only `clock_hygiene`.
    assert_exact(
        "allow_placement.rs",
        &[(LintId::PanicPath, 16), (LintId::Determinism, 21)],
    );
}

#[test]
fn clean_fixture_is_clean_under_the_full_scope() {
    assert_exact("clean.rs", &[]);
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean_input() {
    let exe = env!("CARGO_BIN_EXE_dismastd-xtask");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");

    let bad = std::process::Command::new(exe)
        .args(["lint", "--files"])
        .arg(fixtures.join("l1_panic.rs"))
        .output()
        .expect("xtask runs");
    assert!(!bad.status.success(), "violations must fail the build");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("l1_panic.rs:4:") && stdout.contains("L1(panic_path)"),
        "diagnostics must carry file:line, got:\n{stdout}"
    );

    let clean = std::process::Command::new(exe)
        .args(["lint", "--files"])
        .arg(fixtures.join("clean.rs"))
        .output()
        .expect("xtask runs");
    assert!(
        clean.status.success(),
        "clean input must exit 0, stderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = dismastd_xtask::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let (diags, files) = dismastd_xtask::workspace::lint_workspace(&root).expect("walk succeeds");
    assert!(
        files >= 40,
        "expected to scan the whole workspace, saw {files} files"
    );
    assert!(
        diags.is_empty(),
        "the workspace must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
