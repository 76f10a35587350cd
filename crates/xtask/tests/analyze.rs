//! Fixture-driven tests for the interprocedural audits (L6–L8).
//!
//! Each fixture under `tests/fixtures/` trips one audit at pinned
//! `file:line:col` positions with pinned call chains (or none, for the
//! clean fixture), so a graph regression shows up as a test diff, not a
//! silently narrower audit.  The final tests run the real workspace —
//! the dogfood gate — and pin the CLI's `--json`/`--github` renderings
//! that CI consumes.

use dismastd_xtask::{analyze, analyze_files, Analysis, AnalyzeConfig, LintId};
use std::path::{Path, PathBuf};

/// Fixture analogue of [`AnalyzeConfig::workspace`]: same entry names,
/// no workspace-specific exemptions, and the fixture dir as the L7
/// public surface.
fn fixture_cfg() -> AnalyzeConfig {
    AnalyzeConfig {
        l6_entries: vec!["worker_body".into()],
        l6_exempt_files: vec![],
        l7_pub_prefixes: vec!["fixtures".into()],
        l8_entries: vec!["hot".into()],
        l8_skip_prefixes: vec![],
        l8_stop_fns: vec![],
        crate_deps: vec![],
    }
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze_fixture_with(name, &fixture_cfg())
}

fn analyze_fixture_with(name: &str, cfg: &AnalyzeConfig) -> Analysis {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    // Workspace-relative style path, as the real driver passes them.
    analyze_files(&[(PathBuf::from("fixtures").join(name), src)], cfg)
}

/// Asserts the findings are exactly `(lint, line, col)` in order.
fn assert_sites(a: &Analysis, name: &str, expected: &[(LintId, u32, u32)]) {
    let got: Vec<(LintId, u32, u32)> = a.diags.iter().map(|d| (d.lint, d.line, d.col)).collect();
    assert_eq!(
        got,
        expected,
        "{name} findings:\n{}",
        a.diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn l6_flags_branched_collectives_with_chains_and_ignores_a_lint_allow() {
    let a = analyze_fixture("l6_collective_order.rs");
    assert_sites(
        &a,
        "l6_collective_order.rs",
        &[
            (LintId::CollectiveOrder, 8, 13),
            (LintId::CollectiveOrder, 9, 9),
            (LintId::CollectiveOrder, 13, 13),
        ],
    );
    // Line 8 is the direct collective; line 9 is the transitive helper.
    // Line 13's broadcast carries a `lint:allow(collective_order)`: a
    // rank-conditioned collective under `worker_body` is a finding all the
    // same.
    assert!(
        a.diags[0].message.contains("`try_barrier` is a collective")
            && a.diags[0].message.contains("`me==0` at line 7"),
        "direct finding must name the collective and the branch: {}",
        a.diags[0].message
    );
    assert!(
        a.diags[1].message.contains("`decide` performs collectives"),
        "transitive finding must name the helper: {}",
        a.diags[1].message
    );
    for d in &a.diags {
        assert!(
            d.message
                .contains("chain: worker_body (fixtures/l6_collective_order.rs:5:4)"),
            "finding must carry the entry-point chain: {}",
            d.message
        );
    }
}

#[test]
fn l7_budgets_the_transitive_panic_surface_of_public_fns() {
    let a = analyze_fixture("l7_panic_surface.rs");
    assert_sites(&a, "l7_panic_surface.rs", &[]);
    // `risky` reaches its own unwrap plus the helper's expect; `safe`
    // and the private helper carry no entry.
    assert_eq!(a.budget.len(), 1, "{:#?}", a.budget);
    let e = &a.budget[0];
    assert_eq!(
        (e.name.as_str(), e.count, e.line, e.col),
        ("risky", 2, 4, 8),
        "{e:#?}"
    );
    assert_eq!(e.file, PathBuf::from("fixtures/l7_panic_surface.rs"));

    // A fresh budget rendering round-trips clean…
    let budget_file = Path::new("budget.txt");
    let rendered = analyze::render_budget(&a.budget);
    assert!(analyze::compare_budget(&a.budget, &rendered, budget_file).is_empty());

    // …growth beyond the recorded count fails…
    let grown = analyze::compare_budget(
        &a.budget,
        "1 fixtures/l7_panic_surface.rs risky\n",
        budget_file,
    );
    assert_eq!(grown.len(), 1);
    assert_eq!(grown[0].lint, LintId::PanicReachability);
    assert!(grown[0].message.contains("grew"), "{}", grown[0].message);

    // …an empty budget reports the API as unbudgeted…
    let unbudgeted = analyze::compare_budget(&a.budget, "", budget_file);
    assert_eq!(unbudgeted.len(), 1);
    assert!(
        unbudgeted[0].message.contains("no budget entry"),
        "{}",
        unbudgeted[0].message
    );

    // …and an entry whose API went panic-free reports as stale, anchored
    // to its budget-file line.
    let stale = analyze::compare_budget(
        &a.budget,
        &format!("{rendered}3 fixtures/l7_panic_surface.rs gone\n"),
        budget_file,
    );
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].file, budget_file);
    assert!(stale[0].message.contains("stale"), "{}", stale[0].message);
}

#[test]
fn l8_flags_allocations_with_chains_and_honours_both_allow_placements() {
    let a = analyze_fixture("l8_alloc_hygiene.rs");
    assert_sites(
        &a,
        "l8_alloc_hygiene.rs",
        &[
            (LintId::AllocHygiene, 9, 22),
            (LintId::AllocHygiene, 10, 27),
            (LintId::AllocHygiene, 11, 23),
        ],
    );
    // Lines 9–11 cover the three site kinds (method, qualified ctor,
    // macro); lines 12 and 14 carry the trailing and standalone allows;
    // the pool take/put pair stays clean.
    assert!(a.diags[0].message.contains("`.to_vec()` allocates"));
    assert!(a.diags[1]
        .message
        .contains("`Vec::with_capacity` allocates"));
    assert!(a.diags[2].message.contains("`format!` allocates"));
    for d in &a.diags {
        assert!(
            d.message.contains(
                "chain: hot (fixtures/l8_alloc_hygiene.rs:4:4) -> \
                 stage (called at fixtures/l8_alloc_hygiene.rs:5:5)"
            ),
            "finding must carry the full call chain: {}",
            d.message
        );
    }
}

#[test]
fn clean_fixture_produces_no_findings_and_an_empty_budget() {
    let a = analyze_fixture("analyze_clean.rs");
    assert_sites(&a, "analyze_clean.rs", &[]);
    assert!(a.budget.is_empty(), "{:#?}", a.budget);
    assert_eq!(a.fn_count, 3, "all three fns must enter the graph");
}

#[test]
fn a_table_name_that_matches_no_function_is_a_stale_entry_finding() {
    let cfg = AnalyzeConfig {
        l8_stop_fns: vec!["Pool::run".into()],
        ..fixture_cfg()
    };
    let clean = analyze_fixture_with("tables_clean.rs", &cfg);
    assert_sites(&clean, "tables_clean.rs", &[]);
    assert!(clean.stale_tables.is_empty(), "{:#?}", clean.stale_tables);

    // The same program after four renames: each table names one function
    // that no longer exists, and says which.
    let stale = analyze_fixture_with("tables_stale.rs", &cfg);
    assert_sites(&stale, "tables_stale.rs", &[]);
    let found: Vec<(LintId, &str)> = stale
        .stale_tables
        .iter()
        .map(|d| (d.lint, d.message.as_str()))
        .collect();
    let expected = [
        (
            LintId::CollectiveOrder,
            "stale table entry `post_exchange` in `COLLECTIVES`",
        ),
        (
            LintId::CollectiveOrder,
            "stale table entry `worker_body` in `l6_entries`",
        ),
        (
            LintId::AllocHygiene,
            "stale table entry `hot` in `l8_entries`",
        ),
        (
            LintId::AllocHygiene,
            "stale table entry `Pool::run` in `l8_stop_fns`",
        ),
    ];
    assert_eq!(found.len(), expected.len(), "{found:#?}");
    for ((lint, message), (want_lint, want_prefix)) in found.iter().zip(expected) {
        assert_eq!(*lint, want_lint, "{message}");
        assert!(message.starts_with(want_prefix), "{message}");
    }
    for d in &stale.stale_tables {
        assert_eq!(d.file, PathBuf::from("crates/xtask/src/analyze.rs"));
    }
}

#[test]
fn the_workspace_itself_analyzes_clean_against_the_checked_in_budget() {
    let root = dismastd_xtask::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let (analysis, files) =
        dismastd_xtask::workspace::analyze_workspace(&root).expect("walk succeeds");
    assert!(
        files >= 40,
        "expected to analyze the whole workspace, saw {files} files"
    );
    assert!(
        analysis.fn_count >= 400,
        "expected the full call graph, saw {} fns",
        analysis.fn_count
    );
    assert!(
        !analysis.budget.is_empty(),
        "the workspace has a non-empty panic surface by construction"
    );
    assert!(
        analysis.diags.is_empty(),
        "the workspace must analyze clean (budget included):\n{}",
        analysis
            .diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn cli_analyze_exits_zero_on_the_workspace() {
    let exe = env!("CARGO_BIN_EXE_dismastd-xtask");
    let out = std::process::Command::new(exe)
        .arg("analyze")
        .output()
        .expect("xtask runs");
    assert!(
        out.status.success(),
        "analyze must pass on the workspace:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("entries matched"),
        "summary must confirm the budget matched, got:\n{stdout}"
    );
}

#[test]
fn cli_json_and_github_render_one_machine_line_per_diagnostic() {
    let exe = env!("CARGO_BIN_EXE_dismastd-xtask");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/l1_panic.rs");

    let json = std::process::Command::new(exe)
        .args(["lint", "--json", "--files"])
        .arg(&fixture)
        .output()
        .expect("xtask runs");
    assert!(
        !json.status.success(),
        "violations must still fail the build"
    );
    let stdout = String::from_utf8_lossy(&json.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON object per diagnostic:\n{stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line must be a standalone JSON object: {line}"
        );
        assert!(
            line.contains(r#""code":"L1""#) && line.contains(r#""lint":"panic_path""#),
            "JSON must carry code and lint name: {line}"
        );
        assert!(
            line.contains(r#""line":"#) && line.contains(r#""col":"#),
            "JSON must carry the position: {line}"
        );
    }

    let github = std::process::Command::new(exe)
        .args(["lint", "--github", "--files"])
        .arg(&fixture)
        .output()
        .expect("xtask runs");
    assert!(!github.status.success());
    let stdout = String::from_utf8_lossy(&github.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one annotation per diagnostic:\n{stdout}");
    for line in &lines {
        assert!(
            line.starts_with("::error file=") && line.contains("title=L1(panic_path)"),
            "each line must be a GitHub annotation: {line}"
        );
    }
}
