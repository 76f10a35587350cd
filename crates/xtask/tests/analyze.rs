//! Fixture-driven tests for the interprocedural audits (L6–L8).
//!
//! Each fixture under `tests/fixtures/` trips one audit at pinned
//! `file:line:col` positions with pinned call chains (or none, for the
//! clean fixture), so a graph regression shows up as a test diff, not a
//! silently narrower audit.  The final tests run the real workspace —
//! the dogfood gate — and pin the CLI's `--json`/`--github` renderings
//! that CI consumes.

use dismastd_xtask::unreached::{self, Reachability};
use dismastd_xtask::{analyze_files, Analysis, AnalyzeConfig, LintId};
use std::path::{Path, PathBuf};

/// Fixture analogue of [`AnalyzeConfig::workspace`]: same entry names
/// and no workspace-specific exemptions.
fn fixture_cfg() -> AnalyzeConfig {
    AnalyzeConfig {
        l6_entries: vec!["worker_body".into()],
        l6_exempt_files: vec![],
        l8_entries: vec!["hot".into()],
        l8_skip_prefixes: vec![],
        l8_stop_fns: vec![],
        crate_deps: vec![],
        l10_root_prefixes: vec!["fixtures/bin".into()],
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
    // Line 13's gather carries a `lint:allow(collective_order)`: a
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
    // The budget is zero: `risky` reaches the helper's `expect` and is the
    // one finding, at its definition, with the chain to the site; `safe`
    // and the private helper carry none.
    let a = analyze_fixture("l7_panic_surface.rs");
    assert_sites(
        &a,
        "l7_panic_surface.rs",
        &[(LintId::PanicReachability, 4, 8)],
    );
    let message = &a.diags[0].message;
    assert!(
        message.contains("public `risky` reaches 1 panic site(s), the nearest `.expect()` at fixtures/l7_panic_surface.rs:13:7"),
        "{message}"
    );
    assert!(
        message.contains(
            "[chain: risky (fixtures/l7_panic_surface.rs:4:8) -> \
             helper (called at fixtures/l7_panic_surface.rs:5:5)]"
        ),
        "finding must carry the chain to the site: {message}"
    );
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
    // Its public `scale` reaches no panic site, so L7 is silent too.
    assert_sites(&a, "analyze_clean.rs", &[]);
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

/// L10 over the two-file fixture: `l10_library.rs` is the audited library,
/// `l10_bin.rs` the program whose functions root the audit.
fn l10_fixture(api_roots: &str) -> Reachability {
    let read = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let src = std::fs::read_to_string(path).expect("fixture readable");
        (PathBuf::from("fixtures").join(name), src)
    };
    let cfg = AnalyzeConfig {
        l10_root_prefixes: vec!["fixtures/l10_bin.rs".into()],
        ..fixture_cfg()
    };
    unreached::audit(
        &[read("l10_library.rs")],
        &[read("l10_bin.rs")],
        &cfg,
        api_roots,
        Path::new("api_roots.txt"),
    )
}

fn unreached_names(r: &Reachability) -> Vec<&str> {
    r.unreached.iter().map(|f| f.name.as_str()).collect()
}

const KEPT: &str = "fixtures/l10_library.rs kept # the public API keeps it\n";
const LISTED: &str = "fixtures/l10_library.rs listed # its unit test needs it\n";

#[test]
fn l10_an_unreached_pub_fn_fails_at_its_definition() {
    let r = l10_fixture(KEPT);
    assert!(r.diags.is_empty(), "{:#?}", r.diags);
    assert_eq!(unreached_names(&r), ["listed", "orphan"]);
    let diags = unreached::compare_test_only(&r.unreached, LISTED, Path::new("test_only.txt"));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(
        (d.file.as_path(), d.line, d.col, d.lint),
        (
            Path::new("fixtures/l10_library.rs"),
            24,
            8,
            LintId::Unreached
        )
    );
    assert!(d.message.contains("`orphan`"), "{}", d.message);
    assert!(
        d.to_string().starts_with("fixtures/l10_library.rs:24:8"),
        "{d}"
    );
}

#[test]
fn l10_a_fn_a_bin_main_reaches_through_private_helpers_passes() {
    // main -> run (bin, private) -> entry -> step (library, private) ->
    // reached: none of the chain is reported, calls from tests are not
    // counted.
    let r = l10_fixture(KEPT);
    for name in ["entry", "reached"] {
        assert!(!unreached_names(&r).contains(&name), "{name}");
    }
    let listed = format!("{LISTED}fixtures/l10_library.rs orphan # a test needs it\n");
    let diags = unreached::compare_test_only(&r.unreached, &listed, Path::new("test_only.txt"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn l10_an_api_roots_line_keeps_a_fn_and_its_callees_alive() {
    let without = l10_fixture("");
    assert_eq!(
        unreached_names(&without),
        ["kept", "kept_callee", "listed", "orphan"]
    );
    let with = l10_fixture(KEPT);
    assert_eq!(unreached_names(&with), ["listed", "orphan"]);
}

#[test]
fn l10_stale_and_unreasoned_lines_fail() {
    let test_only = Path::new("test_only.txt");
    let r = l10_fixture(KEPT);
    // A test-only line for a function a root reaches, and one for a
    // function that is gone, are stale; so is a line without a reason.
    let on_disk = format!(
        "{LISTED}fixtures/l10_library.rs orphan\n\
         fixtures/l10_library.rs reached # was test-only\n\
         fixtures/l10_library.rs gone # deleted\n"
    );
    let diags = unreached::compare_test_only(&r.unreached, &on_disk, test_only);
    let found: Vec<(u32, bool, bool)> = diags
        .iter()
        .map(|d| {
            assert_eq!(d.file, test_only);
            (
                d.line,
                d.message.contains("stale"),
                d.message.contains("no reason"),
            )
        })
        .collect();
    assert_eq!(
        found,
        [(2, false, true), (3, true, false), (4, true, false)],
        "{diags:#?}"
    );

    // An api-roots line for a function a program reaches anyway, one for a
    // function that is gone, and one without a reason.
    let api_roots = format!(
        "{KEPT}fixtures/l10_library.rs reached # the bin reaches it\n\
         fixtures/l10_library.rs gone # deleted\n\
         fixtures/l10_library.rs listed\n"
    );
    let r = l10_fixture(&api_roots);
    let found: Vec<(u32, bool)> = r
        .diags
        .iter()
        .map(|d| {
            assert_eq!(d.file, Path::new("api_roots.txt"));
            (d.line, d.message.contains("stale"))
        })
        .collect();
    assert_eq!(found, [(2, true), (3, true), (4, false)], "{:#?}", r.diags);
}

#[test]
fn l10_a_rewritten_test_only_list_keeps_reasons_and_leaves_new_lines_bare() {
    let r = l10_fixture(KEPT);
    let rendered = unreached::render_test_only(&r.unreached, LISTED);
    assert!(rendered.contains("fixtures/l10_library.rs listed # its unit test needs it\n"));
    assert!(
        rendered.ends_with("fixtures/l10_library.rs orphan\n"),
        "{rendered}"
    );
    let diags = unreached::compare_test_only(&r.unreached, &rendered, Path::new("test_only.txt"));
    assert_eq!(
        diags.len(),
        1,
        "only the new line lacks a reason: {diags:#?}"
    );
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
    // L7 admits no entry: no public function of a library crate reaches a
    // panic site.
    let panics: Vec<String> = analysis
        .diags
        .iter()
        .filter(|d| d.lint == LintId::PanicReachability)
        .map(ToString::to_string)
        .collect();
    assert!(panics.is_empty(), "{}", panics.join("\n"));
    // The test-only budget matches: every L10 finding is a reasoned
    // test-only line (the clean `diags` below includes the comparison).
    let test_only = std::fs::read_to_string(root.join(dismastd_xtask::workspace::TEST_ONLY_PATH))
        .expect("test_only.txt is checked in");
    let listed = unreached::parse_list(&test_only);
    assert_eq!(listed.len(), analysis.unreached.len());
    assert!(listed.iter().all(|l| !l.reason.is_empty()));
    let api_roots = std::fs::read_to_string(root.join(dismastd_xtask::workspace::API_ROOTS_PATH))
        .expect("api_roots.txt is checked in");
    assert!(unreached::parse_list(&api_roots)
        .iter()
        .all(|l| !l.reason.is_empty()));
    assert!(
        analysis.diags.is_empty(),
        "the workspace must analyze clean (the test-only budget included):\n{}",
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
        stdout.contains("L7 panic-reachability: no public fn reaches a panic")
            && stdout.contains("test-only entries matched"),
        "summary must confirm L7 found nothing and the test-only budget matched, got:\n{stdout}"
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
