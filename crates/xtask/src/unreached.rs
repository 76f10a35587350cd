//! L10 `unreached`: every public function of the library crates is reached
//! from a program, kept on purpose, or listed as test-only.
//!
//! The roots are every function defined in a program file (the bench
//! bins and criterion harnesses, the examples, the benchmark package) plus
//! the lines of `api_roots.txt`, the public API kept on purpose, each with a
//! reason.  A library `pub fn` no root reaches must be deleted or listed in
//! `test_only.txt`, a ratchet: an unlisted unreached
//! function fails, and so does a listed one that a root now reaches or that
//! is gone.
//!
//! Reachability is [`CallGraph::reach`] with its name-based resolution, so
//! L10 *under*-reports: a method call reaches every method of that name,
//! whatever the receiver (the session's `comm_totals.merge(…)` reaches
//! `MetricsSnapshot::merge` as well as `CommStatsSnapshot::merge`).  A
//! function L10 calls reached may still be dead; grep the programs for its
//! name before trusting the verdict.

use crate::analyze::AnalyzeConfig;
use crate::graph::CallGraph;
use crate::lints::{Diagnostic, LintId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A library `pub fn` no root reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnreachedFn {
    pub file: PathBuf,
    /// `Qual::name` display form.
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// One `<file> <Qual::fn> # <reason>` line of `api_roots.txt` or
/// `test_only.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listed {
    pub file: String,
    pub name: String,
    /// Empty when the line has no `# reason`.
    pub reason: String,
    /// 1-based line in the list file.
    pub line: u32,
}

/// Parses a function list; blank lines and whole-line `#` comments are
/// skipped, and a line without a `<file> <name>` pair is ignored.
pub fn parse_list(text: &str) -> Vec<Listed> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (entry, reason) = line.split_once('#').unwrap_or((line, ""));
        let mut parts = entry.split_whitespace();
        let (Some(file), Some(name)) = (parts.next(), parts.next()) else {
            continue;
        };
        out.push(Listed {
            file: file.to_string(),
            name: name.to_string(),
            reason: reason.trim().to_string(),
            line: i as u32 + 1,
        });
    }
    out
}

/// Result of the reachability pass: the unreached library surface, to be
/// compared against `test_only.txt` by [`compare_test_only`], and the
/// findings on `api_roots.txt` itself.
#[derive(Debug, Default)]
pub struct Reachability {
    pub unreached: Vec<UnreachedFn>,
    pub diags: Vec<Diagnostic>,
}

/// Runs L10 over the library files (whose `pub fn`s are audited) and the
/// program files (indexed so their calls count; functions under
/// `cfg.l10_root_prefixes` are roots).  `api_roots` is the text of the
/// kept-API list, `api_roots_path` anchors its findings: a line without a
/// reason, a line that names no library function, and a line a program
/// already reaches (it keeps nothing alive).
pub fn audit(
    library: &[(PathBuf, String)],
    programs: &[(PathBuf, String)],
    cfg: &AnalyzeConfig,
    api_roots: &str,
    api_roots_path: &Path,
) -> Reachability {
    let files: Vec<(&PathBuf, &String)> = library
        .iter()
        .chain(programs)
        .map(|(p, s)| (p, s))
        .collect();
    let mut graph = CallGraph::build(&files);
    graph.set_crate_deps(&cfg.crate_deps);
    let in_library = |file: &Path| library.iter().any(|(p, _)| p == file);
    let program_roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let file = graph.fns[i].file.to_string_lossy().replace('\\', "/");
            cfg.l10_root_prefixes
                .iter()
                .any(|pre| file.starts_with(pre.as_str()))
        })
        .collect();
    let from_programs = graph.reach(&program_roots, |_| true);

    let mut diags = Vec::new();
    let mut roots = program_roots;
    for entry in parse_list(api_roots) {
        let problem = |what: &str| Diagnostic {
            file: api_roots_path.to_path_buf(),
            line: entry.line,
            col: 1,
            lint: LintId::Unreached,
            message: format!("api root `{}` ({}) {what}", entry.name, entry.file),
        };
        if entry.reason.is_empty() {
            diags.push(problem("gives no reason; append `# <why it is kept>`"));
        }
        let found: Vec<usize> = (0..graph.fns.len())
            .filter(|&i| {
                let f = &graph.fns[i];
                in_library(&f.file)
                    && f.file.to_string_lossy() == entry.file
                    && f.display_name() == entry.name
            })
            .collect();
        if found.is_empty() {
            diags.push(problem(
                "is stale: no library function has that name; drop the line",
            ));
        } else if found.iter().all(|i| from_programs.contains_key(i)) {
            diags.push(problem(
                "is stale: a program already reaches it, so the line keeps nothing alive; \
                 drop it",
            ));
        }
        roots.extend(found);
    }

    let reached = graph.reach(&roots, |_| true);
    let mut unreached: Vec<UnreachedFn> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(i, f)| f.is_pub && in_library(&f.file) && !reached.contains_key(i))
        .map(|(_, f)| UnreachedFn {
            file: f.file.clone(),
            name: f.display_name(),
            line: f.line,
            col: f.col,
        })
        .collect();
    unreached.sort_by(|a, b| (&a.file, &a.name, a.line).cmp(&(&b.file, &b.name, b.line)));
    unreached.dedup_by(|a, b| a.file == b.file && a.name == b.name);
    Reachability { unreached, diags }
}

/// Compares the unreached surface against the `test_only.txt` text: an
/// unreached function without a line fails at its definition; a line
/// without a reason, and a line whose function a root now reaches or that
/// is gone, fail at the line.
pub fn compare_test_only(
    unreached: &[UnreachedFn],
    on_disk: &str,
    list_path: &Path,
) -> Vec<Diagnostic> {
    let listed: BTreeMap<(String, String), Listed> = parse_list(on_disk)
        .into_iter()
        .map(|l| ((l.file.clone(), l.name.clone()), l))
        .collect();
    let mut diags = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for f in unreached {
        let key = (f.file.display().to_string(), f.name.clone());
        if !listed.contains_key(&key) {
            diags.push(Diagnostic {
                file: f.file.clone(),
                line: f.line,
                col: f.col,
                lint: LintId::Unreached,
                message: format!(
                    "public `{}` is reached from no bin, bench, example or the benchmark; \
                     delete it, or list it with a reason in {} (test-only) or the api roots \
                     (kept on purpose)",
                    f.name,
                    list_path.display()
                ),
            });
        }
        seen.insert(key);
    }
    for (key, l) in &listed {
        let problem = if !seen.contains(key) {
            "is stale: a root reaches it now, or it is gone; drop the line"
        } else if l.reason.is_empty() {
            "gives no reason; append `# <which tests need it>`"
        } else {
            continue;
        };
        diags.push(Diagnostic {
            file: list_path.to_path_buf(),
            line: l.line,
            col: 1,
            lint: LintId::Unreached,
            message: format!("test-only entry `{}` ({}) {problem}", l.name, l.file),
        });
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Renders `test_only.txt` for the given surface, keeping the reason of
/// every function `previous` already lists; a new entry is written without
/// one, so the next run fails until one is written.
pub fn render_test_only(unreached: &[UnreachedFn], previous: &str) -> String {
    let reasons: BTreeMap<(String, String), String> = parse_list(previous)
        .into_iter()
        .map(|l| ((l.file, l.name), l.reason))
        .collect();
    let mut out = String::from(
        "# L10 test-only budget: one line per public function of the library crates\n\
         # that no bin, bench, example or the benchmark reaches, and that stays\n\
         # because tests need it.  An unlisted unreached function fails `xtask\n\
         # analyze`; so does a line whose function is reached now, or gone.\n\
         # After review, refresh with:\n\
         #   cargo run -p dismastd-xtask -- analyze --write-budget\n\
         # format: <file> <Qual::fn> # <reason>\n",
    );
    for f in unreached {
        let file = f.file.display().to_string();
        out.push_str(&format!("{file} {}", f.name));
        match reasons.get(&(file, f.name.clone())) {
            Some(reason) if !reason.is_empty() => out.push_str(&format!(" # {reason}\n")),
            _ => out.push('\n'),
        }
    }
    out
}
