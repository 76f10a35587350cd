//! The interprocedural lints (L6–L8) over [`crate::graph::CallGraph`].
//!
//! | lint | name                | invariant |
//! |------|---------------------|-----------|
//! | L6   | `collective_order`  | no collective call reachable from `worker_body` sits under a rank-conditioned branch |
//! | L7   | `panic_reachability`| no public function reaches a panic site, however many calls deep |
//! | L8   | `alloc_hygiene`     | nothing reachable from the steady-state entry points calls an allocating constructor/method |
//!
//! Every diagnostic carries one full call chain (`file:line:col` per
//! hop) from an entry point to the offending site, so a violation three
//! calls deep reads like a stack trace.  See DESIGN.md §12 for the
//! resolution model and its limits.

use crate::graph::{CallGraph, CallKind, CallSite, FnDef};
use crate::lexer;
use crate::lints::{self, Diagnostic, LintId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The collective/barrier primitives (and their posted halves): a call
/// site with one of these names is a collective site wherever it
/// appears; a function containing one *performs* collectives.
pub const COLLECTIVES: &[&str] = &[
    "try_barrier",
    "try_exchange",
    "post_exchange",
    "complete_exchange",
    "try_gather",
    "try_allreduce_sum",
    "try_allreduce_sum_with",
];

/// Allocating methods (`.name(` receiver syntax) denied on the
/// steady-state graph.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `Type::fn(` constructor forms denied on the steady-state graph.
const ALLOC_QUAL_TYPES: &[&str] = &[
    "Vec", "String", "Box", "Arc", "Rc", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];
const ALLOC_QUAL_FNS: &[&str] = &["new", "with_capacity", "from", "from_elem"];

/// What to analyze: entry points and sanctioned boundaries.  L7 needs no
/// entry: every `pub fn` of the analyzed files is one.
/// [`AnalyzeConfig::workspace`] is the real configuration; fixtures
/// construct their own.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Function names rooting the collective-order audit (L6).
    pub l6_entries: Vec<String>,
    /// File *names* housing the collective implementations; their
    /// internals legitimately branch on `self.rank` (root vs leaf roles)
    /// and are not re-audited (L6).
    pub l6_exempt_files: Vec<String>,
    /// Function names rooting the steady-state allocation audit (L8);
    /// `Qual::name` restricts to one impl.
    pub l8_entries: Vec<String>,
    /// Path prefixes L8 does not descend into: observability is
    /// sanctioned (near-zero when disabled, bounded when on) and the
    /// simulator virtualises the transport outside production.
    pub l8_skip_prefixes: Vec<String>,
    /// Functions (`Qual::name` or `name`) L8 treats as graph leaves.
    /// This trims the name-based method over-approximation: e.g. a
    /// `pool.run(…)` method call also resolves to `Cluster::run`, which
    /// would drag the whole one-shot cluster bootstrap into the
    /// steady-state graph.
    pub l8_stop_fns: Vec<String>,
    /// Direct crate-dependency edges (`crate -> deps`) installed as the
    /// graph's layering filter: a name match that would require a call
    /// edge the crate DAG forbids is dropped.  Mirrors the `[dependencies]`
    /// sections of the workspace manifests; keep in sync when crates
    /// gain or lose dependencies.
    pub crate_deps: Vec<(String, Vec<String>)>,
    /// Path prefixes of the program files whose every function roots the
    /// reachability audit (L10).
    pub l10_root_prefixes: Vec<String>,
}

impl AnalyzeConfig {
    /// The workspace configuration: `worker_body` roots the collective
    /// audit, and the steady-state MTTKRP/gram/exchange kernels root the
    /// allocation audit.
    pub fn workspace() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        AnalyzeConfig {
            l6_entries: own(&["worker_body"]),
            l6_exempt_files: own(&["collectives.rs"]),
            l8_entries: own(&[
                "MttkrpPlan::mttkrp_into",
                "mttkrp_into_pooled",
                "solve_rows",
                "gram_rows",
                "Executor::post_round",
                "Executor::complete_round",
                "post_exchange",
                "complete_exchange",
                "try_allreduce_sum_with",
            ]),
            l8_skip_prefixes: own(&["crates/obs/src", "crates/cluster/src/sim.rs"]),
            // Name-collision pruning: method calls resolve by name, so a
            // handful of common names drag unrelated (and allocating)
            // one-shot or builder code into the steady-state graph.
            l8_stop_fns: own(&[
                // `.run(…)` on a ThreadPool also resolves to the one-shot
                // Cluster bootstrap; setup allocations are not steady state.
                "Cluster::run",
                // `Vec::push` on kernel scratch also resolves to the
                // ingest-time COO builder.
                "SparseTensorBuilder::push",
                // `.shape()` accessors also resolve to the KruskalTensor
                // accessor, which collects a fresh Vec for callers.
                "KruskalTensor::shape",
                // `slice::get` on plan metadata also resolves to the
                // random-access COO probe (test/debug surface).
                "SparseTensor::get",
            ]),
            crate_deps: vec![
                ("obs".to_string(), vec![]),
                ("tensor".to_string(), vec!["obs".to_string()]),
                (
                    "partition".to_string(),
                    vec!["tensor".to_string(), "obs".to_string()],
                ),
                ("data".to_string(), vec!["tensor".to_string()]),
                ("cluster".to_string(), vec!["obs".to_string()]),
                (
                    "core".to_string(),
                    vec![
                        "tensor".to_string(),
                        "partition".to_string(),
                        "cluster".to_string(),
                        "obs".to_string(),
                    ],
                ),
                // The bench library sits between the bins and the library
                // crates; only L10 indexes it.
                (
                    "bench".to_string(),
                    own(&["obs", "tensor", "partition", "cluster", "data", "core"]),
                ),
            ],
            l10_root_prefixes: own(&[
                "crates/bench/src/bin",
                "crates/bench/benches",
                "examples",
                "benchmark/src",
            ]),
        }
    }
}

/// Result of one analysis pass: L6–L8 findings (L8 allow-filtered), and
/// the audit-table names that match no function ([`stale_table_entries`]).
/// The stale findings are folded into `diags` only by the workspace
/// driver: fixtures deliberately define a fraction of the tables' names.
#[derive(Debug, Default)]
pub struct Analysis {
    pub diags: Vec<Diagnostic>,
    pub stale_tables: Vec<Diagnostic>,
    pub fn_count: usize,
    /// The L10 surface; filled by `workspace::analyze_workspace`, which
    /// also reads the program files (see [`crate::unreached`]).
    pub unreached: Vec<crate::unreached::UnreachedFn>,
}

/// Where the audit tables live, for anchoring stale-entry findings.
const TABLES_PATH: &str = "crates/xtask/src/analyze.rs";

/// Runs L6–L8 over the given `(workspace-relative path, source)` set.
pub fn analyze_files(files: &[(PathBuf, String)], cfg: &AnalyzeConfig) -> Analysis {
    let mut graph = CallGraph::build(files);
    graph.set_crate_deps(&cfg.crate_deps);
    let graph = graph;
    // `lint:allow` directives, per file, from a second lex (cheap, and
    // keeps the graph builder comment-free).
    let mut allows: BTreeMap<&Path, BTreeMap<u32, BTreeSet<LintId>>> = BTreeMap::new();
    for (path, src) in files {
        allows.insert(path.as_path(), lints::collect_allows(&lexer::lex(src)));
    }
    let allowed = |lint: LintId, file: &Path, line: u32| {
        allows
            .get(file)
            .and_then(|m| m.get(&line))
            .is_some_and(|set| set.contains(&lint))
    };

    let mut diags = Vec::new();
    l6_collective_order(&graph, cfg, &mut diags);
    l7_panic_reachability(&graph, &mut diags);
    l8_alloc_hygiene(&graph, cfg, &allowed, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    Analysis {
        diags,
        stale_tables: stale_table_entries(&graph, cfg),
        fn_count: graph.fns.len(),
        unreached: Vec::new(),
    }
}

/// One finding per name in [`COLLECTIVES`], `l6_entries`, `l8_entries` or
/// `l8_stop_fns` that matches no function in the index.  The audits look
/// functions up by name, so a rename that leaves its table entry behind
/// would otherwise switch the audit off without a word: an unknown entry
/// point roots nothing, an unknown collective is never a collective site.
fn stale_table_entries(graph: &CallGraph, cfg: &AnalyzeConfig) -> Vec<Diagnostic> {
    // Each table is matched the way its audit matches it: collectives by
    // bare method name, entry points through `find_entry`, stop functions
    // through `matches_spec`.
    let collectives: Vec<String> = COLLECTIVES.iter().map(|s| s.to_string()).collect();
    let is_fn_name = |name: &str| graph.fns.iter().any(|f| f.name == name);
    let is_entry = |spec: &str| !find_entry(graph, spec).is_empty();
    let is_stop_fn = |spec: &str| graph.fns.iter().any(|f| matches_spec(f, spec));
    type Known<'a> = &'a dyn Fn(&str) -> bool;
    let tables: [(&str, LintId, &[String], Known); 4] = [
        (
            "COLLECTIVES",
            LintId::CollectiveOrder,
            &collectives,
            &is_fn_name,
        ),
        (
            "l6_entries",
            LintId::CollectiveOrder,
            &cfg.l6_entries,
            &is_entry,
        ),
        (
            "l8_entries",
            LintId::AllocHygiene,
            &cfg.l8_entries,
            &is_entry,
        ),
        (
            "l8_stop_fns",
            LintId::AllocHygiene,
            &cfg.l8_stop_fns,
            &is_stop_fn,
        ),
    ];
    let mut out = Vec::new();
    for (table, lint, names, known) in tables {
        for name in names.iter().filter(|n| !known(n)) {
            out.push(Diagnostic {
                file: PathBuf::from(TABLES_PATH),
                line: 1,
                col: 1,
                lint,
                message: format!(
                    "stale table entry `{name}` in `{table}`: no function in the index has \
                     that name, so the audit it configures is silently narrower; update the \
                     table to the renamed function or drop the entry"
                ),
            });
        }
    }
    out
}

fn file_name_in(def: &FnDef, names: &[String]) -> bool {
    def.file
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| names.iter().any(|n| n == f))
}

fn path_has_prefix(def: &FnDef, prefixes: &[String]) -> bool {
    let p = def.file.to_string_lossy().replace('\\', "/");
    prefixes.iter().any(|pre| p.starts_with(pre.as_str()))
}

// ---- L6: collective order ------------------------------------------------

/// Unlike L8, L6 honours no `lint:allow`: no rank takes a decision on
/// behalf of the others, so a rank-conditioned collective is always a bug.
fn l6_collective_order(graph: &CallGraph, cfg: &AnalyzeConfig, out: &mut Vec<Diagnostic>) {
    let performs = transitively(graph, is_collective_site);

    let roots: Vec<usize> = cfg
        .l6_entries
        .iter()
        .flat_map(|e| find_entry(graph, e))
        .collect();
    let parents = graph.reach(&roots, |def| !file_name_in(def, &cfg.l6_exempt_files));
    for &i in parents.keys() {
        let def = &graph.fns[i];
        if file_name_in(def, &cfg.l6_exempt_files) {
            continue;
        }
        for call in &def.calls {
            let Some(branch) = &call.rank_branch else {
                continue;
            };
            let verb = if is_collective_site(call) {
                "is a collective"
            } else if graph.resolve(i, call).iter().any(|&t| performs[t]) {
                "performs collectives"
            } else {
                continue;
            };
            out.push(Diagnostic {
                file: def.file.clone(),
                line: call.line,
                col: call.col,
                lint: LintId::CollectiveOrder,
                message: format!(
                    "`{}` {} under a rank-conditioned branch (`{}` at line {}); every rank \
                     must reach the same collective sequence — hoist the call out of the \
                     branch [chain: {}]",
                    call.name,
                    verb,
                    branch.excerpt,
                    branch.line,
                    graph.chain(&parents, i)
                ),
            });
        }
    }
}

/// Fixpoint over the graph: per function, whether it contains a call site
/// `site` accepts or calls something that does.
fn transitively(graph: &CallGraph, site: impl Fn(&CallSite) -> bool) -> Vec<bool> {
    let n = graph.fns.len();
    let mut hit: Vec<bool> = graph
        .fns
        .iter()
        .map(|f| f.calls.iter().any(&site))
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !hit[i]
                && graph.fns[i]
                    .calls
                    .iter()
                    .any(|c| graph.resolve(i, c).iter().any(|&t| hit[t]))
            {
                hit[i] = true;
                changed = true;
            }
        }
        if !changed {
            return hit;
        }
    }
}

fn is_collective_site(call: &CallSite) -> bool {
    !matches!(call.kind, CallKind::Macro) && COLLECTIVES.contains(&call.name.as_str())
}

/// Entry spec: `name` or `Qual::name`.
fn find_entry(graph: &CallGraph, spec: &str) -> Vec<usize> {
    match spec.split_once("::") {
        Some((q, n)) => graph.find(Some(q), n),
        None => graph.find(None, spec),
    }
}

/// Whether a definition matches a `name` / `Qual::name` spec.
fn matches_spec(def: &FnDef, spec: &str) -> bool {
    match spec.split_once("::") {
        Some((q, n)) => def.qual.as_deref() == Some(q) && def.name == n,
        None => def.qual.is_none() && def.name == spec,
    }
}

// ---- L7: panic reachability ----------------------------------------------

/// One finding per `pub fn` that transitively reaches a panic site: the
/// L1 token set, `lint:allow`ed sites included, because a public function
/// of a library crate answers every input with a value or a typed error.
/// The finding sits at the function's definition and gives the chain to
/// the nearest site, and how many distinct sites it reaches.
fn l7_panic_reachability(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let panics = transitively(graph, is_panic_site);
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.is_pub || !panics[i] {
            continue;
        }
        let parents = graph.reach(&[i], |_| true);
        let depth = |mut j: usize| {
            let mut d = 0;
            while let Some(Some((p, _, _))) = parents.get(&j) {
                j = *p;
                d += 1;
            }
            d
        };
        let mut sites: BTreeSet<(&Path, u32, u32)> = BTreeSet::new();
        let mut nearest: Option<(usize, usize, &CallSite)> = None;
        for &j in parents.keys() {
            let def = &graph.fns[j];
            for call in def.calls.iter().filter(|c| is_panic_site(c)) {
                sites.insert((&def.file, call.line, call.col));
                if nearest.map_or(true, |(d, _, _)| depth(j) < d) {
                    nearest = Some((depth(j), j, call));
                }
            }
        }
        let Some((_, j, call)) = nearest else {
            continue;
        };
        let site = match call.kind {
            CallKind::Macro => format!("`{}!`", call.name),
            _ => format!("`.{}()`", call.name),
        };
        out.push(Diagnostic {
            file: f.file.clone(),
            line: f.line,
            col: f.col,
            lint: LintId::PanicReachability,
            message: format!(
                "public `{}` reaches {} panic site(s), the nearest {site} at {}:{}:{}; \
                 return a typed error instead [chain: {}]",
                f.display_name(),
                sites.len(),
                graph.fns[j].file.display(),
                call.line,
                call.col,
                graph.chain(&parents, j)
            ),
        });
    }
}

fn is_panic_site(call: &CallSite) -> bool {
    match call.kind {
        CallKind::Method => lints::L1_METHODS.iter().any(|(m, _)| *m == call.name),
        CallKind::Macro => lints::L1_MACROS.contains(&call.name.as_str()),
        _ => false,
    }
}

// ---- L8: hot-path allocation hygiene -------------------------------------

fn l8_alloc_hygiene(
    graph: &CallGraph,
    cfg: &AnalyzeConfig,
    allowed: &impl Fn(LintId, &Path, u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let roots: Vec<usize> = cfg
        .l8_entries
        .iter()
        .flat_map(|e| find_entry(graph, e))
        .collect();
    let stopped = |def: &FnDef| cfg.l8_stop_fns.iter().any(|s| matches_spec(def, s));
    let parents = graph.reach(&roots, |def| {
        !path_has_prefix(def, &cfg.l8_skip_prefixes) && !stopped(def)
    });
    for &i in parents.keys() {
        let def = &graph.fns[i];
        if path_has_prefix(def, &cfg.l8_skip_prefixes) || stopped(def) {
            continue;
        }
        for call in &def.calls {
            let Some(what) = alloc_site(call) else {
                continue;
            };
            if allowed(LintId::AllocHygiene, &def.file, call.line) {
                continue;
            }
            out.push(Diagnostic {
                file: def.file.clone(),
                line: call.line,
                col: call.col,
                lint: LintId::AllocHygiene,
                message: format!(
                    "{what} on the steady-state path; preallocate or pool instead, or carry \
                     a reasoned `lint:allow(alloc_hygiene)` [chain: {}]",
                    graph.chain(&parents, i)
                ),
            });
        }
    }
}

fn alloc_site(call: &CallSite) -> Option<String> {
    match &call.kind {
        CallKind::Method if ALLOC_METHODS.contains(&call.name.as_str()) => {
            Some(format!("`.{}()` allocates", call.name))
        }
        CallKind::Macro if ALLOC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("`{}!` allocates", call.name))
        }
        CallKind::Qualified(q)
            if ALLOC_QUAL_TYPES.contains(&q.as_str())
                && ALLOC_QUAL_FNS.contains(&call.name.as_str()) =>
        {
            Some(format!("`{}::{}` allocates", q, call.name))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnalyzeConfig {
        AnalyzeConfig {
            l6_entries: vec!["worker_body".into()],
            l6_exempt_files: vec!["runtime.rs".into()],
            l8_entries: vec!["hot".into()],
            l8_skip_prefixes: vec!["src/obs".into()],
            l8_stop_fns: vec![],
            crate_deps: vec![],
            l10_root_prefixes: vec![],
        }
    }

    fn run(src: &str) -> Analysis {
        analyze_files(&[(PathBuf::from("src/a.rs"), src.to_string())], &cfg())
    }

    #[test]
    fn l6_flags_rank_branched_collectives_and_transitive_helpers() {
        let a = run("\
fn worker_body(ctx: &mut Ctx, me: usize) {
    if me == 0 {
        ctx.try_barrier();
        helper(ctx);
    }
    ctx.try_barrier();
}
fn helper(ctx: &mut Ctx) { ctx.try_gather(0, None); }
");
        let lines: Vec<(LintId, u32)> = a.diags.iter().map(|d| (d.lint, d.line)).collect();
        assert_eq!(
            lines,
            vec![(LintId::CollectiveOrder, 3), (LintId::CollectiveOrder, 4)],
            "{:#?}",
            a.diags
        );
        assert!(a.diags[1].message.contains("performs collectives"));
        assert!(a.diags[0]
            .message
            .contains("chain: worker_body (src/a.rs:1:4)"));
    }

    #[test]
    fn l7_counts_distinct_reachable_panic_sites() {
        let a = run("\
pub fn api(x: Option<u32>) -> u32 {
    inner(x);
    x.unwrap()
}
fn inner(x: Option<u32>) { x.expect(\"set\"); }
pub fn quiet(x: u32) -> u32 { x }
");
        let found: Vec<(LintId, u32, u32)> =
            a.diags.iter().map(|d| (d.lint, d.line, d.col)).collect();
        assert_eq!(
            found,
            vec![(LintId::PanicReachability, 1, 8)],
            "{:#?}",
            a.diags
        );
        let message = &a.diags[0].message;
        assert!(
            message.contains("reaches 2 panic site(s), the nearest `.unwrap()` at src/a.rs:3:7"),
            "{message}"
        );
        assert!(message.contains("[chain: api (src/a.rs:1:8)]"), "{message}");
    }

    #[test]
    fn l8_flags_allocations_with_chain_and_honours_allow() {
        let a = run("\
fn hot(xs: &[f64]) {
    warm(xs);
}
fn warm(xs: &[f64]) {
    let _v = xs.to_vec();
    let _w = xs.to_vec(); // lint:allow(alloc_hygiene): measured, cold
    let _b = Vec::with_capacity(4);
}
");
        let lines: Vec<(LintId, u32)> = a.diags.iter().map(|d| (d.lint, d.line)).collect();
        assert_eq!(
            lines,
            vec![(LintId::AllocHygiene, 5), (LintId::AllocHygiene, 7)],
            "{:#?}",
            a.diags
        );
        assert!(a.diags[0]
            .message
            .contains("hot (src/a.rs:1:4) -> warm (called at src/a.rs:2:5)"));
    }
}
