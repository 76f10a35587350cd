//! The per-file project lints, L1–L5 and L9, over the token stream of
//! [`crate::lexer`].
//!
//! Each lint walks a [`LexedFile`], skips tokens inside test regions,
//! and emits [`Diagnostic`]s with exact `file:line:col` positions.  A
//! violation can be acknowledged in place with an escape-hatch comment:
//!
//! ```text
//! let t = Instant::now(); // lint:allow(determinism): timeout backstop only
//! ```
//!
//! The directive suppresses the named lint on its own line or, when it
//! stands alone on a line (attribute style), on the next code line
//! below it — blank lines and further comments in between don't break
//! the binding.  A reason after the `:` is mandatory by convention
//! (reviewed like any other comment) but not machine-enforced.
//!
//! The interprocedural lints L6–L8 live in [`crate::analyze`]; their
//! [`LintId`]s and allow-directive plumbing are shared from here.

use crate::lexer::{LexedFile, Token, TokenKind};
use dismastd_obs::taxonomy::{self, InstrumentKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifies one lint; the `name` doubles as the allow-directive key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// L1: no `unwrap`/`expect`/panic-macros in production code.
    PanicPath,
    /// L2: no nondeterministic containers, clocks, or RNG in the crates
    /// feeding the bit-identical distributed path.
    Determinism,
    /// L3: every obs span/counter/histogram label resolves in the
    /// registered taxonomy.
    SpanTaxonomy,
    /// L4: public fallible APIs return the typed project errors, not
    /// `Box<dyn Error>`.
    ErrorHygiene,
    /// L5: no raw OS-clock calls (`Instant::now`, `SystemTime::now`,
    /// `thread::sleep`) outside the clock module — time must flow
    /// through the `Clock` abstraction so simulation can virtualise it.
    ClockHygiene,
    /// L6: no collective call reachable from `worker_body` may sit
    /// under a branch conditioned on rank-local state (interprocedural;
    /// see [`crate::analyze`]).
    CollectiveOrder,
    /// L7: no public function of a library crate transitively reaches a
    /// panic site (interprocedural; see [`crate::analyze`]).
    PanicReachability,
    /// L8: nothing reachable from the steady-state MTTKRP/exchange/gram
    /// entry points calls an allocating constructor or method
    /// (interprocedural).
    AllocHygiene,
    /// L9: no unchecked `as u32` in the crates that store coordinates and
    /// row ids as `u32` — a narrowing either sits behind a named range
    /// check (and says which) or goes through `try_from`.
    NarrowingCast,
    /// L10: every public function of the library crates is reached from a
    /// program or an api root, or listed in the test-only budget
    /// (interprocedural; see [`crate::unreached`]).
    Unreached,
}

impl LintId {
    pub fn code(self) -> &'static str {
        match self {
            LintId::PanicPath => "L1",
            LintId::Determinism => "L2",
            LintId::SpanTaxonomy => "L3",
            LintId::ErrorHygiene => "L4",
            LintId::ClockHygiene => "L5",
            LintId::CollectiveOrder => "L6",
            LintId::PanicReachability => "L7",
            LintId::AllocHygiene => "L8",
            LintId::NarrowingCast => "L9",
            LintId::Unreached => "L10",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LintId::PanicPath => "panic_path",
            LintId::Determinism => "determinism",
            LintId::SpanTaxonomy => "span_taxonomy",
            LintId::ErrorHygiene => "error_hygiene",
            LintId::ClockHygiene => "clock_hygiene",
            LintId::CollectiveOrder => "collective_order",
            LintId::PanicReachability => "panic_reachability",
            LintId::AllocHygiene => "alloc_hygiene",
            LintId::NarrowingCast => "narrowing_cast",
            LintId::Unreached => "unreached",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "panic_path" => Some(LintId::PanicPath),
            "determinism" => Some(LintId::Determinism),
            "span_taxonomy" => Some(LintId::SpanTaxonomy),
            "error_hygiene" => Some(LintId::ErrorHygiene),
            "clock_hygiene" => Some(LintId::ClockHygiene),
            "collective_order" => Some(LintId::CollectiveOrder),
            "panic_reachability" => Some(LintId::PanicReachability),
            "alloc_hygiene" => Some(LintId::AllocHygiene),
            "narrowing_cast" => Some(LintId::NarrowingCast),
            _ => None,
        }
    }
}

/// One lint finding at an exact source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub lint: LintId,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}({}): {}",
            self.file.display(),
            self.line,
            self.col,
            self.lint.code(),
            self.lint.name(),
            self.message
        )
    }
}

impl Diagnostic {
    /// One JSON object per diagnostic (one line, no trailing newline),
    /// for `--json` consumers.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"col":{},"code":"{}","lint":"{}","message":"{}"}}"#,
            json_escape(&self.file.display().to_string()),
            self.line,
            self.col,
            self.lint.code(),
            self.lint.name(),
            json_escape(&self.message)
        )
    }

    /// A GitHub Actions workflow annotation (`::error …`), for
    /// `--github` mode: failures render inline on the PR diff.
    pub fn to_github(&self) -> String {
        format!(
            "::error file={},line={},col={},title={}({})::{}",
            self.file.display(),
            self.line,
            self.col,
            self.lint.code(),
            self.lint.name(),
            github_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The workflow-command data encoding: `%`, CR, LF must be escaped.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Which lints run on a file; see [`crate::workspace`] for the per-crate
/// scoping table.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintScope {
    pub panic_path: bool,
    pub determinism: bool,
    pub span_taxonomy: bool,
    pub error_hygiene: bool,
    pub clock_hygiene: bool,
    pub narrowing_cast: bool,
}

impl LintScope {
    pub const ALL: LintScope = LintScope {
        panic_path: true,
        determinism: true,
        span_taxonomy: true,
        error_hygiene: true,
        clock_hygiene: true,
        narrowing_cast: true,
    };
}

/// Lints one file's source under the given scope, returning every
/// unsuppressed diagnostic in source order.
pub fn lint_source(path: &Path, src: &str, scope: LintScope) -> Vec<Diagnostic> {
    let file = crate::lexer::lex(src);
    let allows = collect_allows(&file);
    let mut diags = Vec::new();
    if scope.panic_path {
        l1_panic_path(path, &file, &mut diags);
    }
    if scope.determinism {
        l2_determinism(path, &file, &mut diags);
    }
    if scope.span_taxonomy {
        l3_span_taxonomy(path, &file, &mut diags);
    }
    if scope.error_hygiene {
        l4_error_hygiene(path, &file, &mut diags);
    }
    if scope.clock_hygiene {
        l5_clock_hygiene(path, &file, &mut diags);
    }
    if scope.narrowing_cast {
        l9_narrowing_cast(path, &file, &mut diags);
    }
    diags.retain(|d| !is_allowed(&allows, d.lint, d.line));
    diags.sort_by_key(|d| (d.line, d.col, d.lint));
    diags
}

/// Parses `lint:allow(name[, name…])` directives out of the comments.
///
/// A *trailing* directive (code precedes it on the line) covers its own
/// line; a *standalone* comment line covers the next code line below it
/// (attribute style — intervening blank or comment-only lines don't
/// break the binding).  Shared with [`crate::analyze`] so the
/// interprocedural lints honour the same escape hatch.
pub(crate) fn collect_allows(file: &LexedFile) -> BTreeMap<u32, BTreeSet<LintId>> {
    let code_lines: BTreeSet<u32> = file.tokens.iter().map(|t| t.line).collect();
    let mut allows: BTreeMap<u32, BTreeSet<LintId>> = BTreeMap::new();
    for c in &file.comments {
        let Some(start) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[start + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let target = if code_lines.contains(&c.line) {
            c.line
        } else {
            // Standalone: bind to the next line that carries code; fall
            // back to the adjacent line when the file ends in comments.
            code_lines
                .range(c.line + 1..)
                .next()
                .copied()
                .unwrap_or(c.line + 1)
        };
        for name in rest[..end].split(',') {
            if let Some(id) = LintId::from_name(name.trim()) {
                allows.entry(target).or_default().insert(id);
            }
        }
    }
    allows
}

/// A violation is suppressed when a directive targets its line.
fn is_allowed(allows: &BTreeMap<u32, BTreeSet<LintId>>, lint: LintId, line: u32) -> bool {
    allows.get(&line).is_some_and(|set| set.contains(&lint))
}

fn diag(path: &Path, t: &Token, lint: LintId, message: String) -> Diagnostic {
    Diagnostic {
        file: path.to_path_buf(),
        line: t.line,
        col: t.col,
        lint,
        message,
    }
}

/// True when token `i` is an identifier with the given text.
fn is_ident(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c))
}

// ---- L1: panic-path ------------------------------------------------------

/// Methods whose mere presence on a production path is a violation:
/// `.name(` panics instead of surfacing a typed error.  L7 reuses this
/// set to count reachable panic sites.
pub(crate) const L1_METHODS: &[(&str, &str)] = &[
    (
        "unwrap",
        "use `?`, a typed error, or a handled match instead",
    ),
    (
        "expect",
        "use `?`, a typed error, or a handled match instead",
    ),
    ("unwrap_err", "use a handled match instead"),
    ("expect_err", "use a handled match instead"),
    (
        "unwrap_unchecked",
        "unchecked unwrap hides the panic as UB; use a typed error",
    ),
];

/// Macros that abort the process on a reachable path (shared with L7).
pub(crate) const L1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn l1_panic_path(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test_code(t) {
            continue;
        }
        // `.method(` — require the receiver dot so `fn expect(` defs and
        // plain idents stay clean.
        if i > 0 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(') {
            if let Some((_, hint)) = L1_METHODS.iter().find(|(m, _)| *m == t.text) {
                out.push(diag(
                    path,
                    t,
                    LintId::PanicPath,
                    format!("`.{}()` can panic on a production path; {}", t.text, hint),
                ));
            }
        }
        // `macro!(` — panic-family macros.
        if is_punct(toks, i + 1, '!') && L1_MACROS.contains(&t.text.as_str()) {
            out.push(diag(
                path,
                t,
                LintId::PanicPath,
                format!(
                    "`{}!` aborts on a reachable path; return a typed error instead",
                    t.text
                ),
            ));
        }
    }
}

// ---- L2: determinism -----------------------------------------------------

const L2_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is nondeterministic; use BTreeMap on the bit-identical path",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic; use BTreeSet on the bit-identical path",
    ),
    (
        "RandomState",
        "randomized hasher breaks replayability; use a BTree container",
    ),
    (
        "DefaultHasher",
        "hasher seeding is process-local; use a seeded/stable hash",
    ),
    (
        "SystemTime",
        "wall-clock reads are nondeterministic; thread a logical timestamp instead",
    ),
    (
        "Instant",
        "monotonic-clock reads are nondeterministic; keep them off factor math",
    ),
    (
        "thread_rng",
        "OS-seeded RNG breaks replayability; use a seeded ChaCha RNG",
    ),
    (
        "from_entropy",
        "OS-seeded RNG breaks replayability; use a seeded ChaCha RNG",
    ),
];

/// Thread-creation entry points (`thread::<name>`) covered by the
/// confinement rule below.
const L2_THREAD_ENTRY: &[&str] = &["spawn", "Builder", "scope"];

/// Modules sanctioned to create threads: the worker pool owns the
/// intra-rank lanes and the cluster runtime owns the per-rank threads.
/// The exemption is per-rule — every other L2 check still applies there.
fn may_spawn_threads(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|f| f == "pool.rs" || f == "runtime.rs")
}

fn l2_determinism(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let may_spawn = may_spawn_threads(path);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test_code(t) {
            continue;
        }
        if let Some((_, hint)) = L2_IDENTS.iter().find(|(m, _)| *m == t.text) {
            out.push(diag(
                path,
                t,
                LintId::Determinism,
                format!("`{}` in a deterministic crate; {}", t.text, hint),
            ));
        }
        // Threading confinement: `thread::spawn` / `thread::Builder` /
        // `thread::scope` outside the sanctioned modules.  Ad-hoc threads
        // bypass the pool's chunk accounting and the runtime's rank
        // supervision, and recordings made on them are silently dropped
        // (`::` lexes as two `:` puncts).
        if !may_spawn
            && t.text == "thread"
            && is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && toks.get(i + 3).is_some_and(|n| {
                n.kind == TokenKind::Ident && L2_THREAD_ENTRY.contains(&n.text.as_str())
            })
        {
            let entry = &toks[i + 3].text;
            out.push(diag(
                path,
                t,
                LintId::Determinism,
                format!(
                    "`thread::{entry}` outside pool.rs/runtime.rs; spawn through \
                     `ThreadPool` (or the cluster runtime) so chunk accounting \
                     and metric absorption stay intact"
                ),
            ));
        }
        // `rand::random` — the implicitly thread-seeded helper (`::`
        // lexes as two `:` puncts).
        if t.text == "random"
            && i >= 3
            && is_ident(toks, i - 3, "rand")
            && is_punct(toks, i - 2, ':')
            && is_punct(toks, i - 1, ':')
        {
            out.push(diag(
                path,
                t,
                LintId::Determinism,
                "`rand::random` is thread-seeded; use a seeded ChaCha RNG".to_string(),
            ));
        }
    }
}

// ---- L3: span taxonomy ---------------------------------------------------

const L3_CALLS: &[(&str, InstrumentKind)] = &[
    ("span", InstrumentKind::Span),
    ("span_with", InstrumentKind::Span),
    ("counter_add", InstrumentKind::Counter),
    ("counter_add_with", InstrumentKind::Counter),
    ("histogram_record", InstrumentKind::Histogram),
];

fn l3_span_taxonomy(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test_code(t) {
            continue;
        }
        let Some(&(_, kind)) = L3_CALLS.iter().find(|(m, _)| *m == t.text) else {
            continue;
        };
        // `name("label"` or the `span!("label"` macro form.
        let lit_idx = if is_punct(toks, i + 1, '(') {
            i + 2
        } else if is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '(') {
            i + 3
        } else {
            continue;
        };
        let Some(lit) = toks.get(lit_idx) else {
            continue;
        };
        if lit.kind != TokenKind::Str {
            continue; // dynamic name: out of scope for the static table
        }
        if !taxonomy::is_registered(kind, &lit.text) {
            let family = kind.table();
            let suggestion = closest_label(&lit.text, family)
                .map(|s| format!("; did you mean \"{s}\"?"))
                .unwrap_or_default();
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: lit.line,
                col: lit.col,
                lint: LintId::SpanTaxonomy,
                message: format!(
                    "\"{}\" is not a registered {:?} label (see dismastd_obs::taxonomy){}",
                    lit.text, kind, suggestion
                ),
            });
        }
    }
}

/// Cheap nearest-neighbour over the registry for "did you mean" hints:
/// smallest edit distance, accepted when within 3 edits.
fn closest_label(name: &str, table: &[&'static str]) -> Option<&'static str> {
    table
        .iter()
        .map(|cand| (edit_distance(name, cand), *cand))
        .min()
        .filter(|(d, _)| *d <= 3)
        .map(|(_, c)| c)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

// ---- L4: error hygiene ---------------------------------------------------

fn l4_error_hygiene(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || t.text != "Box" || file.in_test_code(t) {
            continue;
        }
        if !(is_punct(toks, i + 1, '<') && is_ident(toks, i + 2, "dyn")) {
            continue;
        }
        // Scan the generic argument to its matching `>`, looking for a
        // trait name ending in `Error`.
        let mut depth = 0isize;
        let mut j = i + 1;
        let mut names_error = false;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident if toks[j].text.ends_with("Error") => names_error = true,
                TokenKind::Punct(';') | TokenKind::Punct('{') => break,
                _ => {}
            }
            j += 1;
        }
        if names_error {
            out.push(diag(
                path,
                t,
                LintId::ErrorHygiene,
                "`Box<dyn …Error>` erases the typed error surface; return \
                 ClusterError / TensorError (or a crate error enum) instead"
                    .to_string(),
            ));
        }
    }
}

// ---- L5: clock hygiene ---------------------------------------------------

/// `Qualifier::method(` call patterns that read or burn real time.
/// Everywhere in scope, such calls must route through the
/// `dismastd_cluster::clock::Clock` abstraction so simulated runs stay
/// on virtual time; `clock.rs` itself is the one sanctioned home.
const L5_CALLS: &[(&str, &str, &str)] = &[
    (
        "thread",
        "sleep",
        "route delays through `Clock::sleep` so simulation can virtualise them",
    ),
    (
        "Instant",
        "now",
        "route time reads through `Clock::now_ns` so simulation can virtualise them",
    ),
    (
        "SystemTime",
        "now",
        "route time reads through `Clock::now_ns` so simulation can virtualise them",
    ),
];

fn l5_clock_hygiene(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    // The clock module IS the real/virtual time boundary; it alone may
    // touch the OS clock.
    if path.file_name().is_some_and(|f| f == "clock.rs") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test_code(t) {
            continue;
        }
        // `Qualifier :: method (` — `::` lexes as two `:` puncts.
        for &(qualifier, method, hint) in L5_CALLS {
            if t.text == qualifier
                && is_punct(toks, i + 1, ':')
                && is_punct(toks, i + 2, ':')
                && is_ident(toks, i + 3, method)
                && is_punct(toks, i + 4, '(')
            {
                out.push(diag(
                    path,
                    t,
                    LintId::ClockHygiene,
                    format!("`{qualifier}::{method}()` bypasses the clock abstraction; {hint}"),
                ));
            }
        }
    }
}

// ---- L9: narrowing cast --------------------------------------------------

/// `<expr> as u32` truncates silently.  `u32` is the index type of the
/// COO buffers, the MTTKRP plan and the routing tables, so in the crates
/// that fill them a narrowing must either be a literal, go through
/// `try_from`, or name — in its allow directive — the check that keeps it
/// in range.
fn l9_narrowing_cast(path: &Path, file: &LexedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 1..toks.len() {
        let t = &toks[i];
        if !(is_ident(toks, i, "as") && is_ident(toks, i + 1, "u32")) || file.in_test_code(t) {
            continue;
        }
        if toks[i - 1].kind == TokenKind::Literal {
            continue;
        }
        out.push(diag(
            path,
            t,
            LintId::NarrowingCast,
            "`as u32` truncates silently; use `u32::try_from`, or name the range check \
             that guards it in a `lint:allow(narrowing_cast)`"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, scope: LintScope) -> Vec<Diagnostic> {
        lint_source(Path::new("mem.rs"), src, scope)
    }

    #[test]
    fn l1_flags_unwrap_but_not_doc_comments_or_tests() {
        let src = "\
/// Example: `x.unwrap()` is fine in docs.
fn prod(x: Option<u32>) -> u32 { x.unwrap() }
#[cfg(test)]
mod t { fn f(x: Option<u32>) { x.unwrap(); } }
";
        let d = run(
            src,
            LintScope {
                panic_path: true,
                ..Default::default()
            },
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].lint, LintId::PanicPath);
    }

    #[test]
    fn l1_allow_directive_suppresses() {
        let src = "\
fn prod(x: Option<u32>) -> u32 {
    // lint:allow(panic_path): invariant — caller checked is_some
    x.unwrap()
}
fn prod2(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(panic_path): ditto
fn prod3(x: Option<u32>) -> u32 { x.unwrap() }
";
        let d = run(
            src,
            LintScope {
                panic_path: true,
                ..Default::default()
            },
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn standalone_allow_binds_across_blank_and_comment_lines() {
        let src = "\
fn prod(x: Option<u32>) -> u32 {
    // lint:allow(panic_path): invariant — caller checked is_some

    // (the blank line and this comment must not break the binding)
    x.unwrap()
}
";
        let d = run(
            src,
            LintScope {
                panic_path: true,
                ..Default::default()
            },
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn multi_lint_directive_covers_each_named_lint_only() {
        let src = "\
fn f() {
    let t = std::time::Instant::now(); // lint:allow(determinism, clock_hygiene): backstop
    let u = std::time::Instant::now(); // lint:allow(determinism): half-covered
    let _ = (t, u);
}
";
        let scope = LintScope {
            determinism: true,
            clock_hygiene: true,
            ..Default::default()
        };
        let d = run(src, scope);
        let got: Vec<(LintId, u32)> = d.iter().map(|d| (d.lint, d.line)).collect();
        assert_eq!(got, vec![(LintId::ClockHygiene, 3)], "{d:?}");
    }

    #[test]
    fn l2_flags_hash_containers_and_clocks() {
        let src = "\
use std::collections::HashMap;
fn now() -> std::time::SystemTime { std::time::SystemTime::now() }
";
        let d = run(
            src,
            LintScope {
                determinism: true,
                ..Default::default()
            },
        );
        let names: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert!(names.contains(&1) && names.contains(&2), "{d:?}");
    }

    #[test]
    fn l3_flags_unregistered_label_with_suggestion() {
        let src = "fn f() { let _s = dismastd_obs::span(\"phase/solv\"); }";
        let d = run(
            src,
            LintScope {
                span_taxonomy: true,
                ..Default::default()
            },
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("phase/solve"), "{}", d[0].message);
    }

    #[test]
    fn l3_accepts_registered_labels_and_macro_form() {
        let src = "\
fn f() {
    let _a = dismastd_obs::span(\"phase/mttkrp\");
    let _b = dismastd_obs::span!(\"kernel/plan_build\");
    dismastd_obs::counter_add(\"plan/rebuild\", 1);
}
";
        let d = run(
            src,
            LintScope {
                span_taxonomy: true,
                ..Default::default()
            },
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l5_flags_raw_clock_calls_but_exempts_the_clock_module() {
        let src = "\
use std::time::Duration;
pub fn nap() { std::thread::sleep(Duration::from_millis(5)); }
pub fn stamp() -> u64 { let t = std::time::Instant::now(); t.elapsed().as_nanos() as u64 }
pub fn sleepless(clock: &dyn Clock) { clock.sleep(0, Duration::from_millis(5)); }
";
        let scope = LintScope {
            clock_hygiene: true,
            ..Default::default()
        };
        let d = run(src, scope);
        let got: Vec<(LintId, u32)> = d.iter().map(|d| (d.lint, d.line)).collect();
        assert_eq!(
            got,
            vec![(LintId::ClockHygiene, 2), (LintId::ClockHygiene, 3)],
            "{d:?}"
        );
        // The clock module is the sanctioned boundary and lints clean.
        let exempt = lint_source(Path::new("clock.rs"), src, scope);
        assert!(exempt.is_empty(), "{exempt:?}");
    }

    #[test]
    fn l4_flags_box_dyn_error_but_not_box_dyn_any() {
        let src = "\
pub fn bad() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
pub fn fine(p: Box<dyn std::any::Any + Send>) { let _ = p; }
";
        let d = run(
            src,
            LintScope {
                error_hygiene: true,
                ..Default::default()
            },
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }
}
