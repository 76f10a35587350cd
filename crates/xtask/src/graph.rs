//! Workspace symbol index and call graph over [`crate::lexer`] token
//! streams — the substrate of the interprocedural lints (L6–L8).
//!
//! With no `syn` in the offline build environment, functions and call
//! sites are recovered structurally from the token stream: a scope stack
//! tracks `impl`/`trait` blocks (providing the qualifier of method
//! definitions), function bodies (attributing call sites to their
//! enclosing function, closures included), and conditional blocks
//! (`if`/`else if`/`match`/`while`), whose condition tokens are kept so
//! the collective-order lint can ask "is this branch conditioned on
//! rank-local state?".
//!
//! ## Resolution model (documented approximation)
//!
//! Calls resolve **by name**, not by type:
//!
//! - `Qualifier::name(...)` with an uppercase qualifier resolves to
//!   definitions of `name` inside an `impl Qualifier`/`trait Qualifier`
//!   block (with `Self` rewritten to the caller's own qualifier); no
//!   match means the call is external (`Vec::new`, `String::from`, …).
//! - `module::name(...)` (lowercase qualifier) and bare `name(...)`
//!   calls resolve to free functions named `name` anywhere in the
//!   indexed set.
//! - `.name(...)` method calls resolve to **every** indexed method of
//!   that name, whatever the receiver type — a deliberate
//!   over-approximation: reachability may include methods the receiver
//!   can never dispatch to, which errs on the side of auditing too much.
//!   Trait-object and generic dispatch are covered by the same rule.
//! - Macro invocations are leaves (`vec!`, `format!` matter to L8 as
//!   allocation sites, not as edges).
//!
//! Test regions (`#[cfg(test)]` / `#[test]`, as marked by the lexer)
//! contribute neither definitions nor call sites, but their braces still
//! feed the scope tracker so surrounding items stay correctly nested.

use crate::lexer::{LexedFile, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(` — method syntax.
    Method,
    /// `Qual::name(` — the immediate qualifier segment is kept.
    Qualified(String),
    /// `name(` — a free-function (or tuple-struct) call.
    Bare,
    /// `name!(`, `name![`, `name!{` — macro invocation (a leaf edge).
    Macro,
}

/// The innermost enclosing conditional whose condition mentions
/// rank-local state (`me`, `rank`, `my_rank`).
#[derive(Debug, Clone)]
pub struct RankBranch {
    /// Line of the `if`/`match`/`while` keyword.
    pub line: u32,
    /// The condition, re-joined from its tokens (for diagnostics).
    pub excerpt: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    pub line: u32,
    pub col: u32,
    /// Set when the call sits under a rank-conditioned branch.
    pub rank_branch: Option<RankBranch>,
}

/// One function definition discovered in the indexed set.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl`/`trait` subject type, `None` for free functions.
    pub qual: Option<String>,
    pub file: PathBuf,
    /// Position of the function's *name* token.
    pub line: u32,
    pub col: u32,
    /// `pub` without a visibility restriction (`pub(crate)` etc. do not
    /// count as public API surface).
    pub is_pub: bool,
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Qual::name` or bare `name` — the display form used in
    /// diagnostics and the test-only list.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph: every indexed function plus name-based
/// resolution indices.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual_name: BTreeMap<(String, String), Vec<usize>>,
    /// Transitive crate-dependency closure: `caller crate -> crates it
    /// may call into`.  Empty = no layering filter (fixtures).
    crate_deps: BTreeMap<String, BTreeSet<String>>,
}

/// Crate key of a workspace-relative path (`crates/<name>/…`).
fn crate_of(path: &Path) -> Option<&str> {
    path.to_str()?.strip_prefix("crates/")?.split('/').next()
}

impl CallGraph {
    /// Builds the graph from `(path, source)` pairs.  Paths should be
    /// workspace-relative so diagnostics and list entries are stable
    /// across machines.
    pub fn build<P: AsRef<Path>, S: AsRef<str>>(files: &[(P, S)]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (path, src) in files {
            let lexed = crate::lexer::lex(src.as_ref());
            extract_fns(path.as_ref(), &lexed, &mut graph.fns);
        }
        for (i, f) in graph.fns.iter().enumerate() {
            graph.by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(q) = &f.qual {
                graph
                    .by_qual_name
                    .entry((q.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        graph
    }

    /// Installs the crate-dependency layering filter from *direct*
    /// edges (`crate -> its dependencies`); the transitive closure is
    /// computed here.  With the filter set, [`CallGraph::resolve`]
    /// drops name matches that would require an edge the crate DAG
    /// forbids — e.g. a `.shape()` in `tensor` can never land on an
    /// impl in `core`, because `tensor` does not depend on `core`.
    pub fn set_crate_deps(&mut self, direct: &[(String, Vec<String>)]) {
        let mut closure: BTreeMap<String, BTreeSet<String>> = direct
            .iter()
            .map(|(c, deps)| (c.clone(), deps.iter().cloned().collect()))
            .collect();
        loop {
            let mut grew = false;
            let snapshot = closure.clone();
            for deps in closure.values_mut() {
                let extra: BTreeSet<String> = deps
                    .iter()
                    .filter_map(|d| snapshot.get(d))
                    .flatten()
                    .filter(|e| !deps.contains(*e))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    deps.extend(extra);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        self.crate_deps = closure;
    }

    /// Whether the layering filter permits `caller -> target`.  Files
    /// outside `crates/` are unconstrained.
    fn edge_allowed(&self, caller: usize, target: usize) -> bool {
        if self.crate_deps.is_empty() {
            return true;
        }
        let (Some(a), Some(b)) = (
            crate_of(&self.fns[caller].file),
            crate_of(&self.fns[target].file),
        ) else {
            return true;
        };
        a == b || self.crate_deps.get(a).is_some_and(|s| s.contains(b))
    }

    /// Indices of every definition named `name` (optionally restricted
    /// to a qualifier) — entry-point lookup for the lints.
    pub fn find(&self, qual: Option<&str>, name: &str) -> Vec<usize> {
        match qual {
            Some(q) => self
                .by_qual_name
                .get(&(q.to_string(), name.to_string()))
                .cloned()
                .unwrap_or_default(),
            None => self.by_name.get(name).cloned().unwrap_or_default(),
        }
    }

    /// Resolves one call site from `caller` to candidate definitions
    /// (empty for external calls and macros); see the module docs for
    /// the name-based approximation rules.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let mut out = self.resolve_unfiltered(caller, call);
        out.retain(|&t| self.edge_allowed(caller, t));
        out
    }

    fn resolve_unfiltered(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let candidates = |name: &str| self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
        match &call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Method => candidates(&call.name)
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual.is_some())
                .collect(),
            CallKind::Bare => candidates(&call.name)
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual.is_none())
                .collect(),
            CallKind::Qualified(q) => {
                let q = if q == "Self" {
                    match &self.fns[caller].qual {
                        Some(own) => own.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    q.clone()
                };
                if q.chars().next().is_some_and(char::is_uppercase) {
                    self.by_qual_name
                        .get(&(q, call.name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // `module::name` / `crate_name::name`: a free-fn path.
                    candidates(&call.name)
                        .iter()
                        .copied()
                        .filter(|&i| self.fns[i].qual.is_none())
                        .collect()
                }
            }
        }
    }

    /// Breadth-first reachability from `roots`.  `expand(def)` gates
    /// whether a definition's own call sites are traversed (lints use
    /// this to stop at sanctioned boundary modules).  Returns, for every
    /// reached definition, the edge it was first discovered through:
    /// `(caller index, call line, call col)` — `None` for roots — so
    /// diagnostics can print one full call chain per finding.
    pub fn reach(
        &self,
        roots: &[usize],
        mut expand: impl FnMut(&FnDef) -> bool,
    ) -> BTreeMap<usize, Option<(usize, u32, u32)>> {
        let mut seen: BTreeMap<usize, Option<(usize, u32, u32)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            if !expand(&self.fns[i]) {
                continue;
            }
            // Clone the call list so resolution can borrow the graph.
            let calls = self.fns[i].calls.clone();
            for call in &calls {
                for target in self.resolve(i, call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(target) {
                        e.insert(Some((i, call.line, call.col)));
                        queue.push_back(target);
                    }
                }
            }
        }
        seen
    }

    /// Renders the discovery chain from a root to `def` as
    /// `root (file:line:col) -> … -> def (file:line:col)`, where every
    /// hop after the first shows the *call site* inside the previous
    /// function.  The definition's own name token anchors the first hop.
    pub fn chain(
        &self,
        parents: &BTreeMap<usize, Option<(usize, u32, u32)>>,
        def: usize,
    ) -> String {
        let mut hops: Vec<String> = Vec::new();
        let mut cur = def;
        loop {
            match parents.get(&cur) {
                Some(Some((parent, line, col))) => {
                    let f = &self.fns[cur];
                    hops.push(format!(
                        "{} (called at {}:{}:{})",
                        f.display_name(),
                        self.fns[*parent].file.display(),
                        line,
                        col
                    ));
                    cur = *parent;
                }
                _ => {
                    let f = &self.fns[cur];
                    hops.push(format!(
                        "{} ({}:{}:{})",
                        f.display_name(),
                        f.file.display(),
                        f.line,
                        f.col
                    ));
                    break;
                }
            }
        }
        hops.reverse();
        hops.join(" -> ")
    }
}

/// Idents that can be followed by `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "in",
    "move", "ref", "mut", "as", "use", "where", "impl", "fn", "pub", "struct", "enum", "trait",
    "type", "mod", "const", "static", "unsafe", "async", "await", "dyn", "crate", "super", "self",
    "Self", "box", "yield",
];

/// Condition idents that mark a branch as rank-local: the per-worker
/// identity names used across the runtime and solver.
const RANK_IDENTS: &[&str] = &["me", "rank", "my_rank"];

/// What a `{` opened, for the scope stack.
#[derive(Debug, Clone)]
enum Scope {
    /// `impl Type { … }` / `trait Type { … }` — subject type name.
    Impl(String),
    /// A function body; the value restores `current_fn` on pop.
    Fn(Option<usize>),
    /// An `if`/`match`/`while` (or `else`) block.
    Branch {
        rank_local: bool,
        info: RankBranch,
    },
    Other,
}

/// A conditional header being scanned: everything between the keyword
/// and the block-opening `{` at parenthesis/bracket depth zero.
struct PendingBranch {
    line: u32,
    rank_local: bool,
    excerpt: String,
    depth: i32,
}

/// Extracts every function definition (with call sites and branch
/// context) from one lexed file into `out`.
fn extract_fns(path: &Path, file: &LexedFile, out: &mut Vec<FnDef>) {
    let toks = &file.tokens;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut current_fn: Option<usize> = None;
    // Pending headers, attached when their opening `{` arrives.
    let mut pending_impl: Option<String> = None;
    let mut pending_fn: Option<usize> = None;
    let mut pending_branch: Option<PendingBranch> = None;
    // Rank-locality inherited by an `else` / `else if` continuation.
    let mut else_inherits: Option<(bool, RankBranch)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Condition scan: accumulate until the block-opening `{`.
        if let Some(pb) = pending_branch.as_mut() {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => pb.depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => pb.depth -= 1,
                TokenKind::Punct('{') if pb.depth == 0 => {
                    let pb = pending_branch.take().expect("checked above");
                    let inherited = else_inherits.take().map(|(r, _)| r).unwrap_or(false);
                    scopes.push(Scope::Branch {
                        rank_local: pb.rank_local || inherited,
                        info: RankBranch {
                            line: pb.line,
                            excerpt: pb.excerpt.trim().to_string(),
                        },
                    });
                    i += 1;
                    continue;
                }
                TokenKind::Ident if RANK_IDENTS.contains(&t.text.as_str()) => {
                    pb.rank_local = true;
                }
                _ => {}
            }
            if pb.excerpt.len() < 60 {
                // Space only between word-like tokens, so `me == 0`
                // renders as `me==0`, not `me = = 0`.
                let wordy = !matches!(t.kind, TokenKind::Punct(_));
                if wordy
                    && pb
                        .excerpt
                        .ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '"')
                {
                    pb.excerpt.push(' ');
                }
                pb.excerpt.push_str(&t.text);
            }
            // Calls inside the condition still belong to the *enclosing*
            // branch context, so fall through to the call scan below.
        }
        // A group opened before the keyword just closed: the `if` was a
        // pattern guard inside it (`matches!(x, P if c)`), with no block.
        if pending_branch.as_ref().is_some_and(|pb| pb.depth < 0) {
            pending_branch = None;
        }

        match t.kind {
            TokenKind::Punct('{') => {
                if let Some(q) = pending_impl.take() {
                    scopes.push(Scope::Impl(q));
                } else if let Some(def) = pending_fn.take() {
                    scopes.push(Scope::Fn(current_fn));
                    current_fn = Some(def);
                } else if let Some((rank_local, info)) = else_inherits.take() {
                    // Bare `else { … }`: the arm is conditioned on the
                    // same state as the `if` it completes.
                    scopes.push(Scope::Branch { rank_local, info });
                } else {
                    scopes.push(Scope::Other);
                }
            }
            TokenKind::Punct('}') => {
                match scopes.pop() {
                    Some(Scope::Fn(prev)) => current_fn = prev,
                    // `} else` continues the same conditional.
                    Some(Scope::Branch { rank_local, info })
                        if is_ident_at(file, i + 1, "else") =>
                    {
                        else_inherits = Some((rank_local, info));
                    }
                    _ => {}
                }
            }
            TokenKind::Punct(';') => {
                // A signature without a body (trait method declaration).
                pending_fn = None;
            }
            TokenKind::Ident => {
                let in_test = file.in_test_code(t);
                match t.text.as_str() {
                    "impl" | "trait" => {
                        // Only item-position `impl`/`trait` opens a
                        // block: `impl Trait` in a signature (param or
                        // return position) has a pending fn, and inside
                        // a body it's a type, not an item.
                        if pending_branch.is_none() && pending_fn.is_none() && current_fn.is_none()
                        {
                            pending_impl = impl_subject(file, i);
                        }
                    }
                    "fn" => {
                        if let Some(name_tok) = toks.get(i + 1) {
                            if name_tok.kind == TokenKind::Ident && !in_test {
                                let qual = scopes.iter().rev().find_map(|s| match s {
                                    Scope::Impl(q) => Some(q.clone()),
                                    _ => None,
                                });
                                out.push(FnDef {
                                    name: name_tok.text.clone(),
                                    qual,
                                    file: path.to_path_buf(),
                                    line: name_tok.line,
                                    col: name_tok.col,
                                    is_pub: is_public_fn(file, i),
                                    calls: Vec::new(),
                                });
                                pending_fn = Some(out.len() - 1);
                            } else if name_tok.kind == TokenKind::Ident {
                                // Test-region fn: keep the scope stack
                                // honest without indexing it.
                                pending_fn = None;
                            }
                        }
                    }
                    "if" | "match" | "while" => {
                        if current_fn.is_some() && pending_branch.is_none() {
                            // `if let` / `while let` headers scan the same
                            // way; `else if` keeps `else_inherits` pending
                            // so the new branch ORs it in on push.
                            pending_branch = Some(PendingBranch {
                                line: t.line,
                                rank_local: false,
                                excerpt: String::new(),
                                depth: 0,
                            });
                        }
                    }
                    _ => {
                        if let (Some(def), false) = (current_fn, in_test) {
                            if let Some(call) = call_at(file, i) {
                                let rank_branch = scopes.iter().rev().find_map(|s| match s {
                                    Scope::Branch {
                                        rank_local: true,
                                        info,
                                    } => Some(info.clone()),
                                    _ => None,
                                });
                                out[def].calls.push(CallSite {
                                    rank_branch,
                                    ..call
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn is_ident_at(file: &LexedFile, i: usize, text: &str) -> bool {
    file.tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn is_punct_at(file: &LexedFile, i: usize, c: char) -> bool {
    file.tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct(c))
}

/// The subject type of an `impl`/`trait` header at token `i`: the last
/// path segment of the implemented-on type (after `for` when present),
/// scanning to the opening `{` with generic parameters skipped.
fn impl_subject(file: &LexedFile, i: usize) -> Option<String> {
    let toks = &file.tokens;
    let mut j = i + 1;
    let mut subject: Option<String> = None;
    let mut after_for = false;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => {
                // `->` never appears in an impl header's type position;
                // a bare `>` always closes a generic list here.
                angle -= 1;
            }
            TokenKind::Punct('{') if angle <= 0 => break,
            TokenKind::Punct(';') => break,
            TokenKind::Ident if angle == 0 => {
                if t.text == "for" {
                    after_for = true;
                    subject = None;
                } else if t.text == "where" {
                    break;
                } else if after_for || subject.is_none() || is_punct_at(file, j - 1, ':') {
                    // First segment, or a later `::` path segment —
                    // keep the last one seen at angle depth 0.
                    subject = Some(t.text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    subject
}

/// Whether the `fn` at token `i` is `pub` without a restriction.
/// Modifier idents (`const`, `unsafe`, `async`, `extern`) and ABI
/// strings may sit between `pub` and `fn`.
fn is_public_fn(file: &LexedFile, i: usize) -> bool {
    let toks = &file.tokens;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        match t.kind {
            TokenKind::Ident
                if matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern") =>
            {
                continue;
            }
            TokenKind::Str => continue, // extern "C"
            TokenKind::Ident if t.text == "pub" => {
                // `pub(crate)` / `pub(super)` / `pub(in …)` restrict
                // visibility: not public API surface.
                return !is_punct_at(file, j + 1, '(');
            }
            TokenKind::Punct(')') => {
                // Stepping back over `pub(crate)`'s restriction from the
                // right lands here; walk to its `(` and keep going.
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].kind {
                        TokenKind::Punct(')') => depth += 1,
                        TokenKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            _ => return false,
        }
    }
    false
}

/// Classifies the ident at token `i` as a call site, if it is one.
fn call_at(file: &LexedFile, i: usize) -> Option<CallSite> {
    let toks = &file.tokens;
    let t = &toks[i];
    if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // Macro invocation: `name!(` / `name![` / `name!{`.
    if is_punct_at(file, i + 1, '!')
        && toks.get(i + 2).is_some_and(|n| {
            matches!(
                n.kind,
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{')
            )
        })
    {
        return Some(CallSite {
            name: t.text.clone(),
            kind: CallKind::Macro,
            line: t.line,
            col: t.col,
            rank_branch: None,
        });
    }
    // Skip a turbofish (`::<…>`) between the name and the arguments.
    let mut j = i + 1;
    if is_punct_at(file, j, ':') && is_punct_at(file, j + 1, ':') && is_punct_at(file, j + 2, '<') {
        let mut angle = 0i32;
        j += 2;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if !is_punct_at(file, j - 1, '-') => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if !is_punct_at(file, j, '(') {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if i > 0 && is_ident_at(file, i - 1, "fn") {
        return None;
    }
    let kind = if i > 0 && is_punct_at(file, i - 1, '.') {
        CallKind::Method
    } else if i >= 3
        && is_punct_at(file, i - 1, ':')
        && is_punct_at(file, i - 2, ':')
        && toks.get(i - 3).is_some_and(|q| q.kind == TokenKind::Ident)
    {
        CallKind::Qualified(toks[i - 3].text.clone())
    } else {
        CallKind::Bare
    };
    Some(CallSite {
        name: t.text.clone(),
        kind,
        line: t.line,
        col: t.col,
        rank_branch: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        CallGraph::build(&[("g.rs", src)])
    }

    #[test]
    fn extracts_free_fns_methods_and_quals() {
        let g = graph_of(
            "\
pub fn free() { helper(); }
fn helper() {}
impl Widget {
    pub fn new() -> Self { Widget }
    fn spin(&self) { self.twirl(); Self::new(); }
    fn twirl(&self) {}
}
impl Display for Widget { fn fmt(&self) { write!(f, \"w\") } }
",
        );
        let names: Vec<String> = g.fns.iter().map(FnDef::display_name).collect();
        assert_eq!(
            names,
            vec![
                "free",
                "helper",
                "Widget::new",
                "Widget::spin",
                "Widget::twirl",
                "Widget::fmt"
            ]
        );
        assert!(g.fns[0].is_pub && !g.fns[1].is_pub);
        let spin = &g.fns[3];
        assert_eq!(spin.calls.len(), 2);
        assert_eq!(spin.calls[0].kind, CallKind::Method);
        // `Self::new()` resolves through the caller's own qualifier.
        let targets = g.resolve(3, &spin.calls[1]);
        assert_eq!(targets, vec![2]);
    }

    #[test]
    fn a_pattern_guard_inside_a_macro_opens_no_branch() {
        // The guard's `if` has no block of its own, so the impl after the
        // function still qualifies its methods.
        let g = graph_of(
            "\
fn pick(peers: &[Peer], me: usize) -> bool {
    matches!(peers[0], Peer { rank } if rank == me)
}
impl Widget { fn spin(&self) {} }
",
        );
        let names: Vec<String> = g.fns.iter().map(FnDef::display_name).collect();
        assert_eq!(names, vec!["pick", "Widget::spin"]);
    }

    #[test]
    fn rank_branches_mark_calls_and_else_arms_inherit() {
        let g = graph_of(
            "\
fn body(me: usize) {
    if me == 0 {
        decide();
    } else {
        follow();
    }
    if ready {
        always();
    }
    match me { _ => arm() }
}
",
        );
        let calls = &g.fns[0].calls;
        assert!(calls[0].rank_branch.is_some(), "then-arm is rank-local");
        assert!(calls[1].rank_branch.is_some(), "else-arm inherits");
        assert!(calls[2].rank_branch.is_none(), "plain branch is fine");
        assert!(calls[3].rank_branch.is_some(), "match on rank state");
        assert!(calls[0]
            .rank_branch
            .as_ref()
            .is_some_and(|b| b.excerpt.contains("me")));
    }

    #[test]
    fn test_regions_contribute_no_defs_or_calls() {
        let g = graph_of(
            "\
fn prod() { go(); }
#[cfg(test)]
mod t {
    fn helper() { prod(); }
}
",
        );
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].calls.len(), 1);
    }

    #[test]
    fn reach_records_parent_edges_for_chains() {
        let g = graph_of(
            "\
fn a() { b(); }
fn b() { c(); }
fn c() {}
",
        );
        let parents = g.reach(&[0], |_| true);
        assert_eq!(parents.len(), 3);
        let chain = g.chain(&parents, 2);
        assert_eq!(
            chain,
            "a (g.rs:1:4) -> b (called at g.rs:1:10) -> c (called at g.rs:2:10)"
        );
    }

    #[test]
    fn turbofish_and_macros_are_recognised() {
        let g = graph_of("fn f() { let v = items.collect::<Vec<_>>(); let w = vec![0u8; 4]; }");
        let calls = &g.fns[0].calls;
        assert_eq!(calls[0].name, "collect");
        assert_eq!(calls[0].kind, CallKind::Method);
        assert_eq!(calls[1].name, "vec");
        assert_eq!(calls[1].kind, CallKind::Macro);
    }
}
