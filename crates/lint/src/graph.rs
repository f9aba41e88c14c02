//! Workspace-level flow analysis: call graph, hot-path propagation,
//! lock-order composition, and the atomic-ordering audit.
//!
//! The per-file rules in [`crate::rules`] see one token stream at a
//! time; this module sees all of them at once. It builds a conservative
//! call graph from the scanned `fn` items (path resolution by
//! `crate::module::fn` qualifiers, method resolution by receiver type
//! hints with a same-crate name fallback), then runs three passes over
//! it:
//!
//! 1. **Hot-path propagation** — BFS from every `// qpp-lint: hot-path`
//!    root; the alloc/wallclock rules fire in any reachable
//!    function, with the call chain attached as provenance.
//!    `// qpp-lint: cold-path` marks a deliberate slow-path boundary
//!    and stops the propagation.
//! 2. **Lock-order** — per-function acquisition sequences (guard
//!    lifetimes tracked through scopes and `drop`), composed through
//!    the call graph; any cycle in the lock-order graph is reported
//!    with its full witness path.
//! 3. **Atomic-ordering audit** — every `Ordering::*` use must carry an
//!    `// ordering: <why>` justification; `Relaxed` stores whose
//!    same-named field loads use `Acquire` elsewhere are flagged as a
//!    broken release/acquire pair.
//!
//! Known approximations are documented in DESIGN.md §16: resolution is
//! name-based (no trait dispatch, no instance identity), so the graph
//! over-approximates targets with identical method names in one crate
//! and under-approximates dynamic dispatch and locks it cannot type.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Token, TokenKind};
use crate::rules::{alloc_finding, Diagnostic};
use crate::scanner::{skip_angles, FileModel};

/// Aggregate counters for `--json` v2 and the CLI summary line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Files that entered the analysis.
    pub files: usize,
    /// Non-test `fn` items indexed as call-graph nodes.
    pub functions: usize,
    /// Resolved call edges (caller → workspace callee).
    pub call_edges: usize,
    /// Functions directly marked `// qpp-lint: hot-path`.
    pub hot_roots: usize,
    /// Functions hot only by reachability from a root.
    pub hot_propagated: usize,
    /// Lock/condvar acquisition sites the analysis could type.
    pub lock_sites: usize,
    /// Ordered edges in the composed lock-order graph.
    pub lock_edges: usize,
    /// Atomic `Ordering::*` uses in non-test code.
    pub atomic_sites: usize,
    /// Of those, sites carrying an `// ordering:` justification.
    pub atomic_justified: usize,
}

/// One call-graph node: `files[file].fns[item]`.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: usize,
    item: usize,
}

/// A resolved call site: edge to `callee` at token `tok` of the
/// caller's file.
#[derive(Debug, Clone, Copy)]
struct Edge {
    callee: usize,
    tok: usize,
}

/// Identity of a lock in the order graph. Name-based: instances of the
/// same field share an identity (see module docs).
type LockId = (String, String); // (crate, field-or-constructor name)

/// One ordered edge `from → to` in the lock-order graph with the
/// evidence that produced it.
#[derive(Debug, Clone)]
struct LockEdge {
    file: usize,
    tok: usize,
    desc: String,
}

/// Words that look like calls but never are.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "ref", "mut",
    "else", "unsafe", "use", "pub", "impl", "struct", "enum", "trait", "mod", "where", "break",
    "continue", "dyn", "static", "const", "crate", "self", "Self", "super", "true", "false",
    "async", "await", "box", "type",
];

/// Methods that forward their receiver's interesting type (guards,
/// reborrows); receiver typing looks through them.
const TRANSPARENT: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "get_mut",
    "unwrap",
    "expect",
];

const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const ATOMIC_OPS: &[&str] = &[
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

struct Graph<'a> {
    files: &'a [FileModel],
    nodes: Vec<Node>,
    /// fn name → node ids (sorted by construction order, which is
    /// (file, item) and therefore deterministic).
    by_name: BTreeMap<String, Vec<usize>>,
    /// Struct field name → type identifiers, merged across files.
    field_types: BTreeMap<String, BTreeSet<String>>,
    edges: Vec<Vec<Edge>>,
}

impl<'a> Graph<'a> {
    fn item(&self, n: usize) -> &crate::scanner::FnItem {
        &self.files[self.nodes[n].file].fns[self.nodes[n].item]
    }

    fn file(&self, n: usize) -> &FileModel {
        &self.files[self.nodes[n].file]
    }

    fn crate_of(&self, n: usize) -> &str {
        self.file(n).crate_name.as_deref().unwrap_or("?")
    }

    /// Human name: `Type::fn` when in an impl, else the bare fn name.
    fn display(&self, n: usize) -> String {
        let it = self.item(n);
        match &it.self_type {
            Some(t) => format!("{t}::{}", it.name),
            None => it.name.clone(),
        }
    }

    /// Context identifiers a path qualifier may match for node `n`:
    /// crate name, external crate name (`qpp_<crate>`), file module,
    /// in-file modules, and the impl self type.
    fn ctx_matches(&self, n: usize, q: &str) -> bool {
        let f = self.file(n);
        let it = self.item(n);
        if let Some(c) = f.crate_name.as_deref() {
            if q == c || q == format!("qpp_{}", c.replace('-', "_")) {
                return true;
            }
        }
        f.file_mods.iter().any(|m| m == q)
            || it.mods.iter().any(|m| m == q)
            || it.self_type.as_deref() == Some(q)
    }

    fn build(files: &'a [FileModel]) -> Graph<'a> {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut field_types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (k, tys) in &f.field_types {
                field_types
                    .entry(k.clone())
                    .or_default()
                    .extend(tys.iter().cloned());
            }
            if f.is_test_file {
                continue;
            }
            for (ii, it) in f.fns.iter().enumerate() {
                let Some(body) = &it.body else { continue };
                if f.in_test_region(body.start) {
                    continue;
                }
                by_name
                    .entry(it.name.clone())
                    .or_default()
                    .push(nodes.len());
                nodes.push(Node { file: fi, item: ii });
            }
        }
        let mut g = Graph {
            files,
            nodes,
            by_name,
            field_types,
            edges: Vec::new(),
        };
        let mut edges = Vec::with_capacity(g.nodes.len());
        for n in 0..g.nodes.len() {
            edges.push(g.extract_calls(n));
        }
        g.edges = edges;
        g
    }

    /// Type identifiers for the locals of node `n`, from parameter
    /// ascriptions, `let x: T`, and `let x = <constructor>` forms.
    fn local_types(&self, n: usize) -> BTreeMap<String, BTreeSet<String>> {
        let f = self.file(n);
        let it = self.item(n);
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

        // Parameters: `name: Type` pairs at paren depth 1.
        let mut k = skip_angles(toks, it.fn_tok + 2, &f.src);
        if txt(k) == Some("(") {
            let mut depth = 0i32;
            while k < toks.len() {
                match txt(k) {
                    Some("(") | Some("[") => depth += 1,
                    Some(")") | Some("]") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(":")
                        if depth == 1
                            && txt(k + 1) != Some(":")
                            && txt(k.wrapping_sub(1)) != Some(":") =>
                    {
                        if let Some(name) =
                            txt(k - 1).filter(|_| toks[k - 1].kind == TokenKind::Ident)
                        {
                            let tys = collect_type_idents(toks, &f.src, k + 1, &[",", ")"]);
                            out.insert(name.to_string(), tys);
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }

        // Lets in the body.
        let Some((open, close)) = it.body_toks else {
            return out;
        };
        let mut j = open + 1;
        while j < close {
            if toks[j].kind == TokenKind::Ident && txt(j) == Some("let") {
                let mut k = j + 1;
                if txt(k) == Some("mut") {
                    k += 1;
                }
                if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident) {
                    let name = txt(k).unwrap_or_default().to_string();
                    if txt(k + 1) == Some(":") && txt(k + 2) != Some(":") {
                        let tys = collect_type_idents(toks, &f.src, k + 2, &["=", ";"]);
                        out.insert(name, tys);
                    } else if txt(k + 1) == Some("=") {
                        if let Some(tys) = self.init_hints(n, k + 2) {
                            out.insert(name, tys);
                        }
                    }
                }
            }
            j += 1;
        }
        out
    }

    /// Type hints from a `let x = …` initializer starting at token `k`:
    /// `Type::new(..)` / `Type { .. }` → {Type}; `helper(..)` → the
    /// union of return-type idents of workspace fns named `helper`;
    /// `self.field…` → the field's declared type idents.
    fn init_hints(&self, n: usize, k: usize) -> Option<BTreeSet<String>> {
        let f = self.file(n);
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        let mut k = k;
        while matches!(txt(k), Some("&") | Some("mut") | Some("*")) {
            k += 1;
        }
        let t = toks.get(k)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        let head = txt(k)?;
        if head == "self" {
            if txt(k + 1) == Some(".") {
                let fld = txt(k + 2)?;
                if txt(k + 3) == Some("(") {
                    return self.ret_hints(fld);
                }
                return self.field_types.get(fld).cloned();
            }
            return None;
        }
        let first = head.chars().next().unwrap_or('_');
        if first.is_ascii_uppercase() {
            if head == "Some" || head == "Ok" || head == "Err" {
                return None;
            }
            return Some(BTreeSet::from([head.to_string()]));
        }
        if txt(k + 1) == Some("(") {
            return self.ret_hints(head);
        }
        None
    }

    /// Union of return-type identifiers over all workspace fns named
    /// `name`; `None` when nothing is known.
    fn ret_hints(&self, name: &str) -> Option<BTreeSet<String>> {
        let cands = self.by_name.get(name)?;
        let mut h = BTreeSet::new();
        for &c in cands {
            h.extend(self.item(c).ret_types.iter().cloned());
        }
        if h.is_empty() {
            None
        } else {
            Some(h)
        }
    }

    /// Receiver type hints for the method call whose `.` sits at token
    /// `dot`. `None` means the receiver could not be typed (resolution
    /// falls back to same-crate methods); an empty/known set restricts
    /// candidates to matching impl types.
    fn receiver_hints(
        &self,
        n: usize,
        dot: usize,
        locals: &BTreeMap<String, BTreeSet<String>>,
    ) -> Option<BTreeSet<String>> {
        let f = self.file(n);
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        let mut k = dot.checked_sub(1)?;
        loop {
            if txt(k) == Some(")") {
                let open = match_paren_back(toks, &f.src, k)?;
                let before = open.checked_sub(1)?;
                if toks[before].kind != TokenKind::Ident {
                    return None;
                }
                let callee = txt(before)?;
                if TRANSPARENT.contains(&callee) && txt(before.wrapping_sub(1)) == Some(".") {
                    k = before.checked_sub(2)?;
                    continue;
                }
                return self.ret_hints(callee);
            }
            if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident) {
                let r = txt(k)?;
                if r == "self" {
                    return self.item(n).self_type.clone().map(|t| BTreeSet::from([t]));
                }
                if txt(k.wrapping_sub(1)) == Some(".") {
                    return self.field_types.get(r).cloned();
                }
                if let Some(t) = locals.get(r) {
                    return Some(t.clone());
                }
                return self.field_types.get(r).cloned();
            }
            return None;
        }
    }

    /// Extracts and resolves every call site in node `n`'s body.
    fn extract_calls(&self, n: usize) -> Vec<Edge> {
        let f = self.file(n);
        let it = self.item(n);
        let Some((open, close)) = it.body_toks else {
            return Vec::new();
        };
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        let locals = self.local_types(n);
        let mut out: Vec<Edge> = Vec::new();
        for j in open + 1..close {
            if toks[j].kind != TokenKind::Ident {
                continue;
            }
            let name = &f.src[toks[j].start..toks[j].end];
            if KEYWORDS.contains(&name) {
                continue;
            }
            // `name(`, or `name::<T>(` (turbofish).
            let called = txt(j + 1) == Some("(")
                || (txt(j + 1) == Some(":")
                    && txt(j + 2) == Some(":")
                    && txt(j + 3) == Some("<")
                    && txt(skip_angles(toks, j + 3, &f.src)) == Some("("));
            if !called || txt(j.wrapping_sub(1)) == Some("fn") {
                continue;
            }
            let prev = txt(j.wrapping_sub(1));
            let targets: Vec<usize> = if prev == Some(".") {
                self.resolve_method(n, j, name, &locals)
            } else if prev == Some(":") && txt(j.wrapping_sub(2)) == Some(":") {
                self.resolve_path(n, j, name)
            } else {
                self.resolve_bare(n, name)
            };
            for callee in targets {
                if callee != n {
                    out.push(Edge { callee, tok: j });
                }
            }
        }
        out
    }

    /// `a::b::f(..)`: every qualifier must match the candidate's
    /// context; no name-only fallback, so `Vec::new` stays external.
    fn resolve_path(&self, n: usize, j: usize, name: &str) -> Vec<usize> {
        let f = self.file(n);
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        let mut quals: Vec<String> = Vec::new();
        let mut k = j;
        while k >= 3
            && txt(k - 1) == Some(":")
            && txt(k - 2) == Some(":")
            && toks[k - 3].kind == TokenKind::Ident
        {
            quals.push(txt(k - 3).unwrap_or_default().to_string());
            k -= 3;
        }
        if quals.is_empty() {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        cands
            .iter()
            .copied()
            .filter(|&c| {
                quals.iter().all(|q| match q.as_str() {
                    "crate" | "self" | "super" => self.crate_of(c) == self.crate_of(n),
                    "Self" => {
                        self.item(c).self_type.is_some()
                            && self.item(c).self_type == self.item(n).self_type
                    }
                    q => self.ctx_matches(c, q),
                })
            })
            .collect()
    }

    /// `f(..)`: same file, then same crate, then workspace-wide
    /// (`use`-imported helpers).
    fn resolve_bare(&self, n: usize, name: &str) -> Vec<usize> {
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| !self.item(c).has_self)
            .collect();
        let same_file: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&c| self.nodes[c].file == self.nodes[n].file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&c| self.crate_of(c) == self.crate_of(n))
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        free
    }

    /// `recv.m(..)`: candidates whose impl type matches the receiver's
    /// type hints; an untypable receiver falls back to same-crate
    /// methods of that name (documented over-approximation).
    fn resolve_method(
        &self,
        n: usize,
        j: usize,
        name: &str,
        locals: &BTreeMap<String, BTreeSet<String>>,
    ) -> Vec<usize> {
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.item(c).has_self)
            .collect();
        if methods.is_empty() {
            return Vec::new();
        }
        match self.receiver_hints(n, j - 1, locals) {
            Some(hints) => methods
                .into_iter()
                .filter(|&c| {
                    self.item(c)
                        .self_type
                        .as_deref()
                        .is_some_and(|t| hints.contains(t))
                })
                .collect(),
            None => methods
                .into_iter()
                .filter(|&c| self.crate_of(c) == self.crate_of(n))
                .collect(),
        }
    }
}

/// Collects type identifiers from token `k` until any of `stops` at
/// bracket depth 0 (skipping keywords and lifetime marks).
fn collect_type_idents(toks: &[Token], src: &str, k: usize, stops: &[&str]) -> BTreeSet<String> {
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    let mut out = BTreeSet::new();
    let mut depth = 0i32;
    let mut j = k;
    while j < toks.len() {
        let s = match txt(j) {
            Some(s) => s,
            None => break,
        };
        match s {
            "<" | "(" | "[" => depth += 1,
            ">" if txt(j.wrapping_sub(1)) != Some("-") => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" | "{" => break,
            s if depth == 0 && stops.contains(&s) => break,
            s if toks[j].kind == TokenKind::Ident
                && !matches!(
                    s,
                    "pub" | "crate" | "dyn" | "mut" | "const" | "in" | "impl" | "ref"
                ) =>
            {
                out.insert(s.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Backward scan from a `)` at `close` to its matching `(`.
fn match_paren_back(toks: &[Token], src: &str, close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let s = &src[toks[k].start..toks[k].end];
        if toks[k].kind == TokenKind::Punct {
            match s {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// Runs all workspace-level passes over the already-built file models.
/// Returns the extra diagnostics plus the graph statistics.
pub fn check_workspace(files: &[FileModel]) -> (Vec<Diagnostic>, GraphStats) {
    let g = Graph::build(files);
    let mut stats = GraphStats {
        files: files.len(),
        functions: g.nodes.len(),
        call_edges: g.edges.iter().map(Vec::len).sum(),
        ..GraphStats::default()
    };
    let mut out = Vec::new();
    propagate_hot(&g, &mut out, &mut stats);
    lock_order(&g, &mut out, &mut stats);
    atomic_audit(files, &mut out, &mut stats);
    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    (out, stats)
}

/// Emits a workspace-level diagnostic at token `tok` of `files[fi]`,
/// honoring per-line allow directives.
fn emit_at(
    files: &[FileModel],
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    fi: usize,
    tok: usize,
    message: String,
    provenance: Vec<String>,
) {
    let f = &files[fi];
    let t = &f.lexed.tokens[tok];
    if f.is_allowed(t.line, rule) {
        return;
    }
    out.push(Diagnostic {
        rule,
        path: f.path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: f.line_text(t.line).trim_start().to_string(),
        provenance,
    });
}

// ---------------------------------------------------------------------
// Pass 1: hot-path propagation.
// ---------------------------------------------------------------------

/// BFS from marked roots; for every function that is hot only by
/// reachability, re-run the hot-path family of checks over its body
/// with the call chain as provenance.
fn propagate_hot(g: &Graph<'_>, out: &mut Vec<Diagnostic>, stats: &mut GraphStats) {
    let n = g.nodes.len();
    // pred[v] = (caller, call-site token) that first reached v.
    let mut pred: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut hot = vec![false; n];
    let mut queue = VecDeque::new();
    for (v, h) in hot.iter_mut().enumerate() {
        if g.item(v).marked_hot {
            *h = true;
            stats.hot_roots += 1;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        for e in &g.edges[v] {
            let c = e.callee;
            if hot[c] || g.item(c).marked_cold {
                continue;
            }
            hot[c] = true;
            pred[c] = Some((v, e.tok));
            queue.push_back(c);
        }
    }

    for (v, &is_hot) in hot.iter().enumerate() {
        if !is_hot || g.item(v).marked_hot {
            continue; // roots are covered by the per-file rule
        }
        stats.hot_propagated += 1;
        let chain = provenance_chain(g, &pred, v);
        let f = g.file(v);
        let fi = g.nodes[v].file;
        let Some((open, close)) = g.item(v).body_toks else {
            continue;
        };
        let crate_name = f.crate_name.as_deref().unwrap_or("");
        for i in open + 1..close {
            let t = &f.lexed.tokens[i];
            if t.kind != TokenKind::Ident || f.in_test_region(t.start) {
                continue;
            }
            // no-alloc-hot-path, now cross-function.
            if let Some((name, why)) = alloc_finding(f, i) {
                let msg = format!(
                    "`{name}` {why} in `{}`, reachable from a `qpp-lint: hot-path` \
                     root (chain in provenance); reuse a caller-provided buffer or \
                     mark a deliberate boundary with `// qpp-lint: cold-path`",
                    g.display(v)
                );
                emit_at(g.files, out, "no-alloc-hot-path", fi, i, msg, chain.clone());
                continue;
            }
            let name = f.text(t);
            // no-wallclock-in-model: crates already covered by the
            // per-file rule are skipped (no duplicates); obs is the
            // sanctioned clock layer, bench never serves.
            if (name == "Instant" || name == "SystemTime")
                && !matches!(
                    crate_name,
                    "core" | "ml" | "linalg" | "adapt" | "obs" | "bench"
                )
            {
                let msg = format!(
                    "`{name}` in `{}`, reachable from a `qpp-lint: hot-path` root — \
                     route timing through qpp-obs (the sanctioned clock layer) or \
                     take timestamps as parameters",
                    g.display(v)
                );
                emit_at(
                    g.files,
                    out,
                    "no-wallclock-in-model",
                    fi,
                    i,
                    msg,
                    chain.clone(),
                );
            }
        }
    }
}

/// Root-to-leaf chain of `file:line: caller -> callee` steps for a
/// propagated-hot node.
fn provenance_chain(g: &Graph<'_>, pred: &[Option<(usize, usize)>], v: usize) -> Vec<String> {
    let mut steps = Vec::new();
    let mut cur = v;
    while let Some((caller, tok)) = pred[cur] {
        let f = g.file(caller);
        let t = &f.lexed.tokens[tok];
        let root = if g.item(caller).marked_hot {
            " (hot-path root)"
        } else {
            ""
        };
        steps.push(format!(
            "{}:{}: `{}`{root} calls `{}`",
            f.path,
            t.line,
            g.display(caller),
            g.display(cur),
        ));
        cur = caller;
    }
    steps.reverse();
    steps
}

// ---------------------------------------------------------------------
// Pass 2: lock-order analysis.
// ---------------------------------------------------------------------

/// Per-function lock behavior extracted from the body walk.
#[derive(Debug, Clone, Default)]
struct LockFacts {
    /// Every lock this function acquires directly.
    acquires: BTreeSet<LockId>,
    /// Direct edges: (held, taken, site token).
    edges: Vec<(LockId, LockId, usize)>,
    /// Workspace calls made while holding locks: (callee, held, tok).
    held_calls: Vec<(usize, Vec<LockId>, usize)>,
}

fn lock_method_kind(name: &str) -> Option<&'static str> {
    match name {
        "lock" => Some("Mutex"),
        "read" | "write" => Some("RwLock"),
        "wait" | "wait_while" | "wait_until" | "wait_for" | "wait_timeout" => Some("Condvar"),
        _ => None,
    }
}

/// Resolves the receiver of `.lock()`-style call at `dot` to a lock
/// name plus its type hints.
fn lock_receiver(
    g: &Graph<'_>,
    n: usize,
    dot: usize,
    locals: &BTreeMap<String, BTreeSet<String>>,
) -> Option<(String, BTreeSet<String>)> {
    let f = g.file(n);
    let toks = &f.lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
    let k = dot.checked_sub(1)?;
    if txt(k) == Some(")") {
        // `self.shard_of(key).read()` — lock identity is the accessor.
        let open = match_paren_back(toks, &f.src, k)?;
        let before = open.checked_sub(1)?;
        if toks[before].kind != TokenKind::Ident {
            return None;
        }
        let name = txt(before)?.to_string();
        let hints = g.ret_hints(&name)?;
        return Some((name, hints));
    }
    if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident) {
        let r = txt(k)?.to_string();
        if r == "self" {
            return None;
        }
        let hints = if txt(k.wrapping_sub(1)) == Some(".") {
            g.field_types.get(&r).cloned()
        } else {
            locals
                .get(&r)
                .cloned()
                .or_else(|| g.field_types.get(&r).cloned())
        }?;
        return Some((r, hints));
    }
    None
}

/// Walks one function body tracking guard lifetimes, producing its
/// [`LockFacts`].
fn lock_facts(g: &Graph<'_>, n: usize) -> LockFacts {
    let f = g.file(n);
    let it = g.item(n);
    let mut facts = LockFacts::default();
    let Some((open, close)) = it.body_toks else {
        return facts;
    };
    let toks = &f.lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
    let locals = g.local_types(n);
    let call_edges: BTreeMap<usize, Vec<usize>> = {
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in &g.edges[n] {
            m.entry(e.tok).or_default().push(e.callee);
        }
        m
    };

    struct Guard {
        lock: LockId,
        var: Option<String>,
        depth: i32,
    }
    let mut active: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut pending_let: Option<String> = None;

    for j in open + 1..close {
        let t = &toks[j];
        let s = &f.src[t.start..t.end];
        if t.kind == TokenKind::Punct {
            match s {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    active.retain(|gd| gd.depth <= depth);
                }
                ";" => {
                    // End of statement: temporaries bound at (or above)
                    // this depth die here.
                    active.retain(|gd| gd.var.is_some() || depth > gd.depth);
                    pending_let = None;
                }
                _ => {}
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if s == "let" {
            let mut k = j + 1;
            if txt(k) == Some("mut") {
                k += 1;
            }
            if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident) {
                pending_let = txt(k).map(str::to_string);
            }
            continue;
        }
        if s == "drop" && txt(j + 1) == Some("(") && txt(j + 3) == Some(")") {
            if let Some(v) = txt(j + 2) {
                active.retain(|gd| gd.var.as_deref() != Some(v));
            }
            continue;
        }
        // Acquisition?
        if let Some(required) = lock_method_kind(s) {
            let is_call = txt(j.wrapping_sub(1)) == Some(".") && txt(j + 1) == Some("(");
            if is_call {
                if let Some((name, hints)) = lock_receiver(g, n, j - 1, &locals) {
                    if hints.contains(required) {
                        let lock: LockId = (g.crate_of(n).to_string(), name);
                        for gd in &active {
                            if gd.lock != lock {
                                facts.edges.push((gd.lock.clone(), lock.clone(), j));
                            }
                        }
                        facts.acquires.insert(lock.clone());
                        // Condvar waits release and re-take their mutex;
                        // they are order edges but never held guards.
                        if required != "Condvar" {
                            active.push(Guard {
                                lock,
                                var: pending_let.clone(),
                                depth,
                            });
                            pending_let = None;
                        }
                        continue;
                    }
                }
            }
        }
        // Workspace call while holding locks?
        if !active.is_empty() {
            if let Some(callees) = call_edges.get(&j) {
                let held: Vec<LockId> = active.iter().map(|gd| gd.lock.clone()).collect();
                for &c in callees {
                    facts.held_calls.push((c, held.clone(), j));
                }
            }
        }
    }
    facts
}

/// Builds the composed lock-order graph and reports every cycle with a
/// deterministic witness path.
fn lock_order(g: &Graph<'_>, out: &mut Vec<Diagnostic>, stats: &mut GraphStats) {
    let n = g.nodes.len();
    let facts: Vec<LockFacts> = (0..n).map(|v| lock_facts(g, v)).collect();
    stats.lock_sites = facts.iter().map(|f| f.acquires.len()).sum();

    // Transitive acquisition sets through the call graph (fixpoint —
    // the graph may have cycles).
    let mut star: Vec<BTreeSet<LockId>> = facts.iter().map(|f| f.acquires.clone()).collect();
    loop {
        let mut changed = false;
        for v in 0..n {
            let mut add: Vec<LockId> = Vec::new();
            for e in &g.edges[v] {
                for l in &star[e.callee] {
                    if !star[v].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                star[v].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // Edge map with first-witness-wins determinism: nodes ascending,
    // sites in token order.
    let mut edges: BTreeMap<LockId, BTreeMap<LockId, LockEdge>> = BTreeMap::new();
    for (v, fact) in facts.iter().enumerate() {
        let fi = g.nodes[v].file;
        for (held, taken, tok) in &fact.edges {
            let line = g.file(v).lexed.tokens[*tok].line;
            edges
                .entry(held.clone())
                .or_default()
                .entry(taken.clone())
                .or_insert(LockEdge {
                    file: fi,
                    tok: *tok,
                    desc: format!(
                        "{}:{}: `{}` acquires `{}` while holding `{}`",
                        g.file(v).path,
                        line,
                        g.display(v),
                        fmt_lock(taken),
                        fmt_lock(held),
                    ),
                });
        }
        for (callee, held, tok) in &facts[v].held_calls {
            let line = g.file(v).lexed.tokens[*tok].line;
            for h in held {
                for l in &star[*callee] {
                    if l == h {
                        continue; // same-name locks: no instance identity
                    }
                    edges
                        .entry(h.clone())
                        .or_default()
                        .entry(l.clone())
                        .or_insert(LockEdge {
                            file: fi,
                            tok: *tok,
                            desc: format!(
                                "{}:{}: `{}` calls `{}` while holding `{}`; `{}` \
                             (transitively) acquires `{}`",
                                g.file(v).path,
                                line,
                                g.display(v),
                                g.display(*callee),
                                fmt_lock(h),
                                g.display(*callee),
                                fmt_lock(l),
                            ),
                        });
                }
            }
        }
    }
    stats.lock_edges = edges.values().map(BTreeMap::len).sum();

    // Cycle detection: BFS from each lock in sorted order; a cycle is
    // reported once, anchored at its smallest lock, with the shortest
    // (and lexicographically first) witness path.
    let locks: Vec<LockId> = edges.keys().cloned().collect();
    for start in &locks {
        if let Some(path) = shortest_cycle(&edges, start) {
            if path.iter().min() < Some(start) {
                continue; // reported from the smaller anchor
            }
            let names: Vec<String> = path.iter().map(fmt_lock).collect();
            let provenance: Vec<String> = path
                .iter()
                .zip(path.iter().cycle().skip(1))
                .map(|(a, b)| edges[a][b].desc.clone())
                .collect();
            let first = &edges[&path[0]][&path[1]];
            let msg = format!(
                "potential deadlock: lock-order cycle {} -> {}; every edge is \
                 listed in the provenance — pick one global order and break the \
                 cycle",
                names.join(" -> "),
                names[0],
            );
            emit_at(
                g.files,
                out,
                "lock-order",
                first.file,
                first.tok,
                msg,
                provenance,
            );
        }
    }
}

fn fmt_lock(l: &LockId) -> String {
    format!("{}::{}", l.0, l.1)
}

/// Shortest path `start → … → start` (length ≥ 2) in the lock graph,
/// if any; BFS over sorted neighbors makes it deterministic.
fn shortest_cycle(
    edges: &BTreeMap<LockId, BTreeMap<LockId, LockEdge>>,
    start: &LockId,
) -> Option<Vec<LockId>> {
    let mut pred: BTreeMap<LockId, LockId> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(start.clone());
    while let Some(u) = queue.pop_front() {
        if let Some(next) = edges.get(&u) {
            for v in next.keys() {
                if v == start {
                    // Reconstruct start → … → u; the pred chain already
                    // terminates at `start` (BFS origin, never given a
                    // predecessor), so reversing it yields the cycle
                    // without the closing repeat.
                    let mut path = vec![u.clone()];
                    let mut cur = u.clone();
                    while let Some(p) = pred.get(&cur) {
                        path.push(p.clone());
                        cur = p.clone();
                    }
                    path.reverse();
                    return Some(path);
                }
                if *v != *start && !pred.contains_key(v) && u != *v {
                    pred.insert(v.clone(), u.clone());
                    queue.push_back(v.clone());
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Pass 3: atomic-ordering audit.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AtomicSite {
    file: usize,
    tok: usize,
    variant: String,
    op: Option<String>,
    field: Option<String>,
    justified: bool,
}

fn atomic_audit(files: &[FileModel], out: &mut Vec<Diagnostic>, stats: &mut GraphStats) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if f.is_test_file {
            continue;
        }
        let toks = &f.lexed.tokens;
        let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind != TokenKind::Ident || txt(i) != Some("Ordering") {
                continue;
            }
            if txt(i + 1) != Some(":") || txt(i + 2) != Some(":") {
                continue;
            }
            let Some(variant) = txt(i + 3).filter(|v| ATOMIC_VARIANTS.contains(v)) else {
                continue;
            };
            if f.in_test_region(tok.start) {
                continue;
            }
            let (op, field) = atomic_op_context(f, i);
            let justified = has_ordering_comment(f, i);
            sites.push(AtomicSite {
                file: fi,
                tok: i + 3,
                variant: variant.to_string(),
                op,
                field,
                justified,
            });
        }
    }

    stats.atomic_sites = sites.len();
    stats.atomic_justified = sites.iter().filter(|s| s.justified).count();

    // (a) Unjustified sites.
    for s in &sites {
        if s.justified {
            continue;
        }
        let what = match (&s.op, &s.field) {
            (Some(op), Some(fl)) => format!("`{fl}.{op}(Ordering::{})`", s.variant),
            _ => format!("`Ordering::{}`", s.variant),
        };
        emit_at(
            files,
            out,
            "atomic-ordering-audit",
            s.file,
            s.tok,
            format!(
                "{what} has no `// ordering:` justification — state in one line \
                 why this ordering is sufficient (same line, in-statement, or the \
                 line above)"
            ),
            Vec::new(),
        );
    }

    // (b) Relaxed stores paired (by field name) with Acquire loads.
    let mut acquire_loads: BTreeMap<&str, (usize, u32)> = BTreeMap::new();
    for s in &sites {
        if s.variant == "Acquire" || s.variant == "AcqRel" {
            if let (Some(op), Some(fl)) = (&s.op, &s.field) {
                if op == "load" {
                    let line = files[s.file].lexed.tokens[s.tok].line;
                    acquire_loads.entry(fl).or_insert((s.file, line));
                }
            }
        }
    }
    for s in &sites {
        if s.variant != "Relaxed" {
            continue;
        }
        let (Some(op), Some(fl)) = (&s.op, &s.field) else {
            continue;
        };
        if op != "store" {
            continue;
        }
        if let Some((lf, ll)) = acquire_loads.get(fl.as_str()) {
            emit_at(
                files,
                out,
                "atomic-ordering-audit",
                s.file,
                s.tok,
                format!(
                    "Relaxed store to `{fl}` but `{}:{ll}` loads it with Acquire — \
                     the Acquire synchronizes with nothing; store with Release or \
                     downgrade the load",
                    files[*lf].path
                ),
                vec![format!(
                    "{}:{}: Acquire load of `{fl}`",
                    files[*lf].path, ll
                )],
            );
        }
    }
}

/// Finds the atomic method call and receiver field enclosing the
/// `Ordering` path at token `i` (`self.queued.store(v, Ordering::…)`
/// → (`store`, `queued`)).
fn atomic_op_context(f: &FileModel, i: usize) -> (Option<String>, Option<String>) {
    let toks = &f.lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &f.src[t.start..t.end]);
    // Walk back to the `(` that opens the enclosing call.
    let mut depth = 0i32;
    let mut k = i;
    let open = loop {
        k = match k.checked_sub(1) {
            Some(k) => k,
            None => return (None, None),
        };
        match txt(k) {
            Some(")") => depth += 1,
            Some("(") => {
                if depth == 0 {
                    break k;
                }
                depth -= 1;
            }
            Some(";") | Some("{") if depth == 0 => return (None, None),
            _ => {}
        }
    };
    let m = match open.checked_sub(1) {
        Some(m) if toks[m].kind == TokenKind::Ident => m,
        _ => return (None, None),
    };
    let op = txt(m)
        .filter(|o| ATOMIC_OPS.contains(o))
        .map(str::to_string);
    // `self.queued.store(..)` / `QUEUED.store(..)`: the ident before
    // the method's `.` names the atomic.
    let field = if txt(m.wrapping_sub(1)) == Some(".") {
        match m.checked_sub(2) {
            Some(p) if toks[p].kind == TokenKind::Ident && txt(p) != Some("self") => {
                txt(p).map(str::to_string)
            }
            _ => None,
        }
    } else {
        None
    };
    (op, field)
}

/// True when an `// ordering:` comment covers the statement containing
/// token `i`: same line as the variant, any line within the statement,
/// or anywhere in the contiguous comment block directly above the
/// statement's first line (multi-line justifications are one block).
fn has_ordering_comment(f: &FileModel, i: usize) -> bool {
    let toks = &f.lexed.tokens;
    let site_line = toks[i + 3].line;
    // Statement start: first token after the previous `;`/`{`/`}`.
    let mut k = i;
    let stmt_line = loop {
        match k.checked_sub(1) {
            None => break toks[0].line,
            Some(p) => {
                let s = &f.src[toks[p].start..toks[p].end];
                if toks[p].kind == TokenKind::Punct && matches!(s, ";" | "{" | "}") {
                    break toks[k].line;
                }
                k = p;
            }
        }
    };
    let mut comment_lines: BTreeMap<u32, bool> = BTreeMap::new();
    for c in &f.lexed.comments {
        let e = comment_lines.entry(c.line).or_insert(false);
        *e |= c.text.contains("ordering:");
    }
    // Within the statement (incl. the variant's own line).
    if (stmt_line..=site_line).any(|l| comment_lines.get(&l) == Some(&true)) {
        return true;
    }
    // The contiguous comment block ending on the line above it.
    let mut line = stmt_line.saturating_sub(1);
    while line > 0 {
        match comment_lines.get(&line) {
            Some(true) => return true,
            Some(false) => line -= 1,
            None => break,
        }
    }
    false
}
