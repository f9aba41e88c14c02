//! The rule engine: the per-file rules, wired to the workspace's real
//! invariants.
//!
//! Every rule matches on the token stream of a [`FileModel`], honors
//! per-line `// qpp-lint: allow(<rule>)` directives, and reports
//! span-accurate diagnostics. Scope filters (test files, binaries,
//! per-crate applicability) are data on the rule, not ad-hoc code, so
//! adding a rule is: write a `check` function, add a [`RuleInfo`] row,
//! add a fixture triple.

use crate::lexer::TokenKind;
use crate::scanner::FileModel;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `no-vecvec`.
    pub rule: &'static str,
    /// File path as given to the linter.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// One-line description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For workspace-level findings: the chain of call-graph /
    /// lock-graph steps that led here (empty for per-file findings).
    pub provenance: Vec<String>,
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable identifier used in output and allow directives.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form `--explain` documentation.
    pub explain: &'static str,
}

/// All rules, in the order they run and report.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-vecvec",
        summary: "nested Vec<Vec<f64>> must not appear in library code",
        explain: "\
The data plane operates on contiguous row-major matrices and borrowed\n\
views (qpp_linalg::Matrix / MatrixView); nested `Vec<Vec<f64>>` rows\n\
defeat the zero-copy boundaries that PR 3 established and fragment the\n\
cache layout of every hot loop that touches them.\n\
\n\
Fires on: the token sequence `Vec < Vec < f64` in any non-test source\n\
file (string literals and comments never match — the linter lexes).\n\
\n\
Fix: build a `Matrix` (or accept a `MatrixView`) instead. Test-only\n\
fixtures may opt out with `// qpp-lint: allow(no-vecvec)` or the legacy\n\
`// allow-vecvec` comment on the same line.",
    },
    RuleInfo {
        id: "no-alloc-hot-path",
        summary: "no heap allocation inside functions marked `// qpp-lint: hot-path`",
        explain: "\
The steady-state predict path performs zero heap allocations per call\n\
(enforced at runtime by tests/alloc_regression.rs with the counting\n\
allocator). This rule is the static side of the same contract: inside\n\
any function marked with a `// qpp-lint: hot-path` comment, allocating\n\
constructs are rejected.\n\
\n\
Fires on: `Vec::new`, `Vec::with_capacity`, `vec![...]`, `.to_vec()`,\n\
`.collect()`, `.clone()`, `.to_owned()`, `.to_string()`, `format!`,\n\
`String::new`, `String::from`, and `Box::new` inside a marked body.\n\
\n\
Fix: write into a caller-provided `&mut Vec<_>` scratch buffer\n\
(`clear()` + `extend(..)` / `resize(..)` reuse capacity and do not\n\
allocate once warm). Constructs that provably do not allocate (e.g.\n\
collecting into an inline small-vec) may opt out with\n\
`// qpp-lint: allow(no-alloc-hot-path)` plus a justification.",
    },
    RuleInfo {
        id: "no-unordered-float-reduce",
        summary: "float reductions must use the canonical ordered helpers",
        explain: "\
Training and projection are bitwise-deterministic for any thread count\n\
(tests/thread_invariance.rs). Float addition is not associative, so\n\
every float reduction must have a pinned evaluation order. Bare\n\
iterator `.sum()` / `.fold(..)` calls scattered through the code are\n\
where that guarantee silently erodes: a later refactor can parallelize\n\
or reorder them without noticing.\n\
\n\
Fires on: `.sum()` / `.fold(..)` over floats (float turbofish, float\n\
fold seeds such as `0.0` or `f64::INFINITY`, or no visible integer\n\
type) in library code, outside qpp-par (whose ordered reductions are\n\
the sanctioned primitive) and outside qpp-bench reporting code.\n\
\n\
Fix: call the canonical sequential reductions in qpp_linalg::vector\n\
(`sum`, `sum_iter`, `min_iter`, `max_iter` — all fixed left-to-right\n\
order), or give integer reductions an explicit integer turbofish\n\
(`.sum::<u64>()`), which this rule recognizes as order-free.",
    },
    RuleInfo {
        id: "no-hashmap-iter-order",
        summary: "HashMap/HashSet iteration order must not escape",
        explain: "\
HashMap iteration order is randomized per process; anything that\n\
iterates a map and lets the order reach results, output, or wire\n\
formats is nondeterministic across runs. Reproducibility studies of\n\
QPP pipelines exist precisely because this class of bug is invisible\n\
in single-run tests.\n\
\n\
Fires on: `.iter()`, `.iter_mut()`, `.keys()`, `.values()`,\n\
`.values_mut()`, `.into_iter()`, `.into_keys()`, `.into_values()`,\n\
`.drain(..)` on a receiver declared with a `HashMap`/`HashSet` type in\n\
the same file, and `for .. in` loops over such names, in library code.\n\
\n\
Fix: use a `BTreeMap` (ordered by key), or sort the collected keys\n\
before the order can escape. Iteration whose order provably cannot\n\
escape (e.g. summing values) may opt out with\n\
`// qpp-lint: allow(no-hashmap-iter-order)`.",
    },
    RuleInfo {
        id: "no-wallclock-in-model",
        summary: "no wall-clock reads in deterministic model code",
        explain: "\
qpp-core, qpp-ml and qpp-linalg are the deterministic heart of the\n\
system: identical inputs must produce bitwise-identical models and\n\
predictions (tests/determinism.rs). A wall-clock read — timing-based\n\
seeding, time-dependent tolerances, embedded timestamps — breaks that\n\
contract in a way no fixed-seed test can catch.\n\
\n\
Fires on: any use of `Instant` or `SystemTime` (including imports) in\n\
non-test code of qpp-core, qpp-ml, qpp-linalg, or qpp-adapt (drift\n\
detection is epoch-driven: the caller injects logical time). Serving\n\
and bench crates measure latency legitimately and are out of scope.\n\
\n\
Fix: accept timestamps as parameters from the caller, or move the\n\
timing to the serving/bench layer. There is deliberately no sanctioned\n\
in-crate opt-out pattern; if you think you need one, the code belongs\n\
in a different crate.",
    },
    RuleInfo {
        id: "atomic-ordering-audit",
        summary: "every atomic Ordering use carries an `// ordering:` justification",
        explain: "\
The lock-free plumbing (obs ring buffer, admission quota counters,\n\
registry epoch counters, adapt trackers) is exactly the code where a\n\
wrong memory ordering is invisible to every test and fatal under load.\n\
This rule turns each `Ordering::{Relaxed,Acquire,Release,AcqRel,\n\
SeqCst}` use into a reviewed decision: the statement must carry a\n\
`// ordering: <why>` comment on the same line, within the statement,\n\
or on the line above it.\n\
\n\
Fires on: (a) any atomic `Ordering::*` variant in non-test code with\n\
no `// ordering:` justification in range; (b) a `Relaxed` *store* to a\n\
field whose *loads* elsewhere in the workspace use `Acquire` — the\n\
Acquire load synchronizes with nothing unless the store is `Release`,\n\
so the pair is either a bug or two sites that disagree about the\n\
protocol (pairing is heuristic, keyed by field name).\n\
\n\
Fix: write the one-line reason the chosen ordering is sufficient\n\
(`// ordering: Release publishes the slot payload written above`).\n\
For (b), publish with `Release` or downgrade the load to `Relaxed`,\n\
then document whichever you chose. Sites the heuristic mispairs may\n\
opt out with `// qpp-lint: allow(atomic-\
ordering-audit)`.",
    },
    RuleInfo {
        id: "lock-order",
        summary: "lock acquisition order must be cycle-free across the workspace",
        explain: "\
Two functions that take the same two locks in opposite orders deadlock\n\
under the right interleaving — and the acquisitions are usually in\n\
different files, composed through helper calls, where no local review\n\
can see the cycle. This pass extracts every `Mutex::lock` /\n\
`RwLock::{read,write}` / `Condvar::wait*` acquisition per function,\n\
tracks guard lifetimes (let-bound guards to end of scope or `drop`,\n\
temporaries to end of statement), composes held-sets through the call\n\
graph, and reports any cycle in the resulting lock-order graph.\n\
\n\
Fires on: a cycle `A -> B -> ... -> A` in the workspace lock-order\n\
graph. The diagnostic points at the first edge's acquisition site and\n\
carries the full witness path (every edge with its file:line) in the\n\
provenance, so the report is actionable without re-deriving the\n\
analysis. Locks are identified by (crate, field-or-constructor name);\n\
two instances of the same field (e.g. an array of locks ordered by\n\
index) are indistinguishable, so same-lock self-edges are not\n\
reported.\n\
\n\
Fix: pick one global acquisition order (document it where the locks\n\
are declared) and restructure the odd function out — usually by\n\
dropping the first guard before taking the second, or by hoisting the\n\
second acquisition out of the critical section. A cycle the analysis\n\
cannot see past (e.g. instance-disambiguated ordering) may opt out\n\
with `// qpp-lint: allow(lock-order)` on the witness line.",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every rule over one file model and returns its diagnostics,
/// sorted by (line, col, rule).
pub fn check_file(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_vecvec(m, &mut out);
    no_alloc_hot_path(m, &mut out);
    no_unordered_float_reduce(m, &mut out);
    no_hashmap_iter_order(m, &mut out);
    no_wallclock_in_model(m, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn emit(m: &FileModel, out: &mut Vec<Diagnostic>, rule: &'static str, tok_idx: usize, msg: String) {
    let t = &m.lexed.tokens[tok_idx];
    if m.is_allowed(t.line, rule) {
        return;
    }
    out.push(Diagnostic {
        rule,
        path: m.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
        snippet: m.line_text(t.line).trim_start().to_string(),
        provenance: Vec::new(),
    });
}

/// `Vec < Vec < f64` token sequence in non-test files.
fn no_vecvec(m: &FileModel, out: &mut Vec<Diagnostic>) {
    if m.is_test_file {
        return;
    }
    let toks = &m.lexed.tokens;
    for i in 0..toks.len().saturating_sub(4) {
        let texts: Vec<&str> = (i..i + 5).map(|k| m.text(&toks[k])).collect();
        if texts == ["Vec", "<", "Vec", "<", "f64"] {
            emit(
                m,
                out,
                "no-vecvec",
                i,
                "nested `Vec<Vec<f64>>` in library code — use a contiguous \
                 `Matrix`/`MatrixView` instead"
                    .to_string(),
            );
        }
    }
}

/// Classifies token `i` as an allocating construct (`Vec::new`,
/// `.collect()`, `vec![..]`, …). Shared by the per-file hot-path rule
/// and the call-graph propagation pass; returns the construct name and
/// a short reason.
pub(crate) fn alloc_finding(m: &FileModel, i: usize) -> Option<(&str, &'static str)> {
    let toks = &m.lexed.tokens;
    let t = toks.get(i)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    let txt = |k: usize| toks.get(k).map(|t| &m.src[t.start..t.end]);
    let name = m.text(t);
    let prev = if i > 0 { txt(i - 1) } else { None };
    let next = txt(i + 1);
    // `.name(` or `.name::<..>(` — a method call (the `::` of a
    // turbofish lexes as two `:` tokens).
    let is_method_call =
        prev == Some(".") && (next == Some("(") || (next == Some(":") && txt(i + 2) == Some(":")));
    match name {
        "to_vec" | "collect" | "clone" | "to_owned" | "to_string" if is_method_call => {
            Some((name, "allocates a fresh buffer"))
        }
        // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::new`,
        // `String::from` — match the *type* token before `::`.
        "Vec" | "Box" | "String"
            if next == Some(":")
                && txt(i + 2) == Some(":")
                && matches!(
                    txt(i + 3).map(|s| (name, s)),
                    Some(("Vec", "new"))
                        | Some(("Vec", "with_capacity"))
                        | Some(("Box", "new"))
                        | Some(("String", "new"))
                        | Some(("String", "from"))
                ) =>
        {
            Some((name, "constructs a fresh allocation"))
        }
        // `vec![...]`, `format!(...)`.
        "vec" | "format" if next == Some("!") => Some((name, "allocates a fresh buffer")),
        _ => None,
    }
}

/// Allocating constructs inside `// qpp-lint: hot-path` function bodies.
fn no_alloc_hot_path(m: &FileModel, out: &mut Vec<Diagnostic>) {
    if m.hot_fns.is_empty() {
        return;
    }
    for i in 0..m.lexed.tokens.len() {
        if !m.in_hot_fn(m.lexed.tokens[i].start) {
            continue;
        }
        if let Some((name, why)) = alloc_finding(m, i) {
            emit(
                m,
                out,
                "no-alloc-hot-path",
                i,
                format!(
                    "`{name}` in a `qpp-lint: hot-path` function — {why}; reuse a \
                     caller-provided scratch buffer"
                ),
            );
        }
    }
}

/// Integer types whose reductions are order-free.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Bare `.sum()` / `.fold(..)` over floats outside the ordered-reduction
/// homes (qpp-par) and reporting code (qpp-bench).
fn no_unordered_float_reduce(m: &FileModel, out: &mut Vec<Diagnostic>) {
    if m.is_test_file || m.is_bin_file {
        return;
    }
    if let Some(name) = m.crate_name.as_deref() {
        if matches!(name, "par" | "bench" | "lint") {
            return;
        }
    }
    let toks = &m.lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &m.src[t.start..t.end]);
    for (i, t) in toks.iter().enumerate().skip(1) {
        if t.kind != TokenKind::Ident || txt(i - 1) != Some(".") || m.in_test_region(t.start) {
            continue;
        }
        match m.text(t) {
            "sum" => {
                // `.sum::<T>()` — integer T is order-free; float or
                // absent T must go through the ordered helpers.
                if txt(i + 1) == Some(":") && txt(i + 2) == Some(":") && txt(i + 3) == Some("<") {
                    match txt(i + 4) {
                        Some(ty) if INT_TYPES.contains(&ty) => continue,
                        _ => {}
                    }
                } else if txt(i + 1) != Some("(") {
                    continue; // a field or different method, not `.sum()`
                } else if int_annotated_line(m, t.line) {
                    continue;
                }
                emit(
                    m,
                    out,
                    "no-unordered-float-reduce",
                    i,
                    "bare float `.sum()` — use qpp_linalg::vector::sum / sum_iter \
                     (ordered), or an integer turbofish if this is an integer sum"
                        .to_string(),
                );
            }
            "fold" => {
                if txt(i + 1) != Some("(") {
                    continue;
                }
                // Inspect the fold seed (first argument): integer seeds
                // are order-free, float seeds are not.
                if fold_seed_is_integer(m, i + 1) {
                    continue;
                }
                emit(
                    m,
                    out,
                    "no-unordered-float-reduce",
                    i,
                    "bare float `.fold(..)` — use qpp_linalg::vector::min_iter / \
                     max_iter / sum_iter (ordered) instead"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

/// True when the line carries an explicit integer type annotation
/// (`let total: u64 = ...`), making a bare `.sum()` order-free.
fn int_annotated_line(m: &FileModel, line: u32) -> bool {
    let text = m.line_text(line);
    INT_TYPES
        .iter()
        .any(|ty| text.contains(&format!(": {ty} ")) || text.contains(&format!(": {ty} =")))
}

/// Inspects the first argument of a `.fold(` whose `(` token index is
/// `open`; returns true when the seed is integer-typed.
fn fold_seed_is_integer(m: &FileModel, open: usize) -> bool {
    let toks = &m.lexed.tokens;
    let mut depth = 0i32;
    for tok in &toks[open..] {
        let s = m.text(tok);
        match s {
            "(" | "[" | "{" => {
                depth += 1;
                continue;
            }
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            "," if depth == 1 => break, // end of first argument
            _ => {}
        }
        if tok.kind == TokenKind::Number {
            // `0.0`, `1e-9` are float seeds; `0`, `0u64` are not —
            // unless suffixed with a float type.
            let is_float = s.contains('.') || s.contains('e') && !s.contains('x');
            let int_suffix = INT_TYPES.iter().any(|ty| s.ends_with(ty));
            return !is_float || int_suffix;
        }
        if tok.kind == TokenKind::Ident {
            if s == "f64" || s == "f32" {
                return false; // `f64::INFINITY` etc.
            }
            if INT_TYPES.contains(&s) {
                return true;
            }
        }
    }
    // No evidence either way: treat as float (the conservative default —
    // determinism bugs are worse than one allow comment).
    false
}

/// Iteration over HashMap/HashSet receivers in library code.
fn no_hashmap_iter_order(m: &FileModel, out: &mut Vec<Diagnostic>) {
    if m.is_test_file || m.map_idents.is_empty() {
        return;
    }
    const ITERS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "into_keys",
        "into_values",
        "drain",
    ];
    let toks = &m.lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &m.src[t.start..t.end]);
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || m.in_test_region(t.start) {
            continue;
        }
        let name = m.text(t);
        // `for pat in &map { ... }` — the loop header names the map.
        if name == "for" {
            let mut k = i + 1;
            let mut hit: Option<usize> = None;
            while k < toks.len() {
                match txt(k) {
                    Some("{") | Some(";") | None => break,
                    Some(s) if toks[k].kind == TokenKind::Ident && m.map_idents.contains(s) => {
                        hit = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            if let Some(k) = hit {
                // Skip when the loop actually iterates a method result
                // that the `.keys()` check below already covers.
                let followed_by_call = txt(k + 1) == Some(".");
                if !followed_by_call {
                    emit(
                        m,
                        out,
                        "no-hashmap-iter-order",
                        k,
                        format!(
                            "iterating hash-ordered `{}` — order is randomized per \
                             process; use a BTreeMap or sort first",
                            m.text(&toks[k])
                        ),
                    );
                }
            }
            continue;
        }
        if !ITERS.contains(&name) || txt(i - 1) != Some(".") || txt(i + 1) != Some("(") {
            continue;
        }
        // Receiver scan: identifiers in the same method chain, walking
        // back to the start of the statement.
        let mut k = i - 1;
        let mut receiver_is_map = false;
        while k > 0 {
            k -= 1;
            let s = match txt(k) {
                Some(s) => s,
                None => break,
            };
            match s {
                ";" | "{" | "}" | "=" | "," => break,
                _ => {}
            }
            if toks[k].kind == TokenKind::Ident && m.map_idents.contains(s) {
                receiver_is_map = true;
                break;
            }
        }
        if receiver_is_map {
            emit(
                m,
                out,
                "no-hashmap-iter-order",
                i,
                format!(
                    "`.{name}()` on a hash-ordered map — order is randomized per \
                     process; use a BTreeMap or sort before the order escapes"
                ),
            );
        }
    }
}

/// `Instant` / `SystemTime` anywhere in deterministic model crates.
fn no_wallclock_in_model(m: &FileModel, out: &mut Vec<Diagnostic>) {
    match m.crate_name.as_deref() {
        Some("core") | Some("ml") | Some("linalg") | Some("adapt") => {}
        _ => return,
    }
    if m.is_test_file {
        return;
    }
    for (i, t) in m.lexed.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || m.in_test_region(t.start) {
            continue;
        }
        let name = m.text(t);
        if name == "Instant" || name == "SystemTime" {
            emit(
                m,
                out,
                "no-wallclock-in-model",
                i,
                format!(
                    "`{name}` in deterministic model code — identical inputs must \
                     give bitwise-identical outputs; take time as a parameter or \
                     move the timing to the serving layer"
                ),
            );
        }
    }
}
