//! The rule engine: the per-file rules, wired to the workspace's real
//! invariants.
//!
//! Every rule matches on the token stream of a [`FileModel`], honors
//! per-line `// qpp-lint: allow(<rule>)` directives, and reports
//! span-accurate diagnostics. Adding a rule is: write a `check`
//! function, add a [`RuleInfo`] row, add a fixture triple. Before
//! adding one, check that clippy cannot express it by *type* — that is
//! where `no-unwrap-lib`, `no-hashmap-iter-order` and
//! `no-wallclock-in-model` went (see `--explain directive`).

use crate::lexer::TokenKind;
use crate::scanner::{Directive, FileModel};

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

/// Id of the directive check: the one rule `allow(..)` cannot name.
pub const DIRECTIVE: &str = "directive";

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
The steady-state predict, serve and trace paths perform zero heap\n\
allocations per call. The *transitive* property — nothing reachable\n\
from those entry points allocates, through closures and `dyn` calls\n\
alike — is owned by tests/alloc_regression.rs, which counts exactly\n\
with the counting allocator. This rule is the per-function side of the\n\
contract: a `// qpp-lint: hot-path` comment marks one function, and\n\
inside that function's own body allocating constructs are rejected at\n\
the line that wrote them. A kernel the hot path calls carries its own\n\
marker; nothing is inferred from call sites.\n\
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
        id: "atomic-ordering-audit",
        summary: "every atomic Ordering use carries an `// ordering:` justification",
        explain: "\
The lock-free plumbing (obs ring buffer and metrics, the serve queue's\n\
depth counters, the registry's version counter) is exactly the code\n\
where a wrong memory ordering is invisible to every test and fatal\n\
under load.\n\
\n\
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
        id: DIRECTIVE,
        summary: "every `qpp-lint:` comment is `hot-path` on a fn body or `allow(<live rule>)`",
        explain: "\
A directive the linter does not understand is a function it silently\n\
stops checking: `// qpp-lint: hot_path` (typo) marks nothing, and an\n\
`allow(..)` naming a rule that no longer exists waives nothing anyone\n\
reviews. So every comment that starts with `qpp-lint:` must parse.\n\
\n\
Fires on: (a) a word other than `hot-path` or `allow(<rule>, ..)`;\n\
(b) an `allow(..)` naming anything but one of the rules `--list` shows\n\
above this one; (c) a `hot-path` marker whose next `fn` has no body (a\n\
trait method declaration) or that no `fn` follows. This check itself\n\
cannot be waived.\n\
\n\
Fix: correct the spelling, or delete the directive. Rules that moved\n\
to a stronger oracle need no waiver here: `no-unwrap-lib` is clippy's\n\
unwrap_used/expect_used/panic; `no-hashmap-iter-order` is\n\
clippy::iter_over_hash_type in every library crate's warn list;\n\
`no-wallclock-in-model` is the `disallowed-types` entry in\n\
crates/{core,ml,linalg,adapt}/clippy.toml; `lock-order` and the\n\
`cold-path` marker went with the call graph (the lock hierarchy is\n\
DESIGN.md §11 \"Locks\"; transitive allocation freedom is counted by\n\
tests/alloc_regression.rs).",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every per-file rule over one file model and returns its
/// diagnostics, sorted by (line, col, rule). The atomic-ordering audit
/// needs all files at once and runs from [`crate::lint_report`].
pub fn check_file(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_vecvec(m, &mut out);
    no_alloc_hot_path(m, &mut out);
    no_unordered_float_reduce(m, &mut out);
    directives(m, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Reports a finding at token `tok_idx` unless an allow directive
/// covers its line.
pub(crate) fn emit(
    m: &FileModel,
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    tok_idx: usize,
    msg: String,
) {
    let t = &m.lexed.tokens[tok_idx];
    if !m.is_allowed(t.line, rule) {
        out.push(diagnostic(m, rule, t.line, t.col, msg));
    }
}

fn diagnostic(
    m: &FileModel,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: m.path.clone(),
        line,
        col,
        message,
        snippet: m.line_text(line).trim_start().to_string(),
    }
}

/// Every `qpp-lint:` comment must be one the linter acts on.
fn directives(m: &FileModel, out: &mut Vec<Diagnostic>) {
    for (ci, d) in &m.directives {
        let msg = match d {
            Directive::HotPath(Some(_)) => continue,
            Directive::HotPath(None) => {
                "hot-path marker attaches to no body — the next `fn` is a body-less \
                 declaration (or there is none); mark the implementation instead"
                    .to_string()
            }
            Directive::Allow(rules) => {
                let dead: Vec<&str> = rules
                    .iter()
                    .map(String::as_str)
                    .filter(|r| *r == DIRECTIVE || rule_info(r).is_none())
                    .collect();
                if dead.is_empty() {
                    continue;
                }
                format!(
                    "`allow({})` names no live rule — it waives nothing; delete it \
                     (see `qpp-lint --list`, and `--explain directive` for where \
                     retired rules went)",
                    dead.join(", ")
                )
            }
            Directive::Unknown(word) => format!(
                "unknown directive `qpp-lint: {word}` — expected `hot-path` or \
                 `allow(<rule>)`; a misspelt marker leaves its function unlinted"
            ),
        };
        let c = &m.lexed.comments[*ci];
        out.push(diagnostic(m, DIRECTIVE, c.line, c.col, msg));
    }
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
/// `.collect()`, `vec![..]`, …); returns the construct name and a short
/// reason.
fn alloc_finding(m: &FileModel, i: usize) -> Option<(&str, &'static str)> {
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
