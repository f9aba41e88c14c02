//! The atomic-ordering audit — the one rule that sees every file at
//! once, because its pairing check matches a `Relaxed` store in one
//! file against an `Acquire` load of the same field in another.
//!
//! Every `Ordering::*` use must carry an `// ordering: <why>`
//! justification; `Relaxed` stores whose same-named field loads use
//! `Acquire` elsewhere are flagged as a broken release/acquire pair.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::rules::{emit, Diagnostic};
use crate::scanner::FileModel;

const RULE: &str = "atomic-ordering-audit";

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

#[derive(Debug, Clone)]
struct AtomicSite {
    file: usize,
    tok: usize,
    variant: String,
    op: Option<String>,
    field: Option<String>,
    justified: bool,
}

/// Audits every non-test `Ordering::*` use in `files`; returns the
/// findings plus the (sites, justified sites) counts for the stats.
pub fn audit(files: &[FileModel]) -> (Vec<Diagnostic>, usize, usize) {
    let mut out = Vec::new();
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

    let justified = sites.iter().filter(|s| s.justified).count();

    // (a) Unjustified sites.
    for s in &sites {
        if s.justified {
            continue;
        }
        let what = match (&s.op, &s.field) {
            (Some(op), Some(fl)) => format!("`{fl}.{op}(Ordering::{})`", s.variant),
            _ => format!("`Ordering::{}`", s.variant),
        };
        emit(
            &files[s.file],
            &mut out,
            RULE,
            s.tok,
            format!(
                "{what} has no `// ordering:` justification — state in one line \
                 why this ordering is sufficient (same line, in-statement, or the \
                 line above)"
            ),
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
            emit(
                &files[s.file],
                &mut out,
                RULE,
                s.tok,
                format!(
                    "Relaxed store to `{fl}` but `{}:{ll}` loads it with Acquire — \
                     the Acquire synchronizes with nothing; store with Release or \
                     downgrade the load",
                    files[*lf].path
                ),
            );
        }
    }
    (out, sites.len(), justified)
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
