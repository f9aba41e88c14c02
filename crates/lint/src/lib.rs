//! The qpp linter: workspace static analysis for the qpp invariants.
//!
//! Three guarantees are expensive to win back once lost — bitwise-
//! deterministic training, a zero-allocation predict/serve/trace path,
//! and reviewed memory orderings. This crate keeps refactors from
//! silently regressing the parts of them that only a *token* can see: a
//! dependency-free analyzer with a hand-rolled Rust lexer (comment/
//! string/raw-string/char-literal aware), a small scanner, and four
//! rules plus a check on its own directives, all with span-accurate
//! diagnostics. What a *type* or an *execution* can see is checked
//! there instead: hash-order iteration and wall-clock reads by clippy
//! (`iter_over_hash_type`, per-crate `disallowed-types`), transitive
//! allocation freedom by the counting allocator in
//! `tests/alloc_regression.rs`.
//!
//! Run it over the workspace (`cargo run -p qpp-lint -- crates`), ask
//! it to explain a rule (`--explain no-alloc-hot-path`), or get
//! machine-readable output (`--json`). Opt out per line with
//! `// qpp-lint: allow(<rule>)`; mark zero-allocation functions with
//! `// qpp-lint: hot-path`.
//!
//! See `DESIGN.md` §11 for the rule table and how to add a rule.

pub mod atomic;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scanner;

pub use rules::{check_file, rule_info, Diagnostic, RuleInfo, RULES};
pub use scanner::FileModel;

use std::path::{Path, PathBuf};

/// Lints one in-memory source file with the per-file rules only (the
/// atomic-ordering audit needs every file at once; see [`lint_report`]).
pub fn lint_source(path: &str, src: String) -> Vec<Diagnostic> {
    check_file(&FileModel::build(path, src))
}

/// Counters of a lint run, for `--json` and the committed `lint.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Files linted.
    pub files: usize,
    /// Function bodies marked `// qpp-lint: hot-path`.
    pub hot_fns: usize,
    /// Atomic `Ordering::*` uses in non-test code.
    pub atomic_sites: usize,
    /// Of those, sites carrying an `// ordering:` justification.
    pub atomic_justified: usize,
}

/// A full lint run: diagnostics, walk errors, and counters.
pub struct LintReport {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Unreadable paths.
    pub errors: Vec<String>,
    /// What the run covered.
    pub stats: Stats,
}

/// Lints every `.rs` file under `roots` (files are linted as given;
/// directories are walked recursively in sorted order, skipping
/// `target` and nested `fixtures` directories): the per-file rules on
/// each, then the atomic-ordering audit over the whole file set.
pub fn lint_report(roots: &[String]) -> LintReport {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for root in roots {
        let p = Path::new(root);
        if p.is_file() {
            files.push(p.to_path_buf());
        } else if p.is_dir() {
            walk(p, 0, &mut files, &mut errors);
        } else {
            errors.push(format!("{root}: not found"));
        }
    }
    files.sort();
    files.dedup();
    let mut models: Vec<FileModel> = Vec::new();
    for f in files {
        let shown = f.to_string_lossy().into_owned();
        match std::fs::read_to_string(&f) {
            Ok(src) => models.push(FileModel::build(&shown, src)),
            Err(e) => errors.push(format!("{shown}: {e}")),
        }
    }
    let mut diags: Vec<Diagnostic> = models.iter().flat_map(check_file).collect();
    let (atomic_diags, atomic_sites, atomic_justified) = atomic::audit(&models);
    diags.extend(atomic_diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    LintReport {
        diagnostics: diags,
        errors,
        stats: Stats {
            files: models.len(),
            hot_fns: models.iter().map(|m| m.hot_fns.len()).sum(),
            atomic_sites,
            atomic_justified,
        },
    }
}

fn walk(dir: &Path, depth: usize, files: &mut Vec<PathBuf>, errors: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("{}: {e}", dir.to_string_lossy()));
            return;
        }
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if p.is_dir() {
            // Intentional-violation corpora live in `fixtures` dirs; a
            // workspace walk must not trip over them. Naming a fixtures
            // dir as the root still lints it (depth 0).
            if name == "target" || name == ".git" || (depth > 0 && name == "fixtures") {
                continue;
            }
            walk(&p, depth + 1, files, errors);
        } else if name.ends_with(".rs") {
            files.push(p);
        }
    }
}

/// Renders diagnostics in the human `file:line:col` format, each with
/// its source line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}:{}:{}: error[{}]: {}",
            d.path, d.line, d.col, d.rule, d.message
        );
        let _ = writeln!(out, "    {}", d.snippet);
    }
    if !diags.is_empty() {
        let _ = writeln!(
            out,
            "qpp-lint: {} violation{} (run `qpp-lint --explain <rule>` for the \
             rationale and fixes)",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_reports_sorted_spans() {
        let src =
            "// qpp-lint: hot-path\nfn f() {\n    let x = Vec::new();\n    let y = x.clone();\n}\n";
        let d = lint_source("crates/ml/src/lib.rs", src.to_string());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rule, "no-alloc-hot-path");
        assert_eq!((d[0].line, d[0].col), (3, 13));
        assert_eq!((d[1].line, d[1].col), (4, 15));
        assert!(d[0].snippet.contains("Vec::new()"));
    }
}
