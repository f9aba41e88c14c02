//! qpp-lint: workspace static analysis for the qpp invariants.
//!
//! PRs 2–3 bought three hard guarantees — bitwise-deterministic
//! parallel training, a zero-allocation predict path, and the unified
//! `QppError` hierarchy. This crate is the enforcement layer that keeps
//! refactors from silently regressing them: a dependency-free static
//! analyzer with a hand-rolled Rust lexer (comment/string/raw-string/
//! char-literal aware), a lightweight item scanner, and a rule engine
//! emitting span-accurate diagnostics.
//!
//! Run it over the workspace (`cargo run -p qpp-lint -- crates`), ask
//! it to explain a rule (`--explain no-alloc-hot-path`), or get
//! machine-readable output (`--json`). Opt out per line with
//! `// qpp-lint: allow(<rule>)`; mark zero-allocation functions with
//! `// qpp-lint: hot-path`.
//!
//! See `DESIGN.md` §11 for the rule table and how to add a rule.

pub mod graph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scanner;

pub use graph::GraphStats;
pub use rules::{check_file, rule_info, Diagnostic, RuleInfo, RULES};
pub use scanner::FileModel;

use std::path::{Path, PathBuf};

/// Lints one in-memory source file with the per-file rules only (the
/// workspace passes need every file at once; see [`lint_report`]).
pub fn lint_source(path: &str, src: String) -> Vec<Diagnostic> {
    check_file(&FileModel::build(path, src))
}

/// A full lint run: diagnostics from both the per-file rules and the
/// workspace-level passes, walk errors, and call-graph statistics.
pub struct LintReport {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Unreadable paths.
    pub errors: Vec<String>,
    /// Call-graph / lock-graph / atomic-audit counters.
    pub stats: GraphStats,
}

/// Lints every `.rs` file under `roots` (files are linted as given;
/// directories are walked recursively in sorted order, skipping
/// `target` and nested `fixtures` directories), then runs the
/// workspace-level passes (hot-path propagation, lock-order,
/// atomic-ordering audit) over the whole file set.
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
    let (graph_diags, stats) = graph::check_workspace(&models);
    diags.extend(graph_diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    diags.dedup();
    LintReport {
        diagnostics: diags,
        errors,
        stats,
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

/// Renders diagnostics in the human `file:line:col` format with
/// snippets and carets.
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
        for step in &d.provenance {
            let _ = writeln!(out, "    note: {step}");
        }
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
        let src = "fn f() {\n    let x = Instant::now();\n    let y = Instant::now();\n}\n";
        let d = lint_source("crates/ml/src/lib.rs", src.to_string());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rule, "no-wallclock-in-model");
        assert_eq!((d[0].line, d[0].col), (2, 13));
        assert_eq!((d[1].line, d[1].col), (3, 13));
        assert!(d[0].snippet.contains("Instant::now()"));
    }
}
