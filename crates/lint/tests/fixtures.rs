//! Fixture corpus: every rule has a `fires` / `clean` / `allowed`
//! triple under `tests/fixtures/<rule>/crates/<crate>/src/`, laid out
//! like real workspace paths so crate-scope filters apply exactly as
//! they do in production code.

use qpp_lint::{lint_report, Diagnostic};

fn lint_fixture(rule: &str, which: &str) -> Vec<Diagnostic> {
    // Integration tests run with the package root as cwd.
    let crate_dir = match rule {
        "no-unordered-float-reduce" | "no-wallclock-in-model" => "ml",
        "no-hashmap-iter-order" | "atomic-ordering-audit" | "lock-order" => "serve",
        _ => "core",
    };
    let path = format!("tests/fixtures/{rule}/crates/{crate_dir}/src/{which}.rs");
    let r = lint_report(&[path]);
    assert!(r.errors.is_empty(), "fixture read errors: {:?}", r.errors);
    r.diagnostics
}

const ALL_RULES: &[(&str, usize)] = &[
    ("no-vecvec", 1),
    ("no-alloc-hot-path", 2),
    ("no-unordered-float-reduce", 3),
    ("no-hashmap-iter-order", 2),
    ("no-wallclock-in-model", 2),
    // Workspace-level passes: fires.rs yields 3 atomic findings (two
    // unjustified sites plus the Relaxed-store/Acquire-load pairing)
    // and exactly one lock-order cycle report.
    ("atomic-ordering-audit", 3),
    ("lock-order", 1),
];

#[test]
fn fires_fixtures_fire_exactly_their_rule() {
    for &(rule, expected) in ALL_RULES {
        let diags = lint_fixture(rule, "fires");
        assert_eq!(
            diags.len(),
            expected,
            "{rule}/fires.rs should yield {expected} diagnostics, got {diags:?}"
        );
        for d in &diags {
            assert_eq!(d.rule, rule, "unexpected cross-rule finding: {d:?}");
            assert!(d.line > 0 && d.col > 0, "spans are 1-based: {d:?}");
            assert!(!d.snippet.is_empty(), "snippet missing: {d:?}");
        }
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for &(rule, _) in ALL_RULES {
        let diags = lint_fixture(rule, "clean");
        assert!(diags.is_empty(), "{rule}/clean.rs should pass: {diags:?}");
    }
}

#[test]
fn allow_directives_suppress_their_rule() {
    for &(rule, _) in ALL_RULES {
        let diags = lint_fixture(rule, "allowed");
        assert!(diags.is_empty(), "{rule}/allowed.rs should pass: {diags:?}");
    }
}

#[test]
fn spans_are_exact() {
    let diags = lint_fixture("no-vecvec", "fires");
    assert_eq!((diags[0].line, diags[0].col), (3, 18));
    assert_eq!(diags[0].snippet, "pub fn rows() -> Vec<Vec<f64>> {");
}

#[test]
fn directory_walk_aggregates_and_sorts() {
    let r = lint_report(&["tests/fixtures/no-vecvec".to_string()]);
    assert!(r.errors.is_empty());
    let diags = r.diagnostics;
    // allowed.rs and clean.rs contribute nothing; fires.rs one finding.
    assert_eq!(diags.len(), 1);
    assert!(diags[0].path.ends_with("fires.rs"));
}
