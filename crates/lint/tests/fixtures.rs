//! Fixture corpus: every rule has a `fires` / `clean` / `allowed`
//! triple under `tests/fixtures/<rule>/crates/<crate>/src/`, laid out
//! like real workspace paths so crate-scope filters apply exactly as
//! they do in production code.

use qpp_lint::{lint_report, Diagnostic, LintReport};

fn report(rule: &str, which: &str) -> LintReport {
    // Integration tests run with the package root as cwd.
    let crate_dir = match rule {
        "no-unordered-float-reduce" => "ml",
        "atomic-ordering-audit" => "serve",
        _ => "core",
    };
    let path = format!("tests/fixtures/{rule}/crates/{crate_dir}/src/{which}.rs");
    let r = lint_report(&[path]);
    assert!(r.errors.is_empty(), "fixture read errors: {:?}", r.errors);
    r
}

fn lint_fixture(rule: &str, which: &str) -> Vec<Diagnostic> {
    report(rule, which).diagnostics
}

/// (rule, findings in fires.rs, findings in allowed.rs).
const ALL_RULES: &[(&str, usize, usize)] = &[
    ("no-vecvec", 1, 0),
    ("no-alloc-hot-path", 2, 0),
    ("no-unordered-float-reduce", 3, 0),
    // Two unjustified sites plus the Relaxed-store/Acquire-load pairing.
    ("atomic-ordering-audit", 3, 0),
    // A typo, a retired word, a dead allow, a marker on a declaration;
    // the check cannot waive itself, so allowed.rs reports the waiver
    // *and* the typo it tried to cover.
    ("directive", 4, 2),
];

#[test]
fn fires_fixtures_fire_exactly_their_rule() {
    for &(rule, expected, _) in ALL_RULES {
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
    for &(rule, _, _) in ALL_RULES {
        let diags = lint_fixture(rule, "clean");
        assert!(diags.is_empty(), "{rule}/clean.rs should pass: {diags:?}");
    }
}

#[test]
fn allow_directives_suppress_every_rule_but_the_directive_check() {
    for &(rule, _, expected) in ALL_RULES {
        let diags = lint_fixture(rule, "allowed");
        assert_eq!(diags.len(), expected, "{rule}/allowed.rs: {diags:?}");
        assert!(diags.iter().all(|d| d.rule == rule), "{diags:?}");
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

/// A marker on a body-less trait declaration used to take the *next*
/// function's body: `default_method`'s `Vec::new()` was reported as a
/// hot-path allocation, and a real root could be left unlinted the same
/// way. Now the marker itself is the finding and nothing is marked.
#[test]
fn marker_on_a_declaration_is_reported_and_marks_nothing() {
    let r = report("directive", "fires");
    assert_eq!(r.stats.hot_fns, 0);
    let d = r.diagnostics.last().expect("four findings");
    assert_eq!((d.line, d.col), (19, 5));
    assert!(d.message.contains("attaches to no body"), "{}", d.message);
    // The `[f64; 6]` signature in clean.rs is marked (PR 15's defect:
    // the `;` read as a body-less declaration and dropped the root).
    assert_eq!(report("directive", "clean").stats.hot_fns, 1);
}

#[test]
fn dead_allow_names_only_the_retired_rule() {
    let diags = lint_fixture("directive", "fires");
    let d = &diags[2];
    assert_eq!(d.line, 14);
    assert!(d.message.contains("`allow(lock-order)`"), "{}", d.message);
}

#[test]
fn atomic_audit_counts_justified_and_unjustified_sites() {
    let r = report("atomic-ordering-audit", "fires");
    assert_eq!((r.stats.atomic_sites, r.stats.atomic_justified), (2, 0));
    let pairing = r
        .diagnostics
        .iter()
        .find(|d| d.message.contains("synchronizes with nothing"))
        .expect("Relaxed-store/Acquire-load pairing fires");
    assert!(pairing.message.contains("fires.rs:17"), "{pairing:?}");

    let clean = report("atomic-ordering-audit", "clean");
    assert_eq!(
        (clean.stats.atomic_sites, clean.stats.atomic_justified),
        (2, 2)
    );
}

#[test]
fn every_rule_has_an_explanation() {
    for &(rule, _, _) in ALL_RULES {
        let info = qpp_lint::rule_info(rule).expect("rule is registered");
        assert!(!info.explain.is_empty(), "{rule} has --explain text");
    }
    assert_eq!(qpp_lint::RULES.len(), ALL_RULES.len());
}
