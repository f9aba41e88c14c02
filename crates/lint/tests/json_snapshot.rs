//! Snapshot of the machine-readable `--json` output format.
//!
//! The JSON shape is consumed by CI tooling; changing it is a breaking
//! change and must be deliberate — update the snapshot alongside the
//! version field. v3 replaced v2's `graph` block with `stats` and
//! dropped the per-diagnostic `provenance` array (both existed for the
//! call graph).

use qpp_lint::{json, lint_report};

#[test]
fn json_output_matches_snapshot() {
    let path = "tests/fixtures/no-vecvec/crates/core/src/fires.rs";
    let r = lint_report(&[path.to_string()]);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    let expected = r#"{
  "version": 3,
  "count": 1,
  "stats": {
    "files": 1,
    "hot_fns": 0,
    "atomic_sites": 0,
    "atomic_justified": 0
  },
  "diagnostics": [
    {
      "rule": "no-vecvec",
      "file": "tests/fixtures/no-vecvec/crates/core/src/fires.rs",
      "line": 3,
      "col": 18,
      "message": "nested `Vec<Vec<f64>>` in library code — use a contiguous `Matrix`/`MatrixView` instead",
      "snippet": "pub fn rows() -> Vec<Vec<f64>> {"
    }
  ]
}
"#;
    assert_eq!(json::to_json(&r.diagnostics, &r.stats), expected);
}

#[test]
fn json_escapes_special_characters() {
    let diags = qpp_lint::lint_source(
        "virtual/crates/core/src/lib.rs",
        "pub fn f() {\n    let rows: Vec<Vec<f64>> = parse(\"tab\\there\");\n}\n".to_string(),
    );
    assert_eq!(diags.len(), 1);
    let stats = qpp_lint::Stats::default();
    let out = json::to_json(&diags, &stats);
    // The snippet contains a quoted string: it must arrive escaped.
    assert!(out.contains(r#"parse(\"tab\\there\")"#), "{out}");
    let empty = json::to_json(&[], &stats);
    assert!(empty.contains("\"count\": 0"), "{empty}");
}
