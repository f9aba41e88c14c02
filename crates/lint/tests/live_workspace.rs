//! The linter's own acceptance test: the real workspace is clean.
//!
//! This is the same check `ci.sh` runs as its first gate; keeping it in
//! the test suite means `cargo test` alone catches a regression in any
//! crate — including edits that bypass ci.sh.

use qpp_lint::lint_report;
use std::path::{Path, PathBuf};

fn crates_dir() -> PathBuf {
    let lint = Path::new(env!("CARGO_MANIFEST_DIR"));
    lint.parent()
        .expect("crates/lint has a parent")
        .to_path_buf()
}

/// Lints `crates/<sub>` and asserts it is clean; returns the run's stats.
fn lint_clean(sub: &str) -> qpp_lint::Stats {
    let dir = crates_dir().join(sub).to_string_lossy().into_owned();
    let report = lint_report(&[dir]);
    assert!(report.errors.is_empty(), "walk errors: {:?}", report.errors);
    assert!(
        report.diagnostics.is_empty(),
        "crates/{sub} must be lint-clean; run `cargo run -p qpp-lint -- crates`:\n{}",
        qpp_lint::render_human(&report.diagnostics)
    );
    report.stats
}

/// Every `.rs` file under `dir` (fixtures and build output excluded)
/// with its text.
fn sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read workspace dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != "fixtures" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                out.push((path, text));
            }
        }
    }
    out
}

/// Files under `crates/<sub>/src` containing `needle`.
fn files_with(sub: &str, needle: &str) -> Vec<PathBuf> {
    let hits = sources(&crates_dir().join(sub).join("src"));
    assert!(!hits.is_empty(), "crates/{sub}/src holds Rust sources");
    hits.into_iter()
        .filter(|(_, text)| text.contains(needle))
        .map(|(p, _)| p)
        .collect()
}

/// Clean, every root and every kernel the predict/serve/trace paths run
/// carries its own marker (56 roots + the 17 kernels that used to be
/// hot only by call-graph inference), and every atomic ordering is
/// justified.
#[test]
fn live_workspace_has_no_violations() {
    let stats = lint_clean("");
    assert!(stats.hot_fns >= 70, "{stats:?}");
    assert_eq!(stats.atomic_sites, stats.atomic_justified, "{stats:?}");
}

/// Waivers are findings too. An atomic ordering is justified by a real
/// `// ordering:` comment, never waived — the justification IS the
/// deliverable. The allocation rule has exactly one reviewed waiver
/// (the error path in `KccaPredictor::predict_row`); obs, serve and
/// adapt sit on the request path and carry no waiver of any kind.
#[test]
fn waivers_stay_where_they_were_reviewed() {
    // Assembled at runtime so this test's own source never contains
    // the needles it hunts for.
    let allow = |rule: &str| format!("allow({rule})");
    let all = sources(&crates_dir());
    assert!(all.len() > 50, "workspace walk found {} sources", all.len());
    for (path, text) in &all {
        assert!(
            !text.contains(&allow("atomic-ordering-audit")),
            "{} waives the atomic-ordering audit; justify the ordering \
             with an `// ordering:` comment instead",
            path.display()
        );
    }
    let alloc_waivers: Vec<PathBuf> = all
        .iter()
        .filter(|(p, text)| {
            // This crate's sources spell the directive out in prose.
            !p.starts_with(env!("CARGO_MANIFEST_DIR")) && text.contains(&allow("no-alloc-hot-path"))
        })
        .map(|(p, _)| p.clone())
        .collect();
    assert_eq!(alloc_waivers.len(), 1, "{alloc_waivers:?}");
    assert!(alloc_waivers[0].ends_with("core/src/predictor.rs"));
    for sub in ["obs", "serve", "adapt"] {
        lint_clean(sub);
        let waived = files_with(sub, "qpp-lint: allow(");
        assert!(
            waived.is_empty(),
            "crates/{sub} carries a waiver: {waived:?}"
        );
    }
}

/// The serve data plane (queue push/drain, stats cells, tenant
/// resolution, registry lookup) is covered by `no-alloc-hot-path`
/// markers rather than exempted from them; a refactor can't silently
/// drop the coverage.
#[test]
fn serve_hot_paths_stay_marked() {
    let stats = lint_clean("serve");
    assert!(
        stats.hot_fns >= 10,
        "expected >= 10 marked bodies across crates/serve, found {}",
        stats.hot_fns
    );
}

/// Two rules left qpp-lint for clippy, which checks them by type. This
/// pins the hand-over: drop a `clippy.toml` or a warn-list entry and
/// the property is silently unchecked again.
#[test]
fn clippy_owns_the_clock_and_hash_order_rules() {
    for sub in ["core", "ml", "linalg", "adapt"] {
        let toml = std::fs::read_to_string(crates_dir().join(sub).join("clippy.toml"))
            .unwrap_or_else(|e| panic!("crates/{sub}/clippy.toml: {e}"));
        let line = toml
            .lines()
            .find(|l| l.starts_with("disallowed-types"))
            .unwrap_or_else(|| panic!("crates/{sub}/clippy.toml sets no disallowed-types"));
        for ty in ["std::time::Instant", "std::time::SystemTime"] {
            assert!(line.contains(ty), "crates/{sub}/clippy.toml: {ty} missing");
        }
    }
    let mut libraries = 0;
    for entry in std::fs::read_dir(crates_dir()).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // The two tool crates serve no request and train no model.
        if name == "lint" || name == "bench" {
            continue;
        }
        let lib = std::fs::read_to_string(dir.join("src/lib.rs"))
            .unwrap_or_else(|e| panic!("crates/{name}/src/lib.rs: {e}"));
        assert!(
            lib.contains("clippy::iter_over_hash_type"),
            "crates/{name}/src/lib.rs: warn list lost clippy::iter_over_hash_type"
        );
        libraries += 1;
    }
    assert_eq!(libraries, 10);
}
