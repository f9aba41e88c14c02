//! The linter's own acceptance test: the real workspace is clean.
//!
//! This is the same check `ci.sh` runs as its first gate; keeping it in
//! the test suite means `cargo test` alone catches a regression in any
//! crate — including edits that bypass ci.sh.

use qpp_lint::lint_report;

#[test]
fn live_workspace_has_no_violations() {
    let crates_dir = format!("{}/../../crates", env!("CARGO_MANIFEST_DIR"));
    let report = lint_report(&[crates_dir]);
    assert!(report.errors.is_empty(), "walk errors: {:?}", report.errors);
    let diags = report.diagnostics;
    assert!(
        diags.is_empty(),
        "workspace must be lint-clean; run `cargo run -p qpp-lint -- crates`:\n{}",
        qpp_lint::render_human(&diags)
    );
}

/// The observability crate sits on the serve hot path, so it gets the
/// strictest treatment: not only lint-clean, but with ZERO opt-outs of
/// the allocation rule. Recording an event must be allocation-free by
/// construction, not by waiver.
#[test]
fn obs_crate_is_lint_clean_with_no_alloc_waivers() {
    let obs_dir = format!("{}/../../crates/obs", env!("CARGO_MANIFEST_DIR"));
    let report = lint_report(std::slice::from_ref(&obs_dir));
    assert!(report.errors.is_empty(), "walk errors: {:?}", report.errors);
    let diags = report.diagnostics;
    assert!(
        diags.is_empty(),
        "qpp-obs must be lint-clean:\n{}",
        qpp_lint::render_human(&diags)
    );

    let mut sources = Vec::new();
    let src_dir = std::path::Path::new(&obs_dir).join("src");
    for entry in std::fs::read_dir(&src_dir).expect("read crates/obs/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push(path);
        }
    }
    assert!(!sources.is_empty(), "crates/obs/src holds Rust sources");
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read obs source");
        assert!(
            !text.contains("allow(no-alloc-hot-path)"),
            "{} opts out of no-alloc-hot-path; the obs hot path must be \
             allocation-free without waivers",
            path.display()
        );
    }
}

/// Every atomic `Ordering` choice in the workspace is justified by a
/// real `// ordering:` comment — never waived. A waiver would let an
/// undocumented ordering through the audit, which defeats its purpose:
/// the justification IS the deliverable, and writing one is never
/// harder than writing the allow directive.
#[test]
fn workspace_has_zero_atomic_ordering_waivers() {
    let crates_dir = format!("{}/../../crates", env!("CARGO_MANIFEST_DIR"));
    // Assembled at runtime so this test's own source never contains
    // the needle it hunts for.
    let needle = format!("allow({})", "atomic-ordering-audit");
    let mut stack = vec![std::path::PathBuf::from(&crates_dir)];
    let mut sources = 0usize;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read workspace dir") {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if name != "target" && name != "fixtures" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                sources += 1;
                let text = std::fs::read_to_string(&path).expect("read source");
                assert!(
                    !text.contains(&needle),
                    "{} waives the atomic-ordering audit; justify the ordering \
                     with an `// ordering:` comment instead",
                    path.display()
                );
            }
        }
    }
    assert!(sources > 50, "workspace walk found only {sources} sources");
}

/// The serve data plane (queue push/drain, stats cells, tenant
/// resolution, registry lookup) is covered by `no-alloc-hot-path`
/// markers rather than exempted from them: the admission gate and the
/// deficit-round-robin drain run on every request, so they must stay
/// allocation-free by construction. This pins both directions — the
/// markers exist (a refactor can't silently drop the coverage) and no
/// waiver weakens them.
#[test]
fn serve_hot_paths_stay_marked_and_waiver_free() {
    let serve_dir = format!("{}/../../crates/serve", env!("CARGO_MANIFEST_DIR"));
    let report = lint_report(std::slice::from_ref(&serve_dir));
    assert!(report.errors.is_empty(), "walk errors: {:?}", report.errors);
    let diags = report.diagnostics;
    assert!(
        diags.is_empty(),
        "qpp-serve must be lint-clean:\n{}",
        qpp_lint::render_human(&diags)
    );

    let src_dir = std::path::Path::new(&serve_dir).join("src");
    let mut markers = 0usize;
    let mut sources = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("read crates/serve/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        sources += 1;
        let text = std::fs::read_to_string(&path).expect("read serve source");
        markers += text.matches("qpp-lint: hot-path").count();
        assert!(
            !text.contains("allow(no-alloc-hot-path)"),
            "{} opts out of no-alloc-hot-path; serve data-plane code must \
             be allocation-free without waivers",
            path.display()
        );
        assert!(
            !text.contains("qpp-lint: allow("),
            "{} carries a lint waiver; qpp-serve must be clean without \
             opt-outs",
            path.display()
        );
    }
    assert!(sources >= 5, "crates/serve/src holds the pipeline modules");
    assert!(
        markers >= 10,
        "expected >= 10 hot-path markers across crates/serve/src, found \
         {markers}; the admission/drain/stats fast paths must stay under \
         the no-alloc rule"
    );
}

/// The continuous-learning crate records errors on the completion path
/// and feeds the deterministic drift detector, so it gets the same
/// treatment as qpp-obs: lint-clean with ZERO rule waivers of any kind.
/// Epoch-driven determinism (`no-wallclock-in-model` now covers
/// `adapt`) and the alloc/ordering rules must hold by construction.
#[test]
fn adapt_crate_is_lint_clean_with_no_waivers() {
    let adapt_dir = format!("{}/../../crates/adapt", env!("CARGO_MANIFEST_DIR"));
    let report = lint_report(std::slice::from_ref(&adapt_dir));
    assert!(report.errors.is_empty(), "walk errors: {:?}", report.errors);
    let diags = report.diagnostics;
    assert!(
        diags.is_empty(),
        "qpp-adapt must be lint-clean:\n{}",
        qpp_lint::render_human(&diags)
    );

    let mut sources = Vec::new();
    let src_dir = std::path::Path::new(&adapt_dir).join("src");
    for entry in std::fs::read_dir(&src_dir).expect("read crates/adapt/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push(path);
        }
    }
    assert!(!sources.is_empty(), "crates/adapt/src holds Rust sources");
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read adapt source");
        assert!(
            !text.contains("qpp-lint: allow("),
            "{} carries a lint waiver; qpp-adapt must be clean without \
             opt-outs",
            path.display()
        );
    }
}
