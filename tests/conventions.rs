//! Project conventions no type and no execution can see (DESIGN.md §11): each check
//! is a pure function over `(path, text)`, fired on inline text, then run over `crates/*/src`
//! (the examples rule: over `examples/` and `ci.sh`; the dev-dependency rule: over each
//! package's manifest and sources).

use std::fs;
use std::path::PathBuf;

/// The only files that may name an atomic ordering (DESIGN.md §11 "Atomics").
const REVIEWED_ATOMICS: [&str; 3] = ["obs/src/metrics.rs", "obs/src/lib.rs", "par/src/lib.rs"];

/// The data plane is contiguous matrices and views: a `Vec<Vec<f64>>`
/// line must carry `allow-vecvec` (test fixtures do).
fn nested_f64_rows(path: &str, text: &str) -> Vec<String> {
    let nested = |l: &&str| l.contains("Vec<Vec<f64>>") && !l.contains("allow-vecvec");
    let hits = text.lines().filter(nested);
    hits.map(|l| format!("{path}: {}", l.trim())).collect()
}

/// Every atomic ordering is `Relaxed`, sits in a reviewed file, and has an
/// `// ordering:` reason on its line or above it, back to the last statement end.
fn atomic_sites_outside_review(path: &str, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let reviewed = REVIEWED_ATOMICS.iter().any(|f| path.ends_with(f));
    let code = |i: usize| lines[i].split("//").next().unwrap_or("").trim_end();
    let justified = |site: usize| {
        let above = (0..site).rev();
        let mut near = above.take_while(|&i| !code(i).ends_with([';', '{', '}']));
        lines[site].contains("// ordering:") || near.any(|i| lines[i].contains("// ordering:"))
    };
    let mut out = Vec::new();
    for i in 0..lines.len() {
        for variant in code(i).split("Ordering::").skip(1) {
            let atomic = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
            let why = match atomic.iter().find(|v| variant.starts_with(**v)) {
                None => continue, // a `std::cmp::Ordering`
                Some(_) if !reviewed => "an atomic outside the three reviewed files",
                Some(&"Relaxed") if justified(i) => continue,
                Some(&"Relaxed") => "no `// ordering:` reason on the line or above it",
                Some(_) => "not Relaxed: write the pairing into DESIGN.md §11 first",
            };
            out.push(format!("{path}:{}: {why}", i + 1));
        }
    }
    out
}

/// Two rules are clippy's, by type: no clock read in a model crate (`clippy.toml`), no
/// hash-order iteration in a library (`lib.rs` warn list). Drop a line and its rule is off.
fn clippy_handover(path: &str, text: &str) -> Vec<String> {
    let lacks = |hay: &str, n: &str| (!hay.contains(n)).then(|| format!("{path}: lacks {n}"));
    if !path.ends_with("clippy.toml") {
        return Vec::from_iter(lacks(text, "clippy::iter_over_hash_type"));
    }
    let rule = text.lines().find(|l| l.starts_with("disallowed-types"));
    let clocks = ["std::time::Instant", "std::time::SystemTime"];
    Vec::from_iter(clocks.iter().filter_map(|ty| lacks(rule.unwrap_or(""), ty)))
}

/// No crate needs `unsafe`: each `lib.rs` forbids it, so the compiler refuses a new block.
fn unsafe_left_open(path: &str, text: &str) -> Vec<String> {
    let forbids = text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]");
    Vec::from_iter((!forbids).then(|| format!("{path}: lacks #![forbid(unsafe_code)]")))
}

/// An example stays only while CI runs it: `ci.sh` must execute each
/// `examples/<name>.rs` as `target/release/examples/<name>` on a line
/// that is not a comment.
fn examples_ci_never_runs(names: &[String], ci: &str) -> Vec<String> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./".contains(c);
    let code = ci.lines().filter(|l| !l.trim_start().starts_with('#'));
    let runs: Vec<&str> = code.flat_map(|l| l.split(|c| !path_char(c))).collect();
    let run = |name: &String| {
        let binary = format!("target/release/examples/{name}");
        runs.iter().any(|t| t.trim_start_matches("./") == binary)
    };
    names
        .iter()
        .filter(|n| !run(n))
        .map(|n| format!("examples/{n}.rs: no ci.sh run"))
        .collect()
}

/// A `[dev-dependencies]` entry stays only while its package's sources name it as a
/// path (`-` becomes `_`): one `name::` not preceded by an identifier character.
fn dev_dependencies_never_named(path: &str, manifest: &str, sources: &str) -> Vec<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let named = |krate: &str| {
        let as_path = format!("{}::", krate.replace('-', "_"));
        let mut hits = sources.match_indices(&as_path);
        hits.any(|(i, _)| !sources[..i].ends_with(ident))
    };
    let section = manifest
        .lines()
        .skip_while(|l| l.trim() != "[dev-dependencies]");
    let entries = section.skip(1).take_while(|l| !l.starts_with('['));
    let keys = entries.filter_map(|l| l.split(['.', '=', ' ']).next());
    let keys = keys.filter(|k| !k.is_empty() && !k.starts_with('#') && !named(k));
    keys.map(|k| format!("{path}: {k} never named")).collect()
}

/// Every `.rs` file under `dirs`, concatenated.
fn sources_under(dirs: &[PathBuf]) -> String {
    let (mut stack, mut text) = (dirs.to_vec(), String::new());
    while let Some(path) = stack.pop() {
        if let Ok(entries) = fs::read_dir(&path) {
            stack.extend(entries.map(|e| e.expect("dir entry").path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            text += &fs::read_to_string(&path).expect("readable");
        }
    }
    text
}

/// `check` over each `.rs` file under a `src/` of `crates/`; tests run from the package root.
fn over_live_sources(check: fn(&str, &str) -> Vec<String>) -> Vec<String> {
    let (mut stack, mut files, mut findings) = (vec![PathBuf::from("crates")], 0, Vec::new());
    while let Some(path) = stack.pop() {
        let rel = path.to_string_lossy();
        if let Ok(entries) = fs::read_dir(&path) {
            stack.extend(entries.map(|e| e.expect("dir entry").path()));
        } else if rel.ends_with(".rs") && rel.contains("/src/") {
            findings.extend(check(&rel, &fs::read_to_string(&path).expect("readable")));
            files += 1;
        }
    }
    assert!(files > 50, "the walk found only {files} sources");
    findings
}

#[test]
fn no_nested_f64_rows_in_the_data_plane() {
    let fixture = "type P = Vec<Vec<f64>>; // allow-vecvec: test fixture\nlet v: Vec<f64>;";
    assert_eq!(nested_f64_rows("x.rs", fixture), [""; 0]);
    assert_eq!(nested_f64_rows("x.rs", "    rows: Vec<Vec<f64>>,").len(), 1);
    assert_eq!(over_live_sources(nested_f64_rows), [""; 0]);
}

#[test]
fn atomics_stay_relaxed_justified_and_confined() {
    let (serve, metrics) = ("crates/serve/src/stats.rs", "crates/obs/src/metrics.rs");
    let count = |path, text| atomic_sites_outside_review(path, text).len();
    assert_eq!(count(serve, "x.load(Ordering::SeqCst); // ordering: y"), 1);
    let bare = "f(); // ordering: of f\nn.fetch_add(1, Ordering::Relaxed);";
    assert_eq!(count(metrics, bare), 1);
    let paired = "// ordering: pairs with g\nx.store(1, Ordering::Release);";
    assert_eq!(count(metrics, paired), 1);
    let same_line = "n.fetch_add(1, Ordering::Relaxed); // ordering: a statistic";
    assert_eq!(count(metrics, same_line), 0);
    let cmp = "a.cmp(b) == std::cmp::Ordering::Less || c == Ordering::Equal";
    assert_eq!(count(serve, cmp), 0);
    assert_eq!(over_live_sources(atomic_sites_outside_review), [""; 0]);
}

#[test]
fn clippy_owns_the_clock_and_hash_order_rules() {
    let one_clock = "disallowed-types = [\"std::time::Instant\"]";
    assert_eq!(clippy_handover("clippy.toml", one_clock).len(), 1);
    assert_eq!(clippy_handover("lib.rs", "clippy::panic").len(), 1);
    let kept = clippy_handover("lib.rs", "clippy::iter_over_hash_type");
    assert_eq!(kept, [""; 0]);
    let model = ["core", "ml", "linalg", "adapt"];
    let mut files = model.map(|c| format!("crates/{c}/clippy.toml")).to_vec();
    for entry in fs::read_dir("crates").expect("run from the package root") {
        let name = entry.expect("dir entry").file_name();
        // The experiments harness serves no request and trains no model.
        if name != "bench" {
            files.push(format!("crates/{}/src/lib.rs", name.to_string_lossy()));
        }
    }
    assert_eq!(files.len(), 4 + 9, "{files:?}");
    for rel in files {
        let text = fs::read_to_string(&rel).unwrap_or_default();
        assert_eq!(clippy_handover(&rel, &text), [""; 0]);
    }
}

#[test]
fn every_library_forbids_unsafe_code() {
    let commented = "// #![forbid(unsafe_code)]";
    assert_eq!(unsafe_left_open("lib.rs", commented).len(), 1);
    let forbidden = "#![forbid(unsafe_code)]\npub mod a;";
    assert_eq!(unsafe_left_open("lib.rs", forbidden), [""; 0]);
    let mut libs = 0;
    for entry in fs::read_dir("crates").expect("run from the package root") {
        let name = entry.expect("dir entry").file_name();
        let rel = format!("crates/{}/src/lib.rs", name.to_string_lossy());
        let text = fs::read_to_string(&rel).unwrap_or_default();
        assert_eq!(unsafe_left_open(&rel, &text), [""; 0]);
        libs += 1;
    }
    assert_eq!(libs, 10);
}

#[test]
fn every_example_runs_in_ci() {
    let names = |list: &[&str]| Vec::from_iter(list.iter().map(|n| n.to_string()));
    let ci = "# ./target/release/examples/b\nOUT=$(./target/release/examples/a)\n";
    assert_eq!(examples_ci_never_runs(&names(&["a"]), ci), [""; 0]);
    assert_eq!(examples_ci_never_runs(&names(&["b", "c"]), ci).len(), 2);
    let longer = "./target/release/examples/a_b >/dev/null";
    assert_eq!(examples_ci_never_runs(&names(&["a"]), longer).len(), 1);
    let mut examples = Vec::new();
    for entry in fs::read_dir("examples").expect("run from the package root") {
        let file = entry
            .expect("dir entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        examples.extend(file.strip_suffix(".rs").map(String::from));
    }
    assert!(!examples.is_empty(), "no examples found");
    let ci = fs::read_to_string("ci.sh").expect("ci.sh at the package root");
    assert_eq!(examples_ci_never_runs(&examples, &ci), [""; 0]);
}

#[test]
fn every_dev_dependency_is_named_in_its_crate() {
    let manifest = "[dev-dependencies]\nrand.workspace = true\nqpp-workload = { path = \"w\" }\n";
    let both = "use rand::Rng;\nqpp_workload::Schema::tpcds(1.0);";
    assert_eq!(dev_dependencies_never_named("C", manifest, both), [""; 0]);
    let lookalikes = "operand::x; // rand\nmy_qpp_workload::y;";
    assert_eq!(
        dev_dependencies_never_named("C", manifest, lookalikes).len(),
        2
    );
    let normal = "[dependencies]\nserde.workspace = true\n";
    assert_eq!(dev_dependencies_never_named("C", normal, ""), [""; 0]);
    let mut packages = vec![(PathBuf::new(), vec!["src", "tests", "examples"])];
    for entry in fs::read_dir("crates").expect("run from the package root") {
        packages.push((entry.expect("dir entry").path(), vec![""]));
    }
    assert_eq!(packages.len(), 1 + 10);
    let mut findings = Vec::new();
    for (root, dirs) in packages {
        let path = root.join("Cargo.toml").to_string_lossy().into_owned();
        let manifest = fs::read_to_string(&path).expect("a manifest");
        let sources = sources_under(&Vec::from_iter(dirs.iter().map(|d| root.join(d))));
        findings.extend(dev_dependencies_never_named(&path, &manifest, &sources));
    }
    assert_eq!(findings, [""; 0]);
}
