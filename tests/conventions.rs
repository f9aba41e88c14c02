//! Project conventions no type and no execution can see (DESIGN.md §14): each check
//! is a pure function over `(path, text)`, fired on inline text, then run over `crates/*/src`
//! (the examples rule: over `examples/` and `ci.sh`; the dev-dependency rule: over each
//! package's manifest and sources; the provenance rule: over README.md, DESIGN.md and every
//! file that cites a DESIGN.md section; the oracle-suite and size rules: over `qpp-ml`'s
//! test suites and the tracked Rust of `crates/` and `vendor/`).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The only files that may name an atomic ordering (DESIGN.md §14, "Atomics").
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
                Some(_) => "not Relaxed: write the pairing into DESIGN.md §14 first",
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

/// Every `.rs` file under `dirs`, as `(path, text)`; tests run from the package root.
fn rust_files(dirs: &[PathBuf]) -> Vec<(String, String)> {
    let (mut stack, mut files) = (dirs.to_vec(), Vec::new());
    while let Some(path) = stack.pop() {
        if let Ok(entries) = fs::read_dir(&path) {
            stack.extend(entries.map(|e| e.expect("dir entry").path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("readable");
            files.push((path.to_string_lossy().into_owned(), text));
        }
    }
    files
}

/// Every `.rs` file under `dirs`, concatenated.
fn sources_under(dirs: &[PathBuf]) -> String {
    rust_files(dirs).into_iter().map(|(_, text)| text).collect()
}

/// `check` over each `.rs` file under a `src/` of `crates/`.
fn over_live_sources(check: fn(&str, &str) -> Vec<String>) -> Vec<String> {
    let files = rust_files(&[PathBuf::from("crates")]);
    let live = Vec::from_iter(files.iter().filter(|(path, _)| path.contains("/src/")));
    let n = live.len();
    assert!(n > 50, "the walk found only {n} sources");
    live.iter().flat_map(|(p, t)| check(p, t)).collect()
}

/// What a README.md or DESIGN.md line may cite, and the sections a DESIGN.md reference may name.
struct Sources {
    /// The `## ` headings of `EXPERIMENTS.md`.
    experiments: Vec<String>,
    /// The name of every `#[test]` function in the repository's Rust.
    tests: Vec<String>,
    /// The numbers of DESIGN.md's `##` and `###` headings: each one's first word, less a `.`.
    sections: Vec<String>,
}

impl Sources {
    fn new(experiments: &str, rust: &str, design: &str) -> Sources {
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let test_fns = rust.split("#[test]").skip(1);
        let names = test_fns.filter_map(|t| t.split_once("fn ")?.1.split(|c| !ident(c)).next());
        let numbered = headings(design, "## ").chain(headings(design, "### "));
        let numbers = numbered.filter_map(|h| h.split(' ').next());
        Sources {
            experiments: headings(experiments, "## ").map(String::from).collect(),
            tests: names.map(String::from).collect(),
            sections: numbers.map(|n| n.trim_end_matches('.').into()).collect(),
        }
    }

    /// An `EXPERIMENTS.md` heading, whole or up to its ` — `.
    fn heading(&self, cited: &str) -> bool {
        let lead = |h: &String| h.split(" — ").next() == Some(cited);
        self.experiments.iter().any(|h| h == cited || lead(h))
    }

    fn test(&self, cited: &str) -> bool {
        self.tests.iter().any(|n| n == cited)
    }
}

/// The text of each heading line that starts with `mark`.
fn headings<'a>(text: &'a str, mark: &'a str) -> impl Iterator<Item = &'a str> {
    text.lines().filter_map(move |l| l.strip_prefix(mark))
}

/// The text after each `marker` in `line` that starts a word, up to `end`: one citation each.
fn cited<'a>(line: &'a str, marker: &str, end: char) -> Vec<&'a str> {
    let starts_word = |i: usize| !line[..i].ends_with(char::is_alphanumeric);
    let hits = line.match_indices(marker).filter(|(i, _)| starts_word(*i));
    let after = hits.map(|(i, m)| &line[i + m.len()..]);
    after.filter_map(|rest| rest.split(end).next()).collect()
}

/// A number that carries a unit: a digit run, an optional single space, then one of
/// `µs us ms s MB rps × %` not followed by a letter, digit or `_`.
fn carries_a_unit(line: &str) -> bool {
    let units = ["µs", "us", "ms", "s", "MB", "rps", "×", "%"];
    let word_end = |rest: &str| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    let digits = line.char_indices().filter(|(_, c)| c.is_ascii_digit());
    let after_runs = digits.map(|(i, _)| &line[i + 1..]);
    let after_runs = after_runs.filter(|rest| !rest.starts_with(|c: char| c.is_ascii_digit()));
    let mut ends = after_runs.map(|r| r.strip_prefix(' ').unwrap_or(r));
    let unit = |rest: &str, u: &str| rest.strip_prefix(u).is_some_and(word_end);
    ends.any(|rest| units.iter().any(|u| unit(rest, u)))
}

/// Every number in README.md and DESIGN.md names the source that produced it, and every
/// reference resolves. Outside fenced code blocks, a line that carries a unit must cite
/// `EXPERIMENTS.md "<heading>"` or test `` `<name>` `` (a `#[test]` function), and every such
/// citation must resolve. In any file, a reference to a DESIGN.md section by number (inside
/// DESIGN.md, a bare section sign and number) must name a numbered DESIGN.md heading. No
/// benchmark figure is a source: the recorded run describes an older tree.
fn unsourced_or_dangling(path: &str, text: &str, sources: &Sources) -> Vec<String> {
    let prose = path.ends_with("README.md") || path.ends_with("DESIGN.md");
    let design = path.ends_with("DESIGN.md");
    let section_mark = if design { "§" } else { "DESIGN.md §" };
    let (mut fenced, mut out) = (false, Vec::new());
    for (i, line) in text.lines().enumerate() {
        let mut flag = |why: String| out.push(format!("{path}:{}: {why}", i + 1));
        let fence = line.trim_start().starts_with("```");
        fenced ^= prose && fence;
        if fenced || fence {
            continue;
        }
        for reference in cited(line, section_mark, ' ') {
            let number = reference.trim_end_matches(|c: char| !c.is_ascii_digit());
            let numbered = number.starts_with(|c: char| c.is_ascii_digit());
            let known = sources.sections.iter().any(|s| s == number);
            if (numbered || !design) && !known {
                flag(format!("§{reference} names no DESIGN.md heading"));
            }
        }
        if !prose {
            continue;
        }
        let headings = cited(line, "EXPERIMENTS.md \"", '"');
        let tests = cited(line, "test `", '`');
        for heading in headings.iter().filter(|h| !sources.heading(h)) {
            flag(format!("EXPERIMENTS.md has no heading \"{heading}\""));
        }
        for test in tests.iter().filter(|t| !sources.test(t)) {
            flag(format!("no #[test] function is named `{test}`"));
        }
        let resolved =
            headings.iter().any(|h| sources.heading(h)) || tests.iter().any(|t| sources.test(t));
        if carries_a_unit(line) && !resolved {
            flag("a number with a unit cites no EXPERIMENTS.md heading and no test".into());
        }
    }
    out
}

/// The oracle suites of `qpp-ml` and the fewest tests each must hold: a suite that is
/// filtered down, ignored or switched off is no gate.
const ORACLE_SUITES: [(&str, usize); 3] = [
    ("svd_equivalence", 6),
    ("ann_equivalence", 10),
    ("fold_equivalence", 4),
];

/// A suite holds at least `min` `#[test]` functions and ignores none of them.
fn oracle_suite_shrunk(path: &str, text: &str, min: usize) -> Vec<String> {
    let count = |attr: &str| {
        text.lines()
            .filter(|l| l.trim_start().starts_with(attr))
            .count()
    };
    let (tests, ignored) = (count("#[test]"), count("#[ignore"));
    let short = (tests < min).then(|| format!("{path}: {tests} tests, the gate needs {min}"));
    let skips = (ignored > 0).then(|| format!("{path}: {ignored} #[ignore] attributes"));
    short.into_iter().chain(skips).collect()
}

/// A manifest that switches its test targets off (`autotests`, `test` or `harness = false`).
fn test_targets_switched_off(path: &str, manifest: &str) -> Vec<String> {
    let keys = ["autotests=false", "test=false", "harness=false"];
    let spaceless = manifest.lines().map(|l| l.replace([' ', '\t'], ""));
    let off = spaceless.filter(|l| keys.contains(&l.as_str()));
    off.map(|l| format!("{path}: {l}")).collect()
}

/// Lines of Rust in `crates/` and `vendor/` (ROADMAP aim 2): the measured total after the
/// last change that moved it. Lower it when code goes; raise it only with a reason that
/// CHANGES.md states.
const MAX_RUST_LINES: usize = 23_752;

/// The lines of `texts`, counted as `wc -l` counts them: newlines.
fn lines_of(texts: &[String]) -> usize {
    texts.iter().map(|t| t.matches('\n').count()).sum()
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

#[test]
fn every_number_in_the_docs_names_its_source() {
    let experiments = "# E\n## Exp. 1 — KCCA\n## Notes\n";
    let rust = "#[test]\nfn pushes_hold() {}\n#[test]\n#[should_panic]\nfn bad_width() {}\n";
    let design = "# D\n## 3. qpp-obs\n### 3.1 The ring\n## 17. Decisions\n";
    let sources = Sources::new(experiments, rust, design);
    let cases = [
        // Sourced: a heading, whole or up to its dash, or a test; a fenced block; no unit.
        ("README.md", "48% (EXPERIMENTS.md \"Exp. 1\")", 0),
        ("README.md", "0.72 (EXPERIMENTS.md \"Exp. 1 — KCCA\")", 0),
        ("DESIGN.md", "gets 3× the work (test `pushes_hold`)", 0),
        ("README.md", "```bash\nrun.sh  # 20 s, 48%\n```\n", 0),
        ("README.md", "156 lists, k=3, x86_64, 1,027 rows", 0),
        // Unsourced: a number, a missing heading, an unknown test.
        ("DESIGN.md", "the cycle reads 1.06 s on the box", 1),
        ("README.md", "`predict_large` `latency_p50_us`, 14 µs", 1),
        ("README.md", "48% (EXPERIMENTS.md \"Exp. 9\")", 2),
        ("DESIGN.md", "held by test `no_such_test`", 1),
        ("DESIGN.md", "3× (test `bad_width`, test `gone`)", 1),
        ("DESIGN.md", "the latest `gone` is no citation", 0),
        // Section references: resolved, dangling, named, and the paper's own sections.
        ("README.md", "See DESIGN.md §3.1 and DESIGN.md §17.", 0),
        ("crates/x/src/a.rs", "//! see DESIGN.md §12", 1),
        ("ci.sh", "# (DESIGN.md §Decisions)", 1),
        ("DESIGN.md", "paper §VII-C.3, then §3.1 and §9", 1),
    ];
    for (path, text, findings) in cases {
        let found = unsourced_or_dangling(path, text, &sources);
        assert_eq!(found.len(), findings, "{path}: {text}: {found:?}");
    }

    let read = |p: &str| fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
    let dirs = "crates src tests examples vendor benchmark/src".split(' ');
    let dirs: Vec<PathBuf> = dirs.map(PathBuf::from).collect();
    let files = rust_files(&dirs);
    let rust = String::from_iter(files.iter().map(|(_, text)| text.as_str()));
    let sources = Sources::new(&read("EXPERIMENTS.md"), &rust, &read("DESIGN.md"));
    assert!(sources.tests.len() > 400 && sources.sections.len() >= 17);
    let mut findings = Vec::new();
    for doc in ["README.md", "DESIGN.md", "ci.sh"] {
        findings.extend(unsourced_or_dangling(doc, &read(doc), &sources));
    }
    for (path, text) in files {
        // The fixtures above dangle on purpose; this file's comments are checked.
        let fixtures = path.ends_with("tests/conventions.rs");
        let comment = |l: &str| l.trim_start().starts_with("//");
        let lines = text
            .lines()
            .map(|l| if fixtures && !comment(l) { "" } else { l });
        let text = lines.collect::<Vec<_>>().join("\n");
        findings.extend(unsourced_or_dangling(&path, &text, &sources));
    }
    assert_eq!(findings, [""; 0]);
}

#[test]
fn every_oracle_suite_keeps_its_tests() {
    let suite = "#[test]\nfn a() {}\n#[test]\nfn b() {}\n";
    assert_eq!(oracle_suite_shrunk("s.rs", suite, 2), [""; 0]);
    assert_eq!(oracle_suite_shrunk("s.rs", suite, 3).len(), 1);
    let ignored = "#[test]\n#[ignore = \"slow\"]\nfn a() {}\n";
    assert_eq!(oracle_suite_shrunk("s.rs", ignored, 1).len(), 1);
    let off = "[package]\nautotests = false\n[[test]]\nname = \"x\"\ntest = false\n";
    assert_eq!(test_targets_switched_off("Cargo.toml", off).len(), 2);
    let on = "[package]\nname = \"qpp-ml\"\n[dependencies]\nrand.workspace = true\n";
    assert_eq!(test_targets_switched_off("Cargo.toml", on), [""; 0]);

    let manifest = "crates/ml/Cargo.toml";
    let text = fs::read_to_string(manifest).expect("the qpp-ml manifest");
    let mut findings = test_targets_switched_off(manifest, &text);
    for (suite, min) in ORACLE_SUITES {
        let path = format!("crates/ml/tests/{suite}.rs");
        let text = fs::read_to_string(&path).unwrap_or_default();
        findings.extend(oracle_suite_shrunk(&path, &text, min));
    }
    assert_eq!(findings, [""; 0]);
}

#[test]
fn lines_of_rust_do_not_rise() {
    let texts = ["fn a() {}\n\n", "fn b() {}"].map(String::from);
    assert_eq!(lines_of(&texts), 2);

    // The tracked files only, as `git ls-files` lists them per crate: an untracked
    // scratch file is not the repository's code. Without git the count cannot be made.
    let mut dirs = Vec::new();
    for root in ["crates", "vendor"] {
        let entries = fs::read_dir(root).expect("run from the package root");
        dirs.extend(entries.map(|e| e.expect("dir entry").path()));
    }
    dirs.sort();
    let (mut texts, mut per_crate) = (Vec::new(), Vec::new());
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        let spec = format!("{}/*.rs", dir.display());
        let git = Command::new("git").args(["ls-files", "--", &spec]).output();
        let git = git.expect("git runs: the size ratchet counts tracked files");
        assert!(git.status.success(), "git ls-files {spec}: {git:?}");
        let listed = String::from_utf8(git.stdout).expect("utf-8 paths");
        let before = texts.len();
        let read = |rel: &str| fs::read_to_string(rel).expect("a tracked file is readable");
        texts.extend(listed.lines().map(read));
        per_crate.push(format!("{} {}", dir.display(), lines_of(&texts[before..])));
    }
    assert!(texts.len() > 50, "git listed only {} files", texts.len());
    let total = lines_of(&texts);
    let over = format!("crates/ + vendor/ hold {total} lines of Rust, ceiling {MAX_RUST_LINES}");
    assert!(total <= MAX_RUST_LINES, "{over}: {per_crate:#?}");
}
