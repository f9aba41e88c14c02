//! qpp-lint CLI.
//!
//! ```text
//! qpp-lint [--json] [PATH ...]       lint files/directories (default: crates)
//! qpp-lint --explain <RULE>          print a rule's rationale and fixes
//! qpp-lint --list                    list all rules
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut list = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--explain" => match it.next() {
                Some(rule) => explain = Some(rule),
                None => {
                    eprintln!("qpp-lint: --explain needs a rule id (try --list)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("qpp-lint: unknown flag `{other}`");
                print_usage();
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }

    if list {
        for r in qpp_lint::RULES {
            println!("{:<28} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = explain {
        return match qpp_lint::rule_info(&rule) {
            Some(info) => {
                println!("{} — {}\n\n{}", info.id, info.summary, info.explain);
                if info.id != qpp_lint::rules::DIRECTIVE {
                    println!(
                        "\nOpt out per line with `// qpp-lint: allow({})` on the \
                         offending line or alone on the line above it.",
                        info.id
                    );
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("qpp-lint: unknown rule `{rule}` (try --list)");
                ExitCode::from(2)
            }
        };
    }

    if paths.is_empty() {
        paths.push("crates".to_string());
    }
    let report = qpp_lint::lint_report(&paths);
    let (diags, errors) = (report.diagnostics, report.errors);
    for e in &errors {
        eprintln!("qpp-lint: {e}");
    }
    if json {
        print!("{}", qpp_lint::json::to_json(&diags, &report.stats));
    } else if diags.is_empty() {
        println!("qpp-lint: clean ({} rules enforced)", qpp_lint::RULES.len());
    } else {
        print!("{}", qpp_lint::render_human(&diags));
    }
    if !errors.is_empty() {
        ExitCode::from(2)
    } else if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_usage() {
    println!(
        "qpp-lint: workspace static analysis for the qpp invariants\n\n\
         usage:\n  qpp-lint [--json] [PATH ...]   lint files/directories (default: crates)\n  \
         qpp-lint --explain <RULE>      print a rule's rationale and fixes\n  \
         qpp-lint --list                list all rules\n\n\
         exit codes: 0 clean, 1 violations, 2 usage or I/O error"
    );
}
