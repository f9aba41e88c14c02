//! Minimal JSON emission for `--json` output.
//!
//! The linter is dependency-free by design, so this is a small writer
//! for exactly the one shape we emit, with correct string escaping per
//! RFC 8259.
//!
//! The v3 document (v2 carried call-graph statistics and provenance
//! chains, both gone with the call graph):
//!
//! ```text
//! {
//!   "version": 3,
//!   "count": N,
//!   "stats": { "files": .., "hot_fns": .., "atomic_sites": .., "atomic_justified": .. },
//!   "diagnostics": [ { "rule", "file", "line", "col", "message", "snippet" } ]
//! }
//! ```

use crate::rules::Diagnostic;
use crate::Stats;
use std::fmt::Write as _;

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serializes a full lint run as the stable, pretty-printed v3 JSON
/// document described in the module docs.
pub fn to_json(diags: &[Diagnostic], stats: &Stats) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 3,\n");
    let _ = writeln!(out, "  \"count\": {},", diags.len());
    out.push_str("  \"stats\": {\n");
    for (i, (k, v)) in [
        ("files", stats.files),
        ("hot_fns", stats.hot_fns),
        ("atomic_sites", stats.atomic_sites),
        ("atomic_justified", stats.atomic_justified),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "    \"{k}\": {v}");
    }
    out.push_str("\n  },\n");
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        for (j, (k, v)) in [("rule", d.rule), ("file", d.path.as_str())]
            .iter()
            .enumerate()
        {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n      \"{k}\": \"");
            escape_into(&mut out, v);
            out.push('"');
        }
        let _ = write!(out, ",\n      \"line\": {},", d.line);
        let _ = write!(out, "\n      \"col\": {}", d.col);
        for (k, v) in [
            ("message", d.message.as_str()),
            ("snippet", d.snippet.as_str()),
        ] {
            let _ = write!(out, ",\n      \"{k}\": \"");
            escape_into(&mut out, v);
            out.push('"');
        }
        out.push_str("\n    }");
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}
