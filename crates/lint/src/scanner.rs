//! Lightweight scanner: turns a lexed file into the structural facts
//! the rules match against.
//!
//! Nothing here is a parser. The scanner extracts exactly three things,
//! all computed from the token and comment streams (so strings can
//! never confuse it):
//!
//! * **test regions** — byte ranges of `#[cfg(test)]` items and
//!   `#[test]` functions, which most rules exempt;
//! * **directives** — every comment that starts with `qpp-lint:`,
//!   parsed into [`Directive`]: a `hot-path` marker with the body it
//!   attaches to, an `allow(rule, ...)` opt-out, or an unknown word
//!   (which the `directive` rule reports — a typo must not unlint a
//!   function silently);
//! * **allow lines** — the `(line, rule)` pairs the opt-outs cover
//!   (plus the legacy `// allow-vecvec` spelling).

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::ops::Range;
use std::path::Path;

/// One `// qpp-lint: <word>` comment, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `hot-path`: the body (braces included) of the function the
    /// marker attaches to, or `None` when the next `fn` is a body-less
    /// declaration or there is no `fn` after the marker.
    HotPath(Option<Range<usize>>),
    /// `allow(a, b)`: the rule ids named.
    Allow(Vec<String>),
    /// Any other word: a typo (`hot_path`), a retired marker, or an
    /// `allow` without its parenthesised rule list.
    Unknown(String),
}

/// Everything the rules need to know about one source file.
pub struct FileModel {
    /// Path as given on the command line (kept verbatim in output).
    pub path: String,
    /// Full source text.
    pub src: String,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// Byte offset where each 1-based line starts.
    pub line_starts: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items and `#[test]` fns.
    pub test_regions: Vec<Range<usize>>,
    /// Every `qpp-lint:` comment, as (index into `lexed.comments`,
    /// parsed directive), in source order.
    pub directives: Vec<(usize, Directive)>,
    /// Body byte ranges of functions marked `// qpp-lint: hot-path`.
    pub hot_fns: Vec<Range<usize>>,
    /// `(line, rule)` pairs from allow directives.
    pub allows: Vec<(u32, String)>,
    /// Crate this file belongs to (`core` for `crates/core/src/...`),
    /// taken from the component after the **last** `crates` directory
    /// so fixture trees can replicate real layouts.
    pub crate_name: Option<String>,
    /// True for files under `tests/`, `benches/` or `examples/`.
    pub is_test_file: bool,
    /// True for binary targets (`src/bin/...` or `main.rs`).
    pub is_bin_file: bool,
}

impl FileModel {
    /// Lexes and scans one file.
    pub fn build(path: &str, src: String) -> FileModel {
        let lexed = lex(&src);
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let (crate_name, is_test_file, is_bin_file) = classify(path);
        let test_regions = find_test_regions(&lexed.tokens, &src);
        let directives = find_directives(&lexed, &src);
        let hot_fns = directives
            .iter()
            .filter_map(|(_, d)| match d {
                Directive::HotPath(body) => body.clone(),
                _ => None,
            })
            .collect();
        let allows = find_allows(&lexed.comments, &directives, &line_starts, &src);
        FileModel {
            path: path.to_string(),
            src,
            lexed,
            line_starts,
            test_regions,
            directives,
            hot_fns,
            allows,
            crate_name,
            is_test_file,
            is_bin_file,
        }
    }

    /// Token text.
    pub fn text(&self, t: &Token) -> &str {
        &self.src[t.start..t.end]
    }

    /// The full source line `line` (1-based), without trailing newline.
    pub fn line_text(&self, line: u32) -> &str {
        let i = (line as usize).saturating_sub(1);
        let start = self.line_starts.get(i).copied().unwrap_or(0);
        let end = self
            .line_starts
            .get(i + 1)
            .map(|e| e.saturating_sub(1))
            .unwrap_or(self.src.len());
        self.src[start..end.max(start)].trim_end()
    }

    /// True when byte `offset` falls inside any test region.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&offset))
    }

    /// True when byte `offset` falls inside a hot-path function body.
    pub fn in_hot_fn(&self, offset: usize) -> bool {
        self.hot_fns.iter().any(|r| r.contains(&offset))
    }

    /// True when `rule` is allowed on `line` by a directive comment
    /// (same line, or a directive alone on the previous line).
    pub fn is_allowed(&self, line: u32, rule: &str) -> bool {
        self.allows.iter().any(|(l, r)| *l == line && r == rule)
    }
}

/// Splits `path` into (crate name, is-test-file, is-bin-file), looking
/// at the components after the last `crates` directory.
fn classify(path: &str) -> (Option<String>, bool, bool) {
    let comps: Vec<&str> = Path::new(path)
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let (crate_name, rest): (Option<String>, &[&str]) =
        match comps.iter().rposition(|c| *c == "crates") {
            Some(i) => (
                comps.get(i + 1).map(|s| s.to_string()),
                comps.get(i + 2..).unwrap_or(&[]),
            ),
            None => (None, &comps[..]),
        };
    let is_test_file = rest
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
    let is_bin_file =
        rest.contains(&"bin") || rest.last().map(|c| *c == "main.rs").unwrap_or(false);
    (crate_name, is_test_file, is_bin_file)
}

/// Token index of the `}` matching the `{` at token index `open`.
fn match_brace(tokens: &[Token], open: usize, src: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in tokens[open..].iter().enumerate() {
        if t.kind == TokenKind::Punct {
            match &src[t.start..t.end] {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(open + off);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Finds `#[cfg(test)]` / `#[test]` attribute targets and returns the
/// byte range of each target item (attribute through closing brace).
fn find_test_regions(tokens: &[Token], src: &str) -> Vec<Range<usize>> {
    let txt = |k: usize| tokens.get(k).map(|t| &src[t.start..t.end]);
    let mut regions: Vec<Range<usize>> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let after_attr = match match_test_attribute(tokens, i, src) {
            Some(k) => k,
            None => {
                i += 1;
                continue;
            }
        };
        // Find the item body: first `{` before a `;` at bracket depth 0,
        // skipping any stacked attributes.
        let mut k = after_attr;
        let mut depth = 0i32;
        let mut body: Option<Range<usize>> = None;
        while k < tokens.len() {
            match txt(k) {
                Some("#") if txt(k + 1) == Some("[") && depth == 0 => {
                    // Skip a stacked `#[...]` attribute group.
                    let mut d = 0i32;
                    k += 1;
                    while k < tokens.len() {
                        match txt(k) {
                            Some("[") => d += 1,
                            Some("]") => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth -= 1,
                Some(";") if depth == 0 => break, // braceless item
                Some("{") if depth == 0 => {
                    if let Some(close) = match_brace(tokens, k, src) {
                        body = Some(tokens[i].start..tokens[close].end);
                    }
                    break;
                }
                None => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(r) = body {
            i = k; // resume after the body opener; nested attrs are inside
            regions.push(r);
        }
        i += 1;
    }
    regions
}

/// If the attribute starting at token `i` is `#[test]` or a `#[cfg(...)]`
/// whose arguments mention `test`, returns the index one past its `]`.
fn match_test_attribute(tokens: &[Token], i: usize, src: &str) -> Option<usize> {
    let txt = |k: usize| tokens.get(k).map(|t| &src[t.start..t.end]);
    if txt(i)? != "#" || txt(i + 1)? != "[" {
        return None;
    }
    match txt(i + 2)? {
        "test" if txt(i + 3)? == "]" => Some(i + 4),
        "cfg" if txt(i + 3)? == "(" => {
            let mut depth = 1usize;
            let mut k = i + 4;
            let mut saw_test = false;
            while k < tokens.len() && depth > 0 {
                match txt(k)? {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => saw_test = true,
                    _ => {}
                }
                k += 1;
            }
            if saw_test && txt(k) == Some("]") {
                Some(k + 1)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Parses every comment that *starts* with `qpp-lint:` — prose that
/// merely mentions `qpp-lint: hot-path` in backticks is not a directive.
/// The word ends at whitespace or `(`, so an explanation may follow it
/// (`// qpp-lint: allow(no-vecvec) — test fixture`).
fn find_directives(lexed: &Lexed, src: &str) -> Vec<(usize, Directive)> {
    let mut out = Vec::new();
    for (ci, c) in lexed.comments.iter().enumerate() {
        let Some(rest) = c.text.trim_start().strip_prefix("qpp-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let word_end = rest
            .find(|ch: char| ch.is_whitespace() || ch == '(')
            .unwrap_or(rest.len());
        let (word, args) = rest.split_at(word_end);
        let rules = args
            .trim_start()
            .strip_prefix('(')
            .and_then(|a| a.split_once(')'));
        let directive = match (word, rules) {
            ("hot-path", _) => Directive::HotPath(marked_fn_body(&lexed.tokens, src, c.end)),
            ("allow", Some((inner, _))) => Directive::Allow(
                inner
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect(),
            ),
            _ => Directive::Unknown(word.to_string()),
        };
        out.push((ci, directive));
    }
    out
}

/// The one marker-to-body mapping: the body of the first `fn` after
/// byte `after` (attributes and doc comments may sit between the marker
/// and the fn). The body opens at the first `{` outside `(..)`/`[..]`;
/// a `;` reached there first means a body-less trait declaration, which
/// marks nothing — without that stop the marker would leak onto the
/// *next* function's body. The bracket depth is what lets `-> [f64; 6]`
/// through.
fn marked_fn_body(tokens: &[Token], src: &str, after: usize) -> Option<Range<usize>> {
    let txt = |t: &Token| &src[t.start..t.end];
    let fn_idx = tokens
        .iter()
        .position(|t| t.start >= after && t.kind == TokenKind::Ident && txt(t) == "fn")?;
    let mut depth = 0i32;
    for (off, t) in tokens[fn_idx..].iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match txt(t) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return None,
            "{" if depth == 0 => {
                let open = fn_idx + off;
                let close = match_brace(tokens, open, src)?;
                return Some(tokens[open].start..tokens[close].end);
            }
            _ => {}
        }
    }
    None
}

/// The lines each allow directive covers: a directive on a code line
/// covers that line; a directive alone on its line covers the next line
/// too.
fn find_allows(
    comments: &[Comment],
    directives: &[(usize, Directive)],
    line_starts: &[usize],
    src: &str,
) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut cover = |c: &Comment, rule: &str| {
        out.push((c.line, rule.to_string()));
        let line_start = line_starts.get(c.line as usize - 1).copied().unwrap_or(0);
        if src[line_start..c.start].trim().is_empty() {
            out.push((c.line + 1, rule.to_string()));
        }
    };
    for (ci, d) in directives {
        if let Directive::Allow(rules) = d {
            for rule in rules {
                cover(&comments[*ci], rule);
            }
        }
    }
    // The older spelling, still used by test fixtures in linalg and ml.
    for c in comments.iter().filter(|c| c.text.contains("allow-vecvec")) {
        cover(c, "no-vecvec");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/demo/src/lib.rs", src.to_string())
    }

    #[test]
    fn classifies_paths_after_last_crates_component() {
        let (c, t, b) = classify("crates/serve/tests/service.rs");
        assert_eq!(c.as_deref(), Some("serve"));
        assert!(t && !b);
        let (c, t, b) = classify("crates/lint/tests/fixtures/x/crates/ml/src/fires.rs");
        assert_eq!(c.as_deref(), Some("ml"));
        assert!(!t && !b);
        let (c, t, b) = classify("crates/bench/src/bin/experiments.rs");
        assert_eq!(c.as_deref(), Some("bench"));
        assert!(!t && b);
    }

    #[test]
    fn cfg_test_module_becomes_a_test_region() {
        let m =
            model("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n");
        assert_eq!(m.test_regions.len(), 1);
        let unwrap_at = m.src.find("unwrap").unwrap_or(0);
        assert!(m.in_test_region(unwrap_at));
        let lib_at = m.src.find("lib").unwrap_or(0);
        assert!(!m.in_test_region(lib_at));
    }

    #[test]
    fn test_attribute_fn_becomes_a_region() {
        let m = model("#[test]\nfn t() { let x = 1; }\nfn real() {}\n");
        assert_eq!(m.test_regions.len(), 1);
    }

    #[test]
    fn hot_path_marker_attaches_to_next_fn() {
        let m = model(
            "// qpp-lint: hot-path\npub fn fast(out: &mut Vec<f64>) {\n    out.clear();\n}\nfn cold() {}\n",
        );
        assert_eq!(m.hot_fns.len(), 1);
        let clear_at = m.src.find("clear").unwrap_or(0);
        assert!(m.in_hot_fn(clear_at));
        let cold_at = m.src.find("cold").unwrap_or(0);
        assert!(!m.in_hot_fn(cold_at));
    }

    #[test]
    fn allow_directives_cover_their_line_and_the_next() {
        let m = model(
            "// qpp-lint: allow(no-vecvec)\nlet a = x();\nlet b = y(); // qpp-lint: allow(no-vecvec, no-alloc-hot-path) — why\n",
        );
        assert!(m.is_allowed(2, "no-vecvec"));
        assert!(m.is_allowed(3, "no-vecvec"));
        assert!(m.is_allowed(3, "no-alloc-hot-path"));
        assert!(!m.is_allowed(2, "no-alloc-hot-path"));
    }

    /// The marked bodies, as text.
    fn marked(m: &FileModel) -> Vec<&str> {
        m.hot_fns.iter().map(|r| &m.src[r.clone()]).collect()
    }

    #[test]
    fn marker_on_a_bodyless_declaration_does_not_leak_onto_the_next_fn() {
        let m = model(
            "trait T {\n    // qpp-lint: hot-path\n    fn decl(&self) -> usize;\n    \
             fn next(&self) -> Vec<u8> { Vec::new() }\n}\n",
        );
        assert!(marked(&m).is_empty(), "leaked onto {:?}", marked(&m));
        assert_eq!(m.directives, vec![(0, Directive::HotPath(None))]);
    }

    #[test]
    fn array_return_type_is_still_marked() {
        // The `;` of `[f64; 6]` sits inside brackets, not at depth 0.
        let m = model("// qpp-lint: hot-path\nfn six(&self) -> [f64; 6] { self.v }\n");
        assert_eq!(marked(&m), vec!["{ self.v }"]);
    }

    #[test]
    fn where_clause_with_fn_bound_finds_the_body() {
        let m = model(
            "// qpp-lint: hot-path\nfn apply<F, T>(f: F) -> T\nwhere\n    F: Fn() -> T,\n{\n    f()\n}\n",
        );
        assert_eq!(marked(&m).len(), 1);
        assert!(marked(&m)[0].contains("f()"));
    }

    #[test]
    fn every_qpp_lint_comment_parses_to_a_directive() {
        let m = model(
            "// qpp-lint: hot_path\nfn a() {}\n// qpp-lint: cold-path — retired\nfn b() {}\n\
             // qpp-lint: allow no-vecvec\n// prose about `qpp-lint: hot-path` marks nothing\n",
        );
        let words: Vec<&Directive> = m.directives.iter().map(|(_, d)| d).collect();
        assert_eq!(
            words,
            vec![
                &Directive::Unknown("hot_path".to_string()),
                &Directive::Unknown("cold-path".to_string()),
                &Directive::Unknown("allow".to_string()),
            ]
        );
        assert!(m.hot_fns.is_empty() && m.allows.is_empty());
    }
}
