//! Lightweight item scanner: turns a lexed file into the structural
//! facts the rules match against.
//!
//! Nothing here is a full parser. The scanner extracts exactly four
//! things, all computed from the token stream (so strings and comments
//! can never confuse it):
//!
//! * **test regions** — byte ranges of `#[cfg(test)]` items and
//!   `#[test]` functions, which most rules exempt;
//! * **hot-path functions** — body ranges of `fn`s marked with a
//!   `// qpp-lint: hot-path` comment;
//! * **allow directives** — per-line `// qpp-lint: allow(rule, ...)`
//!   opt-outs (plus the legacy `// allow-vecvec` spelling);
//! * **map-typed identifiers** — names declared with a `HashMap` /
//!   `HashSet` type, used by the iteration-order rule;
//! * **function items** — every `fn` with its enclosing impl type and
//!   inline-module path, body span, receiver/return facts, and
//!   `hot-path` / `cold-path` markers, feeding the workspace call
//!   graph (`graph` module);
//! * **struct field types** — `field: Type` pairs from struct bodies,
//!   used to type method receivers and identify lock/condvar fields.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::Path;

/// One `fn` item, as the call-graph layer sees it.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (`r#`-prefixed raw identifiers keep the prefix).
    pub name: String,
    /// Enclosing `impl` self type (`Foo` for `impl Foo`, the type after
    /// `for` in trait impls, the trait name inside `trait` bodies).
    pub self_type: Option<String>,
    /// Inline-module path from the file root (`["tests"]` inside
    /// `mod tests { .. }`), excluding the file's own module name.
    pub mods: Vec<String>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token indices of the body's `{` and matching `}` (None for
    /// bodyless trait-method declarations).
    pub body_toks: Option<(usize, usize)>,
    /// Byte range of the body including braces.
    pub body: Option<Range<usize>>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Marked `// qpp-lint: hot-path`.
    pub marked_hot: bool,
    /// Marked `// qpp-lint: cold-path` (stops hot propagation).
    pub marked_cold: bool,
    /// Identifiers appearing in the return type (for guard-returning
    /// helpers: a fn returning a `RwLock`/`Mutex` reference names a
    /// lock the caller acquires through it).
    pub ret_types: BTreeSet<String>,
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
    /// Body byte ranges of functions marked `// qpp-lint: hot-path`.
    pub hot_fns: Vec<Range<usize>>,
    /// `(line, rule)` pairs from allow directives; rule `"*"` means all.
    pub allows: Vec<(u32, String)>,
    /// Identifiers declared with a hash-map/set type in this file.
    pub map_idents: BTreeSet<String>,
    /// Crate this file belongs to (`core` for `crates/core/src/...`),
    /// taken from the component after the **last** `crates` directory
    /// so fixture trees can replicate real layouts.
    pub crate_name: Option<String>,
    /// True for files under `tests/`, `benches/` or `examples/`.
    pub is_test_file: bool,
    /// True for binary targets (`src/bin/...` or `main.rs`).
    pub is_bin_file: bool,
    /// Module path of the file itself within its crate (`["vector"]`
    /// for `crates/linalg/src/vector.rs`, empty for `lib.rs`).
    pub file_mods: Vec<String>,
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Struct-field declarations: field name → type identifiers seen in
    /// its declared type (`state: Mutex<ControlState>` yields
    /// `state → {Mutex, ControlState}`).
    pub field_types: BTreeMap<String, BTreeSet<String>>,
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
        let hot_fns = find_marked_fn_bodies(&lexed, &src, "hot-path");
        let cold_fns = find_marked_fn_bodies(&lexed, &src, "cold-path");
        let allows = find_allows(&lexed.comments, &line_starts, &src);
        let map_idents = find_map_idents(&lexed.tokens, &src);
        let file_mods = file_mods(path);
        let (fns, field_types) = scan_items(&lexed, &src, &hot_fns, &cold_fns);
        FileModel {
            path: path.to_string(),
            src,
            lexed,
            line_starts,
            test_regions,
            hot_fns,
            allows,
            map_idents,
            crate_name,
            is_test_file,
            is_bin_file,
            file_mods,
            fns,
            field_types,
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
        self.allows
            .iter()
            .any(|(l, r)| *l == line && (r == rule || r == "*"))
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

/// Body ranges of `fn`s preceded by a `qpp-lint: <word>` marker comment
/// (`hot-path` roots the allocation rule; `cold-path` documents a
/// reviewed off-steady-state helper and stops hot propagation).
fn find_marked_fn_bodies(lexed: &Lexed, src: &str, word: &str) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        if !is_marker(&c.text, word) {
            continue;
        }
        // First `fn` token after the marker (attributes and doc comments
        // may sit between the marker and the fn).
        let fn_idx = lexed.tokens.iter().position(|t| {
            t.start >= c.end && t.kind == TokenKind::Ident && &src[t.start..t.end] == "fn"
        });
        let fn_idx = match fn_idx {
            Some(i) => i,
            None => continue,
        };
        let open = lexed.tokens[fn_idx..]
            .iter()
            .position(|t| t.kind == TokenKind::Punct && &src[t.start..t.end] == "{")
            .map(|off| fn_idx + off);
        if let Some(open) = open {
            if let Some(close) = match_brace(&lexed.tokens, open, src) {
                out.push(lexed.tokens[open].start..lexed.tokens[close].end);
            }
        }
    }
    out
}

/// True when `text` is a bare `qpp-lint:` marker directive for `word`
/// (e.g. `qpp-lint: hot-path`). The directive must *start* the comment
/// — prose that merely mentions `qpp-lint: hot-path` in backticks does
/// not mark anything.
fn is_marker(text: &str, word: &str) -> bool {
    match text.trim_start().strip_prefix("qpp-lint:") {
        Some(rest) => {
            let rest = rest.trim();
            // Allow an explanation after the marker word, separated by
            // whitespace (`// qpp-lint: cold-path — delegates …`).
            rest == word
                || rest
                    .strip_prefix(word)
                    .is_some_and(|tail| tail.starts_with(char::is_whitespace))
        }
        None => false,
    }
}

/// Parses allow directives out of the comment stream. A directive on a
/// code line covers that line; a directive alone on its line covers the
/// next line.
fn find_allows(comments: &[Comment], line_starts: &[usize], src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for c in comments {
        let mut rules: Vec<String> = Vec::new();
        if let Some(rest) = c.text.trim_start().strip_prefix("qpp-lint:") {
            let rest = rest.trim();
            if let Some(args) = rest.strip_prefix("allow") {
                if let Some(inner) = args
                    .trim()
                    .strip_prefix('(')
                    .and_then(|a| a.split(')').next())
                {
                    for rule in inner.split(',') {
                        let rule = rule.trim();
                        if !rule.is_empty() {
                            rules.push(rule.to_string());
                        }
                    }
                }
            }
        }
        // Legacy spelling kept working so existing fixtures need no churn.
        if c.text.contains("allow-vecvec") {
            rules.push("no-vecvec".to_string());
        }
        if rules.is_empty() {
            continue;
        }
        let line_start = line_starts.get(c.line as usize - 1).copied().unwrap_or(0);
        let alone = src[line_start..c.start].trim().is_empty();
        for rule in rules {
            out.push((c.line, rule.clone()));
            if alone {
                out.push((c.line + 1, rule));
            }
        }
    }
    out
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type:
/// `name: ...HashMap<...`, or `let [mut] name = HashMap::new()`.
fn find_map_idents(tokens: &[Token], src: &str) -> BTreeSet<String> {
    let txt = |k: usize| tokens.get(k).map(|t| &src[t.start..t.end]);
    let mut out = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = &src[t.start..t.end];
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // `name: RwLock<HashMap<K, V>>` — walk backwards over the type
        // expression to the introducing `:` (skipping `::` pairs), then
        // take the identifier before it. A `use` path never crosses a
        // single `:`, so imports declare nothing.
        let mut k = i;
        while k > 0 {
            k -= 1;
            match txt(k) {
                Some(":") => {
                    if k > 0 && txt(k - 1) == Some(":") {
                        k -= 1; // `::` path separator — skip the pair
                        continue;
                    }
                    if k > 0 && tokens[k - 1].kind == TokenKind::Ident {
                        let prev = &src[tokens[k - 1].start..tokens[k - 1].end];
                        out.insert(prev.to_string());
                    }
                    break;
                }
                Some("<") | Some(">") | Some("&") => continue,
                Some(_) if tokens[k].kind == TokenKind::Ident => continue,
                Some(_) if tokens[k].kind == TokenKind::Lifetime => continue,
                _ => break,
            }
        }
        // `let [mut] name = HashMap::new()`.
        if i >= 2 && txt(i - 1) == Some("=") {
            let mut k = i - 2;
            if k > 0 && txt(k) == Some("mut") {
                k -= 1;
            }
            if tokens[k].kind == TokenKind::Ident && txt(k) != Some("mut") {
                out.insert(src[tokens[k].start..tokens[k].end].to_string());
            }
        }
    }
    out
}

/// The file's own module path within its crate: the `.rs` stem for
/// ordinary modules, empty for crate roots (`lib.rs`, `main.rs`) and
/// `mod.rs`.
fn file_mods(path: &str) -> Vec<String> {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    match stem {
        "" | "lib" | "main" | "mod" => Vec::new(),
        s => vec![s.to_string()],
    }
}

/// What opened a brace, for the item-context stack.
#[derive(Debug, Clone)]
enum BraceCtx {
    Mod(String),
    Impl(String),
    Struct,
    Other,
}

/// Walks the token stream once, extracting every `fn` item (with its
/// impl/module context) and every struct field's declared type idents.
fn scan_items(
    lexed: &Lexed,
    src: &str,
    hot_fns: &[Range<usize>],
    cold_fns: &[Range<usize>],
) -> (Vec<FnItem>, BTreeMap<String, BTreeSet<String>>) {
    let toks = &lexed.tokens;
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // Brace token index → what it opens, precomputed at item keywords.
    let mut openers: BTreeMap<usize, BraceCtx> = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident {
            match &src[toks[i].start..toks[i].end] {
                "mod" => {
                    if let (Some(name), Some("{")) = (txt(i + 1), txt(i + 2)) {
                        if toks[i + 1].kind == TokenKind::Ident {
                            openers.insert(i + 2, BraceCtx::Mod(name.to_string()));
                        }
                    }
                }
                "impl" => {
                    if let Some((ty, open)) = parse_impl_header(toks, i, src) {
                        openers.insert(open, BraceCtx::Impl(ty));
                    }
                }
                "trait" => {
                    // Trait bodies give default methods their trait name
                    // as a self type (good enough for name resolution).
                    if let Some(name) = txt(i + 1) {
                        if toks[i + 1].kind == TokenKind::Ident {
                            if let Some(open) = find_body_open(toks, i + 2, src) {
                                openers.insert(open, BraceCtx::Impl(name.to_string()));
                            }
                        }
                    }
                }
                "struct" if txt(i + 1).is_some_and(|_| toks[i + 1].kind == TokenKind::Ident) => {
                    if let Some(open) = find_body_open(toks, i + 2, src) {
                        openers.insert(open, BraceCtx::Struct);
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }

    // Main walk: maintain the context stack and collect items.
    let mut stack: Vec<BraceCtx> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let s = &src[t.start..t.end];
        if t.kind == TokenKind::Punct {
            match s {
                "{" => stack.push(openers.get(&i).cloned().unwrap_or(BraceCtx::Other)),
                "}" => {
                    stack.pop();
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && s == "fn" {
            // Skip `fn` inside type positions (`impl Fn(..)`, `dyn Fn`)
            // — those lex as `Fn`, capital, so a bare lowercase `fn`
            // followed by an identifier is reliably an item.
            if let Some(name) = txt(i + 1) {
                if toks[i + 1].kind == TokenKind::Ident {
                    let item = parse_fn_item(toks, i, src, &stack, hot_fns, cold_fns);
                    i += 1;
                    if let Some(item) = item {
                        fns.push(item);
                    }
                    continue;
                }
                let _ = name;
            }
        }
        if t.kind == TokenKind::Ident && matches!(stack.last(), Some(BraceCtx::Struct)) {
            // `field : Type` at struct-body level (not `::` paths).
            if txt(i + 1) == Some(":")
                && txt(i + 2) != Some(":")
                && txt(i.wrapping_sub(1)) != Some(":")
            {
                let entry = fields.entry(s.to_string()).or_default();
                let mut k = i + 2;
                let mut depth = 0i32;
                while k < toks.len() {
                    match txt(k) {
                        Some("<") | Some("(") | Some("[") => depth += 1,
                        Some(">") | Some(")") | Some("]")
                            if txt(k.wrapping_sub(1)) != Some("-") =>
                        {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        }
                        Some(",") if depth == 0 => break,
                        Some("}") if depth == 0 => break,
                        Some(w)
                            if toks[k].kind == TokenKind::Ident
                                && !matches!(
                                    w,
                                    "pub" | "crate" | "dyn" | "mut" | "const" | "in"
                                ) =>
                        {
                            entry.insert(w.to_string());
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    (fns, fields)
}

/// Parses an `impl` header starting at token `i` (`impl`), returning
/// the self-type name and the body-opening brace's token index.
/// `impl<T> Foo<T>` → Foo; `impl Trait for Bar` → Bar.
fn parse_impl_header(toks: &[Token], i: usize, src: &str) -> Option<(String, usize)> {
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    let mut k = i + 1;
    // Generic parameter list on the impl itself.
    k = skip_angles(toks, k, src);
    let mut last_ident: Option<String> = None;
    while k < toks.len() {
        match txt(k)? {
            "{" => return last_ident.map(|ty| (ty, k)),
            "for" => {
                last_ident = None;
                k += 1;
            }
            "where" => {
                // The self type is settled; find the body brace.
                let open = toks[k..]
                    .iter()
                    .position(|t| t.kind == TokenKind::Punct && &src[t.start..t.end] == "{")
                    .map(|off| k + off)?;
                return last_ident.map(|ty| (ty, open));
            }
            "<" => k = skip_angles(toks, k, src),
            "(" | "[" => {
                // `impl Trait for (A, B)` and friends: give up on a
                // nameable self type but still locate the body.
                let open = toks[k..]
                    .iter()
                    .position(|t| t.kind == TokenKind::Punct && &src[t.start..t.end] == "{")
                    .map(|off| k + off)?;
                return last_ident.map(|ty| (ty, open));
            }
            w if toks[k].kind == TokenKind::Ident => {
                if w != "dyn" && w != "crate" && w != "self" && w != "super" {
                    last_ident = Some(w.to_string());
                }
                k += 1;
            }
            _ => k += 1,
        }
    }
    None
}

/// If token `k` is `<`, returns the index one past its matching `>`
/// (treating the `>` of `->` as plain punctuation); otherwise `k`.
pub(crate) fn skip_angles(toks: &[Token], k: usize, src: &str) -> usize {
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    if txt(k) != Some("<") {
        return k;
    }
    let mut depth = 0i32;
    let mut j = k;
    while j < toks.len() {
        match txt(j) {
            Some("<") => depth += 1,
            Some(">") if txt(j.wrapping_sub(1)) != Some("-") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Some(";") | Some("{") => return j, // malformed; bail
            _ => {}
        }
        j += 1;
    }
    j
}

/// Finds the `{` opening an item body, scanning from `k` and skipping
/// generic-parameter lists; `None` when a `;` ends the item first.
fn find_body_open(toks: &[Token], k: usize, src: &str) -> Option<usize> {
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    let mut j = k;
    while j < toks.len() {
        match txt(j)? {
            "{" => return Some(j),
            ";" => return None,
            "(" => return None, // tuple struct
            "<" => j = skip_angles(toks, j, src),
            _ => j += 1,
        }
    }
    None
}

/// Parses the `fn` item whose `fn` keyword sits at token `i`.
fn parse_fn_item(
    toks: &[Token],
    i: usize,
    src: &str,
    stack: &[BraceCtx],
    hot_fns: &[Range<usize>],
    cold_fns: &[Range<usize>],
) -> Option<FnItem> {
    let txt = |k: usize| toks.get(k).map(|t| &src[t.start..t.end]);
    let name = txt(i + 1)?.to_string();
    let mut k = skip_angles(toks, i + 2, src);
    if txt(k)? != "(" {
        return None;
    }
    // Parameter list: `self` in the first parameter ⇒ method receiver.
    let params_open = k;
    let mut depth = 0i32;
    let mut has_self = false;
    let mut first_param = true;
    while k < toks.len() {
        match txt(k)? {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => first_param = false,
            "self" if depth == 1 && first_param => has_self = true,
            _ => {}
        }
        k += 1;
    }
    let params_close = k;
    // Return type + body locator.
    let mut ret_types = BTreeSet::new();
    let mut k = params_close + 1;
    let mut body_open: Option<usize> = None;
    let mut in_where = false;
    while k < toks.len() {
        match txt(k)? {
            "{" => {
                body_open = Some(k);
                break;
            }
            ";" => break,
            "where" => {
                in_where = true;
                k += 1;
            }
            w if toks[k].kind == TokenKind::Ident => {
                if !in_where && !matches!(w, "dyn" | "impl" | "mut" | "const" | "Send" | "Sync") {
                    ret_types.insert(w.to_string());
                }
                k += 1;
            }
            _ => k += 1,
        }
    }
    let body_toks =
        body_open.and_then(|open| match_brace(toks, open, src).map(|close| (open, close)));
    let body = body_toks.map(|(open, close)| toks[open].start..toks[close].end);
    let marked = |ranges: &[Range<usize>]| match &body {
        Some(b) => ranges.iter().any(|r| r.start == b.start),
        None => false,
    };
    let marked_hot = marked(hot_fns);
    let marked_cold = marked(cold_fns);
    let self_type = stack.iter().rev().find_map(|c| match c {
        BraceCtx::Impl(ty) => Some(ty.clone()),
        _ => None,
    });
    let mods = stack
        .iter()
        .filter_map(|c| match c {
            BraceCtx::Mod(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let _ = params_open;
    Some(FnItem {
        name,
        self_type,
        mods,
        fn_tok: i,
        body_toks,
        body,
        line: toks[i].line,
        has_self,
        marked_hot,
        marked_cold,
        ret_types,
    })
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
            "// qpp-lint: allow(lock-order)\nlet a = x.lock();\nlet b = y.lock(); // qpp-lint: allow(lock-order, no-vecvec)\n",
        );
        assert!(m.is_allowed(2, "lock-order"));
        assert!(m.is_allowed(3, "lock-order"));
        assert!(m.is_allowed(3, "no-vecvec"));
        assert!(!m.is_allowed(2, "no-vecvec"));
    }

    #[test]
    fn fn_items_carry_impl_and_module_context() {
        let m = model(
            "pub struct Engine { pool: Pool }\n\
             impl Engine {\n\
                 pub fn new(cap: usize) -> Self { Engine { pool: Pool::new(cap) } }\n\
                 // qpp-lint: hot-path\n\
                 pub fn predict(&self, q: &Query) -> f64 { self.score(q) }\n\
                 fn score(&self, q: &Query) -> f64 { 0.0 }\n\
             }\n\
             mod inner {\n\
                 pub fn helper() {}\n\
             }\n\
             fn free() -> Vec<f64> { Vec::new() }\n",
        );
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).expect(n);
        let new = by_name("new");
        assert_eq!(new.self_type.as_deref(), Some("Engine"));
        assert!(!new.has_self);
        assert!(new.ret_types.contains("Self"));
        let predict = by_name("predict");
        assert!(predict.has_self && predict.marked_hot && !predict.marked_cold);
        assert!(by_name("score").has_self);
        let helper = by_name("helper");
        assert_eq!(helper.mods, vec!["inner".to_string()]);
        assert!(helper.self_type.is_none());
        let free = by_name("free");
        assert!(free.ret_types.contains("Vec") && free.ret_types.contains("f64"));
        assert_eq!(
            m.field_types.get("pool").map(|t| t.contains("Pool")),
            Some(true)
        );
    }

    #[test]
    fn trait_impls_resolve_self_type_after_for() {
        let m = model(
            "impl<T: Clone> Runner for Sharded<T> where T: Send {\n\
                 fn run(&mut self) { self.step(); }\n\
             }\n\
             impl Default for Config {\n\
                 fn default() -> Self { Config }\n\
             }\n",
        );
        let run = m.fns.iter().find(|f| f.name == "run").expect("run");
        assert_eq!(run.self_type.as_deref(), Some("Sharded"));
        let default = m.fns.iter().find(|f| f.name == "default").expect("default");
        assert_eq!(default.self_type.as_deref(), Some("Config"));
    }

    #[test]
    fn cold_marker_and_generic_signatures_parse() {
        let m = model(
            "// qpp-lint: hot-path\n\
             fn hot<T: Into<f64>>(xs: &[T]) -> Result<f64, Error> { cold_fallback() }\n\
             // qpp-lint: cold-path\n\
             fn cold_fallback() -> f64 { 0.0 }\n",
        );
        let hot = m.fns.iter().find(|f| f.name == "hot").expect("hot");
        assert!(hot.marked_hot);
        assert!(hot.ret_types.contains("Result") && hot.ret_types.contains("Error"));
        let cold = m
            .fns
            .iter()
            .find(|f| f.name == "cold_fallback")
            .expect("cold");
        assert!(cold.marked_cold && !cold.marked_hot);
    }

    #[test]
    fn file_mods_uses_stem_except_crate_roots() {
        assert_eq!(
            file_mods("crates/serve/src/queue.rs"),
            vec!["queue".to_string()]
        );
        assert!(file_mods("crates/serve/src/lib.rs").is_empty());
        assert!(file_mods("crates/lint/src/main.rs").is_empty());
    }

    #[test]
    fn map_typed_idents_are_collected() {
        let m = model(
            "use std::collections::HashMap;\nstruct S { models: RwLock<HashMap<K, V>> }\nfn f() { let mut cache = HashMap::new(); }\n",
        );
        assert!(m.map_idents.contains("models"));
        assert!(m.map_idents.contains("cache"));
        assert!(!m.map_idents.contains("collections"));
        assert!(!m.map_idents.contains("std"));
    }
}
