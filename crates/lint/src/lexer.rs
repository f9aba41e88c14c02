//! A hand-rolled Rust lexer, just deep enough for static analysis.
//!
//! The rules in this crate match on *token* streams, never on raw text,
//! so `"unwrap"` inside a string literal, `.unwrap()` inside a doc
//! comment, and `Vec<Vec<f64>>` inside a `/* ... */` block can never
//! produce a false positive. The lexer understands:
//!
//! * line (`//`) and nested block (`/* /* */ */`) comments — captured
//!   separately so directive comments (`qpp-lint: allow(...)`) can be
//!   parsed;
//! * string literals with escapes, raw strings (`r#"..."#`, any number
//!   of hashes), byte strings (`b"..."`, `br#"..."#`);
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`);
//! * raw identifiers (`r#fn`, `r#match`) — lexed as one `Ident` token
//!   so the keyword scanner never sees a phantom `fn`/`match`;
//! * identifiers, numbers (without swallowing `..` range punctuation),
//!   and single-character punctuation.
//!
//! It is loss-tolerant: malformed input (an unterminated string at EOF)
//! lexes to the end of the file instead of failing — a linter must
//! degrade gracefully on code the compiler would reject anyway.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `Vec`, ...).
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Any string-like literal (string, raw string, byte string, char).
    Literal,
    /// A numeric literal.
    Number,
    /// A single punctuation character (`.`, `<`, `!`, ...).
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

/// One comment with its source span and body text.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Byte offset of the `//` or `/*`.
    pub start: usize,
    /// Byte offset one past the comment.
    pub end: usize,
    /// 1-based line of the comment start.
    pub line: u32,
    /// 1-based column of the comment start.
    pub col: u32,
    /// Body text without the `//` / `/* */` markers, trimmed.
    pub text: String,
}

/// Token stream plus comment stream for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line/col. Multi-byte UTF-8
    /// continuation bytes do not advance the column, so columns count
    /// characters.
    fn bump(&mut self) {
        if let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0b1100_0000 != 0b1000_0000 {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self) -> Lexed {
        while let Some(b) = self.peek(0) {
            let (start, line, col) = (self.pos, self.line, self.col);
            match b {
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(start, line, col),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(start, line, col),
                b'"' => self.string_literal(start, line, col),
                b'r' if self.raw_string_ahead(0) => self.raw_string(start, line, col, 1),
                b'r' if self.raw_ident_ahead() => {
                    // `r#fn` must lex as ONE identifier token: splitting
                    // it into `r` + `#` + `fn` would hand the item
                    // scanner a phantom `fn` keyword.
                    self.bump_n(2);
                    self.ident(start, line, col);
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.bump();
                    self.string_literal(start, line, col);
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.bump();
                    self.char_literal(start, line, col);
                }
                b'b' if self.peek(1) == Some(b'r') && self.raw_string_ahead(1) => {
                    self.raw_string(start, line, col, 2)
                }
                b'\'' => {
                    if self.lifetime_ahead() {
                        self.lifetime(start, line, col);
                    } else {
                        self.char_literal(start, line, col);
                    }
                }
                _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => {
                    self.ident(start, line, col)
                }
                _ if b.is_ascii_digit() => self.number(start, line, col),
                _ if b.is_ascii_whitespace() => self.bump(),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    fn line_comment(&mut self, start: usize, line: u32, col: u32) {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let body = self.src[start..self.pos]
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        self.out.comments.push(Comment {
            start,
            end: self.pos,
            line,
            col,
            text: body.to_string(),
        });
    }

    fn block_comment(&mut self, start: usize, line: u32, col: u32) {
        self.bump_n(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        let inner = self.src[start..self.pos]
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*')
            .trim();
        self.out.comments.push(Comment {
            start,
            end: self.pos,
            line,
            col,
            text: inner.to_string(),
        });
    }

    fn string_literal(&mut self, start: usize, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push(TokenKind::Literal, start, line, col);
    }

    /// True when the cursor sits on a raw identifier: `r#` followed by
    /// an identifier start (`r#fn`, `r#type`). A raw *string* (`r#"`)
    /// never matches because `"` is not an identifier start.
    fn raw_ident_ahead(&self) -> bool {
        self.peek(1) == Some(b'#')
            && matches!(self.peek(2), Some(b) if b == b'_' || b.is_ascii_alphabetic())
    }

    /// True when the bytes at `pos + offset` start a raw-string opener:
    /// `r"` or `r#...#"`.
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = offset + 1; // past the `r`
        while self.peek(i) == Some(b'#') {
            i += 1;
        }
        self.peek(i) == Some(b'"')
    }

    fn raw_string(&mut self, start: usize, line: u32, col: u32, prefix: usize) {
        self.bump_n(prefix); // `r` or `br`
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(b) = self.peek(0) {
            self.bump();
            if b == b'"' {
                for i in 0..hashes {
                    if self.peek(i) != Some(b'#') {
                        continue 'scan;
                    }
                }
                self.bump_n(hashes);
                break;
            }
        }
        self.push(TokenKind::Literal, start, line, col);
    }

    /// True when the `'` at the cursor begins a lifetime rather than a
    /// char literal: `'ident` not followed by a closing `'`.
    fn lifetime_ahead(&self) -> bool {
        let first = match self.peek(1) {
            Some(b) if b == b'_' || b.is_ascii_alphabetic() => b,
            _ => return false,
        };
        let _ = first;
        let mut i = 2;
        while let Some(b) = self.peek(i) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                i += 1;
            } else {
                break;
            }
        }
        self.peek(i) != Some(b'\'')
    }

    fn lifetime(&mut self, start: usize, line: u32, col: u32) {
        self.bump(); // `'`
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Lifetime, start, line, col);
    }

    fn char_literal(&mut self, start: usize, line: u32, col: u32) {
        self.bump(); // opening `'`
        match self.peek(0) {
            Some(b'\\') => {
                self.bump(); // backslash
                if self.peek(0) == Some(b'u') {
                    // '\u{...}'
                    while let Some(b) = self.peek(0) {
                        self.bump();
                        if b == b'}' {
                            break;
                        }
                    }
                } else {
                    self.bump(); // the escaped char
                }
            }
            Some(_) => self.bump(),
            None => {}
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
        self.push(TokenKind::Literal, start, line, col);
    }

    fn ident(&mut self, start: usize, line: u32, col: u32) {
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, start, line, col);
    }

    fn number(&mut self, start: usize, line: u32, col: u32) {
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else if b == b'.' {
                // Consume the dot only for `1.5`, never for `0..n` or
                // `1.method()`.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => self.bump(),
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, start, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| &src[t.start..t.end])
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let a = "x.unwrap() Vec<Vec<f64>>";
            // y.unwrap() in a comment
            /* Vec<Vec<f64>> /* nested */ still comment */
            let b = r#"raw "quoted" unwrap"#;
            let c = b"bytes unwrap";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap"));
        assert!(!ids.contains(&"Vec"));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' } // tick";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(chars, vec!["'x'"]);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let q = '\''; let u = '\u{1F600}'; x.unwrap()";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..10 { let f = 1.5e-3; }";
        let lexed = lex(src);
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e", "3"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        // `r#fn` split into `r`+`#`+`fn` would hand the item scanner a
        // phantom `fn` keyword; it must arrive as one ident.
        let src = "let r#fn = 1; struct r#type { r#match: u32 }";
        let ids = idents(src);
        assert!(ids.contains(&"r#fn"));
        assert!(ids.contains(&"r#type"));
        assert!(ids.contains(&"r#match"));
        assert!(!ids.contains(&"fn"));
        assert!(!ids.contains(&"match"));
    }

    #[test]
    fn raw_strings_hide_ticks_braces_and_directives() {
        // A raw string containing `'`, braces, comment markers, and a
        // directive-looking body must lex as ONE literal: leaking any of
        // it would corrupt brace matching, char-literal detection, or
        // the allow-directive parser in the scanner.
        let src =
            r###"let s = r#"can't { } // qpp-lint: allow(no-vecvec) fn fake() {"#; x.unwrap();"###;
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 0, "no comment inside a raw string");
        let ids = idents(src);
        assert!(ids.contains(&"unwrap"));
        assert!(!ids.contains(&"fake"));
        let braces = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct && matches!(&src[t.start..t.end], "{" | "}"))
            .count();
        assert_eq!(braces, 0, "braces inside the raw string must not leak");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            0,
            "the tick inside the raw string is not a lifetime"
        );
    }

    #[test]
    fn raw_strings_with_inner_hash_quote_runs_terminate_correctly() {
        let src = r####"let a = r##"x "# y"##; let b = r#""#; foo.unwrap()"####;
        let ids = idents(src);
        assert!(
            ids.contains(&"unwrap"),
            "lexer must resync after raw strings"
        );
        assert!(!ids.contains(&"x"));
        assert!(!ids.contains(&"y"));
    }

    #[test]
    fn lifetime_ticks_never_become_char_literals() {
        // Every common lifetime position: generics, references, bounds,
        // labeled loops, turbofish, `'_`, `'static` — none may lex as a
        // char literal (which would swallow following tokens).
        let src = "fn f<'a, 'b: 'a>(x: &'a str, y: &'b mut [u8], z: &'_ u32) -> &'static str {\n    'outer: loop { break 'outer; }\n    g::<'a>(x)\n}";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(
            lifetimes,
            vec!["'a", "'b", "'a", "'a", "'b", "'_", "'static", "'outer", "'outer", "'a"]
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            0,
            "no lifetime tick may be read as a char literal"
        );
    }

    #[test]
    fn char_literals_with_brace_quote_and_escape_payloads() {
        // `'{'` / `'}'` must stay literals (leaked braces would corrupt
        // fn-body matching); `'\''` and `'\\'` must not desync the lexer.
        let src = r"let open = '{'; let close = '}'; let q = '\''; let b = '\\'; h.unwrap()";
        let lexed = lex(src);
        let lits: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(lits, vec!["'{'", "'}'", r"'\''", r"'\\'"]);
        assert!(idents(src).contains(&"unwrap"));
        let braces = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct && matches!(&src[t.start..t.end], "{" | "}"))
            .count();
        assert_eq!(braces, 0);
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let src = "let a = 1;\n  foo.unwrap();\n";
        let lexed = lex(src);
        let unwrap = lexed
            .tokens
            .iter()
            .find(|t| &src[t.start..t.end] == "unwrap")
            .copied();
        match unwrap {
            Some(t) => {
                assert_eq!(t.line, 2);
                assert_eq!(t.col, 7);
            }
            None => panic!("unwrap token not found"),
        }
    }
}
