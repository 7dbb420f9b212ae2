//! A hand-rolled Rust lexer, just deep enough for lint rules: it
//! separates identifiers, punctuation, and literals, and swallows
//! string contents and comments (so `"HashMap"` in a string can never
//! look like a type).
//!
//! Every token carries its 1-based line *and column* (in characters),
//! so rules can point a caret at the offending token and reports can
//! emit editor-friendly `file:line:col` locations.
//!
//! It does **not** build an AST; the item/block structure the newer
//! rules need is recovered by [`crate::parser`], which works directly
//! on this token stream.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `as`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, …). Multi-char
    /// operators arrive as consecutive tokens (`::` = `:`, `:`).
    Punct,
    /// String literal (`"…"`, `r"…"`, `r#"…"#`, `b"…"`), quotes kept.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (`42`, `0x1f`, `1e9`, `1.5e-3`, `0.050_f64`).
    Num,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
}

/// One token with its 1-based source line and column.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
}

/// Lex `src` into tokens; comments are skipped. Unterminated
/// constructs are closed at end of input rather than reported — the
/// compiler is the authority on well-formedness; the linter only needs
/// to stay sane.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consume one char, tracking line and column numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.toks.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let col = self.col;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    let s = self.string_literal();
                    self.push(TokKind::Str, s, line, col);
                }
                'r' | 'b' if self.starts_prefixed_literal() => {
                    let (kind, s) = self.prefixed_literal();
                    self.push(kind, s, line, col);
                }
                '\'' => self.quote(line, col),
                _ if c.is_alphabetic() || c == '_' => {
                    let s = self.ident();
                    self.push(TokKind::Ident, s, line, col);
                }
                _ if c.is_ascii_digit() => {
                    let s = self.number();
                    self.push(TokKind::Num, s, line, col);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line, col);
                }
            }
        }
        self.toks
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    /// Block comment; Rust block comments nest to any depth.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
    }

    /// `"…"` with escape handling; returns the literal including quotes.
    fn string_literal(&mut self) -> String {
        let mut s = String::new();
        s.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                s.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    s.push(e);
                }
            } else if c == '"' {
                s.push(c);
                self.bump();
                break;
            } else {
                s.push(c);
                self.bump();
            }
        }
        s
    }

    /// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br"`, `br#`?
    /// (Otherwise a leading `r`/`b` is an ordinary identifier char.)
    fn starts_prefixed_literal(&self) -> bool {
        matches!(
            (self.peek(0), self.peek(1), self.peek(2)),
            (Some('r'), Some('"' | '#'), _)
                | (Some('b'), Some('"' | '\''), _)
                | (Some('b'), Some('r'), Some('"' | '#'))
        )
    }

    /// Raw / byte string or byte char after an `r`/`b`/`br` prefix.
    fn prefixed_literal(&mut self) -> (TokKind, String) {
        let mut s = String::new();
        let mut raw = false;
        while let Some(c) = self.peek(0) {
            if c == 'r' || c == 'b' {
                raw |= c == 'r';
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match self.peek(0) {
            Some('\'') => {
                // b'x' — byte char, same shape as a char literal.
                s.push(self.bump().unwrap_or('\''));
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        s.push(c);
                        self.bump();
                        if let Some(e) = self.bump() {
                            s.push(e);
                        }
                    } else {
                        s.push(c);
                        self.bump();
                        if c == '\'' {
                            break;
                        }
                    }
                }
                (TokKind::Char, s)
            }
            Some('#') if raw => {
                // r#"…"# with any number of hash guards: the string only
                // closes at a `"` followed by *exactly as many* hashes as
                // opened it, so `"` and `"#` can appear inside `r##"…"##`.
                let mut hashes = 0usize;
                while self.peek(0) == Some('#') {
                    hashes += 1;
                    s.push('#');
                    self.bump();
                }
                if self.peek(0) == Some('"') {
                    s.push('"');
                    self.bump();
                    while let Some(c) = self.bump() {
                        s.push(c);
                        if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                            for _ in 0..hashes {
                                s.push('#');
                                self.bump();
                            }
                            break;
                        }
                    }
                    (TokKind::Str, s)
                } else {
                    // `r#ident` (raw identifier): lex the rest as ident.
                    s.push_str(&self.ident());
                    (TokKind::Ident, s)
                }
            }
            Some('"') if raw => {
                // r"…" — no escapes, closes at the first quote.
                s.push('"');
                self.bump();
                while let Some(c) = self.bump() {
                    s.push(c);
                    if c == '"' {
                        break;
                    }
                }
                (TokKind::Str, s)
            }
            Some('"') => {
                // b"…" — escapes behave like a normal string.
                let rest = self.string_literal();
                s.push_str(&rest);
                (TokKind::Str, s)
            }
            _ => (TokKind::Ident, s), // bare `r` / `b` identifier
        }
    }

    /// `'` starts either a char literal or a lifetime. The ambiguity is
    /// resolved by the third character: `'x'` closes after one payload
    /// char (or after an escape), `'ident` never closes — so look for
    /// the trailing quote, falling back to lifetime when absent.
    fn quote(&mut self, line: u32, col: u32) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_char = match next {
            Some('\\') => true,
            Some(c) if c.is_alphanumeric() || c == '_' => after == Some('\''),
            Some(_) => true, // '(' etc: punctuation chars are char literals
            None => true,
        };
        if is_char {
            let mut s = String::new();
            s.push(self.bump().unwrap_or('\'')); // opening '
            while let Some(c) = self.peek(0) {
                if c == '\\' {
                    s.push(c);
                    self.bump();
                    if let Some(e) = self.bump() {
                        s.push(e);
                    }
                } else {
                    s.push(c);
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
            }
            self.push(TokKind::Char, s, line, col);
        } else {
            let mut s = String::new();
            s.push(self.bump().unwrap_or('\'')); // the '
            s.push_str(&self.ident());
            self.push(TokKind::Lifetime, s, line, col);
        }
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    /// Number: digits, then letters/digits/underscores (hex, suffixes,
    /// exponents), plus one `.` only when a digit follows — so `0..n`
    /// stays three tokens — and a signed exponent (`1.5e-3`, `2E+8`)
    /// when the literal is decimal, so float literals survive as one
    /// token for the float-order rule.
    fn number(&mut self) -> String {
        let mut s = String::new();
        let mut saw_dot = false;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else if c == '.' && !saw_dot && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                saw_dot = true;
                s.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && s.ends_with(['e', 'E'])
                && !s.starts_with("0x")
                && !s.starts_with("0X")
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Signed exponent of a decimal float; `0xAE-3` stays a
                // subtraction because hex digits exclude an exponent.
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

/// Is `lit` (a [`TokKind::Num`] lexeme) a floating-point literal? True
/// for decimal points (`0.5`), exponents (`1e9`, `1.5e-3`) and explicit
/// `f32`/`f64` suffixes; hex/octal/binary literals are never floats.
pub fn num_literal_is_float(lit: &str) -> bool {
    let lower = lit.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    lower.contains('.') || lower.contains('e') || lower.ends_with("f32") || lower.ends_with("f64")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn render(src: &str) -> String {
        lex(src)
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex(r#"let x = "HashMap::iter()"; y"#);
        assert!(idents(r#"let x = "HashMap::iter()"; y"#).contains(&"y".to_string()));
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(!idents(r#""HashMap""#).contains(&"HashMap".to_string()));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = lex(r###"let s = r#"a "quoted" HashMap"#; done"###);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        assert!(toks.iter().any(|t| t.text == "done"));
        assert!(!toks.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn multi_hash_raw_strings_swallow_shorter_guards() {
        // `"#` inside an `r##"…"##` literal must not close it.
        let src = r####"let s = r##"quote "# still inside"##; after"####;
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1, "{toks:?}");
        assert!(strs[0].text.contains("still inside"));
        assert!(toks.iter().any(|t| t.text == "after"), "{toks:?}");
        assert!(!toks.iter().any(|t| t.text == "still"));
    }

    #[test]
    fn byte_raw_strings_with_guards() {
        let src = r###"let b = br#"bytes "with" quotes"#; tail"###;
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        assert!(toks.iter().any(|t| t.text == "tail"));
        assert!(!toks.iter().any(|t| t.text == "quotes"));
    }

    #[test]
    fn unterminated_raw_string_closes_at_eof() {
        // Tolerance contract: never hang, never panic, keep what we saw.
        let toks = lex(r##"let s = r#"never closed"##);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn lifetime_edge_forms() {
        // `'_` anonymous lifetime, labeled loops, lifetime at EOF, and
        // char literals whose payload is an identifier character.
        let toks = lex("fn f(x: &'_ u8) { 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'_", "'outer", "'outer"], "{toks:?}");

        let toks = lex("let r = 'r'; let u = '_'; let esc = '\\u{1F600}';");
        let chars: Vec<String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["'r'", "'_'", "'\\u{1F600}'"], "{toks:?}");

        let toks = lex("match c { 'a'..='z' => 1, _ => 0 }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Char).count(),
            2,
            "{toks:?}"
        );
        // Trailing lifetime at end of input must not loop or panic.
        let toks = lex("&'a");
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("'a"));
        assert_eq!(toks.last().map(|t| t.kind), Some(TokKind::Lifetime));
    }

    #[test]
    fn byte_char_with_escaped_quote() {
        let toks = lex(r"let q = b'\''; next");
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1, "{toks:?}");
        assert_eq!(chars[0].text, r"b'\''");
        assert!(toks.iter().any(|t| t.text == "next"));
    }

    #[test]
    fn comments_are_skipped_and_lines_still_advance() {
        let src = "let a = 1;\n// HashMap::iter()\nlet b = 2; // trailing\nc";
        assert_eq!(render(src), "let a = 1 ; let b = 2 ; c");
        let toks = lex(src);
        assert_eq!(toks.last().map(|t| (t.line, t.col)), Some((4, 1)));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("a /* outer /* inner */ still */ b");
        let names = toks
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(names, "a b");
    }

    #[test]
    fn deeply_nested_and_unterminated_block_comments() {
        // Three levels, with stars and slashes scattered inside.
        let toks = lex("x /* 1 /* 2 /* 3 */ * / */ ** */ y");
        assert_eq!(render("x /* 1 /* 2 /* 3 */ * / */ ** */ y"), "x y");
        assert_eq!(toks.len(), 2);
        // Unterminated nesting swallows to EOF without panicking.
        let toks = lex("a /* open /* deeper */ still-open b");
        assert_eq!(toks.len(), 1, "everything after /* is comment: {toks:?}");
        // A stray close without an open is plain punctuation.
        assert_eq!(render("a */ b"), "a * / b");
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = lex("for i in 0..n { let f = 0.050; }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "0.050"]);
    }

    #[test]
    fn signed_exponents_are_single_tokens() {
        let toks = lex("let a = 1.5e-3; let b = 2E+8; let c = 9e4; let d = x - 3;");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1.5e-3", "2E+8", "9e4", "3"], "{toks:?}");
        // Hex literals ending in E are subtraction, not an exponent.
        assert_eq!(render("0xAE-3"), "0xAE - 3");
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn columns_are_tracked() {
        let toks = lex("let x = 1;\n    let yy = 2;");
        let find = |name: &str| {
            toks.iter()
                .find(|t| t.text == name)
                .map(|t| (t.line, t.col))
        };
        assert_eq!(find("x"), Some((1, 5)));
        assert_eq!(find("yy"), Some((2, 9)));
        assert_eq!(find("2"), Some((2, 14)));
    }

    #[test]
    fn float_literal_detection() {
        for f in ["0.5", "1e9", "1.5e-3", "2E+8", "3f64", "0.0f32", "1_000.0"] {
            assert!(num_literal_is_float(f), "{f} is a float");
        }
        for n in ["42", "0x1f", "0o17", "0b101", "1_000", "7u32", "0xE3"] {
            assert!(!num_literal_is_float(n), "{n} is not a float");
        }
    }
}
