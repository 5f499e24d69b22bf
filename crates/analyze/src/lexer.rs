//! A minimal, lossless Rust lexer for lint analysis.
//!
//! The linter never parses Rust properly — it only needs a token stream
//! that is *comment-, string-, and raw-string-aware*, so that the word
//! `unsafe` inside a doc comment or a format string is never mistaken
//! for the keyword. The lexer therefore classifies exactly what the
//! lint rules consume: identifiers, punctuation, comments (text
//! retained — `SAFETY:` justifications and `xct-allow`/`xct-hot`
//! markers live there), and literals (source text retained, so a rule
//! can match a tag like `0x1400` or a name like `"scatter-global"`).
//! Everything carries its 1-based source line so violations are
//! clickable.
//!
//! Deliberate simplifications, safe for linting purposes:
//!
//! * the `'a` lifetime vs `'a'` char-literal ambiguity is resolved by
//!   one character of lookahead past the quoted item, which is exactly
//!   the rule rustc uses for this prefix;
//! * block comments nest, as in real Rust.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What was lexed.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Token classification — just enough structure for the lint rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `Vec`, …).
    Ident(String),
    /// Single punctuation character (`.`, `:`, `!`, `{`, `}`, …).
    Punct(char),
    /// `// …` comment, text including the slashes; doc comments too.
    LineComment(String),
    /// `/* … */` comment (nested), text including delimiters.
    BlockComment(String),
    /// String, raw-string, byte-string, char or numeric literal, with
    /// its source text (quotes, prefixes and suffixes included).
    Literal(String),
    /// Anything else (lifetimes).
    Other,
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The comment text, if this token is a comment of either form.
    pub fn comment(&self) -> Option<&str> {
        match &self.kind {
            TokKind::LineComment(s) | TokKind::BlockComment(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `source` into a token stream. Never fails: unterminated
/// literals simply consume to end-of-file (the compiler, not the
/// linter, owns syntax errors).
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, line: usize) {
        self.toks.push(Tok { kind, line });
    }

    /// Pushes the literal spanning `start..` the cursor.
    fn literal(&mut self, start: usize, line: usize) {
        let text = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Literal(text), line);
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let start = self.pos;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string_literal(start, line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string_literal(start, line);
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(start, line),
                '\'' => self.quote(start, line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c if c.is_ascii_digit() => self.number(start, line),
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c), line);
                }
            }
        }
        self.toks
    }

    fn line_comment(&mut self, line: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment(text), line);
    }

    fn block_comment(&mut self, line: usize) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment(text), line);
    }

    fn string_literal(&mut self, start: usize, line: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // escaped char (covers \" and \\)
                }
                '"' => break,
                _ => {}
            }
        }
        self.literal(start, line);
    }

    /// True when the cursor sits on `r`/`br` followed by `#…"` or `"`.
    fn raw_string_ahead(&self) -> bool {
        let mut i = 1; // past the 'r' (or 'b'; 'b' handles "br" below)
        if self.peek(0) == Some('b') {
            if self.peek(1) != Some('r') {
                return false;
            }
            i = 2;
        }
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    fn raw_string(&mut self, start: usize, line: usize) {
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.literal(start, line);
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is a
    /// quote followed by an identifier *not* closed by another quote.
    fn quote(&mut self, start: usize, line: usize) {
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape + closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.literal(start, line);
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                // Could be 'a' (char) or 'a / 'static (lifetime): a char
                // literal closes with a quote right after one char.
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.literal(start, line);
                } else {
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokKind::Other, line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '{' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.literal(start, line);
            }
            None => self.push(TokKind::Other, line),
        }
    }

    fn ident(&mut self, line: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(text), line);
    }

    fn number(&mut self, start: usize, line: usize) {
        // Consume the maximal run of number-ish characters; suffixes
        // like `u32` and separators like `_` ride along. `1.0` stops at
        // the dot only for range patterns (`0..n`) — lookahead keeps a
        // single dot followed by a digit inside the number.
        while let Some(c) = self.peek(0) {
            let keep = c == '_'
                || c.is_alphanumeric()
                || (c == '.'
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                    && self.peek(1) != Some('.'));
            if keep {
                self.bump();
            } else {
                break;
            }
        }
        self.literal(start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn keywords_in_comments_and_strings_are_not_idents() {
        let src = r###"
            // unsafe in a comment
            /* unsafe in /* a nested */ block */
            let s = "unsafe in a string";
            let r = r#"unsafe in a raw string"#;
            let b = b"unsafe bytes";
            fn actually_safe() {}
        "###;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unsafe"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "actually_safe"));
    }

    #[test]
    fn unsafe_keyword_is_lexed_with_its_line() {
        let toks = lex("fn f() {\n    unsafe { work() }\n}\n");
        let t = toks
            .iter()
            .find(|t| t.ident() == Some("unsafe"))
            .expect("unsafe token");
        assert_eq!(t.line, 2);
    }

    #[test]
    fn lifetimes_do_not_eat_following_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }");
        assert!(ids.iter().any(|i| i == "unwrap"));
    }

    #[test]
    fn char_literals_hide_their_contents() {
        let ids = idents("let c = 'u'; let n = '\\n'; let brace = '{'; next()");
        assert!(ids.iter().any(|i| i == "next"));
        assert!(!ids.iter().any(|i| i == "u"));
    }

    #[test]
    fn comment_text_is_retained_for_markers() {
        let toks = lex("// SAFETY: justified\nunsafe { x() }\n");
        assert_eq!(toks[0].comment(), Some("// SAFETY: justified"), "{toks:?}");
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let ids = idents(r####"let s = r##"quote " inside"##; done()"####);
        assert!(ids.iter().any(|i| i == "done"));
        assert!(!ids.iter().any(|i| i == "inside"));
    }

    #[test]
    fn literals_keep_their_source_text() {
        let toks = lex("let x = 1.5e3_f64 + 0x1f; y(\"inner\", 'a')");
        assert!(toks.iter().any(|t| t.ident() == Some("y")));
        assert!(!toks.iter().any(|t| t.ident() == Some("e3_f64")));
        let literals: Vec<&TokKind> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Literal(_)))
            .map(|t| &t.kind)
            .collect();
        let text = |s: &str| TokKind::Literal(s.to_owned());
        assert_eq!(
            literals,
            [
                &text("1.5e3_f64"),
                &text("0x1f"),
                &text("\"inner\""),
                &text("'a'")
            ]
        );
    }
}
