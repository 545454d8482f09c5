//! A hand-rolled Rust lexer — just enough to lint safely.
//!
//! The audit rules need to see identifiers, punctuation, string-literal
//! contents, and comments, with line numbers, and they must never mistake
//! the inside of a string or comment for code (or vice versa). That is the
//! entire scope: no `syn`, no spans, no keywords table. The tricky cases a
//! naive regex pass gets wrong — `"// not a comment"`, nested `/* /* */ */`,
//! raw strings `r#".."#`, lifetimes vs char literals — are handled here.

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (the rules match names like `unsafe` directly).
    Ident(String),
    /// String literal (cooked, byte, or raw); payload is the raw text
    /// between the quotes, escapes untouched — enough to match env names.
    Str(String),
    /// Character literal (payload dropped; rules never need it).
    Char,
    /// Lifetime like `'a` / `'static`.
    Lifetime,
    /// Numeric literal (payload dropped).
    Num,
    /// `//...` or `/*...*/` comment, full text including markers.
    Comment(String),
    /// Any other single character: `:`, `.`, `(`, `&`, …
    Punct(char),
}

/// Lex `src` into tokens. Never fails: unterminated constructs are closed
/// by end-of-file, because a linter must degrade gracefully, not crash on
/// the code it is inspecting.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
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

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.push(Token { tok, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    // Byte char literal `b'x'` — same shape as a char.
                    self.bump();
                    self.char_or_lifetime(line);
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(line),
                'r' if self.raw_ident_ahead() => self.raw_ident(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(Tok::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(Tok::Comment(text), line);
    }

    fn block_comment(&mut self, line: u32) {
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
        self.push(Tok::Comment(text), line);
    }

    /// At `"` (opening quote already peeked, not consumed).
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    text.push(c);
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                _ => text.push(c),
            }
        }
        self.push(Tok::Str(text), line);
    }

    /// Is the cursor at a raw identifier `r#name`? (A raw *string* `r#"…"#`
    /// wins first in `run`, so here `#` must be followed by an ident start.)
    fn raw_ident_ahead(&self) -> bool {
        self.peek(1) == Some('#') && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_')
    }

    /// Lex `r#name` as the identifier `name`: the `r#` escape exists only to
    /// use keywords as names, so symbol matching wants the bare spelling.
    fn raw_ident(&mut self, line: u32) {
        self.bump(); // 'r'
        self.bump(); // '#'
        self.ident(line);
    }

    /// Is the cursor at `r"`, `r#…#"`, `br"`, or `br#…#"`?
    fn raw_string_ahead(&self) -> bool {
        let mut at = 1; // past the 'r' or 'b'
        if self.peek(0) == Some('b') {
            if self.peek(1) != Some('r') {
                return false;
            }
            at = 2;
        }
        while self.peek(at) == Some('#') {
            at += 1;
        }
        self.peek(at) == Some('"')
    }

    fn raw_string(&mut self, line: u32) {
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
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // Need `hashes` trailing #s to close.
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        text.push(c);
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.push(Tok::Str(text), line);
    }

    /// Disambiguate `'a'` (char) from `'a` (lifetime): scan an ident-like
    /// run after the quote; a closing quote right after makes it a char.
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume through the closing quote.
                self.bump();
                self.bump(); // the escaped character (enough for \n, \', \\, \0; \x41 and \u close on the quote scan below)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let mut len = 0usize;
                while self
                    .peek(len)
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    len += 1;
                }
                if self.peek(len) == Some('\'') {
                    for _ in 0..=len {
                        self.bump();
                    }
                    self.push(Tok::Char, line);
                } else {
                    for _ in 0..len {
                        self.bump();
                    }
                    self.push(Tok::Lifetime, line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(Tok::Char, line);
            }
            None => self.push(Tok::Char, line),
        }
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Ident(name), line);
    }

    fn number(&mut self, line: u32) {
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                // Covers 0x1f, 1_000, 1e9, suffixes like 3usize.
                let at_exp_sign = (c == 'e' || c == 'E')
                    && matches!(self.peek(1), Some('+') | Some('-'))
                    && self.peek(2).is_some_and(|d| d.is_ascii_digit());
                self.bump();
                if at_exp_sign {
                    self.bump(); // the sign
                }
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` yes; `1..3` and `1.method()` no.
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Num, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn comment_markers_inside_strings_stay_strings() {
        let toks = kinds(r#"let x = "// not a comment";"#);
        assert!(toks.iter().all(|t| !matches!(t, Tok::Comment(_))));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Str(s) if s == "// not a comment")));
    }

    #[test]
    fn strings_inside_comments_stay_comments() {
        let toks = kinds("// has \"quotes\" inside\nx");
        assert!(matches!(&toks[0], Tok::Comment(c) if c.contains("quotes")));
        assert!(matches!(&toks[1], Tok::Ident(i) if i == "x"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = kinds("/* outer /* inner */ still outer */ after");
        assert_eq!(toks.len(), 2);
        assert!(matches!(&toks[0], Tok::Comment(c) if c.contains("still outer")));
        assert!(matches!(&toks[1], Tok::Ident(i) if i == "after"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"quote " and // slash"#;"###);
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Str(s) if s.contains("// slash"))));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let nl = '\\n'; }");
        let lifetimes = toks.iter().filter(|t| matches!(t, Tok::Lifetime)).count();
        let chars = toks.iter().filter(|t| matches!(t, Tok::Char)).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = lex("a\n/* two\nlines */\nb\n\"s1\ns2\"\nc");
        let find = |name: &str| {
            toks.iter()
                .find(|t| matches!(&t.tok, Tok::Ident(i) if i == name))
                .unwrap()
                .line
        };
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
    }

    #[test]
    fn raw_identifiers_lex_as_their_bare_name() {
        let toks = kinds("let r#type = r#match.r#fn(); type_ok");
        let idents: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t {
                Tok::Ident(i) => Some(i.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, ["let", "type", "match", "fn", "type_ok"]);
        // No stray `#` puncts survive from the raw-ident escape.
        assert!(toks.iter().all(|t| !matches!(t, Tok::Punct('#'))));
    }

    #[test]
    fn raw_identifier_does_not_break_raw_strings() {
        // `r#"…"#` must still lex as a raw string, not as `r#` + ident.
        let toks = kinds(r###"let a = r#"text"#; let r#b = 1;"###);
        assert!(toks.iter().any(|t| matches!(t, Tok::Str(s) if s == "text")));
        assert!(toks.iter().any(|t| matches!(t, Tok::Ident(i) if i == "b")));
    }

    #[test]
    fn byte_and_raw_byte_strings_keep_their_payload() {
        let toks = kinds(r###"let a = b"magic\x00"; let b = br#"raw // bytes"#;"###);
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Str(s) if s.contains("magic"))));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Str(s) if s == "raw // bytes")));
        // No comment was minted from the `//` inside the raw byte string.
        assert!(toks.iter().all(|t| !matches!(t, Tok::Comment(_))));
    }

    #[test]
    fn byte_char_literals_are_chars_not_idents() {
        let toks = kinds("let nl = b'\\n'; let x = b'a'; after");
        let chars = toks.iter().filter(|t| matches!(t, Tok::Char)).count();
        assert_eq!(chars, 2);
        // The `b` prefix must not leak as a one-letter identifier.
        assert!(toks.iter().all(|t| !matches!(t, Tok::Ident(i) if i == "b")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Ident(i) if i == "after")));
    }

    #[test]
    fn shift_right_in_nested_generics_splits_into_two_closes() {
        // Token patterns see nested generics close one `>` at a time, so
        // `>>` must arrive as two puncts (the lexer never glues
        // multi-char operators).
        let toks = kinds("let v: Vec<Vec<u32>> = make(); a >> b");
        let gts = toks.iter().filter(|t| matches!(t, Tok::Punct('>'))).count();
        assert_eq!(gts, 4, "two generic closes + the real shift operator");
    }

    #[test]
    fn numbers_do_not_eat_range_or_method_dots() {
        let toks = kinds("1..3; 1.5; x.iter()");
        let puncts = toks.iter().filter(|t| matches!(t, Tok::Punct('.'))).count();
        // Two dots from `1..3`, one from `x.iter`.
        assert_eq!(puncts, 3);
    }
}
