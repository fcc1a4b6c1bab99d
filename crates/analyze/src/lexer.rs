//! A minimal Rust lexer for the lint pass.
//!
//! The build environment vendors no `syn`, so the analyzer works on a token
//! stream instead of a full AST. The lexer understands everything needed to
//! avoid false positives from non-code text: line and (nested) block
//! comments, doc comments, string literals, raw strings with arbitrary `#`
//! fences, byte and char literals, and the lifetime-vs-char ambiguity
//! (`'a` vs `'a'`). Every token carries its line and column so diagnostics
//! point at real source spans.

/// Kind of a lexed token. The rules only need a coarse classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident,
    /// Any punctuation byte sequence (`::`, `.`, `(`, `{`, `!`, …), one
    /// byte per token.
    Punct,
    /// String/char/byte literal (contents not inspected by rules).
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`) — kept distinct so `'a` never looks like a char.
    Lifetime,
}

/// One token with its source position (1-based line, 1-based column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// The exact source text of the token (empty for literals' bodies is
    /// never needed; literals keep their delimiters).
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub(crate) col: u32,
}

impl Tok {
    /// True when this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s` (single byte).
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens, skipping whitespace and all comment forms.
/// Unterminated strings/comments end the token stream at EOF rather than
/// erroring — lint input is always real compiling code, and graceful
/// degradation beats a hard failure on a fixture typo.
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let mut c = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek2() == Some(b'/') => {
                while let Some(nb) = c.peek() {
                    if nb == b'\n' {
                        break;
                    }
                    c.bump();
                }
            }
            b'/' if c.peek2() == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    if c.starts_with("/*") {
                        depth += 1;
                        c.bump();
                        c.bump();
                    } else if c.starts_with("*/") {
                        depth -= 1;
                        c.bump();
                        c.bump();
                    } else if c.bump().is_none() {
                        break;
                    }
                }
            }
            b'r' | b'b' if raw_string_fence(&mut c).is_some() => {
                // raw_string_fence consumed the whole literal.
                out.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                let start = c.pos;
                while let Some(nb) = c.peek() {
                    if !is_ident_continue(nb) {
                        break;
                    }
                    c.bump();
                }
                let text = String::from_utf8_lossy(&c.src[start..c.pos]).into_owned();
                // `b"..."` / `b'x'` prefixes: the ident lexes as `b`, and
                // the literal that follows is handled on the next loop turn.
                out.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            b'0'..=b'9' => {
                while let Some(nb) = c.peek() {
                    if !(nb.is_ascii_alphanumeric() || nb == b'_' || nb == b'.') {
                        break;
                    }
                    // A dot only continues the number when a digit follows:
                    // `1..2` keeps its range dots, and `x.0.lock()` /
                    // `1.0.max(y)` keep `lock`/`max` as real method tokens
                    // instead of swallowing them into the numeric literal
                    // (which would hide them from every rule).
                    if nb == b'.' && !matches!(c.peek2(), Some(b'0'..=b'9')) {
                        break;
                    }
                    c.bump();
                }
                out.push(Tok {
                    kind: TokKind::Number,
                    text: String::new(),
                    line,
                    col,
                });
            }
            b'"' => {
                lex_string(&mut c);
                out.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                    col,
                });
            }
            b'\'' => {
                let tok = lex_quote(&mut c);
                out.push(Tok {
                    kind: tok,
                    text: String::new(),
                    line,
                    col,
                });
            }
            _ => {
                c.bump();
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// If the cursor sits on a raw (byte) string opener (`r"`, `r#"`, `br##"`,
/// …), consumes the entire literal and returns `Some(())`; otherwise leaves
/// the cursor untouched and returns `None`.
fn raw_string_fence(c: &mut Cursor<'_>) -> Option<()> {
    let rest = &c.src[c.pos..];
    let mut i = 0;
    if rest.first() == Some(&b'b') {
        i += 1;
    }
    if rest.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0usize;
    while rest.get(i + hashes) == Some(&b'#') {
        hashes += 1;
    }
    if rest.get(i + hashes) != Some(&b'"') {
        return None;
    }
    // Commit: consume prefix, fence and body up to `"` + hashes `#`s.
    for _ in 0..(i + hashes + 1) {
        c.bump();
    }
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    loop {
        if c.src[c.pos..].starts_with(&closer) {
            for _ in 0..closer.len() {
                c.bump();
            }
            return Some(());
        }
        c.bump()?;
    }
}

/// Consumes a normal `"…"` string (cursor on the opening quote).
fn lex_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    while let Some(b) = c.bump() {
        match b {
            b'\\' => {
                c.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Disambiguates `'a'` / `'\n'` (char literal) from `'a` (lifetime).
/// Cursor sits on the `'`.
fn lex_quote(c: &mut Cursor<'_>) -> TokKind {
    c.bump(); // the quote
    match c.peek() {
        Some(b'\\') => {
            // Escaped char literal.
            c.bump();
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            } else {
                // Multi-byte escapes like '\u{1F600}'.
                while let Some(b) = c.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
            }
            TokKind::Literal
        }
        Some(b) if is_ident_start(b) => {
            // Could be 'a' (char) or 'a (lifetime) or 'static.
            let start = c.pos;
            while let Some(nb) = c.peek() {
                if !is_ident_continue(nb) {
                    break;
                }
                c.bump();
            }
            if c.peek() == Some(b'\'') && c.pos - start >= 1 {
                c.bump();
                TokKind::Literal
            } else {
                TokKind::Lifetime
            }
        }
        Some(_) => {
            // Punctuation char literal like '(' or ' '.
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            TokKind::Literal
        }
        None => TokKind::Lifetime,
    }
}

/// Byte ranges (as token index ranges) of `#[cfg(test)] mod … { … }` and
/// `#[cfg(all(test, …))] mod … { … }` blocks, so rules can skip test code.
/// Returns half-open token index ranges.
pub(crate) fn test_module_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(body_open) = match_cfg_test_mod(toks, i) {
            // Find the matching close brace.
            let mut depth = 0usize;
            let mut j = body_open;
            while j < toks.len() {
                if toks[j].is_punct("{") {
                    depth += 1;
                } else if toks[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            spans.push((i, (j + 1).min(toks.len())));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// If `toks[i..]` begins a `#[cfg(test)]`-ish attribute followed by
/// `mod name {`, returns the token index of the opening `{`.
fn match_cfg_test_mod(toks: &[Tok], i: usize) -> Option<usize> {
    if !(toks.get(i)?.is_punct("#") && toks.get(i + 1)?.is_punct("[")) {
        return None;
    }
    if !toks.get(i + 2)?.is_ident("cfg") {
        return None;
    }
    // Scan the attribute body to its closing `]`, requiring a `test` ident.
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut saw_test = false;
    while j < toks.len() {
        if toks[j].is_punct("[") {
            depth += 1;
        } else if toks[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if toks[j].is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    if !saw_test || j >= toks.len() {
        return None;
    }
    // Expect `mod <ident> {` after the attribute. Doc comments between the
    // attribute and the `mod` are already stripped by the lexer, but
    // further attributes (`#[allow(dead_code)]`, `#[rustfmt::skip]`,
    // `#[doc = "…"]`) and a `pub`/`pub(crate)` qualifier are real tokens —
    // skip them so the test module is still recognized.
    let mut m = j + 1;
    while toks.get(m).map(|t| t.is_punct("#")).unwrap_or(false)
        && toks.get(m + 1).map(|t| t.is_punct("[")).unwrap_or(false)
    {
        let mut depth = 0usize;
        let mut k = m + 1;
        while k < toks.len() {
            if toks[k].is_punct("[") {
                depth += 1;
            } else if toks[k].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        if k >= toks.len() {
            return None;
        }
        m = k + 1;
    }
    if toks.get(m).map(|t| t.is_ident("pub")).unwrap_or(false) {
        m += 1;
        if toks.get(m).map(|t| t.is_punct("(")).unwrap_or(false) {
            let mut depth = 0usize;
            while m < toks.len() {
                if toks[m].is_punct("(") {
                    depth += 1;
                } else if toks[m].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            m += 1;
        }
    }
    if toks.get(m)?.is_ident("mod")
        && toks.get(m + 1)?.kind == TokKind::Ident
        && toks.get(m + 2)?.is_punct("{")
    {
        Some(m + 2)
    } else {
        None
    }
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

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in a block /* nested HashMap */ comment */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|t| t.as_str() == "HashMap").count(),
            1,
            "only the real token counts: {ids:?}"
        );
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        let lifetimes = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn positions_are_one_based_lines() {
        let toks = lex("a\nbb ccc");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 1));
        assert_eq!((toks[2].line, toks[2].col), (2, 4));
    }

    #[test]
    fn cfg_test_mod_spans_cover_unwraps() {
        let src = r#"
            fn good() {}
            #[cfg(test)]
            mod tests {
                fn t() { x.unwrap(); }
            }
            fn after() {}
        "#;
        let toks = lex(src);
        let spans = test_module_spans(&toks);
        assert_eq!(spans.len(), 1);
        let (a, b) = spans[0];
        let inside: Vec<&str> = toks[a..b]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(inside.contains(&"unwrap"));
        assert!(!inside.contains(&"after"));
    }

    #[test]
    fn cfg_all_test_mod_detected() {
        let src = "#[cfg(all(test, not(loom)))] mod tests { fn f() {} }";
        let toks = lex(src);
        assert_eq!(test_module_spans(&toks).len(), 1);
    }

    #[test]
    fn escaped_char_literals() {
        let toks = lex(r"let nl = '\n'; let q = '\''; done");
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn nested_block_comments_keep_spans_honest() {
        // The closer of the inner comment must not close the outer one, and
        // the token after the comment must land on the right line/column.
        let src = "/* outer /* inner\n  still /* deeper */ inner */ outer */\nafter";
        let toks = lex(src);
        assert_eq!(toks.len(), 1, "{toks:?}");
        assert_eq!(
            (toks[0].text.as_str(), toks[0].line, toks[0].col),
            ("after", 3, 1)
        );
        // Overlapping opener `/*/` is an opener plus content, as in rustc.
        let toks = lex("/* /*/ x */ */ tail");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("tail"));
    }

    #[test]
    fn raw_strings_with_hashes_keep_spans_honest() {
        // `"#`-lookalikes inside an `r##` string must not close it early,
        // and multi-line raw strings must advance the line counter.
        let src = "let a = r##\"body \"# not the end\nsecond \"line\"##;\nnext";
        let toks = lex(src);
        let next = toks
            .iter()
            .find(|t| t.is_ident("next"))
            .expect("next token");
        assert_eq!((next.line, next.col), (3, 1));
        // No tokens were minted from inside the raw string.
        assert!(!toks.iter().any(|t| t.is_ident("not")), "{toks:?}");
        // Raw byte strings with fences behave the same.
        let toks = lex("br#\"HashMap \"quoted\"\"# tail");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Ident).count(), 1);
    }

    #[test]
    fn char_literal_vs_lifetime_disambiguation() {
        // 'a' is a char literal; <'a> and &'a are lifetimes; '_ and labels
        // are lifetimes; none of them may eat following code.
        let src =
            "fn f<'a>(x: &'a str) { let c = 'a'; let u = '_'; 'outer: loop { break 'outer; } }";
        let toks = lex(src);
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let literals = toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(
            lifetimes, 4,
            "<'a>, &'a, 'outer: and break 'outer — {toks:?}"
        );
        assert_eq!(literals, 2, "'a' and '_'");
        assert!(toks.iter().any(|t| t.is_ident("break")));
    }

    #[test]
    fn float_method_calls_are_not_swallowed_by_numbers() {
        // Regression: the number lexer used to consume `.lock` / `.max`
        // after a numeric token, hiding method idents from every rule.
        let toks = lex("let a = pair.0.lock(); let b = 1.0.max(2.0); let r = 1..2;");
        assert!(toks.iter().any(|t| t.is_ident("lock")), "{toks:?}");
        assert!(toks.iter().any(|t| t.is_ident("max")), "{toks:?}");
        // Range dots survive as punctuation.
        assert!(toks.iter().filter(|t| t.is_punct(".")).count() >= 4);
    }

    #[test]
    fn cfg_test_mod_with_interleaved_attributes_and_docs() {
        // Regression: attributes or doc comments between #[cfg(test)] and
        // its `mod` used to defeat the test-module scan entirely.
        let src = r#"
            fn real() {}
            #[cfg(test)]
            #[allow(dead_code)]
            /// doc comment between attribute and mod
            #[rustfmt::skip]
            mod tests {
                fn t() { x.unwrap(); }
            }
            fn after() {}
        "#;
        let toks = lex(src);
        let spans = test_module_spans(&toks);
        assert_eq!(spans.len(), 1, "{spans:?}");
        let (a, b) = spans[0];
        let inside: Vec<&str> = toks[a..b]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(inside.contains(&"unwrap"));
        assert!(!inside.contains(&"after"));
        // pub(crate) test modules are recognized too.
        let toks = lex("#[cfg(test)] pub(crate) mod tests { fn f() {} }");
        assert_eq!(test_module_spans(&toks).len(), 1);
    }
}
