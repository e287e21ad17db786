//! A minimal Rust lexer for lint-grade token scanning.
//!
//! The lexer strips comments and string/char literals (their contents can
//! never trigger a rule) and keeps line numbers. It is *not* a full Rust
//! lexer — it only needs to be faithful enough that identifier/operator/
//! literal boundaries and test-region detection are correct on well-formed
//! Rust source.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`as`, `fn`, `HashMap`, ...).
    Ident,
    /// Numeric literal (`42`, `0xff`, `0.5`, `1e-3`, `2f64`).
    Number,
    /// A string/char/byte literal (contents dropped).
    Literal,
    /// A lifetime (`'a`) — kept distinct so it never looks like a char.
    Lifetime,
    /// Operator or punctuation; two-char operators (`==`, `!=`, `::`,
    /// `->`, `=>`, `<=`, `>=`, `&&`, `||`) arrive as one token.
    Punct,
}

/// One lexed token: kind, verbatim text (empty for [`TokKind::Literal`])
/// and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Verbatim text; literals are reduced to an empty placeholder.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Lexes `src` into tokens, stripping comments and literal contents.
pub fn lex(src: &str) -> Vec<Tok> {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = bytes.len();

    let two_char_ops = ["==", "!=", "::", "->", "=>", "<=", ">=", "&&", "||", ".."];

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments).
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            while i < n && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings r"..." / r#"..."# (and br variants).
        if (c == 'r' || c == 'b') && is_raw_string_start(&bytes, i) {
            let (ni, nl) = skip_raw_string(&bytes, i, line);
            out.push(Tok { kind: TokKind::Literal, text: String::new(), line });
            i = ni;
            line = nl;
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && i + 1 < n && bytes[i + 1] == '"') {
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                match bytes[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.push(Tok { kind: TokKind::Literal, text: String::new(), line: start_line });
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            if is_lifetime(&bytes, i) {
                let start = i;
                i += 1;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                out.push(Tok { kind: TokKind::Lifetime, text, line });
                continue;
            }
            // Char literal: 'x', '\n', '\u{1F600}'.
            i += 1;
            while i < n {
                match bytes[i] {
                    '\\' => i += 2,
                    '\'' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.push(Tok { kind: TokKind::Literal, text: String::new(), line });
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            out.push(Tok { kind: TokKind::Ident, text, line });
            continue;
        }
        // Number: int or float.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            let hex = c == '0' && i + 1 < n && (bytes[i + 1] == 'x' || bytes[i + 1] == 'X');
            i += 1;
            while i < n {
                let d = bytes[i];
                if d.is_ascii_alphanumeric() || d == '_' {
                    if !hex && (d == 'e' || d == 'E') {
                        // Exponent only when followed by a digit or sign+digit.
                        let sign = i + 1 < n && (bytes[i + 1] == '+' || bytes[i + 1] == '-');
                        let digit_at = if sign { i + 2 } else { i + 1 };
                        if digit_at < n && bytes[digit_at].is_ascii_digit() {
                            is_float = true;
                            i = digit_at + 1;
                            continue;
                        }
                    }
                    i += 1;
                } else if d == '.'
                    && !hex
                    && !is_float
                    && i + 1 < n
                    && (bytes[i + 1].is_ascii_digit()
                        || !(bytes[i + 1].is_alphanumeric()
                            || bytes[i + 1] == '_'
                            || bytes[i + 1] == '.'))
                {
                    // `1.5` or trailing `1.` — but not `1..x` or `1.max()`.
                    is_float = true;
                    i += 1;
                } else {
                    break;
                }
            }
            let text: String = bytes[start..i].iter().collect();
            out.push(Tok { kind: TokKind::Number, text, line });
            continue;
        }
        // Operators and punctuation.
        if i + 1 < n {
            let pair: String = [c, bytes[i + 1]].iter().collect();
            if two_char_ops.contains(&pair.as_str()) {
                out.push(Tok { kind: TokKind::Punct, text: pair, line });
                i += 2;
                continue;
            }
        }
        out.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

/// Whether `bytes[i..]` starts a raw (byte) string: `r"`, `r#`, `br"`, `br#`.
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != 'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == '#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == '"'
}

/// Skips a raw string starting at `i`; returns (next index, next line).
fn skip_raw_string(bytes: &[char], i: usize, line: usize) -> (usize, usize) {
    let mut j = i;
    let mut l = line;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == '#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < bytes.len() {
        if bytes[j] == '\n' {
            l += 1;
            j += 1;
        } else if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < bytes.len() && bytes[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, l);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, l)
}

/// Whether the `'` at `i` begins a lifetime rather than a char literal.
///
/// A lifetime is `'` followed by an identifier char that is *not*
/// terminated by a closing `'` right after one char (`'a'` is a char,
/// `'a` / `'static` are lifetimes).
fn is_lifetime(bytes: &[char], i: usize) -> bool {
    let n = bytes.len();
    if i + 1 >= n {
        return false;
    }
    let c1 = bytes[i + 1];
    if !(c1.is_alphabetic() || c1 == '_') {
        return false;
    }
    // 'x' (char) has a quote right after one identifier char.
    !(i + 2 < n && bytes[i + 2] == '\'')
}

/// Marks the token ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// Returns a boolean per token: `true` when the token lives inside a
/// test-only item (attribute included). Attributes followed by an item
/// without braces (e.g. `#[cfg(test)] use x;`) are skipped up to the `;`.
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_test_attr_start(toks, i) {
            let attr_end = match matching_close(toks, i + 1) {
                Some(e) => e,
                None => break,
            };
            // Find the extent of the annotated item: the matching `}` of
            // its first top-level `{`, or a `;` before any brace opens.
            let mut j = attr_end + 1;
            let mut depth = 0usize;
            let mut opened = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" => {
                            depth += 1;
                            opened = true;
                        }
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break;
                            }
                        }
                        ";" if !opened => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            let end = j.min(toks.len().saturating_sub(1));
            for flag in in_test.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Whether tokens at `i` start `#[test]`, `#[cfg(test)]` or any
/// `#[cfg(...test...)]` attribute (e.g. `#[cfg(all(test, unix))]`).
fn is_test_attr_start(toks: &[Tok], i: usize) -> bool {
    if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
        return false;
    }
    let Some(open) = toks.get(i + 1) else { return false };
    if !(open.kind == TokKind::Punct && open.text == "[") {
        return false;
    }
    let Some(head) = toks.get(i + 2) else { return false };
    if head.kind != TokKind::Ident {
        return false;
    }
    match head.text.as_str() {
        "test" => true,
        "cfg" => {
            let end = matching_close(toks, i + 1).unwrap_or(i + 2);
            let attr = &toks[i + 2..=end];
            attr.iter().any(|t| t.kind == TokKind::Ident && t.text == "test")
                && !attr.iter().any(|t| t.kind == TokKind::Ident && t.text == "not")
        }
        _ => false,
    }
}

/// Index of the bracket that closes the one at `open` (all bracket kinds
/// nest alike), or `None` on unbalanced input.
pub(crate) fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the token at `i` is the punctuation `s`.
pub(crate) fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct && t.text == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let c = 'H';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        assert!(ids.contains(&"x".to_string()));
    }

    #[test]
    fn numbers_keep_their_dots_but_not_range_or_method_dots() {
        let toks = lex("let a = 1.5; let b = 0..10; let c = 1e-3; let d = 2f64; let e = 7.max(1);");
        let numbers: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Number).map(|t| t.text.clone()).collect();
        assert_eq!(numbers, vec!["1.5", "0", "10", "1e-3", "2f64", "7", "1"]);
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn lib2() {}";
        let toks = lex(src);
        let regions = test_regions(&toks);
        for (t, &in_test) in toks.iter().zip(&regions) {
            if t.text == "unwrap" {
                assert!(in_test, "unwrap inside #[cfg(test)] must be marked");
            }
            if t.text == "lib2" || t.text == "lib" {
                assert!(!in_test, "{} is library code", t.text);
            }
        }
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"one\ntwo\";\nlet b = 3;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.text == "b").map(|t| t.line);
        assert_eq!(b, Some(3));
    }
}
