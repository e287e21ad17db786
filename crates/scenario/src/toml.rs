//! A deterministic TOML reader into the vendored serde [`Value`] tree.
//!
//! Scenario files are TOML, and only ever read: the schema decoder
//! ([`crate::schema`]) walks the [`Value`] tree parsed here. The subset
//! implemented is exactly what scenario files need — tables, arrays of
//! tables, inline tables, arrays, basic and literal strings, integers,
//! floats (including `inf`), booleans, comments. Nesting is capped at
//! [`MAX_DEPTH`] levels, so hostile input is a syntax error, not a stack
//! overflow.

use serde::Value;

use crate::error::ScenarioError;

/// The deepest nesting of arrays and inline tables, and the most segments
/// in one dotted key or table header. The schema nests about 3 deep.
pub const MAX_DEPTH: usize = 16;

/// Parses TOML text into a [`Value::Object`] tree.
///
/// # Errors
///
/// Returns [`ScenarioError::Syntax`] with the 1-based line number on
/// malformed input, duplicate keys, or conflicting table headers.
pub fn parse(text: &str) -> Result<Value, ScenarioError> {
    let mut p = Parser { c: text.chars().collect(), i: 0, line: 1, depth: 0 };
    let mut root: Vec<(String, Value)> = Vec::new();
    // Canonical header paths already opened (array elements carry their
    // index, so `[[t]]` elements never collide but re-opening a `[t]` —
    // or addressing an array element twice via `[t]` after `[[t]]` — does.
    // Duplicate *keys* are caught structurally by `insert_value`.
    let mut seen: Vec<String> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    loop {
        p.skip_trivia();
        if p.at_end() {
            break;
        }
        if p.peek() == Some('[') {
            p.bump();
            let is_array = p.peek() == Some('[');
            if is_array {
                p.bump();
            }
            let path = p.parse_dotted_key()?;
            p.consume(']')?;
            if is_array {
                p.consume(']')?;
            }
            p.expect_line_end()?;
            let canonical = open_table(&mut root, &path, is_array).map_err(|why| p.err(why))?;
            if seen.contains(&canonical) {
                return Err(p.err(format!("table `{}` already defined", path.join("."))));
            }
            seen.push(canonical);
            current = path;
        } else {
            let key = p.parse_dotted_key()?;
            p.consume('=')?;
            p.skip_inline_ws();
            let value = p.parse_value()?;
            p.expect_line_end()?;
            insert_value(&mut root, &current, &key, value).map_err(|why| p.err(why))?;
        }
    }
    Ok(Value::Object(root))
}

/// Navigates to `path` from the document root, creating tables as needed;
/// for `[[path]]`, appends a fresh element to the array at `path`. Returns
/// the canonical path of the opened table, with array elements spelled as
/// `seg[index]` so distinct `[[t]]` elements stay distinct.
fn open_table(
    root: &mut Vec<(String, Value)>,
    path: &[String],
    is_array: bool,
) -> Result<String, String> {
    let mut cur = root;
    let mut canonical = String::new();
    for (depth, seg) in path.iter().enumerate() {
        let last = depth + 1 == path.len();
        if !canonical.is_empty() {
            canonical.push('.');
        }
        canonical.push_str(seg);
        if !cur.iter().any(|(k, _)| k == seg) {
            let fresh = if last && is_array {
                canonical.push_str("[0]");
                Value::Array(vec![Value::Object(Vec::new())])
            } else {
                Value::Object(Vec::new())
            };
            cur.push((seg.clone(), fresh));
            cur = match descend(cur, seg) {
                Some(next) => next,
                None => return Err(format!("internal: `{seg}` vanished")),
            };
            continue;
        }
        if last && is_array {
            let slot = cur.iter_mut().find(|(k, _)| k == seg).map(|(_, v)| v);
            match slot {
                Some(Value::Array(items)) => {
                    items.push(Value::Object(Vec::new()));
                }
                _ => return Err(format!("`{seg}` is not an array of tables")),
            }
        }
        // An existing segment that is an array of tables addresses its
        // *last* element; spell the index into the canonical path.
        if let Some((_, Value::Array(items))) = cur.iter().find(|(k, _)| k == seg) {
            canonical.push_str(&format!("[{}]", items.len().saturating_sub(1)));
        }
        cur = match descend(cur, seg) {
            Some(next) => next,
            None => return Err(format!("`{seg}` is not a table")),
        };
    }
    Ok(canonical)
}

/// Steps into the table named `seg`: through an object directly, or into
/// the *last* element of an array of tables.
fn descend<'v>(cur: &'v mut [(String, Value)], seg: &str) -> Option<&'v mut Vec<(String, Value)>> {
    let v = cur.iter_mut().find(|(k, _)| k == seg).map(|(_, v)| v)?;
    match v {
        Value::Object(fields) => Some(fields),
        Value::Array(items) => match items.last_mut() {
            Some(Value::Object(fields)) => Some(fields),
            _ => None,
        },
        _ => None,
    }
}

/// Inserts `value` at `table_path` + `key_path`, creating intermediate
/// tables for dotted keys.
fn insert_value(
    root: &mut Vec<(String, Value)>,
    table_path: &[String],
    key_path: &[String],
    value: Value,
) -> Result<(), String> {
    let mut cur = root;
    for seg in table_path {
        cur = match descend(cur, seg) {
            Some(next) => next,
            None => return Err(format!("`{seg}` is not a table")),
        };
    }
    let (last, intermediate) = match key_path.split_last() {
        Some(split) => split,
        None => return Err("empty key".to_string()),
    };
    for seg in intermediate {
        if !cur.iter().any(|(k, _)| k == seg) {
            cur.push((seg.clone(), Value::Object(Vec::new())));
        }
        cur = match descend(cur, seg) {
            Some(next) => next,
            None => return Err(format!("`{seg}` is not a table")),
        };
    }
    if cur.iter().any(|(k, _)| k == last) {
        return Err(format!("key `{last}` already defined"));
    }
    cur.push((last.clone(), value));
    Ok(())
}

struct Parser {
    c: Vec<char>,
    i: usize,
    line: usize,
    /// Arrays and inline tables open around the current position.
    depth: usize,
}

impl Parser {
    fn err(&self, why: String) -> ScenarioError {
        ScenarioError::Syntax { line: self.line, why }
    }

    fn at_end(&self) -> bool {
        self.i >= self.c.len()
    }

    fn peek(&self) -> Option<char> {
        self.c.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek();
        if ch == Some('\n') {
            self.line += 1;
        }
        if ch.is_some() {
            self.i += 1;
        }
        ch
    }

    /// Skips spaces and tabs on the current line.
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// Skips whitespace, newlines and `#` comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\r' | '\n') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn consume(&mut self, want: char) -> Result<(), ScenarioError> {
        self.skip_inline_ws();
        match self.bump() {
            Some(ch) if ch == want => Ok(()),
            Some(ch) => Err(self.err(format!("expected `{want}`, found `{ch}`"))),
            None => Err(self.err(format!("expected `{want}`, found end of input"))),
        }
    }

    /// Consumes the rest of the line, allowing only trailing whitespace
    /// and a comment.
    fn expect_line_end(&mut self) -> Result<(), ScenarioError> {
        self.skip_inline_ws();
        match self.peek() {
            None | Some('\n') => Ok(()),
            Some('\r') => Ok(()),
            Some('#') => {
                while !matches!(self.peek(), None | Some('\n')) {
                    self.bump();
                }
                Ok(())
            }
            Some(ch) => Err(self.err(format!("unexpected `{ch}` after value"))),
        }
    }

    fn parse_dotted_key(&mut self) -> Result<Vec<String>, ScenarioError> {
        let mut parts = vec![self.parse_key_part()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('.') {
                if parts.len() == MAX_DEPTH {
                    return Err(self.err(format!("key deeper than {MAX_DEPTH} segments")));
                }
                self.bump();
                parts.push(self.parse_key_part()?);
            } else {
                return Ok(parts);
            }
        }
    }

    fn parse_key_part(&mut self) -> Result<String, ScenarioError> {
        self.skip_inline_ws();
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            Some(ch) if is_bare_key_char(ch) => {
                let mut s = String::new();
                while let Some(ch) = self.peek() {
                    if is_bare_key_char(ch) {
                        s.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(s)
            }
            Some(ch) => Err(self.err(format!("expected a key, found `{ch}`"))),
            None => Err(self.err("expected a key, found end of input".to_string())),
        }
    }

    fn parse_value(&mut self) -> Result<Value, ScenarioError> {
        self.skip_inline_ws();
        match self.peek() {
            Some('"') => self.parse_basic_string().map(Value::Str),
            Some('\'') => self.parse_literal_string().map(Value::Str),
            Some('[') => self.nested(Self::parse_array),
            Some('{') => self.nested(Self::parse_inline_table),
            Some(_) => self.parse_scalar_word(),
            None => Err(self.err("expected a value, found end of input".to_string())),
        }
    }

    /// Runs `parse` one nesting level deeper; past [`MAX_DEPTH`] levels the
    /// recursion would eventually overflow the stack, so it is an error.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ScenarioError>,
    ) -> Result<Value, ScenarioError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_basic_string(&mut self) -> Result<String, ScenarioError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape".to_string()))?;
                            code = code * 16 + d;
                        }
                        let ch = char::from_u32(code)
                            .ok_or_else(|| self.err("bad \\u escape".to_string()))?;
                        s.push(ch);
                    }
                    Some(ch) => return Err(self.err(format!("unknown escape `\\{ch}`"))),
                    None => return Err(self.err("unterminated string".to_string())),
                },
                Some('\n') | None => return Err(self.err("unterminated string".to_string())),
                Some(ch) => s.push(ch),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, ScenarioError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('\'') => return Ok(s),
                Some('\n') | None => return Err(self.err("unterminated string".to_string())),
                Some(ch) => s.push(ch),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ScenarioError> {
        self.bump(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                Some(ch) => return Err(self.err(format!("expected `,` or `]`, found `{ch}`"))),
                None => return Err(self.err("unterminated array".to_string())),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, ScenarioError> {
        self.bump(); // `{`
        let mut fields: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('}') {
                self.bump();
                return Ok(Value::Object(fields));
            }
            let key = self.parse_key_part()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("key `{key}` already defined")));
            }
            self.consume('=')?;
            self.skip_inline_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_inline_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {}
                Some(ch) => return Err(self.err(format!("expected `,` or `}}`, found `{ch}`"))),
                None => return Err(self.err("unterminated inline table".to_string())),
            }
        }
    }

    /// Parses a bare scalar word: boolean, integer, or float.
    fn parse_scalar_word(&mut self) -> Result<Value, ScenarioError> {
        let mut word = String::new();
        while let Some(ch) = self.peek() {
            if ch.is_ascii_alphanumeric() || matches!(ch, '+' | '-' | '.' | '_') {
                word.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        match word.as_str() {
            "" => Err(self.err("expected a value".to_string())),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "inf" | "+inf" => Ok(Value::F64(f64::INFINITY)),
            "-inf" => Ok(Value::F64(f64::NEG_INFINITY)),
            "nan" | "+nan" | "-nan" => Ok(Value::F64(f64::NAN)),
            _ => {
                // Each `parse` accepts one leading sign and nothing else
                // but digits, so a doubled sign (`--5`, `-+5`) is an error.
                let digits: String = word.chars().filter(|&c| c != '_').collect();
                let bad = |what| self.err(format!("bad {what} `{word}`"));
                if digits.contains(['.', 'e', 'E']) {
                    digits.parse().map(Value::F64).map_err(|_| bad("float"))
                } else if digits.starts_with('-') {
                    digits.parse().map(Value::I64).map_err(|_| bad("integer"))
                } else {
                    digits.parse().map(Value::U64).map_err(|_| bad("integer"))
                }
            }
        }
    }
}

fn is_bare_key_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || ch == '_' || ch == '-'
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The syntax error `parse` reports for `text`.
    fn syntax_error(text: &str) -> (usize, String) {
        match parse(text) {
            Err(ScenarioError::Syntax { line, why }) => (line, why),
            other => panic!("expected a syntax error for {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let text = r#"
            name = "demo"   # trailing comment
            seed = 7
            ratio = 0.5
            flags = [1, 2, 3]

            [cluster]
            preset = "a40"
            gpus = 4

            [[events]]
            t = 1.5
            kind = "gpu_fail"

            [[events]]
            t = 2.5
            kind = "gpu_recover"
        "#;
        let v = parse(text).expect("parses");
        assert_eq!(v.get("name"), Some(&Value::Str("demo".into())));
        assert_eq!(v.get("seed"), Some(&Value::U64(7)));
        assert_eq!(v.get("ratio"), Some(&Value::F64(0.5)));
        let cluster = v.get("cluster").expect("cluster");
        assert_eq!(cluster.get("gpus"), Some(&Value::U64(4)));
        match v.get("events") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].get("kind"), Some(&Value::Str("gpu_recover".into())));
            }
            other => panic!("events should be an array of tables, got {other:?}"),
        }
    }

    #[test]
    fn parses_inline_tables_and_dotted_keys() {
        let text = "rate = { kind = \"qps\", qps = 12.0 }\nserve.total = 100\n";
        let v = parse(text).expect("parses");
        let rate = v.get("rate").expect("rate");
        assert_eq!(rate.get("kind"), Some(&Value::Str("qps".into())));
        assert_eq!(rate.get("qps"), Some(&Value::F64(12.0)));
        let serve = v.get("serve").expect("serve");
        assert_eq!(serve.get("total"), Some(&Value::U64(100)));
    }

    #[test]
    fn rejects_duplicates_and_reports_lines() {
        let dup = parse("a = 1\na = 2\n");
        match dup {
            Err(ScenarioError::Syntax { line, why }) => {
                assert_eq!(line, 2);
                assert!(why.contains("already defined"), "{why}");
            }
            other => panic!("expected duplicate-key error, got {other:?}"),
        }
        assert!(parse("[t]\nx = 1\n[t]\n").is_err(), "duplicate table");
        assert!(parse("x = @\n").is_err(), "bad value");
        assert!(parse("x = \"unterminated\n").is_err(), "unterminated string");
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let v = parse("a = -3\nb = 1e3\nc = -0.5\nd = inf\n").expect("parses");
        assert_eq!(v.get("a"), Some(&Value::I64(-3)));
        assert_eq!(v.get("b"), Some(&Value::F64(1000.0)));
        assert_eq!(v.get("c"), Some(&Value::F64(-0.5)));
        assert_eq!(v.get("d"), Some(&Value::F64(f64::INFINITY)));
        // Boundary floats: a subnormal, a huge magnitude, a value with no
        // short decimal form, and 2^53. Each must come back bit for bit.
        for (text, want) in [
            ("5e-324", 5e-324),
            ("1e308", 1e308),
            ("0.30000000000000004", 0.1 + 0.2),
            ("9007199254740992.0", 2.0_f64.powi(53)),
        ] {
            match parse(&format!("x = {text}\n")).expect("parses").get("x") {
                Some(Value::F64(x)) => assert_eq!(x.to_bits(), want.to_bits(), "{text}"),
                other => panic!("{text} should parse as a float, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_doubled_sign_is_rejected() {
        for text in ["a = --5", "a = -+5", "a = +-5", "a = ++5", "a = --5.0", "a = 5-3"] {
            let (line, why) = syntax_error(text);
            assert_eq!(line, 1, "{text}");
            assert!(why.starts_with("bad "), "{text}: {why}");
        }
        let v = parse("a = +5\nb = -9223372036854775808\n").expect("parses");
        assert_eq!(v.get("a"), Some(&Value::U64(5)));
        assert_eq!(v.get("b"), Some(&Value::I64(i64::MIN)));
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |open: &str, close: &str, levels: usize| {
            format!("a = {}1{}\n", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{b = ", "}")] {
            assert!(parse(&deep(open, close, MAX_DEPTH)).is_ok(), "{open}: at the cap");
            let (line, why) = syntax_error(&deep(open, close, MAX_DEPTH + 1));
            assert_eq!((line, why.as_str()), (1, "nesting deeper than 16 levels"), "{open}");
            // Far past any stack: unclosed, on the second line.
            let (line, why) = syntax_error(&format!("x = 1\na = {}", open.repeat(1_000_000)));
            assert_eq!((line, why.as_str()), (2, "nesting deeper than 16 levels"), "{open}");
        }
        let key = |segments: usize| vec!["k"; segments].join(".");
        assert!(parse(&format!("{} = 1\n", key(MAX_DEPTH))).is_ok());
        for text in [format!("{} = 1\n", key(1_000_000)), format!("[{}]\n", key(MAX_DEPTH + 1))] {
            let (line, why) = syntax_error(&text);
            assert_eq!((line, why.as_str()), (1, "key deeper than 16 segments"));
        }
    }
}
