//! `fn` item extraction on top of the token stream.
//!
//! The unit rules need two facts about each function: its token range
//! (U3 walks every body once) and its signature (U1 inspects the types of
//! every `pub fn`). Functions nested in `mod`, `impl` and `trait` blocks
//! are found because the scan walks straight through those blocks; items
//! inside a `fn` body are not, because the scan resumes after the body.
//! It is not a Rust parser: it only needs to be faithful on well-formed
//! source and *panic-free* on arbitrary input (pinned by a property test).

use crate::lexer::{is_punct, matching_close, Tok, TokKind};

/// One `fn` item with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Unrestricted `pub`; `pub(crate)` and friends count as not public.
    pub public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the item's last token (`;` or closing `}`).
    pub end_line: usize,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the `{` or `;` that ends the signature.
    pub sig_end: usize,
    /// Token index of the item's last token.
    pub end: usize,
}

/// Lexes `src` and lists its `fn` items in one step — the public entry
/// point for tests and tools (the token types themselves stay private).
pub fn parse_source(src: &str) -> Vec<FnItem> {
    fn_items(&crate::lexer::lex(src))
}

/// Lists the `fn` items of a token stream in source order, excluding
/// functions nested in another function's body.
pub(crate) fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `fn` followed by `(` is a function-pointer type, not an item.
        let is_item = toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident);
        if !is_item {
            i += 1;
            continue;
        }
        let sig_end = signature_end(toks, i + 2);
        let end = if is_punct(toks, sig_end, "{") {
            matching_close(toks, sig_end).unwrap_or(toks.len() - 1)
        } else {
            sig_end
        };
        out.push(FnItem {
            name: toks[i + 1].text.clone(),
            public: is_public(toks, i),
            line: toks[i].line,
            end_line: toks[end].line,
            start: i,
            sig_end,
            end,
        });
        i = end + 1;
    }
    out
}

/// Index of the `{` or `;` at bracket depth 0 that ends the signature
/// starting at `from`, or the last token on malformed input.
fn signature_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[") => depth += 1,
            (TokKind::Punct, ")" | "]") => depth = depth.saturating_sub(1),
            (TokKind::Punct, "{" | ";") if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len() - 1
}

/// Whether the `fn` keyword at `kw` carries an unrestricted `pub`, looking
/// back over the qualifiers that may sit between them.
fn is_public(toks: &[Tok], kw: usize) -> bool {
    let mut j = kw;
    while let Some(prev) = j.checked_sub(1).and_then(|p| toks.get(p)) {
        let qualifier = prev.kind == TokKind::Literal // the ABI of `extern "C"`
            || (prev.kind == TokKind::Ident
                && matches!(prev.text.as_str(), "const" | "unsafe" | "async" | "extern"));
        if !qualifier {
            return prev.kind == TokKind::Ident && prev.text == "pub";
        }
        j -= 1;
    }
    false
}
