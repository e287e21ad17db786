//! `fn`-item extraction golden tests on deliberately tricky sources, plus
//! the property the whole linter leans on: lexing + parsing + linting
//! never panics, whatever bytes come in.

use exegpt_xlint::lint_source;
use exegpt_xlint::parser::{parse_source, FnItem};
use proptest::prelude::*;

fn named<'a>(items: &'a [FnItem], name: &str) -> &'a FnItem {
    items.iter().find(|i| i.name == name).unwrap_or_else(|| panic!("fn `{name}` parsed"))
}

fn names(items: &[FnItem]) -> Vec<&str> {
    items.iter().map(|i| i.name.as_str()).collect()
}

#[test]
fn fns_in_mods_traits_and_impls_are_found_with_their_spans() {
    let src = "\
mod a {
    pub mod b {
        pub(crate) fn inner() -> Result<(), ()> {
            Ok(())
        }
    }
    const K: usize = 3;
}
trait Estimator {
    fn estimate(&self) -> u64;
}
impl<T: Clone> Estimator for Vec<T> {
    fn estimate(&self) -> u64 {
        self.len() as u64
    }
}
";
    let items = parse_source(src);
    assert_eq!(names(&items), vec!["inner", "estimate", "estimate"]);
    let inner = named(&items, "inner");
    assert_eq!((inner.line, inner.end_line), (3, 5));
    assert!(!inner.public, "pub(crate) is restricted");
    assert_eq!((items[1].line, items[1].end_line), (10, 10), "a trait declaration ends at `;`");
    assert_eq!((items[2].line, items[2].end_line), (13, 15));
}

#[test]
fn visibility_looks_through_qualifiers() {
    let src = "pub fn a() {}\nfn b() {}\npub const unsafe fn c() {}\n\
               pub extern \"C\" fn d() {}\npub(super) fn e() {}\npub async fn f() {}";
    let public: Vec<bool> = parse_source(src).iter().map(|i| i.public).collect();
    assert_eq!(public, vec![true, false, true, true, false, true]);
}

#[test]
fn signatures_end_at_the_body_or_the_semicolon() {
    let src = "pub fn f(x: [u8; 4], y: f64) -> Secs where T: Copy { body() }\nfn g(x: u8);";
    let items = parse_source(src);
    assert_eq!(items.len(), 2);
    for it in &items {
        assert!(it.start < it.sig_end && it.sig_end <= it.end, "{it:?}");
    }
    assert_eq!(items[1].sig_end, items[1].end, "a bodiless fn ends at its `;`");
}

#[test]
fn cfg_test_modules_still_list_their_fns() {
    // The parser reports structure; *rules* decide whether a region is
    // exempt. A #[cfg(test)] mod's fns must still appear.
    let src = "\
fn shipped() -> u8 { 0 }
#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        assert_eq!(super::shipped(), 0);
    }
}
";
    let items = parse_source(src);
    assert_eq!(names(&items), vec!["shipped", "probe"]);
    let probe = named(&items, "probe");
    assert_eq!((probe.line, probe.end_line), (5, 7));
}

#[test]
fn literals_pointer_types_and_nested_fns_are_not_items() {
    // The raw string contains `fn fake()` and unbalanced braces; the lexer
    // strips literals, so none of it may surface as items. `fn(u8)` is a
    // pointer type, and a fn inside another fn's body is part of it.
    let src = "\
const DOC: &str = r#\"fn fake() -> Result<(), ()> { } } } {\"#;
type Cb = fn(usize) -> bool;
fn real(cb: fn(u8) -> u8) {
    fn helper() {}
}
";
    let items = parse_source(src);
    assert_eq!(names(&items), vec!["real"]);
    assert_eq!((items[0].line, items[0].end_line), (3, 5));
}

#[test]
fn macro_bodies_keep_their_surrounding_fns() {
    let src = "\
macro_rules! gen {
    ($n:ident) => {
        fn $n() {}
    };
}
gen!(from_macro);
#[must_use]
pub fn after() -> u32 {
    7
}
";
    let items = parse_source(src);
    // `fn $n()` is not an item: `$` is not an identifier.
    assert_eq!(names(&items), vec!["after"]);
    assert!(items[0].public);
    assert_eq!((items[0].line, items[0].end_line), (8, 10), "anchored at the `fn` keyword");
}

#[test]
fn malformed_sources_parse_without_panicking() {
    // Truncations and unbalanced nesting must degrade, not crash.
    for src in [
        "fn",
        "fn f",
        "fn (",
        "pub",
        "pub(",
        "pub fn",
        "impl {",
        "mod m { mod n {",
        "fn f() -> Result<",
        "fn f() {",
        "}}}}",
        "macro_rules!",
        "extern \"C\" fn",
    ] {
        let _ = parse_source(src);
        let _ = lint_source("malformed.rs", src, true);
    }
}

// The vocabulary deliberately mixes item keywords, brackets, attributes,
// control flow, unit strips and junk so random joins form deeply broken
// pseudo-Rust that still reaches U3's `let` and constructor matching.
const VOCAB: [&str; 35] = [
    "fn",
    "mod",
    "impl",
    "trait",
    "use",
    "pub",
    "const",
    "static",
    "struct",
    "enum",
    "macro_rules!",
    "#[must_use]",
    "#[cfg(test)]",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">",
    ";",
    "-> Result<(), ()>",
    "ident",
    "\"str { fn\"",
    "let _ = f();",
    "let x =",
    "x.as_secs()",
    "Bytes::new(x)",
    "if",
    "else",
    "match",
    "loop",
    "'outer:",
    "=>",
    "?",
    "return",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsing_and_linting_never_panic(picks in prop::collection::vec(0usize..VOCAB.len(), 0..40)) {
        let src: String =
            picks.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        for it in &parse_source(&src) {
            prop_assert!(it.end_line >= it.line);
            prop_assert!(it.start < it.sig_end || it.sig_end == it.end);
            prop_assert!(it.sig_end <= it.end);
        }
        // The full rule pipeline (test regions, U1's signatures, U2, U3's
        // per-fn pass) must also survive the same soup, with U1 on and off.
        let _ = lint_source("soup.rs", &src, true);
        let _ = lint_source("soup.rs", &src, false);
    }
}
