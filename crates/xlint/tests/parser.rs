//! Item-extraction golden tests on deliberately tricky sources, plus the
//! property the whole linter leans on: lexing + parsing + linting never
//! panics, whatever bytes come in.

use exegpt_xlint::parser::{parse_source, Item, ItemKind, Visibility};
use exegpt_xlint::{lint_source, FileContext};
use proptest::prelude::*;

fn named<'a>(items: &'a [Item], name: &str) -> &'a Item {
    items.iter().find(|i| i.name == name).unwrap_or_else(|| panic!("item `{name}` parsed"))
}

#[test]
fn nested_mods_yield_flat_items_with_correct_spans() {
    let src = "\
mod a {
    pub mod b {
        pub(crate) fn inner() -> Result<(), ()> {
            Ok(())
        }
    }
    const K: usize = 3;
}
mod leaf;
";
    let items = parse_source(src);
    let a = named(&items, "a");
    assert!(matches!(a.kind, ItemKind::Mod { inline: true }));
    assert_eq!((a.line, a.end_line), (1, 8));
    let b = named(&items, "b");
    assert_eq!(b.vis, Visibility::Pub);
    assert_eq!((b.line, b.end_line), (2, 6));
    let inner = named(&items, "inner");
    assert_eq!(inner.vis, Visibility::Restricted);
    assert!(matches!(inner.kind, ItemKind::Fn(s) if s.returns_result));
    assert_eq!(named(&items, "K").kind, ItemKind::Const);
    assert!(matches!(named(&items, "leaf").kind, ItemKind::Mod { inline: false }));
}

#[test]
fn cfg_test_modules_still_parse_as_items() {
    // The parser reports structure; *rules* decide whether a region is
    // exempt. A #[cfg(test)] mod must still appear with its span.
    let src = "\
fn shipped() -> Result<u8, u8> { Ok(0) }
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn probe() {
        assert!(shipped().is_ok());
    }
}
";
    let items = parse_source(src);
    let tests = named(&items, "tests");
    assert_eq!((tests.line, tests.end_line), (3, 9));
    let probe = named(&items, "probe");
    assert!(matches!(probe.kind, ItemKind::Fn(s) if !s.returns_result && !s.must_use));
    assert_eq!(named(&items, "super::*").kind, ItemKind::Use);
}

#[test]
fn raw_strings_and_literals_do_not_confuse_item_boundaries() {
    // The raw string contains `fn fake()` and unbalanced braces; the lexer
    // strips literals, so none of it may surface as items.
    let src = "\
const DOC: &str = r#\"fn fake() -> Result<(), ()> { } } } {\"#;
static BRACES: &str = \"{ fn also_fake() }\";
fn real() {}
";
    let items = parse_source(src);
    assert!(!items.iter().any(|i| i.name.contains("fake")), "{items:?}");
    assert_eq!(named(&items, "DOC").kind, ItemKind::Const);
    assert_eq!(named(&items, "BRACES").kind, ItemKind::Static);
    let real = named(&items, "real");
    assert_eq!((real.line, real.end_line), (3, 3));
}

#[test]
fn macro_heavy_sources_keep_their_surrounding_items() {
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
    let mac = named(&items, "gen");
    assert_eq!(mac.kind, ItemKind::MacroDef);
    assert_eq!((mac.line, mac.end_line), (1, 5));
    // `fn $n()` inside the macro body is not an item occurrence the rules
    // should resolve against ($n is not an ident the lexer keeps paired).
    let after = named(&items, "after");
    assert!(matches!(after.kind, ItemKind::Fn(s) if s.must_use));
    assert_eq!(after.vis, Visibility::Pub);
    assert_eq!((after.line, after.end_line), (8, 10), "anchored at the `fn` keyword");
}

#[test]
fn impl_headers_and_trait_bodies_are_recovered() {
    let src = "\
trait Estimator {
    fn estimate(&self) -> Result<u64, ()>;
    fn hint(&self) -> usize {
        0
    }
}
impl<T: Clone> Estimator for Vec<T> {
    fn estimate(&self) -> Result<u64, ()> {
        Ok(self.len() as u64)
    }
}
";
    let items = parse_source(src);
    assert_eq!(named(&items, "Estimator").kind, ItemKind::Trait);
    let impls: Vec<&Item> = items.iter().filter(|i| i.kind == ItemKind::Impl).collect();
    assert_eq!(impls.len(), 1);
    assert!(impls[0].name.contains("Estimator for Vec"), "{}", impls[0].name);
    let estimates: Vec<&Item> = items.iter().filter(|i| i.name == "estimate").collect();
    assert_eq!(estimates.len(), 2, "trait decl and impl method");
    assert!(estimates.iter().all(|i| matches!(i.kind, ItemKind::Fn(s) if s.returns_result)));
}

#[test]
fn malformed_sources_parse_without_panicking() {
    // Truncations and unbalanced nesting must degrade, not crash.
    for src in [
        "fn",
        "fn (",
        "pub",
        "pub(",
        "impl {",
        "mod m { mod n {",
        "use ;;;",
        "#[must_use",
        "fn f() -> Result<",
        "}}}}",
        "const = ;",
        "macro_rules!",
        "extern",
    ] {
        let _ = parse_source(src);
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
        let items = parse_source(&src);
        for it in &items {
            prop_assert!(it.end_line >= it.line || it.end_line == 0);
            prop_assert!(it.end >= it.start);
        }
        // The full rule pipeline (lexer regions, parser-backed P2, L1, D3, U3)
        // must also survive the same soup under every scoping.
        let strict = FileContext {
            numeric_core: true,
            units_core: true,
            crate_idx: Some(0),
            ..FileContext::default()
        };
        let _ = lint_source("soup.rs", &src, strict);
        let _ = lint_source("soup.rs", &src, FileContext::default());
    }
}
