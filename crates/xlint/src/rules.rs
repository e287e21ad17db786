//! The unit rules and the token-stream matcher.
//!
//! Three token-level rules keep dimensioned quantities inside the
//! `exegpt_units` newtypes, so the cost model's arithmetic stays auditable
//! (DESIGN.md §6.2–§6.3):
//!
//! * **U1** — no raw `f64`/`f32` parameters or returns in `pub fn`
//!   signatures of the unit-carrying crates (cost model + hardware
//!   model); use the `exegpt_units` newtypes (`Secs`, `Bytes`, ...).
//! * **U2** — a `let` binding named `*_bytes`/`*_secs`/`*_flops` must
//!   not be initialized from a call whose name carries a *different*
//!   unit suffix (e.g. `let total_secs = kv_bytes(...)`).
//! * **U3** — unit re-entry: a float stripped out of a unit newtype
//!   (`.as_secs()`, `.as_f64()`) must not re-enter a *different* unit's
//!   constructor; `exegpt_dist::convert` helpers and the unit's own
//!   constructors are the sanctioned re-dimensioning points. One forward
//!   pass per `fn` follows strips through `let` bindings (DESIGN.md §6.3).

use std::collections::BTreeMap;

use crate::lexer::{self, is_punct, matching_close, Tok, TokKind};
use crate::parser::{self, FnItem};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw float parameters/returns in public unit-carrying signatures.
    U1,
    /// Unit-suffix conflict between a binding and its initializer call.
    U2,
    /// Unit-stripped float re-enters a different unit's constructor.
    U3,
}

impl Rule {
    /// All rules, in display order.
    pub const ALL: [Rule; 3] = [Rule::U1, Rule::U2, Rule::U3];

    /// The rule's stable identifier, as used in output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::U3 => "U3",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found.
    pub message: String,
    /// The suggested fix.
    pub suggestion: String,
}

/// Lints one source file, ordered by (line, rule). `units_core` enables
/// U1, which covers only the unit-carrying crates.
pub fn lint_source(file: &str, src: &str, units_core: bool) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let in_test = lexer::test_regions(&toks);
    let fns: Vec<FnItem> =
        parser::fn_items(&toks).into_iter().filter(|f| !in_test[f.start]).collect();
    let mut findings = Vec::new();
    if units_core {
        u1_scan(file, &toks, &fns, &mut findings);
    }
    u2_scan(file, &toks, &in_test, &mut findings);
    u3_scan(file, &toks, &fns, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// U1: `pub fn` signatures in unit-carrying crates must not take or
/// return raw `f64`/`f32` — dimensioned quantities go through the
/// `exegpt_units` newtypes. Restricted visibility (`pub(crate)` etc.) is
/// exempt: it is the sanctioned demotion for genuinely dimensionless
/// internals.
fn u1_scan(file: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| f.public) {
        let mut depth = 0usize;
        let mut past_arrow = false;
        for j in f.start + 2..f.sig_end {
            let t = &toks[j];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => depth += 1,
                (TokKind::Punct, ")" | "]") => depth = depth.saturating_sub(1),
                (TokKind::Punct, "->") if depth == 0 => past_arrow = true,
                (TokKind::Ident, "f64" | "f32") => {
                    // A float named by the dimensionless vocabulary is
                    // exempt: ratios/factors have no unit to carry, and
                    // rule U3 polices the flows around them.
                    let exempt = if past_arrow {
                        dimensionless_name(&f.name)
                    } else {
                        param_name_before(toks, j).is_some_and(dimensionless_name)
                    };
                    if exempt {
                        continue;
                    }
                    out.push(Finding {
                        file: file.to_string(),
                        line: f.line,
                        rule: Rule::U1,
                        message: format!("`pub fn {}` takes or returns raw `{}`", f.name, t.text),
                        suggestion: "use an `exegpt_units` newtype (`Secs`, `Bytes`, `Flops`, \
                                     a rate), name the quantity with the dimensionless \
                                     vocabulary (ratio/factor/…), or demote to `pub(crate)`"
                            .to_string(),
                    });
                    break;
                }
                _ => {}
            }
        }
    }
}

/// Whether a `_`-separated name component marks the quantity as
/// genuinely dimensionless (U1's sanctioned raw-float vocabulary).
fn dimensionless_name(name: &str) -> bool {
    name.split('_').any(|seg| {
        matches!(seg, "ratio" | "frac" | "efficiency" | "speedup" | "slowdown" | "factor" | "util")
    })
}

/// The identifier naming the parameter whose type mention sits at `ty`:
/// walks back over a short run of type tokens to the `:` introducing it.
fn param_name_before(toks: &[Tok], ty: usize) -> Option<&str> {
    let mut j = ty;
    for _ in 0..6 {
        j = j.checked_sub(1)?;
        let t = toks.get(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ":") => {
                let p = toks.get(j.checked_sub(1)?)?;
                return (p.kind == TokKind::Ident).then_some(p.text.as_str());
            }
            (TokKind::Punct, "&" | "<") | (TokKind::Lifetime, _) | (TokKind::Ident, _) => {}
            _ => return None,
        }
    }
    None
}

/// Whether `name` is `suffix` or ends in `_suffix`.
fn has_suffix(name: &str, suffix: &str) -> bool {
    name == suffix || name.strip_suffix(suffix).is_some_and(|stem| stem.ends_with('_'))
}

/// The unit vocabulary U2 checks binding/callee names against.
fn unit_suffix(name: &str) -> Option<&'static str> {
    ["bytes", "secs", "flops"].into_iter().find(|s| has_suffix(name, s))
}

/// For `let [mut] name [: T] = …` at `i`, the binding's token index and
/// the `=` that starts the initializer. `None` anywhere else, including
/// destructuring patterns and declarations without an initializer.
fn let_binding(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    if !is_ident(toks, i, "let") {
        return None;
    }
    let bind = if is_ident(toks, i + 1, "mut") { i + 2 } else { i + 1 };
    if toks.get(bind)?.kind != TokKind::Ident
        || !(is_punct(toks, bind + 1, "=") || is_punct(toks, bind + 1, ":"))
    {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(bind + 1) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return None,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 && t.kind == TokKind::Punct => return Some((bind, j)),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// U2: a `let` binding whose name carries a unit suffix must not be
/// initialized by a call whose name carries a *conflicting* suffix. Only
/// the first call of the initializer is inspected — deeper expressions
/// are beyond a token-level lint.
fn u2_scan(file: &str, toks: &[Tok], in_test: &[bool], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some((bind, eq)) = let_binding(toks, i) else { continue };
        let Some(bind_suffix) = unit_suffix(&toks[bind].text) else { continue };
        let Some(call) = (eq + 1..stmt_end(toks, eq + 1))
            .find(|&j| toks[j].kind == TokKind::Ident && is_punct(toks, j + 1, "("))
        else {
            continue;
        };
        let Some(call_suffix) = unit_suffix(&toks[call].text) else { continue };
        if call_suffix != bind_suffix {
            out.push(Finding {
                file: file.to_string(),
                line: toks[bind].line,
                rule: Rule::U2,
                message: format!(
                    "`{}` (unit `{bind_suffix}`) initialized from `{}(...)` (unit `{call_suffix}`)",
                    toks[bind].text, toks[call].text
                ),
                suggestion: "rename the binding to match the quantity, or convert \
                             explicitly through the `exegpt_units` accessors"
                    .to_string(),
            });
        }
    }
}

/// The unit newtypes U3 tracks and the name suffix of a raw float of the
/// same dimension. A strip set is a bitset: bit `k` is `UNITS[k]`.
const UNITS: [(&str, &str); 4] =
    [("Secs", "secs"), ("Bytes", "bytes"), ("Tokens", "tokens"), ("Flops", "flops")];

/// The unit constructors: calling one re-dimensions its argument.
const UNIT_CTORS: [&str; 4] = ["new", "from_secs", "from_millis", "from_micros"];

/// The checked `exegpt_dist::convert` helpers, the other sanctioned
/// re-dimensioning point.
const CONVERT_HELPERS: [&str; 8] = [
    "lossless_f64",
    "widen_u64",
    "narrow_usize",
    "trunc_usize",
    "trunc_u64",
    "round_usize",
    "ceil_usize",
    "ceil_u64",
];

/// The strip bit of `Unit` if a `Unit::ctor(` call starts at `i`.
fn unit_ctor_at(toks: &[Tok], i: usize) -> Option<u8> {
    let name = &toks.get(i)?.text;
    let k = UNITS.iter().position(|(ty, _)| ty == name)?;
    (is_punct(toks, i + 1, "::")
        && toks.get(i + 2).is_some_and(|m| UNIT_CTORS.contains(&m.text.as_str()))
        && is_punct(toks, i + 3, "("))
    .then_some(1 << k)
}

/// The strip bit of the unit an identifier's `_secs`/`_bytes`/`_tokens`/
/// `_toks`/`_flops` suffix names (0 for none).
fn suffix_bit(name: &str) -> u8 {
    let name = if has_suffix(name, "toks") { "tokens" } else { name };
    UNITS.iter().position(|(_, suffix)| has_suffix(name, suffix)).map_or(0, |k| 1 << k)
}

/// U3: one forward pass over each non-test `fn`, in source order. A
/// `let name = init;` maps `name` to the strips in `init` once the
/// statement ends; a `Unit::ctor(args)` call fires when `args` carry a
/// strip of a different unit. At most one finding per line.
fn u3_scan(file: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    let mut last_line = 0;
    for it in fns {
        let mut bound: BTreeMap<&str, u8> = BTreeMap::new();
        // `let`s whose initializer is still being scanned, innermost last:
        // (index of the closing `;`, name, strips).
        let mut pending: Vec<(usize, &str, u8)> = Vec::new();
        for j in it.start..=it.end {
            if let Some((bind, eq)) = let_binding(toks, j) {
                let end = stmt_end(toks, eq + 1);
                pending.push((end, &toks[bind].text, strips(toks, eq + 1, end - 1, &bound)));
            }
            if let Some(own) = unit_ctor_at(toks, j) {
                let close = matching_close(toks, j + 3).unwrap_or(j + 3);
                let foreign = strips(toks, j + 4, close - 1, &bound) & !own;
                if foreign != 0 && toks[j].line != last_line {
                    last_line = toks[j].line;
                    let marks: Vec<String> = (0..UNITS.len())
                        .filter(|k| foreign & (1 << k) != 0)
                        .map(|k| format!("{}-stripped", UNITS[k].1))
                        .collect();
                    out.push(Finding {
                        file: file.to_string(),
                        line: toks[j].line,
                        rule: Rule::U3,
                        message: format!(
                            "`{}::{}` re-entered with a {} value",
                            toks[j].text,
                            toks[j + 2].text,
                            marks.join("+"),
                        ),
                        suggestion: "convert through `exegpt_dist::convert` or the source unit's \
                                     own accessor chain — a raw float must not change dimension \
                                     silently"
                            .to_string(),
                    });
                }
            }
            while let Some(&(_, name, s)) = pending.last().filter(|p| p.0 <= j) {
                bound.insert(name, s);
                pending.pop();
            }
        }
    }
}

/// The unit strips `toks[lo..=hi]` carries: `.as_secs()`/`.as_millis()`/
/// `.as_micros()`, `.as_f64()` on a unit-suffixed receiver, and the strips
/// of the `bound` names it mentions. 0 if the whole range is one call of
/// a `convert` helper or a unit constructor.
fn strips(toks: &[Tok], lo: usize, hi: usize, bound: &BTreeMap<&str, u8>) -> u8 {
    let hi = hi.min(toks.len().saturating_sub(1));
    if lo > hi || redimensions(toks, lo, hi) {
        return 0;
    }
    let mut s = 0;
    for j in lo..=hi {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let dotted = prev_is_dot(toks, j);
        let in_path = dotted || (j > 0 && is_punct(toks, j - 1, "::"));
        if dotted && is_punct(toks, j + 1, "(") {
            s |= match t.text.as_str() {
                "as_secs" | "as_millis" | "as_micros" => 1, // bit 0: Secs
                "as_f64" => j.checked_sub(2).map_or(0, |r| suffix_bit(&toks[r].text)),
                _ => 0,
            };
        } else if !in_path {
            s |= bound.get(t.text.as_str()).copied().unwrap_or(0);
        }
    }
    s
}

/// Whether `toks[lo..=hi]` is exactly one `path::name(…)` call of a
/// `convert` helper or a unit constructor.
fn redimensions(toks: &[Tok], lo: usize, hi: usize) -> bool {
    let mut j = lo;
    while toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) && is_punct(toks, j + 1, "::") {
        j += 2;
    }
    let ctor = j >= lo + 2 && unit_ctor_at(toks, j - 2).is_some();
    let helper = toks.get(j).is_some_and(|t| CONVERT_HELPERS.contains(&t.text.as_str()))
        && is_punct(toks, j + 1, "(");
    (ctor || helper) && matching_close(toks, j + 1) == Some(hi)
}

/// Index of the `;` ending the statement starting at `from` (bracket
/// depth 0), or the last token if none.
fn stmt_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0usize;
    let mut j = from;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn prev_is_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && is_punct(toks, i - 1, ".")
}

fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Ident && t.text == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("t.rs", src, true)
    }

    fn rules(r: &[Finding]) -> Vec<Rule> {
        r.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn u1_flags_pub_fn_floats_and_exempts_restricted_visibility() {
        let r = lint("pub fn f(x: f64) {}\npub(crate) fn g(x: f64) {}\nfn h(x: f64) {}");
        assert_eq!(rules(&r), vec![Rule::U1]);
        let off = lint_source("o.rs", "pub fn f(x: f64) {}", false);
        assert!(off.is_empty(), "U1 is scoped to the unit-carrying crates");
    }

    #[test]
    fn u1_flags_raw_returns_but_not_typed_signatures() {
        let r = lint("pub fn headroom() -> f64 {\n    0.5\n}");
        assert_eq!(rules(&r), vec![Rule::U1]);
        let typed = lint("pub fn transfer(t: Secs, b: Bytes) -> BytesPerSec { b / t }");
        assert!(typed.is_empty(), "{:?}", typed);
        let body = lint("pub fn scale(t: Secs) -> Secs { let k: f64 = 2.0; t * k }");
        assert!(body.is_empty(), "U1 inspects signatures, not bodies");
    }

    #[test]
    fn u1_exempts_the_dimensionless_vocabulary() {
        let ok = lint(
            "pub fn slowed(factor: f64) -> Secs { Secs::new(factor) }\n\
             pub fn compute_efficiency(f: Flops) -> f64 { 0.5 }\n\
             pub fn build(tp_speedup: f64, util: f64) -> Plan { Plan }",
        );
        assert!(ok.is_empty(), "{:?}", ok);
        let bad = lint("pub fn slowed(factor: f64, budget: f64) -> Secs { Secs::new(factor) }");
        assert_eq!(rules(&bad), vec![Rule::U1], "a later non-vocab float still fires");
        let name_only = lint("pub fn utilization(x: f64) {}");
        assert_eq!(rules(&name_only), vec![Rule::U1], "vocab matches whole components only");
    }

    #[test]
    fn u2_flags_suffix_conflicts_between_binding_and_call() {
        let r = lint("let total_secs = kv_bytes(4096);");
        assert_eq!(rules(&r), vec![Rule::U2]);
        let m = lint("let mut peak_bytes = elapsed_secs();");
        assert_eq!(rules(&m), vec![Rule::U2]);
    }

    #[test]
    fn u2_allows_matching_or_undecidable_initializers() {
        let ok = lint(
            "let weights_bytes = param_bytes(12);\n\
             let plain = kv_bytes(1);\n\
             let t_secs = compute(kv_bytes(3));\n\
             let held_flops = layer_flops(2);",
        );
        assert!(ok.is_empty(), "{:?}", ok);
    }

    #[test]
    fn u3_flags_cross_unit_reentry_but_not_round_trips() {
        let src = "fn f(t: Secs) -> Bytes {\n    let raw = t.as_secs();\n    Bytes::new(raw)\n}";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::U3], "{:?}", r);
        assert!(r[0].message.contains("secs-stripped"), "{}", r[0].message);
        let suffix = lint(
            "fn s(kv_bytes: Bytes) -> Secs {\n    let raw = kv_bytes.as_f64();\n    \
                           Secs::new(raw)\n}",
        );
        assert_eq!(rules(&suffix), vec![Rule::U3], "suffix names the dimension for as_f64");
        let round = lint(
            "fn g(t: Secs) -> Secs {\n    let raw = t.as_secs();\n    \
                          Secs::new(raw)\n}",
        );
        assert!(round.is_empty(), "same-unit round trip: {:?}", round);
        let conv = lint(
            "fn h(t: Secs) -> Bytes {\n    let raw = convert::lossless_f64(t.as_secs());\n    \
             Bytes::new(raw)\n}",
        );
        assert!(conv.is_empty(), "checked conversion launders: {:?}", conv);
        let anon = lint(
            "fn a(b: Bytes) -> Secs {\n    let raw = b.as_f64();\n    \
                         Secs::new(raw)\n}",
        );
        assert!(anon.is_empty(), "an unnamed dimension cannot witness a mismatch");
        for src in [
            // Propagation through a second local.
            "fn p(t: Secs) -> Bytes {\n    let a = t.as_secs();\n    let b = a * 2.0;\n    \
             Bytes::new(b)\n}",
            // A strip inside an `if` initializer.
            "fn i(t: Secs, c: bool) -> Bytes {\n    \
             let raw = if c { t.as_millis() } else { 0.0 };\n    Bytes::new(raw)\n}",
            // A strip directly in the constructor's arguments.
            "fn d(t: Secs) -> Bytes {\n    Bytes::new(t.as_secs())\n}",
            // A shadowing `let` binds only after its initializer is checked.
            "fn s(t: Secs) -> Bytes {\n    let raw = t.as_secs();\n    \
             let raw = Bytes::new(raw);\n    raw\n}",
            // A `_toks` suffix names the dimension for `as_f64`.
            "fn k(prompt_toks: Tokens) -> Secs {\n    let raw = prompt_toks.as_f64();\n    \
             Secs::from_millis(raw)\n}",
        ] {
            assert_eq!(rules(&lint(src)), vec![Rule::U3], "{src}");
        }
        let redim = lint(
            "fn r(t: Secs) -> Bytes {\n    let a = t.as_secs();\n    let b = Secs::new(a);\n    \
             Bytes::new(b)\n}",
        );
        assert!(redim.is_empty(), "a constructor re-dimensions: {:?}", redim);
    }
}
