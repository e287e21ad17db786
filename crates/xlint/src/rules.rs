//! The lint rules and the token-stream matcher.
//!
//! The token-level rules, all motivated by keeping the scheduler's
//! simulation deterministic and its cost arithmetic auditable
//! (DESIGN.md §6):
//!
//! * **N1** — no bare `as` numeric casts inside the cost-model/scheduler
//!   crates; use the checked helpers in `exegpt_dist::convert`.
//! * **F1** — no float `==`/`!=` (literal-adjacent detection).
//! * **P1** — no `unwrap`/`expect`/`panic!` in non-test library code.
//! * **U1** — no raw `f64`/`f32` parameters or returns in `pub fn`
//!   signatures of the unit-carrying crates (cost model + hardware
//!   model); use the `exegpt_units` newtypes (`Secs`, `Bytes`, ...).
//! * **U2** — a `let` binding named `*_bytes`/`*_secs`/`*_flops` must
//!   not be initialized from a call whose name carries a *different*
//!   unit suffix (e.g. `let total_secs = kv_bytes(...)`).
//! * **L1** — crate-layering: no upward or undeclared `exegpt_*` import
//!   against the declared workspace DAG (see [`crate::workspace`]).
//! * **P2** — no discarded fallible results: `let _ =` or a bare
//!   expression statement whose callee is a file-local `fn` returning
//!   `Result` (or marked `#[must_use]`).
//! * **D3** — concurrency determinism: `std::thread` / `Atomic*` /
//!   `Mutex` / `RwLock` only inside the audited pool modules
//!   (`core/scheduler.rs`, `sim/cache.rs`), and `Ordering::Relaxed` only
//!   on counter-named atomics anywhere.
//! * **U3** — unit re-entry: a float stripped out of a unit newtype
//!   (`.as_secs()`, `.as_f64()`) must not re-enter a *different* unit's
//!   constructor; `exegpt_dist::convert` helpers and the unit's own
//!   constructors are the sanctioned re-dimensioning points. One forward
//!   pass per `fn` follows strips through `let` bindings (DESIGN.md §6.3).

use std::collections::BTreeMap;

use crate::lexer::{self, Lexed, Tok, TokKind};
use crate::parser::{self, ItemKind};
use crate::workspace;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Bare numeric `as` casts in numeric-core crates.
    N1,
    /// Float equality comparison.
    F1,
    /// Panicking calls in library code.
    P1,
    /// Raw float parameters/returns in public unit-carrying signatures.
    U1,
    /// Unit-suffix conflict between a binding and its initializer call.
    U2,
    /// Upward or undeclared cross-crate import against the layering DAG.
    L1,
    /// Discarded fallible result (`let _ =` / bare call statement).
    P2,
    /// Concurrency primitive outside the audited pool modules.
    D3,
    /// Unit-stripped float re-enters a different unit's constructor.
    U3,
    /// Malformed or unused allow pragma.
    X0,
    /// Per-crate suppression count exceeds the committed budget.
    X1,
}

impl Rule {
    /// All reportable rules, in severity/display order.
    pub const ALL: [Rule; 11] = [
        Rule::N1,
        Rule::F1,
        Rule::P1,
        Rule::U1,
        Rule::U2,
        Rule::L1,
        Rule::P2,
        Rule::D3,
        Rule::U3,
        Rule::X0,
        Rule::X1,
    ];

    /// The rule's stable identifier, as used in pragmas and output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::N1 => "N1",
            Rule::F1 => "F1",
            Rule::P1 => "P1",
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::L1 => "L1",
            Rule::P2 => "P2",
            Rule::D3 => "D3",
            Rule::U3 => "U3",
            Rule::X0 => "X0",
            Rule::X1 => "X1",
        }
    }

    /// Parses a rule id (as written in a pragma).
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

/// What a file's crate context enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileContext {
    /// N1 fires only in the numeric-core crates (cost model + scheduler).
    pub numeric_core: bool,
    /// P1 is waived in binary targets (`src/bin/`, `main.rs`) and in the
    /// `bench` harness: top-level application code may terminate the
    /// process on unrecoverable errors.
    pub allow_panics: bool,
    /// U1 fires only in the unit-carrying crates (hardware + cost model),
    /// whose public signatures must use the `exegpt_units` newtypes.
    pub units_core: bool,
    /// L1 needs the owning crate's identity (index into
    /// [`workspace::CRATES`]); `None` (root package, fixtures) waives it.
    pub crate_idx: Option<usize>,
    /// D3's structural checks are waived in the two audited pool modules
    /// (`crates/core/src/scheduler.rs`, `crates/sim/src/cache.rs`); the
    /// `Ordering::Relaxed`-on-counters check still applies there.
    pub audited_concurrency: bool,
}

impl Default for FileContext {
    fn default() -> Self {
        Self {
            numeric_core: true,
            allow_panics: false,
            units_core: true,
            crate_idx: None,
            audited_concurrency: false,
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

/// A pragma-suppressed finding (still counted and reported in summaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The finding that the pragma silenced.
    pub finding: Finding,
    /// The pragma's reason text.
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations to report.
    pub findings: Vec<Finding>,
    /// Violations silenced by `xlint::allow` pragmas.
    pub suppressed: Vec<Suppressed>,
}

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Lints one source file given its crate context.
pub fn lint_source(file: &str, src: &str, ctx: FileContext) -> FileReport {
    let lexed: Lexed = lexer::lex(src);
    let in_test = lexer::test_regions(&lexed.toks);
    let toks = &lexed.toks;
    let mut raw: Vec<Finding> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                // N1: bare numeric casts in the numeric core.
                "as" if ctx.numeric_core => {
                    if let Some(next) = toks.get(i + 1) {
                        if next.kind == TokKind::Ident
                            && NUMERIC_TYPES.contains(&next.text.as_str())
                        {
                            raw.push(Finding {
                                file: file.to_string(),
                                line: t.line,
                                rule: Rule::N1,
                                message: format!("bare `as {}` cast in cost arithmetic", next.text),
                                suggestion: "use the checked helpers in `exegpt_dist::convert` \
                                             (lossless_f64 / trunc_usize / ...)"
                                    .to_string(),
                            });
                        }
                    }
                }
                // P1: panicking calls in library code.
                "unwrap" | "expect" if !ctx.allow_panics && prev_is_dot(toks, i) => {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::P1,
                        message: format!("`.{}()` can panic in library code", t.text),
                        suggestion: "thread the crate's error type (`?`, `ok_or_else`) or \
                                     handle the `None`/`Err` arm"
                            .to_string(),
                    });
                }
                "panic" if !ctx.allow_panics && next_is_bang(toks, i) => {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::P1,
                        message: "`panic!` in library code".to_string(),
                        suggestion: "return an error variant instead (or `debug_assert!` for \
                                     internal invariants)"
                            .to_string(),
                    });
                }
                _ => {}
            },
            // F1: float equality (a float literal on either side).
            TokKind::Punct if t.text == "==" || t.text == "!=" => {
                let float_adjacent = matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Float)
                    || (i > 0 && toks[i - 1].kind == TokKind::Float);
                if float_adjacent {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: Rule::F1,
                        message: format!("float `{}` comparison", t.text),
                        suggestion: "compare with an epsilon (`(a - b).abs() < eps`), an \
                                     order test (`<= 0.0`), or an integer representation"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }

    let items = parser::parse_items(toks);
    if ctx.units_core {
        u1_scan(file, toks, &in_test, &mut raw);
    }
    u2_scan(file, toks, &in_test, &mut raw);
    if let Some(me) = ctx.crate_idx {
        l1_scan(file, toks, &in_test, me, &mut raw);
    }
    if !ctx.allow_panics {
        p2_scan(file, toks, &in_test, &LocalFns::collect(toks, &items), &mut raw);
    }
    d3_scan(file, toks, &in_test, ctx, &mut raw);
    u3_scan(file, toks, &in_test, &items, &mut raw);

    apply_pragmas(file, raw, &lexed)
}

/// L1: every mention of a workspace crate identifier (`exegpt`,
/// `exegpt_*`) in non-test code must point strictly downward in the
/// declared layering DAG. One finding per (line, target crate).
fn l1_scan(file: &str, toks: &[Tok], in_test: &[bool], me: usize, raw: &mut Vec<Finding>) {
    let mut last: Option<(usize, usize)> = None;
    for (i, t) in toks.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) || t.kind != TokKind::Ident {
            continue;
        }
        let Some(target) = workspace::crate_index_for_ident(&t.text) else { continue };
        if target == me || workspace::import_allowed(me, target) {
            continue;
        }
        if last == Some((t.line, target)) {
            continue; // one finding per line per offending crate
        }
        last = Some((t.line, target));
        raw.push(workspace::layering_finding(file, t.line, me, target));
    }
}

/// File-local call resolution for P2: the file's own unambiguously
/// fallible `fn` items, plus `use` aliases so a renamed import
/// (`use inner::persist as p2`) still resolves.
struct LocalFns {
    /// `(name, returns_result)` for each unambiguous fallible fn.
    fallible: Vec<(String, bool)>,
    /// `(alias, original)` pairs from `use … as …` items.
    aliases: Vec<(String, String)>,
}

impl LocalFns {
    /// Collects fallible fns and use-aliases from parsed items.
    /// Name-based resolution must be conservative: if the file defines
    /// two same-named fns (e.g. `apply` on two types) and any of them is
    /// infallible, the name is ambiguous and never flagged.
    fn collect(toks: &[Tok], items: &[parser::Item]) -> Self {
        let fns: Vec<(&str, &parser::FnSig)> = items
            .iter()
            .filter_map(|it| match &it.kind {
                ItemKind::Fn(sig) => Some((it.name.as_str(), sig)),
                _ => None,
            })
            .collect();
        let fallible: Vec<(String, bool)> = fns
            .iter()
            .filter(|(name, sig)| {
                (sig.returns_result || sig.must_use)
                    && fns.iter().all(|(n, s)| *n != *name || s.returns_result || s.must_use)
            })
            .map(|(name, sig)| (name.to_string(), sig.returns_result))
            .collect();
        let mut aliases = Vec::new();
        for it in items {
            if it.kind != ItemKind::Use {
                continue;
            }
            for j in it.start..=it.end.min(toks.len().saturating_sub(1)) {
                if toks[j].kind == TokKind::Ident && toks[j].text == "as" && j >= 1 {
                    let (orig, alias) = (toks.get(j - 1), toks.get(j + 1));
                    if let (Some(o), Some(a)) = (orig, alias) {
                        if o.kind == TokKind::Ident && a.kind == TokKind::Ident {
                            aliases.push((a.text.clone(), o.text.clone()));
                        }
                    }
                }
            }
        }
        Self { fallible, aliases }
    }

    /// Resolves a callee name (directly or through one `use` alias) to
    /// its fallibility: `Some(returns_result)` if it is a tracked fn.
    fn lookup(&self, name: &str) -> Option<bool> {
        if let Some((_, r)) = self.fallible.iter().find(|(n, _)| n == name) {
            return Some(*r);
        }
        let orig = self.aliases.iter().find(|(a, _)| a == name).map(|(_, o)| o.as_str())?;
        self.fallible.iter().find(|(n, _)| n == orig).map(|(_, r)| *r)
    }
}

/// P2: discarded fallible results, resolved per file against
/// [`LocalFns`]: flags `let _ = …;` initializers and bare call
/// statements whose *final* callee is a tracked fallible fn.
fn p2_scan(file: &str, toks: &[Tok], in_test: &[bool], local: &LocalFns, raw: &mut Vec<Finding>) {
    if local.fallible.is_empty() {
        return;
    }
    let lookup = |name: &str| local.lookup(name);
    let push = |raw: &mut Vec<Finding>, line: usize, callee: &str, is_result: bool, how: &str| {
        raw.push(Finding {
            file: file.to_string(),
            line,
            rule: Rule::P2,
            message: format!(
                "{how} discards the {} of `{callee}(...)`",
                if is_result { "`Result`" } else { "`#[must_use]` value" },
            ),
            suggestion: "handle the value (`?`, match on the `Err` arm, or log it); \
                         an intentional discard needs `// xlint::allow(P2, reason)`"
                .to_string(),
        });
    };

    let mut i = 0usize;
    let mut stmt_start = true;
    while i < toks.len() {
        if in_test.get(i).copied().unwrap_or(false) {
            stmt_start = matches!(toks[i].text.as_str(), ";" | "{" | "}");
            i += 1;
            continue;
        }
        let t = &toks[i];
        // `let _ = <expr>;` — inspect the initializer's final callee.
        if t.kind == TokKind::Ident
            && t.text == "let"
            && matches!(toks.get(i + 1), Some(u) if u.kind == TokKind::Ident && u.text == "_")
            && matches!(toks.get(i + 2), Some(e) if e.kind == TokKind::Punct && e.text == "=")
        {
            let end = stmt_end(toks, i + 3);
            if let Some(callee) = final_callee(toks, i + 3, end) {
                if let Some(is_result) = lookup(callee) {
                    push(raw, t.line, callee, is_result, "`let _ =`");
                }
            }
            i = end + 1;
            stmt_start = true;
            continue;
        }
        // Bare call statement: `name(...)` / `recv.name(...)` at statement
        // position, no assignment in between, ending `);`.
        if stmt_start && t.kind == TokKind::Ident && !is_stmt_keyword(&t.text) {
            let end = stmt_end(toks, i);
            let plain = toks[i..=end.min(toks.len().saturating_sub(1))]
                .iter()
                .all(|x| !(x.kind == TokKind::Punct && matches!(x.text.as_str(), "=" | "{" | "}")));
            if plain {
                if let Some(callee) = final_callee(toks, i, end) {
                    if let Some(is_result) = lookup(callee) {
                        push(raw, t.line, callee, is_result, "bare statement");
                    }
                }
                i = end + 1;
                stmt_start = true;
                continue;
            }
        }
        stmt_start = t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}");
        i += 1;
    }
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

/// The name of the *final* call in `toks[from..end]` — the call whose
/// result reaches the statement terminator. `foo(x)` → `foo`;
/// `a.save()` → `save`; `foo(x).ok()` → `ok`; `foo(x)?` / macros → None.
fn final_callee(toks: &[Tok], from: usize, end: usize) -> Option<&str> {
    // The expression must end with a `)` just before the `;`.
    let close = end.checked_sub(1)?;
    if close < from || !(toks.get(close)?.kind == TokKind::Punct && toks[close].text == ")") {
        return None;
    }
    // Walk back to the matching `(`.
    let mut depth = 0usize;
    let mut j = close;
    loop {
        let t = toks.get(j)?;
        if t.kind == TokKind::Punct {
            if t.text == ")" {
                depth += 1;
            } else if t.text == "(" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if j == from {
            return None;
        }
        j -= 1;
    }
    let name = toks.get(j.checked_sub(1)?)?;
    (name.kind == TokKind::Ident && j.checked_sub(1)? >= from).then_some(name.text.as_str())
}

/// Statement-leading keywords that rule out a bare call statement.
fn is_stmt_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "if"
            | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "impl"
            | "trait"
            | "const"
            | "static"
            | "type"
            | "unsafe"
            | "async"
            | "extern"
            | "where"
            | "in"
            | "move"
            | "ref"
            | "mut"
            | "Self"
            | "dyn"
            | "as"
    )
}

/// D3: concurrency determinism. Outside the audited pool modules no
/// `std::thread`, no `Atomic*` types, no `Mutex`/`RwLock` in non-test
/// code; everywhere (audited modules included), `Ordering::Relaxed` is
/// legal only on counter-named atomics — anything whose value feeds
/// control flow needs a stronger ordering *and* an audit.
fn d3_scan(file: &str, toks: &[Tok], in_test: &[bool], ctx: FileContext, raw: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) || t.kind != TokKind::Ident {
            continue;
        }
        let audited = ctx.audited_concurrency;
        match t.text.as_str() {
            "thread"
                if !audited && i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std" =>
            {
                raw.push(d3(file, t.line, "`std::thread` outside the audited pool modules"));
            }
            "Mutex" | "RwLock" if !audited => {
                raw.push(d3(
                    file,
                    t.line,
                    "lock type in library code outside the audited pool modules",
                ));
            }
            "Relaxed" if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "Ordering" => {
                let counter = relaxed_receiver(toks, i - 2).is_some_and(is_counter_name);
                if !counter {
                    raw.push(d3(
                        file,
                        t.line,
                        "`Ordering::Relaxed` on a non-counter atomic (its value may feed \
                         control flow)",
                    ));
                }
            }
            name if !audited && name.starts_with("Atomic") && name.len() > "Atomic".len() => {
                raw.push(d3(file, t.line, "atomic type outside the audited pool modules"));
            }
            _ => {}
        }
    }
}

/// For `recv.method(…, Ordering::Relaxed)`, the receiver identifier
/// (`recv`), found by walking back from the `Ordering` token at `ord` to
/// the call's opening parenthesis.
fn relaxed_receiver(toks: &[Tok], ord: usize) -> Option<&str> {
    let mut depth = 0usize;
    let mut j = ord;
    // Find the `(` that opens the enclosing call.
    loop {
        j = j.checked_sub(1)?;
        let t = toks.get(j)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" if depth == 0 => break,
                "(" | "[" | "{" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
    }
    // Expect `recv . method (`.
    let method = toks.get(j.checked_sub(1)?)?;
    let dot = toks.get(j.checked_sub(2)?)?;
    let recv = toks.get(j.checked_sub(3)?)?;
    (method.kind == TokKind::Ident && dot.text == "." && recv.kind == TokKind::Ident)
        .then_some(recv.text.as_str())
}

/// Whether an atomic's name marks it as a pure counter (aggregated
/// statistics / work-index allocation), where `Relaxed` is sound.
fn is_counter_name(name: &str) -> bool {
    ["count", "counter", "hits", "misses", "seq", "next", "epoch", "tick", "idx"]
        .iter()
        .any(|p| name.contains(p))
}

fn d3(file: &str, line: usize, message: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: Rule::D3,
        message: message.to_string(),
        suggestion: "deterministic concurrency lives in the audited pool modules \
                     (core/scheduler.rs, sim/cache.rs) only; justify anything else with \
                     `// xlint::allow(D3, reason)` counted against the suppression budget"
            .to_string(),
    }
}

/// U1: `pub fn` signatures in unit-carrying crates must not take or
/// return raw `f64`/`f32` — dimensioned quantities go through the
/// `exegpt_units` newtypes. Restricted visibility (`pub(crate)` etc.) is
/// exempt: it is the sanctioned demotion for genuinely dimensionless
/// internals.
fn u1_scan(file: &str, toks: &[Tok], in_test: &[bool], raw: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if in_test.get(i).copied().unwrap_or(false)
            || !(toks[i].kind == TokKind::Ident && toks[i].text == "pub")
        {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` / `pub(in ...)`: skip the restriction
        // and the item it guards — U1 covers unrestricted `pub` only.
        if matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct && t.text == "(") {
            let mut depth = 1usize;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            i = j;
            continue;
        }
        while matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern"))
        {
            j += 1;
        }
        if !matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident && t.text == "fn") {
            i += 1;
            continue;
        }
        let fn_line = toks[i].line;
        let fn_name = toks.get(j + 1).map(|t| t.text.as_str()).unwrap_or("?").to_string();
        // Scan the signature (params + return type) up to the body/`;`.
        j += 2;
        let mut depth = 0usize;
        let mut past_arrow = false;
        while let Some(t) = toks.get(j) {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => depth += 1,
                (TokKind::Punct, ")" | "]") => depth = depth.saturating_sub(1),
                (TokKind::Punct, "{" | ";") if depth == 0 => break,
                (TokKind::Punct, "->") if depth == 0 => past_arrow = true,
                (TokKind::Ident, "f64" | "f32") => {
                    // A float named by the dimensionless vocabulary is
                    // exempt: ratios/factors have no unit to carry, and
                    // rule U3 now polices the flows around them.
                    let exempt = if past_arrow {
                        dimensionless_name(&fn_name)
                    } else {
                        param_name_before(toks, j).is_some_and(dimensionless_name)
                    };
                    if exempt {
                        j += 1;
                        continue;
                    }
                    raw.push(Finding {
                        file: file.to_string(),
                        line: fn_line,
                        rule: Rule::U1,
                        message: format!("`pub fn {fn_name}` takes or returns raw `{}`", t.text),
                        suggestion: "use an `exegpt_units` newtype (`Secs`, `Bytes`, `Flops`, \
                                     a rate), name the quantity with the dimensionless \
                                     vocabulary (ratio/factor/…), or demote to `pub(crate)`"
                            .to_string(),
                    });
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
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
fn u2_scan(file: &str, toks: &[Tok], in_test: &[bool], raw: &mut Vec<Finding>) {
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
            raw.push(Finding {
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
fn u3_scan(
    file: &str,
    toks: &[Tok],
    in_test: &[bool],
    items: &[parser::Item],
    raw: &mut Vec<Finding>,
) {
    let mut last_line = 0;
    for it in items {
        if !matches!(it.kind, ItemKind::Fn(_)) || in_test.get(it.start).copied().unwrap_or(false) {
            continue;
        }
        let mut bound: BTreeMap<&str, u8> = BTreeMap::new();
        // `let`s whose initializer is still being scanned, innermost last:
        // (index of the closing `;`, name, strips).
        let mut pending: Vec<(usize, &str, u8)> = Vec::new();
        for j in it.start..=it.end.min(toks.len().saturating_sub(1)) {
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
                    raw.push(Finding {
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

/// Index of the bracket that closes the one at `open` (all bracket kinds
/// nest alike).
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
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

/// Splits raw findings into reported vs pragma-suppressed, and reports
/// malformed or unused pragmas as X0 findings.
fn apply_pragmas(file: &str, raw: Vec<Finding>, lexed: &Lexed) -> FileReport {
    let mut report = FileReport::default();
    let mut used = vec![false; lexed.pragmas.len()];
    for f in raw {
        // A pragma suppresses matching findings on its own line or the
        // line directly below it (so it can sit above the offending line).
        let hit = lexed.pragmas.iter().enumerate().find(|(_, p)| {
            (p.line == f.line || p.line + 1 == f.line)
                && Rule::parse(&p.rule) == Some(f.rule)
                && !p.reason.is_empty()
        });
        match hit {
            Some((idx, p)) => {
                used[idx] = true;
                report.suppressed.push(Suppressed { finding: f, reason: p.reason.clone() });
            }
            None => report.findings.push(f),
        }
    }
    for (p, used) in lexed.pragmas.iter().zip(&used) {
        if p.reason.is_empty() {
            report.findings.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: Rule::X0,
                message: format!("`xlint::allow({})` without a reason", p.rule),
                suggestion: "write `// xlint::allow(RULE, why this is sound)`".to_string(),
            });
        } else if Rule::parse(&p.rule).is_none() {
            report.findings.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: Rule::X0,
                message: format!("`xlint::allow({})` names an unknown rule", p.rule),
                suggestion: "use one of N1, F1, P1, U1, U2, L1, P2, D3, U3".to_string(),
            });
        } else if !used {
            report.findings.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: Rule::X0,
                message: format!("`xlint::allow({})` suppresses nothing", p.rule),
                suggestion: "remove the stale pragma".to_string(),
            });
        }
    }
    report.findings.sort_by_key(|a| (a.line, a.rule));
    report
}

fn next_is_bang(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Punct && n.text == "!")
}

fn prev_is_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && is_punct(toks, i - 1, ".")
}

fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct && t.text == s)
}

fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Ident && t.text == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> FileReport {
        lint_source("t.rs", src, FileContext::default())
    }

    fn rules(r: &FileReport) -> Vec<Rule> {
        r.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn n1_fires_only_in_numeric_core() {
        let src = "let x = b_e as f64; let y = t as usize;";
        assert_eq!(rules(&lint(src)), vec![Rule::N1, Rule::N1]);
        let outside =
            lint_source("o.rs", src, FileContext { numeric_core: false, ..FileContext::default() });
        assert!(outside.findings.is_empty());
    }

    #[test]
    fn n1_ignores_non_numeric_casts() {
        let r = lint("let x = e as &dyn Error; let y = v as Vec<u8>;");
        assert!(r.findings.is_empty(), "only numeric-type casts are N1: {:?}", r.findings);
    }

    #[test]
    fn f1_fires_on_literal_float_equality() {
        let r = lint("if std == 0.0 { } if 1.5 != x { } if a == b { }");
        assert_eq!(rules(&r), vec![Rule::F1, Rule::F1]);
    }

    #[test]
    fn p1_fires_on_panicking_calls() {
        let r = lint("let v = x.unwrap(); let w = y.expect(\"msg\"); panic!(\"boom\");");
        assert_eq!(rules(&r), vec![Rule::P1, Rule::P1, Rule::P1]);
    }

    #[test]
    fn p1_skips_tests_bins_and_lookalikes() {
        let r = lint("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }");
        assert!(r.findings.is_empty(), "test modules are exempt");
        let b = lint_source(
            "src/bin/cli.rs",
            "x.unwrap();",
            FileContext { allow_panics: true, ..FileContext::default() },
        );
        assert!(b.findings.is_empty(), "bin targets are exempt from P1");
        let ok = lint("let v = x.unwrap_or(0); let w = y.unwrap_or_else(f); debug_assert!(c);");
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn u1_flags_pub_fn_floats_and_exempts_restricted_visibility() {
        let r = lint("pub fn f(x: f64) {}\npub(crate) fn g(x: f64) {}\nfn h(x: f64) {}");
        assert_eq!(rules(&r), vec![Rule::U1]);
        let off = lint_source(
            "o.rs",
            "pub fn f(x: f64) {}",
            FileContext { units_core: false, ..FileContext::default() },
        );
        assert!(off.findings.is_empty(), "U1 is scoped to the unit-carrying crates");
    }

    #[test]
    fn u1_flags_raw_returns_but_not_typed_signatures() {
        let r = lint("pub fn headroom() -> f64 {\n    0.5\n}");
        assert_eq!(rules(&r), vec![Rule::U1]);
        let typed = lint("pub fn transfer(t: Secs, b: Bytes) -> BytesPerSec { b / t }");
        assert!(typed.findings.is_empty(), "{:?}", typed.findings);
        let body = lint("pub fn scale(t: Secs) -> Secs { let k: f64 = 2.0; t * k }");
        assert!(body.findings.is_empty(), "U1 inspects signatures, not bodies");
    }

    #[test]
    fn u1_exempts_the_dimensionless_vocabulary() {
        let ok = lint(
            "pub fn slowed(factor: f64) -> Secs { Secs::new(factor) }\n\
             pub fn compute_efficiency(f: Flops) -> f64 { 0.5 }\n\
             pub fn build(tp_speedup: f64, util: f64) -> Plan { Plan }",
        );
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
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
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn pragma_suppresses_and_is_counted() {
        let src = "// xlint::allow(P1, preset constant, checked by tests)\nlet v = x.unwrap();";
        let r = lint(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "preset constant, checked by tests");
    }

    #[test]
    fn pragma_without_reason_or_target_is_x0() {
        let r = lint("// xlint::allow(P1)\nlet v = x.unwrap();");
        assert_eq!(rules(&r), vec![Rule::X0, Rule::P1], "reasonless pragma suppresses nothing");
        let stale = lint("// xlint::allow(F1, stale)\nlet x = 1;");
        assert_eq!(rules(&stale), vec![Rule::X0]);
        // Hash collections, clock and env reads are clippy's job and unread
        // results rustc's, so a pragma still naming D1/D2/D4/P3 fails loudly.
        for id in ["Z9", "D1", "D2", "D4", "P3"] {
            let unknown = lint(&format!("// xlint::allow({id}, reason)\nlet x = 1;"));
            assert_eq!(rules(&unknown), vec![Rule::X0], "{id}");
            assert!(unknown.findings[0].message.contains("unknown rule"), "{id}");
        }
    }

    #[test]
    fn pragma_on_same_line_works() {
        let src = "let v = x.unwrap(); // xlint::allow(P1, justified)";
        let r = lint(src);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed.len(), 1);
    }

    fn lint_in_crate(dir: &str, src: &str) -> FileReport {
        let ctx = FileContext {
            crate_idx: crate::workspace::crate_index_for_dir(dir),
            numeric_core: false,
            units_core: false,
            ..FileContext::default()
        };
        lint_source("t.rs", src, ctx)
    }

    #[test]
    fn l1_flags_upward_imports_and_allows_downward_ones() {
        let up = lint_in_crate("core", "use exegpt_fleet::Fleet;\nfn f() { exegpt_serve::go(); }");
        assert_eq!(rules(&up), vec![Rule::L1, Rule::L1], "{:?}", up.findings);
        let down = lint_in_crate("fleet", "use exegpt_serve::ServeLoop;\nuse exegpt::Engine;");
        assert!(down.findings.is_empty(), "{:?}", down.findings);
        let selfref = lint_in_crate("sim", "use exegpt_sim::Estimate;");
        assert!(selfref.findings.is_empty(), "self references are not edges");
    }

    #[test]
    fn l1_dedups_per_line_and_skips_tests_and_unscoped_files() {
        let same_line = lint_in_crate("sim", "use exegpt_workload::{a, b}; exegpt_workload::c();");
        assert_eq!(rules(&same_line), vec![Rule::L1], "same-line mentions collapse to one");
        let r = lint_in_crate("sim", "use exegpt_workload::a;\nexegpt_workload::c();");
        assert_eq!(rules(&r), vec![Rule::L1, Rule::L1], "one finding per line");
        let t = lint_in_crate("sim", "#[cfg(test)]\nmod tests { use exegpt_workload::W; }");
        assert!(t.findings.is_empty(), "dev-style upward imports in tests are fine");
        let unscoped = lint("use exegpt_fleet::Fleet;");
        assert!(unscoped.findings.is_empty(), "no crate identity, no L1");
    }

    #[test]
    fn p2_flags_discarded_local_results_and_must_use() {
        let src = "fn make() -> Result<u32, String> { Ok(1) }\n\
                   #[must_use]\nfn score() -> u32 { 7 }\n\
                   fn caller() {\n    let _ = make();\n    make();\n    let _ = score();\n}";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::P2, Rule::P2, Rule::P2], "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 5);
    }

    #[test]
    fn p2_allows_handled_bound_and_foreign_results() {
        let src = "fn make() -> Result<u32, String> { Ok(1) }\n\
                   struct S;\nimpl S { fn save(&self) -> Result<(), String> { Ok(()) } }\n\
                   fn caller(s: &S) -> Result<(), String> {\n\
                       let ok = make();\n\
                       drop(ok);\n\
                       make()?;\n\
                       if make().is_ok() {}\n\
                       let _ = make().ok();\n\
                       let _ = unknown_fn();\n\
                       let _ = writeln!(x, \"no\");\n\
                       s.save()\n}";
        let r = lint(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn p2_skips_ambiguous_same_named_fns() {
        // Two types each define `apply`; only one is fallible. Name-based
        // resolution cannot tell the call sites apart, so neither is flagged.
        let src = "struct A;\nimpl A { fn apply(&self) {} }\n\
                   struct B;\nimpl B { fn apply(&self) -> Result<(), String> { Ok(()) } }\n\
                   fn f(a: &A, b: &B) {\n    a.apply();\n    b.apply();\n}";
        let r = lint(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn p2_flags_bare_local_method_statements() {
        let src = "struct S;\nimpl S { fn save(&self) -> Result<(), String> { Ok(()) } }\n\
                   fn caller(s: &S) {\n    s.save();\n}";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::P2], "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn p2_is_waived_with_panics_in_bins_and_bench() {
        let src = "fn make() -> Result<u32, String> { Ok(1) }\nfn m() { let _ = make(); }";
        let r = lint_source(
            "src/bin/cli.rs",
            src,
            FileContext { allow_panics: true, ..FileContext::default() },
        );
        assert!(r.findings.is_empty(), "bin targets may drop results deliberately");
    }

    #[test]
    fn p2_resolves_use_aliases() {
        let src = "mod inner { pub fn persist() -> Result<(), String> { Ok(()) } }\n\
                   use inner::persist as p2;\n\
                   fn caller() {\n    let _ = p2();\n}";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::P2], "aliased discard is caught: {:?}", r.findings);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn u3_flags_cross_unit_reentry_but_not_round_trips() {
        let src = "fn f(t: Secs) -> Bytes {\n    let raw = t.as_secs();\n    Bytes::new(raw)\n}";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::U3], "{:?}", r.findings);
        assert!(r.findings[0].message.contains("secs-stripped"), "{}", r.findings[0].message);
        let suffix = lint(
            "fn s(kv_bytes: Bytes) -> Secs {\n    let raw = kv_bytes.as_f64();\n    \
                           Secs::new(raw)\n}",
        );
        assert_eq!(rules(&suffix), vec![Rule::U3], "suffix names the dimension for as_f64");
        let round = lint(
            "fn g(t: Secs) -> Secs {\n    let raw = t.as_secs();\n    \
                          Secs::new(raw)\n}",
        );
        assert!(round.findings.is_empty(), "same-unit round trip: {:?}", round.findings);
        let conv = lint(
            "fn h(t: Secs) -> Bytes {\n    let raw = convert::lossless_f64(t.as_secs());\n    \
             Bytes::new(raw)\n}",
        );
        assert!(conv.findings.is_empty(), "checked conversion launders: {:?}", conv.findings);
        let anon = lint(
            "fn a(b: Bytes) -> Secs {\n    let raw = b.as_f64();\n    \
                         Secs::new(raw)\n}",
        );
        assert!(anon.findings.is_empty(), "an unnamed dimension cannot witness a mismatch");
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
        assert!(redim.findings.is_empty(), "a constructor re-dimensions: {:?}", redim.findings);
    }

    #[test]
    fn d3_flags_concurrency_primitives_outside_audited_modules() {
        let src = "use std::thread;\nlet m = Mutex::new(1);\nlet l = RwLock::new(2);\n\
                   let a = AtomicUsize::new(0);";
        let r = lint(src);
        assert_eq!(rules(&r), vec![Rule::D3, Rule::D3, Rule::D3, Rule::D3], "{:?}", r.findings);
        let audited = lint_source(
            "crates/core/src/scheduler.rs",
            src,
            FileContext { audited_concurrency: true, ..FileContext::default() },
        );
        assert!(audited.findings.is_empty(), "audited pool modules may use them");
    }

    #[test]
    fn d3_restricts_relaxed_ordering_to_counters_even_when_audited() {
        let ctx = FileContext { audited_concurrency: true, ..FileContext::default() };
        let ok = lint_source(
            "crates/sim/src/cache.rs",
            "self.hits.fetch_add(1, Ordering::Relaxed);\n\
             let i = next.fetch_add(1, Ordering::Relaxed);",
            ctx,
        );
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
        let bad = lint_source(
            "crates/sim/src/cache.rs",
            "let ready = flag.load(Ordering::Relaxed);",
            ctx,
        );
        assert_eq!(rules(&bad), vec![Rule::D3], "non-counter Relaxed load is flagged");
        let cmp = lint("match a.cmp(&b) { Ordering::Less => {} _ => {} }");
        assert!(cmp.findings.is_empty(), "std::cmp::Ordering is untouched");
    }
}
