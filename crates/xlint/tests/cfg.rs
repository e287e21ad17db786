//! Golden CFG dumps for the trickiest control-flow shapes the flow rules
//! lean on — nested matches, labeled breaks, early returns — plus the
//! soup property: lowering arbitrary token streams never panics.
//!
//! The dumps are *goldens*: any change to the lowering shows up as a
//! string diff here, which is exactly the review surface we want for a
//! component whose soundness argument is "conservative over-approximation
//! of paths". Update them only with a matching DESIGN.md §6.3 edit.

use exegpt_xlint::cfg::dump_source;
use exegpt_xlint::{lint_source, FileContext};
use proptest::prelude::*;

const NESTED_MATCH: &str = "\
fn pick(v: Kind) -> u32 {
    match v {
        Kind::A(x) => match x {
            0 => 1,
            _ => 2,
        },
        Kind::B { n } => n,
    }
}
";

#[test]
fn nested_match_arms_are_parallel_blocks_binding_from_the_scrutinee() {
    assert_eq!(
        dump_source(NESTED_MATCH),
        "\
fn pick:
  b0 (entry):
    L2 cond
    -> b3 b7
  b1 (exit):
    -> ∅
  b2:
    -> b1
  b3:
    L3 cond bind x
    L3 cond
    -> b5 b6
  b4:
    -> b2
  b5:
    L4 cond
    L4 expr
    -> b4
  b6:
    L5 cond
    L5 expr
    -> b4
  b7:
    L7 cond bind n
    L7 expr
    -> b2
"
    );
}

const LABELED_BREAKS: &str = "\
fn drain(q: &mut Queue) {
    'outer: loop {
        while q.busy() {
            if q.poisoned() {
                break 'outer;
            }
            q.pop();
        }
        break;
    }
    q.seal();
}
";

#[test]
fn labeled_break_escapes_both_loops_to_the_statement_after() {
    // `break 'outer` (L5 in b9) jumps straight to b3, the `q.seal()`
    // block after the outer loop; the plain `break` (b6) lands there too.
    assert_eq!(
        dump_source(LABELED_BREAKS),
        "\
fn drain:
  b0 (entry):
    -> b2
  b1 (exit):
    -> ∅
  b2:
    -> b4 b3
  b3:
    L11 expr
    -> b1
  b4:
    -> b5
  b5:
    L3 cond
    -> b7 b6
  b6:
    L9 expr
    -> b3
  b7:
    L4 cond
    -> b9 b8
  b8:
    L7 expr
    -> b5
  b9:
    L5 expr
    -> b3
  b10:
    -> b8
  b11:
    -> b2
"
    );
}

const EARLY_RETURNS: &str = "\
fn admit(r: &Req) -> Result<u32, E> {
    if r.empty() {
        return Err(E::Empty);
    }
    let cap = r.capacity()?;
    if cap == 0 {
        return Ok(0);
    }
    Ok(cap)
}
";

#[test]
fn returns_and_try_operators_edge_to_exit() {
    // Both `return`s edge to b1 (exit), and the `?` on L5 splits its
    // block: b2 continues to b5 on `Ok` and to b1 on `Err`.
    assert_eq!(
        dump_source(EARLY_RETURNS),
        "\
fn admit:
  b0 (entry):
    L2 cond
    -> b3 b2
  b1 (exit):
    -> ∅
  b2:
    L5 let cap
    -> b5 b1
  b3:
    L3 return
    -> b1
  b4:
    -> b2
  b5:
    L6 cond
    -> b7 b6
  b6:
    L9 expr
    -> b1
  b7:
    L7 return
    -> b1
  b8:
    -> b6
"
    );
}

// The vocabulary skews toward control flow so random joins form deeply
// nested broken loops, matches and try-expressions.
const VOCAB: [&str; 24] = [
    "fn f() {",
    "fn",
    "if",
    "else",
    "match",
    "loop",
    "while",
    "for x in",
    "break",
    "continue",
    "return",
    "'outer:",
    "let x =",
    "let mut",
    "=>",
    "?",
    ";",
    "{",
    "}",
    "(",
    ")",
    "ident",
    "Instant::now()",
    "sched.schedule(x)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cfg_and_fixpoint_never_panic(picks in prop::collection::vec(0usize..VOCAB.len(), 0..48)) {
        let src: String = picks.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        // dump_source exercises body_range + build + render on whatever
        // parses as a fn; the lint pipeline then runs the full dataflow
        // fixpoint (D4/U3) over the same soup.
        let _ = dump_source(&src);
        let _ = lint_source("soup.rs", &src, FileContext::default());
        let strict = FileContext {
            numeric_core: true,
            units_core: true,
            crate_idx: Some(0),
            ..FileContext::default()
        };
        let _ = lint_source("soup.rs", &src, strict);
    }
}
