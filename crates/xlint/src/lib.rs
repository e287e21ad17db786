//! `exegpt-xlint`: the workspace determinism & numeric-safety linter.
//!
//! ExeGPT's headline properties — a branch-and-bound scheduler that trusts
//! monotone latency estimates, and a serving loop whose JSONL event logs
//! are byte-identical across runs — only hold if the whole workspace obeys
//! a small set of coding rules. This crate enforces them offline, with a
//! hand-rolled lexer and item-level parser (no `syn`, no dependencies):
//! comments and string literals are stripped, the token stream is matched
//! against the rules (with per-file item extraction feeding the
//! syntax-aware ones), and `// xlint::allow(RULE, reason)` pragmas are
//! honored, counted, *and budgeted* — the committed `xlint-baseline.toml`
//! caps each crate's suppression count so the gate only ratchets down.
//!
//! The rules (see DESIGN.md §6 for rationale):
//!
//! | id | rule |
//! |----|------|
//! | N1 | no bare `as` numeric casts in the cost-model/scheduler crates |
//! | F1 | no float `==`/`!=` |
//! | P1 | no `unwrap`/`expect`/`panic!` in non-test library code |
//! | U1 | no raw `f64`/`f32` in `pub fn` signatures of the unit-carrying crates |
//! | U2 | no unit-suffix conflict between a `let` binding and its initializer call |
//! | L1 | no upward/undeclared cross-crate imports (declared layering DAG) |
//! | P2 | no discarded `Result`/`#[must_use]` value from a locally-defined fn |
//! | D3 | no concurrency primitives outside the audited pool modules |
//! | U3 | no unit-stripped float may re-enter a different unit's constructor |
//! | X0 | malformed, unknown or stale `xlint::allow` pragma |
//! | X1 | a crate's pragma count exceeds its committed suppression budget |
//!
//! Hash collections, wall-clock and environment reads are clippy's job
//! (`disallowed-types`/`disallowed-methods` in `clippy.toml`), and a bound
//! `Result` that is never read is rustc's `unused_variables`; both run
//! under `-D warnings` in CI and cover test code too. Every rule is a
//! token pass; U3 follows unit strips through `let` bindings in one
//! forward pass per `fn`.
//!
//! # Example
//!
//! ```
//! use exegpt_xlint::{lint_source, FileContext, Rule};
//!
//! let report = lint_source("demo.rs", "let v = x.unwrap();", FileContext::default());
//! assert_eq!(report.findings[0].rule, Rule::P1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
mod lexer;
pub mod parser;
mod rules;
pub mod workspace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use rules::{FileContext, FileReport, Finding, Rule, Suppressed};

/// Lints a single source string. See [`FileContext`] for rule scoping.
pub fn lint_source(file: &str, src: &str, ctx: FileContext) -> FileReport {
    rules::lint_source(file, src, ctx)
}

/// The crates whose arithmetic is covered by N1: the hardware model
/// (`cluster`), the scheduler (`core`) and the cost model (`sim`).
/// Everything else may still use `as` — its numbers never feed the
/// branch-and-bound's monotonicity assumptions.
pub const N1_CRATES: [&str; 3] = ["cluster", "core", "sim"];

/// The crates whose public signatures are covered by U1: the hardware
/// model (`cluster`) and the cost model (`sim`), where every quantity is
/// dimensioned and must travel through the `exegpt_units` newtypes.
pub const U1_CRATES: [&str; 2] = ["cluster", "sim"];

/// Errors from walking a workspace.
#[derive(Debug)]
pub enum XlintError {
    /// No enclosing workspace `Cargo.toml` was found.
    NoWorkspaceRoot,
    /// An I/O failure while reading sources.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for XlintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XlintError::NoWorkspaceRoot => {
                write!(f, "no workspace Cargo.toml found above the current directory")
            }
            XlintError::Io { path, source } => write!(f, "reading {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for XlintError {}

/// Aggregated result of linting a workspace (or an explicit file list).
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// All pragma-suppressed violations, same order.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the lint gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count of findings for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Human-readable report (diagnostics plus a one-line summary).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {} {} — {}",
                f.file,
                f.line,
                f.rule.id(),
                f.message,
                f.suggestion
            );
        }
        let per_rule: Vec<String> = Rule::ALL
            .into_iter()
            .map(|r| (r, self.count(r)))
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{}: {n}", r.id()))
            .collect();
        let breakdown =
            if per_rule.is_empty() { String::new() } else { format!(" ({})", per_rule.join(", ")) };
        let _ = writeln!(
            out,
            "xlint: {} finding{}{breakdown}, {} suppressed by pragma, {} files scanned",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned,
        );
        out
    }
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, XlintError> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(XlintError::NoWorkspaceRoot)
}

/// Lints every first-party crate under `root` (`crates/*/src` plus the
/// root package's `src/`). `third_party/`, `tests/`, `benches/` and
/// `examples/` are out of scope: vendored shims and test code do not feed
/// the deterministic pipeline.
pub fn lint_workspace(root: &Path) -> Result<Report, XlintError> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir());
        for c in crate_dirs {
            collect_rs(&c.join("src"), &mut files)?;
        }
    }
    let mut report = Report::default();
    for path in &files {
        lint_file_into(&mut report, path, path.strip_prefix(root).unwrap_or(path))?;
    }
    // The manifest pass: every `crates/*/Cargo.toml` dependency edge is
    // checked against the declared layering DAG (rule L1).
    report.findings.extend(workspace::lint_manifests(root)?);
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Lints an explicit list of files with per-file contexts derived from
/// their paths (used by the CLI's non-workspace mode and the fixtures).
pub fn lint_files(paths: &[PathBuf]) -> Result<Report, XlintError> {
    let mut report = Report::default();
    for path in paths {
        lint_file_into(&mut report, path, path)?;
    }
    Ok(report)
}

/// Lints the file at `path`, reporting it as `label` (with `/`
/// separators), and appends the results to `report`.
fn lint_file_into(report: &mut Report, path: &Path, label: &Path) -> Result<(), XlintError> {
    let src = std::fs::read_to_string(path)
        .map_err(|source| XlintError::Io { path: path.to_path_buf(), source })?;
    let label = label.to_string_lossy().replace('\\', "/");
    let file_report = lint_source(&label, &src, context_for(&label));
    report.findings.extend(file_report.findings);
    report.suppressed.extend(file_report.suppressed);
    report.files_scanned += 1;
    Ok(())
}

/// Derives the rule scoping for a workspace-relative file path.
pub fn context_for(label: &str) -> FileContext {
    let crate_name =
        label.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("");
    let bin = label.contains("/bin/") || label.ends_with("main.rs");
    FileContext {
        // Bin targets format results for humans; their numbers never feed
        // the search, so N1 (like P1) is scoped to library code.
        numeric_core: N1_CRATES.contains(&crate_name) && !bin,
        allow_panics: crate_name == "bench" || bin,
        units_core: U1_CRATES.contains(&crate_name) && !bin,
        crate_idx: workspace::crate_index_for_dir(crate_name),
        audited_concurrency: AUDITED_CONCURRENCY_MODULES.contains(&label),
    }
}

/// The only modules allowed to hold concurrency primitives (rule D3):
/// the scheduler's deterministic-join worker pool and the sim's sharded
/// profile cache. Everything else must stay sequential.
pub const AUDITED_CONCURRENCY_MODULES: [&str; 2] =
    ["crates/core/src/scheduler.rs", "crates/sim/src/cache.rs"];

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), XlintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// `read_dir` with deterministic (sorted) order.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, XlintError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|source| XlintError::Io { path: dir.to_path_buf(), source })?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for e in rd {
        let e = e.map_err(|source| XlintError::Io { path: dir.to_path_buf(), source })?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_scoping_matches_layout() {
        assert!(context_for("crates/sim/src/rra.rs").numeric_core);
        assert!(context_for("crates/core/src/bnb.rs").numeric_core);
        assert!(context_for("crates/cluster/src/gpu.rs").numeric_core);
        assert!(!context_for("crates/runner/src/kv.rs").numeric_core);
        assert!(context_for("crates/cluster/src/cost.rs").units_core);
        assert!(context_for("crates/sim/src/estimate.rs").units_core);
        assert!(!context_for("crates/core/src/scheduler.rs").units_core);
        assert!(!context_for("crates/sim/src/bin/tool.rs").units_core);
        assert!(context_for("crates/core/src/bin/exegpt-cli.rs").allow_panics);
        assert!(context_for("crates/bench/src/fig7.rs").allow_panics);
        assert!(!context_for("crates/serve/src/server.rs").allow_panics);
        assert!(context_for("crates/core/src/scheduler.rs").audited_concurrency);
        assert!(context_for("crates/sim/src/cache.rs").audited_concurrency);
        assert!(!context_for("crates/sim/src/estimate.rs").audited_concurrency);
        assert_eq!(
            context_for("crates/fleet/src/lib.rs").crate_idx,
            workspace::crate_index_for_dir("fleet"),
        );
        assert_eq!(context_for("src/lib.rs").crate_idx, None);
    }

    #[test]
    fn render_text_has_summary_line() {
        let report = Report {
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 3,
                rule: Rule::P1,
                message: "m".into(),
                suggestion: "s".into(),
            }],
            suppressed: vec![],
            files_scanned: 1,
        };
        let text = report.render_text();
        assert!(text.contains("x.rs:3: P1"));
        assert!(text.contains("1 finding (P1: 1), 0 suppressed by pragma, 1 files scanned"));
    }
}
