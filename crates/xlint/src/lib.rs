//! `exegpt-xlint`: the workspace unit-safety linter.
//!
//! ExeGPT's branch-and-bound scheduler trusts monotone latency estimates,
//! and those estimates are only as sound as the cost model's dimensional
//! arithmetic. This crate checks the unit rules that no compiler lint
//! expresses, offline, with a hand-rolled lexer and `fn`-item parser (no
//! `syn`, no dependencies): comments and string literals are stripped and
//! the token stream is matched against the rules.
//!
//! The rules (DESIGN.md §6.2–§6.3 give the rationale, §6.1b the audit):
//!
//! | id | rule |
//! |----|------|
//! | U1 | no raw `f64`/`f32` in `pub fn` signatures of the unit-carrying crates |
//! | U2 | no unit-suffix conflict between a `let` binding and its initializer call |
//! | U3 | no unit-stripped float may re-enter a different unit's constructor |
//!
//! Everything else in the determinism and numeric-safety gate belongs to
//! clippy, rustc and Cargo (DESIGN.md §6.1): panics, casts, float
//! equality, discarded results, concurrency, hash collections, clock and
//! environment reads are clippy or rustc lints, and crate layering is
//! Cargo's dependency graph plus the root package's `tests/layering.rs`.
//!
//! # Example
//!
//! ```
//! use exegpt_xlint::{lint_source, Rule};
//!
//! let findings = lint_source("demo.rs", "let total_secs = kv_bytes(4);", false);
//! assert_eq!(findings[0].rule, Rule::U2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The numeric-safety gate for library code (DESIGN.md §6.1): test builds,
// binaries and integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    ),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

mod lexer;
pub mod parser;
mod rules;

use std::path::{Path, PathBuf};

pub use rules::{lint_source, Finding, Rule};

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
            out += &format!(
                "{}:{}: {} {} — {}\n",
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
        out += &format!(
            "xlint: {} finding{}{breakdown}, {} files scanned\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
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
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Lints an explicit list of files, deriving U1's scope from each path
/// (used by the CLI's non-workspace mode and the fixtures).
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
    report.findings.extend(lint_source(&label, &src, in_units_core(&label)));
    report.files_scanned += 1;
    Ok(())
}

/// Whether U1 covers a workspace-relative file path: library code of the
/// [`U1_CRATES`]. Bin targets format results for humans, so they are out.
pub fn in_units_core(label: &str) -> bool {
    let crate_name =
        label.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("");
    let bin = label.contains("/bin/") || label.ends_with("main.rs");
    U1_CRATES.contains(&crate_name) && !bin
}

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
    fn u1_scoping_matches_layout() {
        assert!(in_units_core("crates/cluster/src/cost.rs"));
        assert!(in_units_core("crates/sim/src/estimate.rs"));
        assert!(!in_units_core("crates/core/src/scheduler.rs"));
        assert!(!in_units_core("crates/sim/src/bin/tool.rs"));
        assert!(!in_units_core("crates/cluster/src/main.rs"));
    }

    #[test]
    fn render_text_has_summary_line() {
        let report = Report {
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 3,
                rule: Rule::U2,
                message: "m".into(),
                suggestion: "s".into(),
            }],
            files_scanned: 1,
        };
        let text = report.render_text();
        assert!(text.contains("x.rs:3: U2"));
        assert!(text.contains("1 finding (U2: 1), 1 files scanned"));
    }
}
