//! Fixture round-trips: every rule fires on its fixture file, scoping
//! waives the right rules, and — the self-test the CI gate relies on —
//! the workspace itself is clean.

use std::path::{Path, PathBuf};

use exegpt_xlint::{
    find_workspace_root, in_units_core, lint_files, lint_source, lint_workspace, Finding, Rule,
};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// Lints a fixture as if it lived at `label` inside the workspace, so the
/// path-derived rule scoping applies.
fn lint_fixture_as(name: &str, label: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(fixture_path(name)).expect("fixture is readable");
    lint_source(label, &src, in_units_core(label))
}

fn rule_lines(findings: &[Finding], rule: Rule) -> Vec<usize> {
    let mut lines: Vec<usize> =
        findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
    lines.dedup();
    lines
}

#[test]
fn u1_fixture_flags_raw_float_signatures_only_in_units_core() {
    for label in ["crates/cluster/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let findings = lint_fixture_as("u1.rs", label);
        // `slowed(factor: f64)` and `efficiency_of(...) -> f64` stay clean:
        // the dimensionless vocabulary (ratio/frac/efficiency/…) exempts
        // floats that genuinely carry no unit.
        assert_eq!(rule_lines(&findings, Rule::U1), vec![1, 4, 9], "{label}: {findings:?}");
    }
    // Outside the unit-carrying crates (and in bin targets) U1 is waived.
    for label in ["crates/runner/src/fixture.rs", "crates/cluster/src/bin/tool.rs"] {
        let waived = lint_fixture_as("u1.rs", label);
        assert!(waived.is_empty(), "{label}: {waived:?}");
    }
}

#[test]
fn u2_fixture_flags_suffix_conflicts_everywhere() {
    // U2 is crate-agnostic: naming consistency has no boundary crate.
    for label in ["crates/runner/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let findings = lint_fixture_as("u2.rs", label);
        assert_eq!(rule_lines(&findings, Rule::U2), vec![2, 3], "{label}: {findings:?}");
    }
}

#[test]
fn u3_fixture_flags_cross_unit_reentry_only() {
    let findings = lint_fixture_as("u3.rs", "crates/runner/src/fixture.rs");
    // Cross-unit re-entry (secs-stripped into `Bytes::new`, a `_bytes`
    // suffixed strip into `Secs::new`) fires; the same-unit round trip
    // and the `convert::`-laundered path stay clean.
    assert_eq!(rule_lines(&findings, Rule::U3), vec![3, 11], "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == Rule::U3), "{findings:?}");
}

#[test]
fn lint_files_reports_fixture_violations_like_the_cli() {
    let paths: Vec<PathBuf> = ["u1.rs", "u2.rs", "u3.rs"].iter().map(|n| fixture_path(n)).collect();
    let report = lint_files(&paths).expect("fixtures lint");
    assert!(!report.is_clean(), "fixtures must make the CLI exit non-zero");
    assert_eq!(report.files_scanned, 3);
    for rule in [Rule::U2, Rule::U3] {
        assert!(report.count(rule) > 0, "expected at least one {} finding", rule.id());
    }
    // File mode derives scoping from the path like a workspace pass does:
    // a path outside `crates/` names no unit-carrying crate, so U1 is off.
    assert_eq!(report.count(Rule::U1), 0, "{:?}", report.findings);
}

#[test]
fn workspace_is_clean_so_the_ci_gate_passes() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root resolves");
    let report = lint_workspace(&root).expect("workspace lints");
    assert!(report.is_clean(), "xlint --workspace must exit 0; found:\n{}", report.render_text());
    assert!(report.files_scanned > 50, "scanned only {} files", report.files_scanned);
}
