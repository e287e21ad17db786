//! Fixture round-trips: every rule fires on its fixture file, scoping
//! waives the right rules, pragmas suppress (and stale pragmas are flagged),
//! and — the self-test the CI gate relies on — the workspace itself is
//! clean.

use std::path::{Path, PathBuf};

use exegpt_xlint::{
    baseline, context_for, find_workspace_root, lint_files, lint_source, lint_workspace, workspace,
    FileReport, Rule,
};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// Lints a fixture as if it lived at `label` inside the workspace, so the
/// path-derived rule scoping applies.
fn lint_fixture_as(name: &str, label: &str) -> FileReport {
    let src = std::fs::read_to_string(fixture_path(name)).expect("fixture is readable");
    lint_source(label, &src, context_for(label))
}

fn rule_lines(report: &FileReport, rule: Rule) -> Vec<usize> {
    let mut lines: Vec<usize> =
        report.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
    lines.dedup();
    lines
}

/// Self-test over the real sources of one crate (recursive, so `bin/`
/// subdirectories are covered): the full rule set, including the
/// syntax-aware L1/P2/D3 families, must come back clean. Returns the
/// number of `.rs` files checked.
fn assert_crate_passes_full_rule_set(crate_dir: &str) -> usize {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root resolves");
    fn walk(dir: &Path, rel: &str, checked: &mut usize) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("crate sources are readable")
            .map(|e| e.expect("entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            if path.is_dir() {
                walk(&path, &format!("{rel}/{name}"), checked);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let label = format!("{rel}/{name}");
                let src = std::fs::read_to_string(&path).expect("source is readable");
                let report = lint_source(&label, &src, context_for(&label));
                assert!(report.findings.is_empty(), "{label}:\n{:?}", report.findings);
                *checked += 1;
            }
        }
    }
    let mut checked = 0;
    walk(
        &root.join("crates").join(crate_dir).join("src"),
        &format!("crates/{crate_dir}/src"),
        &mut checked,
    );
    checked
}

#[test]
fn faults_crate_passes_the_full_rule_set() {
    // The seeded fault generator is the only randomness the fault layer
    // touches, and every timestamp is virtual.
    let checked = assert_crate_passes_full_rule_set("faults");
    assert!(checked >= 4, "scanned only {checked} faults sources");
}

#[test]
fn fleet_crate_passes_the_full_rule_set() {
    // The fleet fabric merges N replica clocks into one deterministic
    // virtual clock, so the determinism rules (no float equality, no
    // concurrency outside the audited pools) are load-bearing for it: one
    // violation anywhere and byte-identical replay is gone.
    let checked = assert_crate_passes_full_rule_set("fleet");
    assert!(checked >= 7, "scanned only {checked} fleet sources");
}

#[test]
fn workload_crate_passes_the_full_rule_set() {
    // Workload generation is seeded; any nondeterministic input here
    // changes every downstream trace.
    let checked = assert_crate_passes_full_rule_set("workload");
    assert!(checked >= 2, "scanned only {checked} workload sources");
}

#[test]
fn bench_crate_passes_the_full_rule_set() {
    // Bench is the one crate allowed panics, but the rest of the rule set
    // (float equality, layering, concurrency, units) still holds.
    let checked = assert_crate_passes_full_rule_set("bench");
    assert!(checked >= 2, "scanned only {checked} bench sources");
}

#[test]
fn units_crate_passes_the_full_rule_set() {
    // The unit newtypes sit under everything; a violation here is
    // workspace-wide.
    let checked = assert_crate_passes_full_rule_set("units");
    assert!(checked >= 1, "scanned only {checked} units sources");
}

#[test]
fn profiler_crate_passes_the_full_rule_set() {
    // The profile cache is the justified-concurrency case: its two lock
    // sites carry D3 pragmas counted against the suppression budget.
    let checked = assert_crate_passes_full_rule_set("profiler");
    assert!(checked >= 3, "scanned only {checked} profiler sources");
}

#[test]
fn baselines_crate_passes_the_full_rule_set() {
    // The comparison systems (ORCA, vLLM, FT/DSI emulations) share the
    // deterministic pipeline and replay guarantees.
    let checked = assert_crate_passes_full_rule_set("baselines");
    assert!(checked >= 3, "scanned only {checked} baselines sources");
}

#[test]
fn scenario_crate_passes_the_full_rule_set() {
    // The scenario layer's whole contract is determinism from config: no
    // panics in lib code (P1), no unaudited concurrency (D3), and
    // byte-identical lowering; clippy keeps clock and env reads out. Its
    // only RNG is the seeded StdRng behind the arbitrary generators.
    let checked = assert_crate_passes_full_rule_set("scenario");
    assert!(checked >= 8, "scanned only {checked} scenario sources");
}

#[test]
fn n1_fixture_flags_casts_only_in_the_numeric_core() {
    let report = lint_fixture_as("n1.rs", "crates/core/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::N1), vec![2, 3], "{:?}", report.findings);
    let sim = lint_fixture_as("n1.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rule_lines(&sim, Rule::N1), vec![2, 3]);
    // The hardware model's arithmetic feeds the same search (PR: unit layer).
    let cluster = lint_fixture_as("n1.rs", "crates/cluster/src/fixture.rs");
    assert_eq!(rule_lines(&cluster, Rule::N1), vec![2, 3]);
    // Other crates and bin targets present numbers; N1 does not apply.
    let waived = lint_fixture_as("n1.rs", "crates/runner/src/fixture.rs");
    assert_eq!(rule_lines(&waived, Rule::N1), Vec::<usize>::new());
    let bin = lint_fixture_as("n1.rs", "crates/core/src/bin/fixture-cli.rs");
    assert_eq!(rule_lines(&bin, Rule::N1), Vec::<usize>::new());
}

#[test]
fn f1_fixture_flags_float_equality() {
    let report = lint_fixture_as("f1.rs", "crates/dist/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::F1), vec![2, 6], "{:?}", report.findings);
}

#[test]
fn p1_fixture_flags_panics_outside_bins_and_bench() {
    let report = lint_fixture_as("p1.rs", "crates/model/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::P1), vec![2, 6, 10], "{:?}", report.findings);
    for waived_label in ["crates/bench/src/fixture.rs", "crates/model/src/main.rs"] {
        let waived = lint_fixture_as("p1.rs", waived_label);
        assert_eq!(rule_lines(&waived, Rule::P1), Vec::<usize>::new(), "{waived_label}");
    }
}

#[test]
fn u1_fixture_flags_raw_float_signatures_only_in_units_core() {
    for label in ["crates/cluster/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let report = lint_fixture_as("u1.rs", label);
        // `slowed(factor: f64)` and `efficiency_of(...) -> f64` stay clean:
        // the dimensionless vocabulary (ratio/frac/efficiency/…) exempts
        // floats that genuinely carry no unit. `headroom` is outside the
        // vocabulary, so it still needs its pragma.
        assert_eq!(rule_lines(&report, Rule::U1), vec![1, 4, 9], "{label}: {:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1, "{label}: the pragma'd headroom is suppressed");
    }
    // Outside the unit-carrying crates (and in bin targets) U1 is waived;
    // the now-unused pragma surfaces as X0 instead.
    for label in ["crates/runner/src/fixture.rs", "crates/cluster/src/bin/tool.rs"] {
        let waived = lint_fixture_as("u1.rs", label);
        assert_eq!(rule_lines(&waived, Rule::U1), Vec::<usize>::new(), "{label}");
        assert_eq!(rule_lines(&waived, Rule::X0), vec![28], "{label}: stale pragma is X0");
    }
}

#[test]
fn u2_fixture_flags_suffix_conflicts_everywhere() {
    // U2 is crate-agnostic: naming consistency has no boundary crate.
    for label in ["crates/runner/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let report = lint_fixture_as("u2.rs", label);
        assert_eq!(rule_lines(&report, Rule::U2), vec![2, 3], "{label}: {:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1, "{label}");
        assert!(report.suppressed[0].reason.contains("transitional"));
    }
}

#[test]
fn pragmas_suppress_and_stale_pragmas_are_flagged() {
    let report = lint_fixture_as("pragmas.rs", "crates/serve/src/fixture.rs");
    assert_eq!(report.suppressed.len(), 2, "{:?}", report.suppressed);
    assert!(report.suppressed.iter().all(|s| s.finding.rule == Rule::P1));
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
    // No raw P1 survives; the unknown, stale, and reasonless pragmas each
    // surface as X0.
    assert_eq!(rule_lines(&report, Rule::P1), Vec::<usize>::new());
    assert_eq!(rule_lines(&report, Rule::X0), vec![6, 9, 12], "{:?}", report.findings);
}

#[test]
fn lint_files_reports_fixture_violations_like_the_cli() {
    let paths: Vec<PathBuf> = ["f1.rs", "n1.rs", "p1.rs"].iter().map(|n| fixture_path(n)).collect();
    let report = lint_files(&paths).expect("fixtures lint");
    assert!(!report.is_clean(), "fixtures must make the CLI exit non-zero");
    assert_eq!(report.files_scanned, 3);
    for rule in [Rule::F1, Rule::P1] {
        assert!(report.count(rule) > 0, "expected at least one {} finding", rule.id());
    }
    // File mode derives scoping from the path like a workspace pass does:
    // a path outside `crates/` names no numeric-core crate, so N1 is off.
    assert_eq!(report.count(Rule::N1), 0, "{:?}", report.findings);
}

#[test]
fn l1_fixture_flags_upward_imports_by_layer() {
    // As a `core` source, fleet (above) and serve (above) are upward
    // edges; sim and cluster (below) are fine, and test code is exempt.
    let report = lint_fixture_as("l1.rs", "crates/core/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::L1), vec![4, 5, 10], "{:?}", report.findings);
    // As a `bench` source (top layer) every import points downward.
    let top = lint_fixture_as("l1.rs", "crates/bench/src/fixture.rs");
    assert_eq!(rule_lines(&top, Rule::L1), Vec::<usize>::new(), "{:?}", top.findings);
}

#[test]
fn l1_manifest_check_demonstrates_the_ci_failure_for_upward_deps() {
    // The same declared DAG gates Cargo.toml edges: an upward dependency
    // makes the report non-clean, which is exactly the CI gate's exit 1.
    let me = workspace::crate_index_for_dir("sim").expect("sim is declared");
    let manifest = "[package]\nname = \"exegpt-sim\"\n\n[dependencies]\n\
                    exegpt-serve.workspace = true\n";
    let findings = workspace::lint_manifest_text("crates/sim/Cargo.toml", me, manifest);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::L1);
    let mut report = exegpt_xlint::Report::default();
    report.findings.extend(findings);
    assert!(!report.is_clean(), "upward manifest edge must fail the gate");
}

#[test]
fn p2_fixture_flags_discards_and_honors_handling() {
    let report = lint_fixture_as("p2.rs", "crates/runner/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::P2), vec![25, 26, 27, 28], "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1, "the pragma'd discard is suppressed");
    assert_eq!(report.suppressed[0].finding.rule, Rule::P2);
    assert!(report.findings.iter().all(|f| f.rule == Rule::P2), "{:?}", report.findings);
    // Bin targets (like P1) may discard deliberately.
    let bin = lint_fixture_as("p2.rs", "crates/runner/src/bin/tool.rs");
    assert_eq!(rule_lines(&bin, Rule::P2), Vec::<usize>::new());
}

#[test]
fn p2_fixture_resolves_use_aliases() {
    // `use inner::persist as store_fn;` — the discarded call through the
    // alias still resolves to the local fallible fn.
    let report = lint_fixture_as("p2_alias.rs", "crates/runner/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::P2), vec![8], "{:?}", report.findings);
}

#[test]
fn u3_fixture_flags_cross_unit_reentry_only() {
    let report = lint_fixture_as("u3.rs", "crates/runner/src/fixture.rs");
    // Cross-unit re-entry (secs-stripped into `Bytes::new`, a `_bytes`
    // suffixed strip into `Secs::new`) fires; the same-unit round trip
    // and the `convert::`-laundered path stay clean.
    assert_eq!(rule_lines(&report, Rule::U3), vec![3, 11], "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.rule == Rule::U3), "{:?}", report.findings);
}

#[test]
fn d3_fixture_flags_concurrency_outside_audited_modules() {
    let report = lint_fixture_as("d3.rs", "crates/serve/src/fixture.rs");
    assert_eq!(rule_lines(&report, Rule::D3), vec![2, 5, 6, 7, 8, 13], "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1, "the pragma'd Mutex is suppressed");
    // The audited pool modules may hold the primitives, but Relaxed on a
    // non-counter receiver is still flagged there.
    let audited = lint_fixture_as("d3.rs", "crates/core/src/scheduler.rs");
    assert_eq!(rule_lines(&audited, Rule::D3), vec![13], "{:?}", audited.findings);
}

#[test]
fn ratchet_demonstrates_the_ci_failure_for_new_suppressions() {
    // A fixture whose pragma count exceeds its committed budget: the
    // budget check appends an X1 finding, so the gate exits 1.
    let report = lint_fixture_as("p2.rs", "crates/runner/src/fixture.rs");
    let mut full = exegpt_xlint::Report::default();
    full.suppressed.extend(report.suppressed);
    let counts = baseline::suppression_counts(&full);
    assert_eq!(counts.get("crates/runner"), Some(&1));
    let zero = baseline::Baseline::default();
    let over = baseline::check_budget("xlint-baseline.toml", &counts, &zero);
    assert_eq!(over.len(), 1, "{over:?}");
    assert_eq!(over[0].rule, Rule::X1);
    full.findings.extend(over);
    assert!(!full.is_clean(), "budget exceedance must fail the gate");
    // Raising the budget to the live count clears it.
    let raised = baseline::Baseline { budgets: counts.clone() };
    assert!(baseline::check_budget("xlint-baseline.toml", &counts, &raised).is_empty());
}

#[test]
fn committed_baseline_covers_the_live_workspace_suppressions() {
    // End-to-end ratchet: the committed xlint-baseline.toml must hold the
    // workspace's current pragma counts exactly — under budget means the
    // file should be ratcheted down, over budget fails CI.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root resolves");
    let text = std::fs::read_to_string(root.join("xlint-baseline.toml"))
        .expect("xlint-baseline.toml is committed at the workspace root");
    let base = baseline::parse_baseline(&text).expect("committed baseline parses");
    let report = lint_workspace(&root).expect("workspace lints");
    let counts = baseline::suppression_counts(&report);
    let over = baseline::check_budget("xlint-baseline.toml", &counts, &base);
    assert!(over.is_empty(), "suppression budget exceeded:\n{over:?}");
    let slack = baseline::ratchet_candidates(&counts, &base);
    assert!(
        slack.is_empty(),
        "baseline is over-provisioned, ratchet it down with --write-baseline: {slack:?}"
    );
}

#[test]
fn workspace_is_clean_so_the_ci_gate_passes() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root resolves");
    let report = lint_workspace(&root).expect("workspace lints");
    assert!(report.is_clean(), "xlint --workspace must exit 0; found:\n{}", report.render_text());
    assert!(report.files_scanned > 50, "scanned only {} files", report.files_scanned);
    // The documented suppressions (cache sharding, preset constructors)
    // stay visible in the report rather than vanishing.
    assert!(!report.suppressed.is_empty());
}
