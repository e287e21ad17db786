//! Negative-parse suite: malformed configs come back as structured
//! errors naming the offending key path — never as panics.

use exegpt_scenario::arbitrary::{arbitrary_scenario, mutate_invalid, overlapping_faults_tree};
use exegpt_scenario::{Scenario, ScenarioError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MINIMAL_SERVE: &str = r#"
name = "minimal"

[model]
preset = "opt-13b"

[cluster]
preset = "a40"
gpus = 4

[workload]
kind = "task"
task = "translation"

[scheduler]
latency_bound_secs = 30.0

[serve]
total = 100

[serve.arrivals]
kind = "poisson"

[serve.arrivals.rate]
kind = "qps"
qps = 5.0

[serve.slo]
e2e_secs = 60.0
"#;

fn parsed(text: &str) -> Scenario {
    Scenario::from_toml_str(text).expect("baseline config parses")
}

/// The error for `text`, asserting there is one.
fn error_of(text: &str) -> ScenarioError {
    Scenario::from_toml_str(text).expect_err("malformed config must be rejected")
}

#[test]
fn baseline_config_is_valid() {
    let s = parsed(MINIMAL_SERVE);
    assert_eq!(s.name, "minimal");
}

#[test]
fn unknown_enum_tag_names_the_kind_path() {
    let text = MINIMAL_SERVE.replace("kind = \"task\"", "kind = \"mystery\"");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("workload.kind"));
    assert!(err.to_string().contains("mystery"), "message must quote the bad tag: {err}");
}

#[test]
fn negative_rate_names_the_rate_path() {
    let text = MINIMAL_SERVE.replace("qps = 5.0", "qps = -5.0");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.arrivals.rate.qps"));
}

#[test]
fn empty_gpu_pool_names_the_cluster_path() {
    let text = MINIMAL_SERVE.replace("gpus = 4", "gpus = 0");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("cluster.gpus"));
}

#[test]
fn unknown_key_names_the_injected_path() {
    let text = MINIMAL_SERVE
        .replace("latency_bound_secs = 30.0", "latency_bound_secs = 30.0\nwarp_speed = true");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("scheduler.warp_speed"));
}

#[test]
fn the_removed_incremental_replan_key_is_rejected() {
    let text = MINIMAL_SERVE.replace("total = 100", "total = 100\nincremental_replan = true");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.incremental_replan"));
    assert!(err.to_string().contains("unknown key"), "must be an unknown-key error: {err}");
}

#[test]
fn wrong_type_names_the_field_path() {
    let text = MINIMAL_SERVE.replace("total = 100", "total = \"lots\"");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.total"));
}

#[test]
fn missing_mode_is_reported_at_the_root() {
    let text: String = MINIMAL_SERVE
        .lines()
        .take_while(|l| !l.starts_with("[serve]"))
        .collect::<Vec<_>>()
        .join("\n");
    let err = error_of(&text);
    assert!(
        err.to_string().contains("[serve], [fleet] or [replay]"),
        "must explain the missing mode: {err}"
    );
}

#[test]
fn overlapping_fault_windows_name_the_second_event() {
    let text = format!(
        "{MINIMAL_SERVE}\n\
         [[serve.faults.events]]\n\
         t_frac = 0.2\n\
         kind = \"gpu_fail\"\n\
         gpu = 1\n\n\
         [[serve.faults.events]]\n\
         t_frac = 0.4\n\
         kind = \"gpu_slowdown\"\n\
         gpu = 1\n\
         factor = 2.0\n"
    );
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.events[1]"));
    assert!(
        err.to_string().contains("overlapping fault windows"),
        "message must explain the overlap: {err}"
    );
}

#[test]
fn fault_recover_without_open_window_is_rejected() {
    let text = format!(
        "{MINIMAL_SERVE}\n\
         [[serve.faults.events]]\n\
         t_frac = 0.2\n\
         kind = \"gpu_recover\"\n\
         gpu = 2\n"
    );
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.events[0]"));
}

#[test]
fn evict_slowdown_of_one_names_the_faults_path() {
    // Eviction at a slowdown of 1 would evict healthy devices; the serve
    // loop rejects it, so validation must too.
    let text = format!("{MINIMAL_SERVE}\n[serve.faults]\nevict_slowdown = 1.0\nevents = []\n");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.evict_slowdown"));
    assert!(err.to_string().contains("> 1"), "message must state the bound: {err}");
}

const MINIMAL_FLEET: &str = r#"
name = "minimal-fleet"

[model]
preset = "opt-13b"

[workload]
kind = "task"
task = "translation"

[scheduler]
latency_bound_secs = inf

[fleet]
total = 1500
policy = "slo_aware"

[[fleet.pools]]
name = "a40"
cluster = { preset = "a40", gpus = 4 }

[[fleet.replicas]]
name = "a40-0"
pool = "a40"

[[fleet.replicas]]
name = "a40-1"
pool = "a40"

[[fleet.classes]]
name = "batch"
weight = 1.0

[[fleet.tenants]]
tenant = 0
class = "batch"
arrivals = { kind = "poisson", rate = { kind = "qps", qps = 5.0 } }
"#;

/// `MINIMAL_FLEET` with one `[[fleet.faults]]` entry per `(t_frac, action)`,
/// all on replica `a40-1`.
fn fleet_with_faults(faults: &[(f64, &str)]) -> String {
    let mut text = MINIMAL_FLEET.to_string();
    for (t, action) in faults {
        text.push_str(&format!(
            "\n[[fleet.faults]]\nt_frac = {t:?}\naction = \"{action}\"\nreplica = \"a40-1\"\n"
        ));
    }
    text
}

#[test]
fn overlapping_fleet_fault_windows_name_the_second_fail() {
    let err = error_of(&fleet_with_faults(&[(0.3, "fail"), (0.6, "fail"), (0.9, "recover")]));
    assert_eq!(err.key_path(), Some("fleet.faults[1]"));
    assert!(err.to_string().contains("overlapping fault windows"), "{err}");
}

#[test]
fn fleet_faults_out_of_time_order_are_rejected() {
    // The same three events as above, listed out of time order: they run
    // sorted, so they overlap just the same.
    let err = error_of(&fleet_with_faults(&[(0.6, "fail"), (0.9, "recover"), (0.3, "fail")]));
    assert_eq!(err.key_path(), Some("fleet.faults[2]"));
    assert!(err.to_string().contains("time order"), "{err}");
}

#[test]
fn time_ordered_fleet_fault_windows_pass() {
    let text =
        fleet_with_faults(&[(0.2, "fail"), (0.4, "recover"), (0.6, "fail"), (0.9, "recover")]);
    let s = parsed(&text);
    let exegpt_scenario::Mode::Fleet(fleet) = &s.mode else { panic!("fleet mode") };
    assert_eq!(fleet.faults.len(), 4);
}

#[test]
fn toml_syntax_errors_carry_the_line() {
    let err = error_of("name = \"x\"\nmodel = [unterminated");
    let ScenarioError::Syntax { line, .. } = err else {
        panic!("expected a syntax error, got {err}");
    };
    assert_eq!(line, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every documented corruption of a valid scenario is rejected with a
    /// structured error naming the expected key path — and never panics.
    #[test]
    fn mutated_configs_fail_with_the_expected_path(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        let (tree, expected) = mutate_invalid(&mut rng, &scenario);
        let result = Scenario::decode(&tree).and_then(|s| s.validate().map(|()| s));
        match result {
            Ok(_) => panic!("corruption at `{expected}` was accepted"),
            Err(err) => {
                prop_assert_eq!(
                    err.key_path(), Some(expected.as_str()),
                    "wrong path for corruption: {}", err
                );
            }
        }
    }

    /// Overlapping fault windows injected into any serve scenario are
    /// rejected at the second event's path.
    #[test]
    fn injected_overlapping_windows_are_rejected(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        if let Some((tree, expected)) = overlapping_faults_tree(&scenario) {
            let result = Scenario::decode(&tree).and_then(|s| s.validate().map(|()| s));
            match result {
                Ok(_) => panic!("overlapping windows were accepted"),
                Err(err) => {
                    prop_assert_eq!(err.key_path(), Some(expected.as_str()));
                    prop_assert!(
                        err.to_string().contains("overlapping fault windows"),
                        "message must explain the overlap: {}", err
                    );
                }
            }
        }
    }

    /// Rendering a corrupted tree back to TOML and re-parsing still fails
    /// with a structured error (the whole text path is panic-free: a panic
    /// anywhere here fails the test).
    #[test]
    fn corrupted_trees_never_panic_through_the_text_path(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        let (tree, _) = mutate_invalid(&mut rng, &scenario);
        if let Ok(text) = exegpt_scenario::toml::render(&tree) {
            prop_assert!(
                Scenario::from_toml_str(&text).is_err(),
                "corrupted config must not re-parse cleanly:\n{}", text
            );
        }
    }
}
