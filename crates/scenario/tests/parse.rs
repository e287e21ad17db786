//! Negative-parse suite: malformed configs come back as structured
//! errors naming the offending key path — never as panics.

use std::path::Path;

use exegpt_scenario::{Scenario, ScenarioError};
use proptest::prelude::*;

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
fn a_request_count_past_the_cap_is_invalid_not_an_abort() {
    // A buffer sized from this count overflows its capacity.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fleet-rr.toml");
    let text = std::fs::read_to_string(path).expect("readable scenario");
    assert!(text.contains("\ntotal = 6000\n"));
    let err = error_of(&text.replace("\ntotal = 6000\n", "\ntotal = 18446744073709551615\n"));
    let ScenarioError::Validate { path, why } = &err else {
        panic!("expected a validation error, got {err}");
    };
    assert_eq!((path.as_str(), why.as_str()), ("fleet.total", "must be at most 1000000"));
}

#[test]
fn toml_syntax_errors_carry_the_line() {
    let err = error_of("name = \"x\"\nmodel = [unterminated");
    let ScenarioError::Syntax { line, .. } = err else {
        panic!("expected a syntax error, got {err}");
    };
    assert_eq!(line, 2);
}

/// The text of every shipped scenario file.
fn shipped() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml") && !p.ends_with("GOLDENS.toml"))
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read_to_string(p).expect("readable scenario")).collect()
}

/// The chars spliced into shipped files: TOML's structural punctuation, a
/// sign, a newline, a digit and a letter.
const SPLICE: &[char] =
    &['[', ']', '{', '}', '=', '"', '\'', '#', '.', ',', '-', '+', '\n', '0', 'a'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every shipped file, cut short at a random char boundary or with one
    /// structural char spliced in, comes back from the text path as a
    /// scenario or a structured error, never a panic.
    #[test]
    fn damaged_shipped_files_never_panic(at in 0usize..1 << 20, splice in 0..=SPLICE.len()) {
        for text in shipped() {
            let mut chars: Vec<char> = text.chars().collect();
            let at = at % (chars.len() + 1);
            match SPLICE.get(splice) {
                Some(&ch) => chars.insert(at, ch),
                None => chars.truncate(at),
            }
            let damaged: String = chars.into_iter().collect();
            if let Err(err) = Scenario::from_toml_str(&damaged) {
                prop_assert!(!err.to_string().is_empty());
            }
        }
    }
}
