//! A bit-for-bit digest of the schema's observable behaviour: what
//! decoding and validation say about every leaf of a fixed corpus under a
//! fixed set of corruptions.
//!
//! The corpus is every shipped `scenarios/*.toml` plus inline fixtures for
//! what the shipped files never spell (custom distributions of all four
//! kinds, `link_degrade`, `scheduler.policies`, `replay.scale_*`, `t_secs`
//! events, ...). The walk starts from the parsed text, so the corpus does
//! not depend on the schema under test. A change that moves a single
//! error message moves the digest.

use std::path::Path;

use exegpt_scenario::{toml, Scenario};
use serde::Value;

/// The FNV-1a digest of every record, one per line. Last re-pinned when
/// the scenario encoder was deleted: the one `render` record per corpus
/// file went, and every decode and validate record stayed byte for byte.
const PINNED: u64 = 0x55d4_a695_6b35_4827;

const FIXTURES: &[(&str, &str)] = &[
    (
        "custom-serve",
        r#"
name = "custom-serve"
seed = 3

[model]
preset = "opt-13b"

[cluster]
preset = "a100"

[workload]
kind = "custom"
input = { kind = "truncated_normal", mean = 200.0, std = 50.0, max_len = 512 }
output = { kind = "skew_normal", mean = 100.0, std = 30.0, skewness = 2.0, max_len = 400 }

[scheduler]
latency_bound_secs = 20.0
eps_latency_frac = 0.1
eps_throughput_frac = 0.05
policies = ["rra", "waa_memory"]

[serve]
total = 50
adaptive = false
adjust_threshold = 0.2

[serve.arrivals]
kind = "bursty"
rate_burst = { kind = "qps", qps = 8.0 }
rate_lull = { kind = "capacity_frac", frac = 0.5, of = "base" }
dwell_burst_secs = 10.0
dwell_lull_secs = 30.0

[serve.slo]
ttft_secs = 2.0
per_token_secs = 0.2
e2e_secs = 40.0

[serve.faults]
detection_delay_secs = 0.25
evict_slowdown = 2.5
max_retries = 3
backoff_base_secs = 0.5
straggler_rel_threshold = 1.5
straggler_consecutive = 4

[[serve.faults.events]]
t_secs = 5.0
kind = "link_degrade"
bw_factor = 0.5
latency_add_secs = 0.001

[[serve.faults.events]]
t_secs = 10.0
kind = "gpu_slowdown"
gpu = 0
factor = 2.0

[[serve.faults.events]]
t_secs = 20.0
kind = "gpu_recover"
gpu = 0
"#,
    ),
    (
        "custom-replay",
        r#"
name = "custom-replay"

[model]
preset = "t5-11b"

[cluster]
preset = "a40"
gpus = 8

[workload]
kind = "custom"
input = { kind = "log_normal", mean = 300.0, std = 80.0, max_len = 1024 }
output = { kind = "point_mass", len = 64, max_len = 128 }

[scheduler]
latency_bound_secs = inf

[replay]
num_queries = 100
scale_mean = 1.2
scale_std = 0.8
"#,
    ),
    (
        "task-shift",
        r#"
name = "task-shift"
seed = 11

[model]
preset = "gpt3-39b"

[cluster]
preset = "a100"
gpus = 16

[workload]
kind = "task"
task = "code_generation"
scale_mean = 1.1
scale_std = 0.9

[scheduler]
latency_bound_secs = 60.0

[serve]
total = 300

[serve.arrivals]
kind = "poisson_with_shift"
rate = { kind = "qps", qps = 3.0 }
shift_after_frac = 0.5
scale_mean = 2.0
scale_std = 1.5

[serve.slo]
"#,
    ),
    (
        "fleet-secs",
        r#"
name = "fleet-secs"
seed = 5

[model]
preset = "opt-13b"

[workload]
kind = "task"
task = "summarization"

[scheduler]
latency_bound_secs = 30.0

[fleet]
total = 500
policy = "round_robin"

[[fleet.pools]]
name = "small"
cluster = { preset = "a40", gpus = 2 }
latency_bound_secs = 45.0

[[fleet.pools]]
name = "big"
cluster = { preset = "a100" }

[[fleet.replicas]]
name = "s0"
pool = "small"

[[fleet.replicas]]
name = "b0"
pool = "big"
standby = false

[[fleet.classes]]
name = "gold"
weight = 2.0
e2e = { kind = "secs", secs = 30.0 }

[[fleet.tenants]]
tenant = 4
class = "gold"
arrivals = { kind = "poisson", rate = { kind = "qps", qps = 2.0 } }

[[fleet.tenants]]
tenant = 9
class = "gold"
arrivals = { kind = "bursty", rate_burst = { kind = "pool_capacity_frac", frac = 0.5, pool = "big" }, rate_lull = { kind = "qps", qps = 0.5 }, dwell_burst_secs = 5.0, dwell_lull_secs = 15.0 }

[[fleet.faults]]
t_secs = 10.0
action = "fail"
replica = "s0"

[[fleet.faults]]
t_secs = 20.0
action = "recover"
replica = "s0"

[[fleet.scale]]
t_secs = 30.0
action = "down"
replica = "b0"
"#,
    ),
];

/// Every shipped scenario file (sorted by name), then the fixtures.
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .filter(|p| !p.ends_with("GOLDENS.toml"))
        .collect();
    files.sort();
    let mut corpus: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = p.file_stem().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).expect("readable scenario"))
        })
        .collect();
    corpus.extend(FIXTURES.iter().map(|(n, t)| ((*n).to_string(), (*t).to_string())));
    corpus
}

/// One step from a value to a child: an object field by key, or an array
/// element by index.
#[derive(Clone, PartialEq)]
enum Step {
    Field(String),
    Item(usize),
}

/// What a node is, which decides the corruptions it gets.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Leaf,
    Table,
    List,
}

/// Leaf corruptions: replacements, then structural ones.
const LEAF_MUTATIONS: &[&str] = &[
    "wrong-type",
    "zero",
    "minus-one",
    "nan",
    "empty",
    "unknown",
    "huge",
    "copy-prev",
    "delete",
    "sibling",
];

/// Every node under `v` below the root, with its dotted key path, the steps
/// that reach it and its kind.
fn nodes(v: &Value, path: &str, steps: &mut Vec<Step>, out: &mut Vec<(String, Vec<Step>, Kind)>) {
    let kind = match v {
        Value::Object(_) => Kind::Table,
        Value::Array(_) => Kind::List,
        _ => Kind::Leaf,
    };
    if !steps.is_empty() {
        out.push((path.to_string(), steps.clone(), kind));
    }
    match v {
        Value::Object(fields) => {
            for (k, child) in fields {
                let p = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                steps.push(Step::Field(k.clone()));
                nodes(child, &p, steps, out);
                steps.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                steps.push(Step::Item(i));
                nodes(child, &format!("{path}[{i}]"), steps, out);
                steps.pop();
            }
        }
        _ => {}
    }
}

fn child<'v>(v: &'v Value, step: &Step) -> Option<&'v Value> {
    match (v, step) {
        (Value::Object(fields), Step::Field(k)) => {
            fields.iter().find(|(f, _)| f == k).map(|f| &f.1)
        }
        (Value::Array(items), Step::Item(i)) => items.get(*i),
        _ => None,
    }
}

fn child_mut<'v>(v: &'v mut Value, step: &Step) -> &'v mut Value {
    match (v, step) {
        (Value::Object(fields), Step::Field(k)) => {
            &mut fields.iter_mut().find(|(f, _)| f == k).expect("steps come from the same tree").1
        }
        (Value::Array(items), Step::Item(i)) => &mut items[*i],
        _ => unreachable!("steps come from the same tree"),
    }
}

/// The same node in the previous element of the innermost list it sits
/// in (`fleet.pools[1].name` -> `fleet.pools[0].name`), if there is one.
fn previous(root: &Value, steps: &[Step]) -> Option<Value> {
    let at = steps.iter().rposition(|s| matches!(s, Step::Item(i) if *i > 0))?;
    let mut prev = steps.to_vec();
    if let Step::Item(i) = &mut prev[at] {
        *i -= 1;
    }
    prev.iter().try_fold(root, child).cloned()
}

/// `root` with `mutation` applied at the node `steps` reaches, or `None`
/// when the mutation does not apply there.
fn mutate(root: &Value, steps: &[Step], mutation: &str) -> Option<Value> {
    let replacement = if mutation == "copy-prev" { Some(previous(root, steps)?) } else { None };
    let mut v = root.clone();
    let (last, parent_steps) = steps.split_last().expect("nodes sit below the root");
    let parent = parent_steps.iter().fold(&mut v, |node, s| child_mut(node, s));
    match mutation {
        "delete" => match (parent, last) {
            (Value::Object(fields), Step::Field(k)) => fields.retain(|(f, _)| f != k),
            (Value::Array(items), Step::Item(i)) => {
                items.remove(*i);
            }
            _ => unreachable!("steps come from the same tree"),
        },
        "sibling" => match parent {
            Value::Object(fields) => fields.push(("zz_unknown".to_string(), Value::U64(1))),
            _ => return None,
        },
        _ => {
            let node = child_mut(parent, last);
            *node = match (mutation, replacement) {
                (_, Some(prev)) => prev,
                ("clear", _) => Value::Array(Vec::new()),
                ("wrong-type", _) if matches!(node, Value::Bool(_)) => Value::Array(Vec::new()),
                ("wrong-type", _) => Value::Bool(true),
                ("zero", _) => Value::U64(0),
                ("minus-one", _) => Value::I64(-1),
                ("nan", _) => Value::F64(f64::NAN),
                ("empty", _) => Value::Str(String::new()),
                ("huge", _) => Value::U64(u64::MAX),
                _ => Value::Str("zz-unknown".to_string()),
            };
        }
    }
    Some(v)
}

/// What decoding plus validation says about `v`.
fn outcome(v: &Value) -> String {
    match Scenario::decode(v).and_then(|s| s.validate()) {
        Ok(()) => "Ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn records() -> Vec<String> {
    let mut records = Vec::new();
    for (name, text) in corpus() {
        if let Err(e) = Scenario::from_toml_str(&text) {
            panic!("corpus file {name} must be valid: {e}");
        }
        let root = toml::parse(&text).expect("corpus file parses");
        let mut found = Vec::new();
        nodes(&root, "", &mut Vec::new(), &mut found);
        for (path, steps, kind) in found {
            let mutations = match kind {
                Kind::Leaf => LEAF_MUTATIONS,
                Kind::Table => &["delete"][..],
                Kind::List => &["delete", "clear"][..],
            };
            for mutation in mutations {
                if let Some(v) = mutate(&root, &steps, mutation) {
                    records.push(format!("{name}:{path} | {mutation} | {}", outcome(&v)));
                }
            }
        }
    }
    records
}

#[test]
fn schema_behaviour_matches_the_pinned_digest() {
    let records = records();
    let digest = exegpt_dist::fnv1a(&records.join("\n"));
    assert_eq!(
        format!("{digest:016x}"),
        format!("{PINNED:016x}"),
        "the schema's decode/validate behaviour changed ({} records)",
        records.len()
    );
}
