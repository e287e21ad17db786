//! The declarative scenario schema.
//!
//! A [`Scenario`] is a complete, self-contained description of a run:
//! model, cluster (or per-pool clusters for a fleet), workload
//! distributions, scheduler constraints, arrival process, SLO targets,
//! fault schedule, and the seed. Every type below the root is one field
//! table (see the crate-private `table` module), which generates the
//! type, its path-tracked decode from the parsed TOML (every error names
//! the offending key) and its field checks. Checks that span fields — the
//! fleet's cross-references, fault-window walks, per-mode rate
//! restrictions — are the tables' hand-written `check` hooks.
//! [`Scenario::validate`] runs all of them before lowering.

use exegpt::Policy;
use exegpt_cluster::ClusterSpec;
use exegpt_fleet::DispatchPolicy;
use exegpt_model::ModelConfig;
use exegpt_workload::Task;
use serde::Value;

use crate::decode::{join, join_index, parse_err, validate_err, Obj};
use crate::error::ScenarioError;
use crate::table::{
    at_least_1, declares, finite, known, non_empty, non_neg, one_of, pos, pos_or_inf,
    request_count, table, tagged, within, Body, Check, Node,
};

/// A closed name set: each name a scenario file may spell, paired with
/// what lowering turns it into. Validation messages list the names in
/// this order.
pub type Names<T> = &'static [(&'static str, T)];

/// Known model presets, in `ModelConfig` constructor order.
pub const MODEL_PRESETS: Names<fn() -> ModelConfig> = &[
    ("t5-11b", ModelConfig::t5_11b),
    ("ul2-20b", ModelConfig::ul2_20b),
    ("opt-13b", ModelConfig::opt_13b),
    ("gpt3-39b", ModelConfig::gpt3_39b),
    ("gpt3-101b", ModelConfig::gpt3_101b),
    ("gpt3-175b", ModelConfig::gpt3_175b),
    ("gpt3-341b", ModelConfig::gpt3_341b),
];

/// Known cluster presets.
pub const CLUSTER_PRESETS: Names<fn() -> ClusterSpec> =
    &[("a40", ClusterSpec::a40_cluster), ("a100", ClusterSpec::a100_cluster)];

/// Known workload tasks (Table 3 of the paper).
pub const TASKS: Names<Task> = &[
    ("summarization", Task::Summarization),
    ("translation", Task::Translation),
    ("code_generation", Task::CodeGeneration),
    ("conversational_qa1", Task::ConversationalQa1),
    ("conversational_qa2", Task::ConversationalQa2),
];

/// Known scheduler policies.
pub const POLICIES: Names<Policy> =
    &[("rra", Policy::Rra), ("waa_compute", Policy::WaaCompute), ("waa_memory", Policy::WaaMemory)];

/// Known fleet dispatch policies.
pub const DISPATCH_POLICIES: Names<DispatchPolicy> = &[
    ("round_robin", DispatchPolicy::RoundRobin),
    ("least_outstanding", DispatchPolicy::LeastOutstanding),
    ("kv_headroom", DispatchPolicy::KvHeadroom),
    ("slo_aware", DispatchPolicy::SloAware),
];

// --- scenario root -------------------------------------------------------

/// A complete declarative run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports, logs).
    pub name: String,
    /// Seed for every stochastic choice in the run.
    pub seed: u64,
    /// The model.
    pub model: ModelSpec,
    /// The cluster (required for serve/replay; fleets declare per-pool
    /// clusters instead).
    pub cluster: Option<ClusterConfig>,
    /// Input/output length distributions.
    pub workload: WorkloadConfig,
    /// Scheduler constraints and tolerances.
    pub scheduler: SchedulerConfig,
    /// What to run: exactly one of serve, fleet, or replay.
    pub mode: Mode,
}

/// The execution mode, written as exactly one top-level `[serve]`,
/// `[fleet]` or `[replay]` section.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// A single-replica online serving run.
    Serve(ServeConfig),
    /// A multi-replica fleet run.
    Fleet(FleetConfig),
    /// An offline replay through the runner.
    Replay(ReplayConfig),
}

impl Scenario {
    /// Decodes a scenario from a parsed value tree.
    ///
    /// # Errors
    ///
    /// Returns a parse error naming the offending key path.
    pub fn decode(v: &Value) -> Result<Self, ScenarioError> {
        let mut o = Obj::new(v, "")?;
        let name = o.field("name")?;
        let seed = o.get("seed", |_| Ok(0))?;
        let model = o.field("model")?;
        let cluster = o.field("cluster")?;
        let workload = o.field("workload")?;
        let scheduler = o.field("scheduler")?;
        let serve = o.field("serve")?;
        let fleet = o.field("fleet")?;
        let replay = o.field("replay")?;
        o.finish()?;
        let mode = match (serve, fleet, replay) {
            (Some(c), None, None) => Mode::Serve(c),
            (None, Some(c), None) => Mode::Fleet(c),
            (None, None, Some(c)) => Mode::Replay(c),
            (None, None, None) => {
                return Err(parse_err("", "one of [serve], [fleet] or [replay] is required"))
            }
            _ => return Err(parse_err("", "[serve], [fleet] and [replay] are mutually exclusive")),
        };
        Ok(Scenario { name, seed, model, cluster, workload, scheduler, mode })
    }

    /// Checks every semantic rule the schema cannot express.
    ///
    /// # Errors
    ///
    /// Returns a validation error naming the offending key path.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        non_empty(&self.name, "name")?;
        self.model.validate("model")?;
        self.cluster.validate("cluster")?;
        self.workload.validate("workload")?;
        self.scheduler.validate("scheduler")?;
        match (&self.mode, &self.cluster) {
            (Mode::Serve(_), None) => Err(validate_err("cluster", "serve mode requires a cluster")),
            (Mode::Replay(_), None) => {
                Err(validate_err("cluster", "replay mode requires a cluster"))
            }
            (Mode::Fleet(_), Some(_)) => Err(validate_err(
                "cluster",
                "fleet mode declares clusters per pool; remove the top-level cluster",
            )),
            (Mode::Serve(c), _) => c.validate("serve"),
            (Mode::Fleet(c), _) => c.validate("fleet"),
            (Mode::Replay(c), _) => c.validate("replay"),
        }
    }
}

// --- model / cluster -----------------------------------------------------

table! {
    /// The model to deploy.
    pub struct ModelSpec {
        /// One of [`MODEL_PRESETS`].
        preset: String => known("model preset", MODEL_PRESETS),
    }
}

table! {
    /// A GPU pool: a preset cluster, optionally narrowed to its first `gpus`
    /// devices.
    pub struct ClusterConfig {
        /// One of [`CLUSTER_PRESETS`] (`a40` = 6×8 A40, `a100` = 2×8 A100).
        preset: String => known("cluster preset", CLUSTER_PRESETS),
        /// Take the first `gpus` devices (omit for the full cluster).
        gpus: Option<usize> => |n: &usize, path: &str| match n {
            0 => Err(validate_err(path, "empty GPU pool: need at least 1")),
            _ => Ok(()),
        },
    }
}

// --- workload ------------------------------------------------------------

tagged! {
    /// Input/output length distributions: a named paper task (optionally
    /// rescaled) or fully custom distributions.
    pub enum WorkloadConfig {
        /// A Table 3 task, with optional output-mean/std rescaling (drift
        /// studies).
        Task = "task" {
            /// One of [`TASKS`].
            task: String => known("task", TASKS),
            /// Scale the output mean by this factor.
            scale_mean: Option<f64> => pos("scale factor"),
            /// Scale the output std by this factor.
            scale_std: Option<f64> => pos("scale factor"),
        },
        /// Explicit distributions for both sides.
        Custom = "custom" {
            /// Input (prompt) length distribution.
            input: LengthDistConfig,
            /// Output (generation) length distribution.
            output: LengthDistConfig,
        },
    }
}

tagged! {
    /// A token-length distribution, mirroring `exegpt_dist::LengthDist`
    /// constructors.
    pub enum LengthDistConfig {
        /// Normal truncated to `[1, max_len]`.
        TruncatedNormal = "truncated_normal" {
            /// Mean length (tokens).
            mean: f64 => pos("mean length"),
            /// Standard deviation (tokens).
            std: f64 => pos("standard deviation"),
            /// Hard length cap.
            max_len: usize => at_least_1,
        },
        /// Skew-normal truncated to `[1, max_len]`.
        SkewNormal = "skew_normal" {
            /// Location-scale mean (tokens).
            mean: f64 => pos("mean length"),
            /// Scale (tokens).
            std: f64 => pos("standard deviation"),
            /// Skewness parameter.
            skewness: f64 => finite("skewness"),
            /// Hard length cap.
            max_len: usize => at_least_1,
        },
        /// Log-normal truncated to `[1, max_len]`.
        LogNormal = "log_normal" {
            /// Mean length (tokens).
            mean: f64 => pos("mean length"),
            /// Standard deviation (tokens).
            std: f64 => pos("standard deviation"),
            /// Hard length cap.
            max_len: usize => at_least_1,
        },
        /// Every request has exactly `len` tokens.
        PointMass = "point_mass" {
            /// The fixed length.
            len: usize => at_least_1,
            /// Hard length cap (support upper bound).
            max_len: usize => at_least_1,
        },
    }
    check = |d: &LengthDistConfig, path: &str| match d {
        LengthDistConfig::PointMass { len, max_len } if len > max_len => Err(validate_err(
            &join(path, "len"),
            format!("exceeds max_len ({len} > {max_len})"),
        )),
        _ => Ok(()),
    };
}

// --- scheduler -----------------------------------------------------------

table! {
    /// Scheduler constraints and search tolerances.
    pub struct SchedulerConfig {
        /// Latency bound in seconds (`inf` = unconstrained).
        latency_bound_secs: f64 => pos_or_inf,
        /// Latency tolerance ε_L as a fraction of the bound (default 0.05).
        eps_latency_frac: Option<f64> => tolerance(),
        /// Throughput tolerance ε_T (default 0.02).
        eps_throughput_frac: Option<f64> => tolerance(),
        /// Policies to search, a subset of [`POLICIES`] (default all).
        policies: Option<Vec<String>> => policy_list,
    }
}

fn tolerance() -> impl Fn(&f64, &str) -> Check {
    within("tolerance", "in [0, 1)", |x| (0.0..1.0).contains(&x))
}

/// A non-empty list of known policies, none named twice.
fn policy_list(policies: &[String], path: &str) -> Check {
    if policies.is_empty() {
        return Err(validate_err(path, "must name at least one policy"));
    }
    for (i, name) in policies.iter().enumerate() {
        let p = join_index(path, i);
        known("policy", POLICIES)(name, &p)?;
        if policies[..i].contains(name) {
            return Err(validate_err(&p, format!("policy `{name}` listed twice")));
        }
    }
    Ok(())
}

// --- shared specs --------------------------------------------------------

tagged! {
    /// An offered-load specification. Which kinds a mode accepts is checked
    /// with the mode's arrivals.
    pub enum RateSpec {
        /// An absolute rate in queries per second.
        Qps = "qps" {
            /// Queries per second.
            qps: f64 => pos("arrival rate"),
        },
        /// A fraction of the scheduled plan's estimated throughput (serve
        /// mode). `of = "shifted"` evaluates the plan under the post-shift
        /// workload (only meaningful with `poisson_with_shift` arrivals).
        CapacityFrac = "capacity_frac" {
            /// Fraction of the plan's capacity (0, 1].
            frac: f64 => pos("capacity fraction"),
            /// `base` or `shifted`.
            of: String = "base" => one_of(&["base", "shifted"]),
        },
        /// A fraction of a pool's plan throughput (fleet mode). `pool` is
        /// `fastest`, `slowest`, or a pool name.
        PoolCapacityFrac = "pool_capacity_frac" {
            /// Fraction of the pool's capacity.
            frac: f64 => pos("capacity fraction"),
            /// `fastest`, `slowest`, or a declared pool name.
            pool: String,
        },
    }
}

/// A point on the run's virtual clock: absolute seconds, or a fraction of
/// the trace horizon (last arrival time; fractions above 1 land in the
/// backlog drain after the last arrival). Written flat, as exactly one of
/// `t_secs` or `t_frac` in the event's own table.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeSpec {
    /// Absolute virtual seconds.
    Secs(f64),
    /// Fraction of the trace horizon (≥ 0).
    HorizonFrac(f64),
}

impl Body for TimeSpec {
    const FLAT: bool = true;

    fn read(o: &mut Obj<'_>) -> Result<Self, ScenarioError> {
        match (o.field("t_secs")?, o.field("t_frac")?) {
            (Some(s), None) => Ok(TimeSpec::Secs(s)),
            (None, Some(f)) => Ok(TimeSpec::HorizonFrac(f)),
            (None, None) => Err(parse_err(o.path(), "one of `t_secs` or `t_frac` is required")),
            (Some(_), Some(_)) => {
                Err(parse_err(o.path(), "`t_secs` and `t_frac` are mutually exclusive"))
            }
        }
    }

    fn check(&self, path: &str) -> Check {
        match self {
            TimeSpec::Secs(s) => non_neg("time")(s, &join(path, "t_secs")),
            TimeSpec::HorizonFrac(f) => non_neg("horizon fraction")(f, &join(path, "t_frac")),
        }
    }
}

crate::table::body_node!(TimeSpec);

// --- serve mode ----------------------------------------------------------

table! {
    /// A single-replica online serving run.
    pub struct ServeConfig {
        /// Requests in the arrival stream.
        total: usize => request_count,
        /// Live drift-triggered rescheduling on (`false` = static plan).
        adaptive: bool = true,
        /// §5.2 dynamic-adjustment threshold (default 0.15).
        adjust_threshold: Option<f64> => pos("threshold"),
        /// The arrival process.
        arrivals: ArrivalsConfig,
        /// Per-request latency targets.
        slo: SloConfig,
        /// Drift-detector tuning (defaults when omitted).
        drift: Option<DriftConfig>,
        /// Fault injection (off when omitted).
        faults: Option<FaultsConfig>,
    }
}

tagged! {
    /// The serve-mode arrival process. Its rates are `qps` or
    /// `capacity_frac`; `of = "shifted"` needs `poisson_with_shift`.
    pub enum ArrivalsConfig {
        /// Stationary Poisson arrivals.
        Poisson = "poisson" {
            /// Offered load.
            rate: RateSpec,
        },
        /// Two-phase Markov-modulated Poisson arrivals.
        Bursty = "bursty" {
            /// Offered load in the burst phase.
            rate_burst: RateSpec,
            /// Offered load in the lull phase.
            rate_lull: RateSpec,
            /// Mean burst dwell (virtual seconds).
            dwell_burst_secs: f64 => pos("dwell"),
            /// Mean lull dwell (virtual seconds).
            dwell_lull_secs: f64 => pos("dwell"),
        },
        /// Poisson arrivals whose output distribution shifts mid-stream (the
        /// Figure 11 drift scenario).
        PoissonWithShift = "poisson_with_shift" {
            /// Offered load (held across the shift).
            rate: RateSpec,
            /// Fraction of the stream served before the shift.
            shift_after_frac: f64 => within("shift point", "in [0, 1]", |x| (0.0..=1.0).contains(&x)),
            /// Output-mean scale factor after the shift.
            scale_mean: f64 => pos("scale factor"),
            /// Output-std scale factor after the shift.
            scale_std: Option<f64> => pos("scale factor"),
        },
    }
    check = serve_rates;
}

fn serve_rates(a: &ArrivalsConfig, path: &str) -> Check {
    let (rates, shifts) = match a {
        ArrivalsConfig::Poisson { rate } => (vec![("rate", rate)], false),
        ArrivalsConfig::Bursty { rate_burst, rate_lull, .. } => {
            (vec![("rate_burst", rate_burst), ("rate_lull", rate_lull)], false)
        }
        ArrivalsConfig::PoissonWithShift { rate, .. } => (vec![("rate", rate)], true),
    };
    for (key, rate) in rates {
        let p = join(path, key);
        match rate {
            RateSpec::PoolCapacityFrac { .. } => {
                return Err(validate_err(
                    &join(&p, "kind"),
                    "pool_capacity_frac rates are fleet-only; use qps or capacity_frac",
                ))
            }
            RateSpec::CapacityFrac { of, .. } if of == "shifted" && !shifts => {
                return Err(validate_err(
                    &join(&p, "of"),
                    "`shifted` needs poisson_with_shift arrivals (nothing shifts here)",
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

table! {
    /// Per-request latency targets (omitted = unconstrained).
    pub struct SloConfig {
        /// Max time to first token (seconds).
        ttft_secs: Option<f64> => pos("SLO target"),
        /// Max per-generated-token latency (seconds).
        per_token_secs: Option<f64> => pos("SLO target"),
        /// Max end-to-end latency (seconds).
        e2e_secs: Option<f64> => pos("SLO target"),
    }
}

table! {
    /// Drift-detector tuning (mirrors `exegpt_serve::DriftOptions`).
    pub struct DriftConfig {
        /// Sliding-window capacity in completed requests.
        window: usize => at_least_1,
        /// Minimum window occupancy before checks fire.
        min_samples: usize => at_least_1,
        /// Completions between checks.
        check_every: usize => at_least_1,
        /// Relative mean shift that counts as a hit.
        rel_threshold: f64 => pos("threshold"),
        /// Consecutive hits to declare drift.
        consecutive: usize => at_least_1,
    }
    check = |d: &DriftConfig, path: &str| if d.min_samples > d.window {
        Err(validate_err(
            &join(path, "min_samples"),
            format!("exceeds window ({} > {})", d.min_samples, d.window),
        ))
    } else {
        Ok(())
    };
}

table! {
    /// Fault injection: tuning plus a schedule of device events.
    pub struct FaultsConfig {
        /// Heartbeat timeout before a failure is detected (default 0.5).
        detection_delay_secs: Option<f64> => non_neg("delay"),
        /// Straggler slowdown at or above which eviction beats tolerance
        /// (default 2.0).
        evict_slowdown: Option<f64> => within("slowdown", "> 1", |x| x > 1.0),
        /// Retry budget per request (default 5).
        max_retries: Option<usize>,
        /// Exponential retry backoff base (default 0.25).
        backoff_base_secs: Option<f64> => non_neg("backoff"),
        /// Observed/expected ratio counting as a straggler hit (default 1.25).
        straggler_rel_threshold: Option<f64> => within("threshold", "> 1", |x| x > 1.0),
        /// Consecutive hits to confirm a straggler (default 3).
        straggler_consecutive: Option<usize> => at_least_1,
        /// The device events, in activation-time order.
        events: Vec<FaultEventConfig>,
    }
    check = |f: &FaultsConfig, path: &str| walk_windows(
        &join(path, "events"),
        f.events.iter().map(|e| {
            let op = match e.kind {
                FaultKindConfig::GpuFail { gpu } | FaultKindConfig::GpuSlowdown { gpu, .. } => {
                    Some((gpu, true))
                }
                FaultKindConfig::GpuRecover { gpu } => Some((gpu, false)),
                FaultKindConfig::LinkDegrade { .. } => None,
            };
            (&e.at, op)
        }),
        |gpu| {
            format!(
                "overlapping fault windows on gpu {gpu}: \
                 previous fault has no gpu_recover before this one"
            )
        },
        |gpu| format!("gpu_recover for gpu {gpu} with no open fault window"),
    );
}

/// The fault-window walk shared by serve events (keyed by GPU index) and
/// fleet faults (keyed by replica name). Events must be listed in time
/// order, since that is the order they run in; a window opens only on a key
/// with none open, and a close needs an open window. `events` yields each
/// event's time and what it does: `Some((key, true))` opens a window on
/// `key`, `Some((key, false))` closes it, `None` touches no window.
fn walk_windows<'a, K: PartialEq + Copy>(
    path: &str,
    events: impl Iterator<Item = (&'a TimeSpec, Option<(K, bool)>)>,
    overlap: impl Fn(K) -> String,
    orphan: impl Fn(K) -> String,
) -> Check {
    let mut open: Vec<K> = Vec::new();
    let mut last: Option<&TimeSpec> = None;
    for (i, (at, op)) in events.enumerate() {
        let p = join_index(path, i);
        let out_of_order = match (last, at) {
            (Some(TimeSpec::Secs(a)), TimeSpec::Secs(b))
            | (Some(TimeSpec::HorizonFrac(a)), TimeSpec::HorizonFrac(b)) => b < a,
            _ => false,
        };
        if out_of_order {
            return Err(validate_err(&p, "events must be listed in time order"));
        }
        last = Some(at);
        match op {
            Some((key, true)) if open.contains(&key) => return Err(validate_err(&p, overlap(key))),
            Some((key, true)) => open.push(key),
            Some((key, false)) => match open.iter().position(|k| *k == key) {
                Some(at) => {
                    open.remove(at);
                }
                None => return Err(validate_err(&p, orphan(key))),
            },
            None => {}
        }
    }
    Ok(())
}

table! {
    /// One scheduled device event.
    pub struct FaultEventConfig {
        /// When the fault activates.
        at: TimeSpec,
        /// What happens.
        kind: FaultKindConfig,
    }
}

tagged! {
    /// The device-event alternatives (mirrors `exegpt_serve::FaultKind`),
    /// written flat in the event's own table.
    pub enum FaultKindConfig {
        /// The device dies until recovered.
        GpuFail = "gpu_fail" {
            /// Dense device index.
            gpu: usize,
        },
        /// The device runs `factor`× slower.
        GpuSlowdown = "gpu_slowdown" {
            /// Dense device index.
            gpu: usize,
            /// Slowdown factor (≥ 1).
            factor: f64 => within("slowdown factor", ">= 1", |x| x >= 1.0),
        },
        /// Cluster-wide link degradation.
        LinkDegrade = "link_degrade" {
            /// Bandwidth scale in (0, 1].
            bw_factor: f64 => within("bandwidth factor", "in (0, 1]", |x| x > 0.0 && x <= 1.0),
            /// Added per-transfer latency (seconds, ≥ 0).
            latency_add_secs: f64 => non_neg("added latency"),
        },
        /// The device heals.
        GpuRecover = "gpu_recover" {
            /// Dense device index.
            gpu: usize,
        },
    }
    flat = true;
}

// --- fleet mode ----------------------------------------------------------

table! {
    /// A multi-replica fleet run behind a global router.
    pub struct FleetConfig {
        /// Requests in the multi-tenant trace.
        total: usize => request_count,
        /// One of [`DISPATCH_POLICIES`].
        policy: String => known("policy", DISPATCH_POLICIES),
        /// GPU pools replicas deploy onto.
        pools: Vec<PoolConfig> => declares("pool"),
        /// The replicas.
        replicas: Vec<ReplicaConfig> => declares("replica"),
        /// SLO classes (tenants reference them by name).
        classes: Vec<ClassConfig> => declares("class"),
        /// The tenants.
        tenants: Vec<TenantConfig> => declares("tenant"),
        /// Fleet-level replica faults, in time order.
        faults: Vec<FleetFaultConfig> = Vec::new(),
        /// Scripted autoscaling actions.
        scale: Vec<ScaleConfig> = Vec::new(),
    }
    check = fleet_references;
}

/// Whether item `i` is the `same` as an earlier one.
fn repeats<T>(items: &[T], i: usize, same: impl Fn(&T, &T) -> bool) -> bool {
    items[..i].iter().any(|other| same(other, &items[i]))
}

/// A name that must be one of `names`.
fn resolves<'a>(
    name: &str,
    mut names: impl Iterator<Item = &'a str>,
    path: &str,
    what: &str,
) -> Check {
    if names.any(|n| n == name) {
        Ok(())
    } else {
        Err(validate_err(path, format!("unknown {what} `{name}`")))
    }
}

/// The fleet's cross-references and fault windows: unique names, every
/// replica on a declared pool, every tenant in a declared class and every
/// pool rate on a declared pool, every fault and scale action on a
/// declared replica.
fn fleet_references(f: &FleetConfig, path: &str) -> Check {
    let at = |list: &str, i: usize, key: &str| join(&join_index(&join(path, list), i), key);
    let twice = |p: String, what: String| Err(validate_err(&p, format!("{what} declared twice")));
    let pools = || f.pools.iter().map(|p| p.name.as_str());
    let replicas = || f.replicas.iter().map(|r| r.name.as_str());
    for (i, p) in f.pools.iter().enumerate() {
        if repeats(&f.pools, i, |a, b| a.name == b.name) {
            return twice(at("pools", i, "name"), format!("pool `{}`", p.name));
        }
    }
    for (i, r) in f.replicas.iter().enumerate() {
        if repeats(&f.replicas, i, |a, b| a.name == b.name) {
            return twice(at("replicas", i, "name"), format!("replica `{}`", r.name));
        }
        resolves(&r.pool, pools(), &at("replicas", i, "pool"), "pool")?;
    }
    if f.replicas.iter().all(|r| r.standby) {
        return Err(validate_err(&join(path, "replicas"), "every replica is standby"));
    }
    for (i, c) in f.classes.iter().enumerate() {
        if repeats(&f.classes, i, |a, b| a.name == b.name) {
            return twice(at("classes", i, "name"), format!("class `{}`", c.name));
        }
    }
    for (i, t) in f.tenants.iter().enumerate() {
        for (key, rate) in t.arrivals.rates() {
            if let RateSpec::PoolCapacityFrac { pool, .. } = rate {
                if pool != "fastest" && pool != "slowest" && !pools().any(|p| p == pool) {
                    return Err(validate_err(
                        &join(&join(&at("tenants", i, "arrivals"), key), "pool"),
                        format!("unknown pool `{pool}` (and not `fastest`/`slowest`)"),
                    ));
                }
            }
        }
        if repeats(&f.tenants, i, |a, b| a.tenant == b.tenant) {
            return twice(at("tenants", i, "tenant"), format!("tenant id {}", t.tenant));
        }
        let classes = f.classes.iter().map(|c| c.name.as_str());
        resolves(&t.class, classes, &at("tenants", i, "class"), "class")?;
    }
    for (i, fault) in f.faults.iter().enumerate() {
        resolves(&fault.replica, replicas(), &at("faults", i, "replica"), "replica")?;
    }
    walk_windows(
        &join(path, "faults"),
        f.faults.iter().map(|x| (&x.at, Some((x.replica.as_str(), x.action == "fail")))),
        |r| {
            format!(
                "overlapping fault windows on replica `{r}`: \
                 previous fail has no recover before this one"
            )
        },
        |r| format!("recover for replica `{r}` with no open fault window"),
    )?;
    for (i, s) in f.scale.iter().enumerate() {
        resolves(&s.replica, replicas(), &at("scale", i, "replica"), "replica")?;
    }
    Ok(())
}

table! {
    /// A GPU pool a fleet deploys replicas onto.
    pub struct PoolConfig {
        /// Pool name (replicas reference it).
        name: String => non_empty,
        /// The pool's cluster.
        cluster: ClusterConfig,
        /// Latency bound for this pool's schedule (default: the scenario's
        /// scheduler bound).
        latency_bound_secs: Option<f64> => pos_or_inf,
    }
}

table! {
    /// One fleet replica.
    pub struct ReplicaConfig {
        /// Replica name (faults and scale events reference it).
        name: String => non_empty,
        /// The pool it deploys onto.
        pool: String,
        /// Start as a standby (not routable until scaled up).
        standby: bool = false,
    }
}

table! {
    /// An SLO class.
    pub struct ClassConfig {
        /// Class name (tenants reference it).
        name: String => non_empty,
        /// Weight in the fleet's weighted violation rate.
        weight: f64 => non_neg("weight"),
        /// End-to-end target (omit for best-effort).
        e2e: Option<E2eSpec>,
    }
}

tagged! {
    /// An end-to-end SLO target: a concrete bound, or the midpoint of the
    /// fleet's plan latencies (the bound that separates fast pools from slow
    /// ones, whatever the profile says).
    pub enum E2eSpec {
        /// A concrete bound in seconds.
        Secs = "secs" {
            /// The bound.
            secs: f64 => pos("SLO target"),
        },
        /// Halfway between the fastest and slowest pool's plan latency.
        PlanLatencyMidpoint = "plan_latency_midpoint",
    }
}

table! {
    /// One tenant's traffic.
    pub struct TenantConfig {
        /// Tenant id (unique).
        tenant: u32,
        /// SLO class, by name.
        class: String,
        /// The tenant's arrival process.
        arrivals: TenantArrivals,
    }
}

tagged! {
    /// A tenant's arrival process (fleet traces have no mid-stream shift).
    /// Its rates are `qps` or `pool_capacity_frac`.
    pub enum TenantArrivals {
        /// Stationary Poisson arrivals.
        Poisson = "poisson" {
            /// Offered load.
            rate: RateSpec,
        },
        /// Two-phase bursty arrivals.
        Bursty = "bursty" {
            /// Offered load in the burst phase.
            rate_burst: RateSpec,
            /// Offered load in the lull phase.
            rate_lull: RateSpec,
            /// Mean burst dwell (virtual seconds).
            dwell_burst_secs: f64 => pos("dwell"),
            /// Mean lull dwell (virtual seconds).
            dwell_lull_secs: f64 => pos("dwell"),
        },
    }
    check = |a: &TenantArrivals, path: &str| {
        match a.rates().into_iter().find(|(_, r)| matches!(r, RateSpec::CapacityFrac { .. })) {
            Some((key, _)) => Err(validate_err(
                &join(&join(path, key), "kind"),
                "capacity_frac rates are serve-only; use qps or pool_capacity_frac",
            )),
            None => Ok(()),
        }
    };
}

impl TenantArrivals {
    /// Each rate with its key.
    fn rates(&self) -> Vec<(&'static str, &RateSpec)> {
        match self {
            TenantArrivals::Poisson { rate } => vec![("rate", rate)],
            TenantArrivals::Bursty { rate_burst, rate_lull, .. } => {
                vec![("rate_burst", rate_burst), ("rate_lull", rate_lull)]
            }
        }
    }
}

table! {
    /// A fleet-level replica fault: the whole replica is lost (or redeployed).
    pub struct FleetFaultConfig {
        /// When it happens.
        at: TimeSpec,
        /// `fail` or `recover`.
        action: String => one_of(&["fail", "recover"]),
        /// The replica, by name.
        replica: String,
    }
}

table! {
    /// A scripted autoscaling action.
    pub struct ScaleConfig {
        /// When it happens.
        at: TimeSpec,
        /// `up` or `down`.
        action: String => one_of(&["up", "down"]),
        /// The replica, by name.
        replica: String,
    }
}

// --- replay mode ---------------------------------------------------------

table! {
    /// An offline replay through the runner: schedule once, then play
    /// `num_queries` sampled requests (optionally drifted) against the plan.
    pub struct ReplayConfig {
        /// Queries to replay.
        num_queries: usize => request_count,
        /// Scale the replayed traffic's output mean (drift studies).
        scale_mean: Option<f64> => pos("scale factor"),
        /// Scale the replayed traffic's output std.
        scale_std: Option<f64> => pos("scale factor"),
    }
}
