//! Lowering: a validated [`Scenario`] becomes real engine-stack objects —
//! engines, schedules, arrival traces, fault schedules, serve/fleet
//! options — and [`run`] executes them deterministically.
//!
//! Lowering is the only construction of a serve, fault or fleet run in the
//! repo. Its float expressions, seeds and call order are pinned: the
//! golden tests rebuild two shipped files by hand from the engine-stack
//! APIs and require byte-identical event logs, and `scenarios/GOLDENS.toml`
//! locks every shipped file's digest. Profiles are shared through a
//! process-wide cache keyed on (model, cluster).

use std::sync::Arc;

use exegpt::{Engine, Schedule, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_fleet::{
    Fleet, FleetOptions, FleetReport, ReplicaSpec, ScaleAction, ScaleEvent, SloClass,
};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileCache};
use exegpt_runner::{RunOptions, RunReport, Runner};
use exegpt_serve::{
    poisson_with_shift, DriftOptions, FaultEvent, FaultKind, FaultOptions, FaultSchedule,
    ServeLoop, ServeOptions, ServeReport, SloTargets, StragglerOptions,
};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::{
    multi_tenant_trace, ArrivalProcess, BurstyStream, PoissonStream, TenantRequest, TenantSpec,
    TimedRequest,
};

use crate::digest::{fnv1a, format_digest};
use crate::error::ScenarioError;
use crate::schema::{
    ArrivalsConfig, ClusterConfig, E2eSpec, FaultKindConfig, FaultsConfig, FleetConfig,
    LengthDistConfig, Mode, Names, RateSpec, ReplayConfig, Scenario, SchedulerConfig, ServeConfig,
    SloConfig, TenantArrivals, TimeSpec, WorkloadConfig, CLUSTER_PRESETS, DISPATCH_POLICIES,
    MODEL_PRESETS, POLICIES, TASKS,
};

fn lower_err(what: &'static str, why: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Lower { what, why: why.to_string() }
}

fn run_err(what: &'static str, why: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Run { what, why: why.to_string() }
}

// --- leaf lowerings ------------------------------------------------------

/// What `name` stands for in `names`. Validation rejects unknown names,
/// so the error only reaches callers that lower an unvalidated name.
fn named<T: Copy>(names: Names<T>, what: &'static str, name: &str) -> Result<T, ScenarioError> {
    let found = names.iter().find(|(n, _)| *n == name);
    found.map(|&(_, v)| v).ok_or_else(|| lower_err(what, format!("unknown name `{name}`")))
}

/// The model preset as a real config.
fn lower_model(preset: &str) -> Result<ModelConfig, ScenarioError> {
    Ok(named(MODEL_PRESETS, "model", preset)?())
}

/// The cluster config as a real (sub-)cluster.
fn lower_cluster(cfg: &ClusterConfig) -> Result<ClusterSpec, ScenarioError> {
    let base = named(CLUSTER_PRESETS, "cluster", &cfg.preset)?();
    match cfg.gpus {
        Some(gpus) => base.subcluster(gpus).map_err(|e| lower_err("cluster", e)),
        None => Ok(base),
    }
}

fn lower_dist(cfg: &LengthDistConfig) -> Result<LengthDist, ScenarioError> {
    let dist = match cfg {
        LengthDistConfig::TruncatedNormal { mean, std, max_len } => {
            LengthDist::truncated_normal(*mean, *std, *max_len)
        }
        LengthDistConfig::SkewNormal { mean, std, skewness, max_len } => {
            LengthDist::skew_normal(*mean, *std, *skewness, *max_len)
        }
        LengthDistConfig::LogNormal { mean, std, max_len } => {
            LengthDist::log_normal(*mean, *std, *max_len)
        }
        LengthDistConfig::PointMass { len, max_len } => LengthDist::point_mass(*len, *max_len),
    };
    dist.map_err(|e| lower_err("workload", e))
}

/// Scales a workload's output distribution like the drift studies do.
fn scale_output(
    w: &Workload,
    scale_mean: Option<f64>,
    scale_std: Option<f64>,
) -> Result<Workload, ScenarioError> {
    let mut output = w.output().clone();
    if let Some(k) = scale_mean {
        output = output.with_scaled_mean(k).map_err(|e| lower_err("workload", e))?;
    }
    if let Some(k) = scale_std {
        output = output.with_scaled_std(k).map_err(|e| lower_err("workload", e))?;
    }
    Ok(Workload::new(w.input().clone(), output))
}

/// The workload config as real distributions.
pub fn lower_workload(cfg: &WorkloadConfig) -> Result<Workload, ScenarioError> {
    match cfg {
        WorkloadConfig::Task { task, scale_mean, scale_std } => {
            let base =
                named(TASKS, "workload", task)?.workload().map_err(|e| lower_err("workload", e))?;
            scale_output(&base, *scale_mean, *scale_std)
        }
        WorkloadConfig::Custom { input, output } => {
            Ok(Workload::new(lower_dist(input)?, lower_dist(output)?))
        }
    }
}

/// The scheduler section as real options, anchored at `bound`.
fn lower_scheduler(cfg: &SchedulerConfig, bound: Secs) -> Result<SchedulerOptions, ScenarioError> {
    let mut opts = SchedulerOptions::bounded(bound);
    if let Some(x) = cfg.eps_latency_frac {
        opts.eps_latency_frac = x;
    }
    if let Some(x) = cfg.eps_throughput_frac {
        opts.eps_throughput_frac = x;
    }
    if let Some(policies) = &cfg.policies {
        opts.policies =
            policies.iter().map(|p| named(POLICIES, "scheduler", p)).collect::<Result<_, _>>()?;
    }
    Ok(opts)
}

fn lower_slo(cfg: &SloConfig) -> SloTargets {
    SloTargets {
        ttft: cfg.ttft_secs.map(Secs::new),
        per_token: cfg.per_token_secs.map(Secs::new),
        e2e: cfg.e2e_secs.map(Secs::new),
    }
}

fn resolve_time(at: &TimeSpec, horizon: f64) -> f64 {
    match at {
        TimeSpec::Secs(s) => *s,
        TimeSpec::HorizonFrac(f) => *f * horizon,
    }
}

fn lower_serve_faults(cfg: &FaultsConfig, horizon: f64) -> Result<FaultOptions, ScenarioError> {
    let defaults = FaultOptions::default();
    let events = cfg
        .events
        .iter()
        .map(|e| {
            let kind = match &e.kind {
                FaultKindConfig::GpuFail { gpu } => FaultKind::GpuFail { gpu: *gpu },
                FaultKindConfig::GpuSlowdown { gpu, factor } => {
                    FaultKind::GpuSlowdown { gpu: *gpu, factor: *factor }
                }
                FaultKindConfig::LinkDegrade { bw_factor, latency_add_secs } => {
                    FaultKind::LinkDegrade { bw_factor: *bw_factor, latency_add: *latency_add_secs }
                }
                FaultKindConfig::GpuRecover { gpu } => FaultKind::GpuRecover { gpu: *gpu },
            };
            FaultEvent { t: resolve_time(&e.at, horizon), kind }
        })
        .collect();
    Ok(FaultOptions {
        schedule: FaultSchedule::new(events).map_err(|e| lower_err("faults", e))?,
        detection_delay: cfg.detection_delay_secs.unwrap_or(defaults.detection_delay),
        evict_slowdown: cfg.evict_slowdown.unwrap_or(defaults.evict_slowdown),
        straggler: StragglerOptions {
            rel_threshold: cfg.straggler_rel_threshold.unwrap_or(defaults.straggler.rel_threshold),
            consecutive: cfg.straggler_consecutive.unwrap_or(defaults.straggler.consecutive),
        },
        max_retries: cfg.max_retries.unwrap_or(defaults.max_retries),
        backoff_base: cfg.backoff_base_secs.unwrap_or(defaults.backoff_base),
    })
}

// --- engines -------------------------------------------------------------

/// Builds an engine through the shared profile cache.
fn build_engine(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    workload: Workload,
) -> Result<Engine, ScenarioError> {
    let profile: Arc<LayerProfile> = ProfileCache::global()
        .get_or_profile(model, cluster)
        .map_err(|e| lower_err("profile", e))?;
    Engine::builder()
        .model(model.clone())
        .cluster(cluster.clone())
        .workload(workload)
        .profile(profile)
        .build()
        .map_err(|e| lower_err("engine", e))
}

// --- lowered forms -------------------------------------------------------

/// A serve scenario, lowered and ready to run.
pub struct ServeLowered {
    /// The deployment.
    pub engine: Engine,
    /// The plan the loop starts from.
    pub schedule: Schedule,
    /// The full arrival trace (sorted by arrival time).
    pub arrivals: Vec<TimedRequest>,
    /// The serving-loop options.
    pub options: ServeOptions,
}

/// A fleet scenario, lowered and ready to run.
pub struct FleetLowered {
    /// Per-pool (name, engine, plan), in declaration order.
    pub pools: Vec<(String, Engine, Schedule)>,
    /// The multi-tenant trace.
    pub trace: Vec<TenantRequest>,
    /// Replica specs in declaration order.
    specs: Vec<ReplicaSpec>,
    /// The fleet options.
    options: FleetOptions,
}

/// A replay scenario, lowered and ready to run.
pub struct ReplayLowered {
    /// The deployment.
    pub engine: Engine,
    /// The plan under replay.
    pub schedule: Schedule,
    /// The runner options (seed, query count, drifted traffic).
    pub options: RunOptions,
}

/// A lowered scenario of any mode.
pub enum Lowered {
    /// Single-replica serving.
    Serve(ServeLowered),
    /// Multi-replica fleet.
    Fleet(FleetLowered),
    /// Offline runner replay.
    Replay(ReplayLowered),
}

impl Lowered {
    /// Every (engine, plan) pair the scenario scheduled — the surface the
    /// plan-invariant property suite checks.
    pub fn plans(&self) -> Vec<(&Engine, &Schedule)> {
        match self {
            Lowered::Serve(s) => vec![(&s.engine, &s.schedule)],
            Lowered::Replay(r) => vec![(&r.engine, &r.schedule)],
            Lowered::Fleet(f) => f.pools.iter().map(|(_, e, s)| (e, s)).collect(),
        }
    }
}

// --- serve lowering ------------------------------------------------------

fn resolve_serve_rate(
    rate: &RateSpec,
    engine: &Engine,
    schedule: &Schedule,
    shifted: Option<&Workload>,
) -> Result<f64, ScenarioError> {
    match rate {
        RateSpec::Qps { qps } => Ok(*qps),
        RateSpec::CapacityFrac { frac, of } => match (of.as_str(), shifted) {
            // Evaluate the *stale* plan under the shifted traffic, falling
            // back to the plan estimate.
            ("shifted", Some(shifted)) => Ok(engine
                .simulator()
                .with_workload(shifted.clone())
                .evaluate(&schedule.config)
                .map(|e| frac * e.throughput)
                .unwrap_or(frac * schedule.estimate.throughput)),
            ("shifted", None) => {
                Err(lower_err("serve", "capacity_frac of `shifted` without a shift"))
            }
            _ => Ok(frac * schedule.estimate.throughput),
        },
        RateSpec::PoolCapacityFrac { .. } => {
            Err(lower_err("serve", "pool_capacity_frac is fleet-only"))
        }
    }
}

fn lower_serve(scenario: &Scenario, cfg: &ServeConfig) -> Result<ServeLowered, ScenarioError> {
    let model = lower_model(&scenario.model.preset)?;
    let cluster_cfg =
        scenario.cluster.as_ref().ok_or_else(|| lower_err("serve", "missing cluster"))?;
    let cluster = lower_cluster(cluster_cfg)?;
    let base = lower_workload(&scenario.workload)?;
    let engine = build_engine(&model, &cluster, base.clone())?;

    let bound = Secs::new(scenario.scheduler.latency_bound_secs);
    let schedule = engine.schedule(bound).map_err(|e| lower_err("schedule", e))?;

    let arrivals = match &cfg.arrivals {
        ArrivalsConfig::Poisson { rate } => {
            let qps = resolve_serve_rate(rate, &engine, &schedule, None)?;
            PoissonStream::new(&base, qps, scenario.seed).take(cfg.total).collect()
        }
        ArrivalsConfig::Bursty { rate_burst, rate_lull, dwell_burst_secs, dwell_lull_secs } => {
            let burst = resolve_serve_rate(rate_burst, &engine, &schedule, None)?;
            let lull = resolve_serve_rate(rate_lull, &engine, &schedule, None)?;
            BurstyStream::new(
                &base,
                burst,
                lull,
                *dwell_burst_secs,
                *dwell_lull_secs,
                scenario.seed,
            )
            .take(cfg.total)
            .collect()
        }
        ArrivalsConfig::PoissonWithShift { rate, shift_after_frac, scale_mean, scale_std } => {
            let shifted = scale_output(&base, Some(*scale_mean), *scale_std)?;
            let qps = resolve_serve_rate(rate, &engine, &schedule, Some(&shifted))?;
            // Truncate like `total / 4` does for frac = 0.25: exact for the
            // fractions the shipped files use, monotone for the rest.
            let shift_after = (shift_after_frac * cfg.total as f64) as usize;
            poisson_with_shift(&base, &shifted, qps, shift_after, cfg.total, scenario.seed)
        }
    };

    let horizon = arrivals.last().map(|r| r.arrival).unwrap_or(0.0);
    let defaults = ServeOptions::default();
    let default_drift = DriftOptions::default();
    let options = ServeOptions {
        slo: lower_slo(&cfg.slo),
        adjust_threshold: cfg.adjust_threshold.unwrap_or(defaults.adjust_threshold),
        drift: cfg
            .drift
            .as_ref()
            .map(|d| DriftOptions {
                window: d.window,
                min_samples: d.min_samples,
                check_every: d.check_every,
                rel_threshold: d.rel_threshold,
                consecutive: d.consecutive,
            })
            .unwrap_or(default_drift),
        adaptive: cfg.adaptive,
        scheduler: lower_scheduler(&scenario.scheduler, bound)?,
        faults: cfg.faults.as_ref().map(|f| lower_serve_faults(f, horizon)).transpose()?,
    };

    Ok(ServeLowered { engine, schedule, arrivals, options })
}

// --- fleet lowering ------------------------------------------------------

fn resolve_fleet_rate(
    rate: &RateSpec,
    pools: &[(String, Engine, Schedule)],
) -> Result<f64, ScenarioError> {
    let throughputs = || pools.iter().map(|(_, _, s)| s.estimate.throughput);
    match rate {
        RateSpec::Qps { qps } => Ok(*qps),
        RateSpec::PoolCapacityFrac { frac, pool } => {
            let thr = match pool.as_str() {
                "fastest" => throughputs().fold(f64::NEG_INFINITY, f64::max),
                "slowest" => throughputs().fold(f64::INFINITY, f64::min),
                name => {
                    pools
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .ok_or_else(|| lower_err("fleet", format!("unknown pool `{name}`")))?
                        .2
                        .estimate
                        .throughput
                }
            };
            Ok(frac * thr)
        }
        RateSpec::CapacityFrac { .. } => Err(lower_err("fleet", "capacity_frac is serve-only")),
    }
}

fn lower_tenant_process(
    arrivals: &TenantArrivals,
    pools: &[(String, Engine, Schedule)],
) -> Result<ArrivalProcess, ScenarioError> {
    match arrivals {
        TenantArrivals::Poisson { rate } => {
            Ok(ArrivalProcess::Poisson { rate_qps: resolve_fleet_rate(rate, pools)? })
        }
        TenantArrivals::Bursty { rate_burst, rate_lull, dwell_burst_secs, dwell_lull_secs } => {
            Ok(ArrivalProcess::Bursty {
                rate_burst: resolve_fleet_rate(rate_burst, pools)?,
                rate_lull: resolve_fleet_rate(rate_lull, pools)?,
                dwell_burst: *dwell_burst_secs,
                dwell_lull: *dwell_lull_secs,
            })
        }
    }
}

fn lower_fleet(scenario: &Scenario, cfg: &FleetConfig) -> Result<FleetLowered, ScenarioError> {
    let model = lower_model(&scenario.model.preset)?;
    let workload = lower_workload(&scenario.workload)?;

    // Pools: engine + plan each, in declaration order (profiles shared via
    // the cache, so two replicas on one pool profile once).
    let mut pools: Vec<(String, Engine, Schedule)> = Vec::new();
    for pool in &cfg.pools {
        let cluster = lower_cluster(&pool.cluster)?;
        let engine = build_engine(&model, &cluster, workload.clone())?;
        let bound =
            Secs::new(pool.latency_bound_secs.unwrap_or(scenario.scheduler.latency_bound_secs));
        let schedule = engine.schedule(bound).map_err(|e| lower_err("schedule", e))?;
        pools.push((pool.name.clone(), engine, schedule));
    }

    // Classes: the (fast + slow) / 2 midpoint of the pools' plan latencies,
    // taken as min/max over all pools.
    let latencies = || pools.iter().map(|(_, _, s)| s.estimate.latency.as_secs());
    let classes = cfg
        .classes
        .iter()
        .map(|c| {
            let targets = match &c.e2e {
                Some(E2eSpec::Secs { secs }) => SloTargets::e2e(Secs::new(*secs)),
                Some(E2eSpec::PlanLatencyMidpoint) => {
                    let fast = latencies().fold(f64::INFINITY, f64::min);
                    let slow = latencies().fold(f64::NEG_INFINITY, f64::max);
                    SloTargets::e2e(Secs::new(0.5 * (fast + slow)))
                }
                None => SloTargets::unconstrained(),
            };
            SloClass { name: c.name.clone(), targets, weight: c.weight }
        })
        .collect::<Vec<_>>();

    let class_index = |name: &str| -> Result<u32, ScenarioError> {
        cfg.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as u32)
            .ok_or_else(|| lower_err("fleet", format!("unknown class `{name}`")))
    };
    let tenants = cfg
        .tenants
        .iter()
        .map(|t| {
            Ok(TenantSpec {
                tenant: t.tenant,
                class: class_index(&t.class)?,
                process: lower_tenant_process(&t.arrivals, &pools)?,
            })
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;

    let trace = multi_tenant_trace(&workload, &tenants, cfg.total, scenario.seed);
    let horizon = trace.last().map(|r| r.request.arrival).unwrap_or(0.0);

    let replica_index = |name: &str| -> Result<usize, ScenarioError> {
        cfg.replicas
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| lower_err("fleet", format!("unknown replica `{name}`")))
    };
    // One script: the replica faults, then the scaling actions, each in
    // declaration order. The fleet applies actions on one replica at one
    // instant in script order.
    let faults = cfg.faults.iter().map(|f| (&f.at, f.action.as_str(), &f.replica));
    let scaling = cfg.scale.iter().map(|s| (&s.at, s.action.as_str(), &s.replica));
    let scale = faults
        .chain(scaling)
        .map(|(at, action, replica)| {
            let replica = replica_index(replica)?;
            let action = match action {
                "fail" => ScaleAction::Lose { replica },
                "recover" => ScaleAction::Recover { replica },
                "up" => ScaleAction::Up { replica },
                _ => ScaleAction::Down { replica },
            };
            Ok(ScaleEvent { t: resolve_time(at, horizon), action })
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;

    // Fleet replicas run non-adaptive: the router, not the replica, owns
    // global placement decisions.
    let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
    let specs = cfg
        .replicas
        .iter()
        .map(|r| {
            let (_, engine, schedule) = pools
                .iter()
                .find(|(n, _, _)| *n == r.pool)
                .ok_or_else(|| lower_err("fleet", format!("unknown pool `{}`", r.pool)))?;
            let spec = ReplicaSpec::new(&r.name, engine.clone(), schedule.config, opts.clone())
                .map_err(|e| lower_err("fleet", e))?;
            Ok(if r.standby { spec.standby() } else { spec })
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;

    let options =
        FleetOptions { policy: named(DISPATCH_POLICIES, "fleet", &cfg.policy)?, classes, scale };
    Ok(FleetLowered { pools, trace, specs, options })
}

// --- replay lowering -----------------------------------------------------

fn lower_replay(scenario: &Scenario, cfg: &ReplayConfig) -> Result<ReplayLowered, ScenarioError> {
    let model = lower_model(&scenario.model.preset)?;
    let cluster_cfg =
        scenario.cluster.as_ref().ok_or_else(|| lower_err("replay", "missing cluster"))?;
    let cluster = lower_cluster(cluster_cfg)?;
    let base = lower_workload(&scenario.workload)?;
    let engine = build_engine(&model, &cluster, base.clone())?;
    let bound = Secs::new(scenario.scheduler.latency_bound_secs);
    let schedule = engine.schedule(bound).map_err(|e| lower_err("schedule", e))?;

    let request_workload = if cfg.scale_mean.is_some() || cfg.scale_std.is_some() {
        Some(scale_output(&base, cfg.scale_mean, cfg.scale_std)?)
    } else {
        None
    };
    let options = RunOptions {
        num_queries: cfg.num_queries,
        seed: scenario.seed,
        request_workload,
        ..RunOptions::default()
    };
    Ok(ReplayLowered { engine, schedule, options })
}

/// Lowers a scenario (validating it first).
///
/// # Errors
///
/// Returns the validation error, or a [`ScenarioError::Lower`] when a
/// downstream constructor rejects the lowered values.
pub fn lower(scenario: &Scenario) -> Result<Lowered, ScenarioError> {
    scenario.validate()?;
    match &scenario.mode {
        Mode::Serve(cfg) => Ok(Lowered::Serve(lower_serve(scenario, cfg)?)),
        Mode::Fleet(cfg) => Ok(Lowered::Fleet(lower_fleet(scenario, cfg)?)),
        Mode::Replay(cfg) => Ok(Lowered::Replay(lower_replay(scenario, cfg)?)),
    }
}

// --- execution -----------------------------------------------------------

/// The typed report a run produced.
pub enum Report {
    /// A serving-loop report (boxed: it dwarfs the other variants).
    Serve(Box<ServeReport>),
    /// A fleet report.
    Fleet(FleetReport),
    /// An offline runner report.
    Replay(RunReport),
}

/// The deterministic result of executing a scenario.
pub struct Outcome {
    /// The scenario's name.
    pub name: String,
    /// The run's event log: JSONL for serve/fleet (fabric log plus every
    /// replica session log), a rendered line log for replay. Byte-identical
    /// across reruns.
    pub log: String,
    /// A short human-readable summary (also deterministic).
    pub summary: String,
    /// FNV-1a over `log`.
    pub digest: u64,
    /// The full typed report.
    pub report: Report,
}

impl ServeLowered {
    /// Runs the serving loop to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError::Run`] when the loop rejects the schedule
    /// or stalls.
    pub fn run(self) -> Result<ServeReport, ScenarioError> {
        ServeLoop::new(self.engine, &self.schedule.config, self.options)
            .map_err(|e| run_err("serve", e))?
            .run(self.arrivals)
            .map_err(|e| run_err("serve", e))
    }
}

impl FleetLowered {
    /// Runs the fleet to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError::Run`] when the fabric rejects the specs
    /// or the run fails.
    pub fn run(self) -> Result<FleetReport, ScenarioError> {
        Fleet::new(self.specs, self.options)
            .map_err(|e| run_err("fleet", e))?
            .run(self.trace)
            .map_err(|e| run_err("fleet", e))
    }
}

impl ReplayLowered {
    /// Replays the plan through the offline runner.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError::Run`] when execution fails.
    pub fn run(self) -> Result<RunReport, ScenarioError> {
        Runner::from_simulator(self.engine.simulator().clone())
            .run(&self.schedule.config, &self.options)
            .map_err(|e| run_err("replay", e))
    }
}

/// A deterministic line log for replay runs (the offline runner keeps no
/// event log, so the digest covers the report's stable facts).
fn replay_log(r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("completed={}\n", r.completed));
    out.push_str(&format!("tokens_generated={}\n", r.tokens_generated));
    out.push_str(&format!("makespan={:?}\n", r.makespan.as_secs()));
    out.push_str(&format!("throughput={:?}\n", r.throughput));
    if let Some(s) = r.latency_summary() {
        out.push_str(&format!(
            "latency: n={} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}\n",
            s.count, s.mean, s.p50, s.p95, s.p99, s.max
        ));
    }
    out
}

fn serve_summary(name: &str, r: &ServeReport, digest: u64) -> String {
    format!(
        "scenario {name} (serve): completed={} lost={} throughput={:.2} q/s \
         violation_rate={:.4} reschedules={} plan_swaps={} swap_cost={:.1}s \
         faults_injected={} retries={} final_schedule={} digest={}\n",
        r.completed,
        r.requests_lost,
        r.throughput,
        r.slo.violation_rate(),
        r.reschedules,
        r.plan_swaps,
        r.swap_cost,
        r.faults_injected,
        r.retries,
        r.final_schedule,
        format_digest(digest),
    )
}

fn fleet_summary(name: &str, r: &FleetReport, digest: u64) -> String {
    let mut out = format!(
        "scenario {name} (fleet): dispatched={} rerouted={} rejected={} completed={} \
         lost={} weighted_violation_rate={:.4} makespan={:.0}s digest={}\n",
        r.dispatched,
        r.rerouted,
        r.rejected,
        r.completed,
        r.lost,
        r.weighted_violation_rate,
        r.makespan,
        format_digest(digest),
    );
    for t in &r.tenants {
        out.push_str(&format!(
            "  tenant {} ({}): dispatched={} completed={} violations={}\n",
            t.tenant, t.class, t.dispatched, t.completed, t.slo.violations
        ));
    }
    out
}

fn replay_summary(name: &str, r: &RunReport, digest: u64) -> String {
    format!(
        "scenario {name} (replay): completed={} throughput={:.2} q/s makespan={:.0}s \
         digest={}\n",
        r.completed,
        r.throughput,
        r.makespan.as_secs(),
        format_digest(digest),
    )
}

/// Lowers and executes a scenario, returning the deterministic outcome.
///
/// # Errors
///
/// Returns the first validation, lowering, or run error.
pub fn run(scenario: &Scenario) -> Result<Outcome, ScenarioError> {
    let name = scenario.name.clone();
    match lower(scenario)? {
        Lowered::Serve(s) => {
            let report = s.run()?;
            let log = report.events.to_jsonl();
            let digest = fnv1a(&log);
            let summary = serve_summary(&name, &report, digest);
            Ok(Outcome { name, log, summary, digest, report: Report::Serve(Box::new(report)) })
        }
        Lowered::Fleet(f) => {
            let report = f.run()?;
            let log = report.log();
            let digest = fnv1a(&log);
            let summary = fleet_summary(&name, &report, digest);
            Ok(Outcome { name, log, summary, digest, report: Report::Fleet(report) })
        }
        Lowered::Replay(r) => {
            let report = r.run()?;
            let log = replay_log(&report);
            let digest = fnv1a(&log);
            let summary = replay_summary(&name, &report, digest);
            Ok(Outcome { name, log, summary, digest, report: Report::Replay(report) })
        }
    }
}
