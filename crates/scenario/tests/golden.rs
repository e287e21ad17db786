//! Golden replay tests. Two shipped configs are rebuilt by hand from the
//! engine-stack APIs — the independent reference lowering is checked
//! against — and must match byte for byte; the shipped fault and fleet
//! studies keep the behaviour they exist to show; and the committed digest
//! index stays in lockstep with the scenario files.

use std::path::{Path, PathBuf};

use exegpt::Engine;
use exegpt::SchedulerOptions;
use exegpt_cluster::ClusterSpec;
use exegpt_fleet::{
    DispatchPolicy, Fleet, FleetOptions, FleetReport, ReplicaSpec, ScaleAction, ScaleEvent,
    SloClass,
};
use exegpt_model::ModelConfig;
use exegpt_profiler::ProfileCache;
use exegpt_scenario::{lower, run, toml, Lowered, Report, Scenario};
use exegpt_serve::{poisson_with_shift, DriftOptions, ServeLoop, ServeOptions, SloTargets};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::{multi_tenant_trace, ArrivalProcess, Task, TenantSpec};
use serde::Value;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> Scenario {
    Scenario::load(&scenarios_dir().join(name)).expect("shipped scenario loads")
}

fn engine_for(model: &ModelConfig, cluster: &ClusterSpec, workload: Workload) -> Engine {
    // An independent profile pass (not the scenario crate's cache):
    // profiling is deterministic, so the engines must still agree.
    let cache = ProfileCache::new();
    let profile = cache.get_or_profile(model, cluster).expect("profiling succeeds");
    Engine::builder()
        .model(model.clone())
        .cluster(cluster.clone())
        .workload(workload)
        .profile(profile)
        .build()
        .expect("engine builds")
}

/// `scenarios/serve-shift.toml` built by hand (the §7.6 adaptive arm):
/// lowering must reproduce this reference's event log byte for byte.
#[test]
fn serve_shift_config_matches_code_construction() {
    let outcome = run(&load("serve-shift.toml")).expect("serve-shift runs");

    // The reference construction, written against the serve APIs directly.
    let total = 2000;
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("4xA40 exists");
    let base = Task::Translation.workload().expect("task statistics are valid");
    let shifted = Workload::new(
        base.input().clone(),
        base.output().with_scaled_mean(1.5).expect("valid shift"),
    );
    let engine = engine_for(&model, &cluster, base.clone());
    let schedule = engine.schedule(Secs::new(30.0)).expect("bounded schedule exists");
    let rate = engine
        .simulator()
        .with_workload(shifted.clone())
        .evaluate(&schedule.config)
        .map(|e| 0.96 * e.throughput)
        .unwrap_or(0.96 * schedule.estimate.throughput);
    let arrivals = poisson_with_shift(&base, &shifted, rate, total / 4, total, 7);
    let opts = ServeOptions {
        slo: SloTargets::e2e(Secs::new(36.0)),
        adaptive: true,
        scheduler: SchedulerOptions::bounded(Secs::new(30.0)),
        drift: DriftOptions {
            window: 128,
            min_samples: 48,
            check_every: 16,
            rel_threshold: 0.15,
            consecutive: 2,
        },
        ..ServeOptions::default()
    };
    let report = ServeLoop::new(engine, &schedule.config, opts)
        .expect("schedule is feasible")
        .run(arrivals)
        .expect("serve run completes");

    assert_eq!(outcome.log, report.events.to_jsonl(), "event logs must be byte-identical");
    let Report::Serve(from_config) = outcome.report else {
        panic!("serve scenario must yield a serve report");
    };
    assert_eq!(from_config.completed, report.completed);
    assert_eq!(from_config.final_schedule, report.final_schedule);
}

/// `scenarios/fleet-loss.toml` built by hand (two pools, standby scale-up,
/// replica loss + recovery): lowering must reproduce this reference's
/// fabric-plus-replica log byte for byte.
#[test]
fn fleet_loss_config_matches_code_construction() {
    let outcome = run(&load("fleet-loss.toml")).expect("fleet-loss runs");

    // The reference construction, written against the fleet APIs directly.
    let total = 6000;
    let model = ModelConfig::opt_13b();
    let workload = Task::Translation.workload().expect("task statistics are valid");
    let a40 = ClusterSpec::a40_cluster().subcluster(4).expect("4xA40 exists");
    let a100 = ClusterSpec::a100_cluster().subcluster(4).expect("4xA100 exists");
    let engine40 = engine_for(&model, &a40, workload.clone());
    let engine100 = engine_for(&model, &a100, workload.clone());
    let plan40 = engine40.schedule(Secs::INFINITY).expect("a40 plan exists");
    let plan100 = engine100.schedule(Secs::INFINITY).expect("a100 plan exists");

    let lat40 = plan40.estimate.latency.as_secs();
    let lat100 = plan100.estimate.latency.as_secs();
    let interactive_e2e = 0.5 * (lat40.min(lat100) + lat40.max(lat100));
    let classes = vec![
        SloClass::interactive("interactive", Secs::new(interactive_e2e)),
        SloClass::batch("batch"),
    ];

    let thr40 = plan40.estimate.throughput;
    let thr100 = plan100.estimate.throughput;
    let fast_thr = thr40.max(thr100);
    let slow_thr = thr40.min(thr100);
    let tenants = vec![
        TenantSpec {
            tenant: 0,
            class: 0,
            process: ArrivalProcess::Poisson { rate_qps: 0.20 * fast_thr },
        },
        TenantSpec {
            tenant: 1,
            class: 0,
            process: ArrivalProcess::Poisson { rate_qps: 0.15 * fast_thr },
        },
        TenantSpec {
            tenant: 2,
            class: 1,
            process: ArrivalProcess::Poisson { rate_qps: 1.80 * slow_thr },
        },
        TenantSpec {
            tenant: 3,
            class: 1,
            process: ArrivalProcess::Bursty {
                rate_burst: 1.20 * slow_thr,
                rate_lull: 0.40 * slow_thr,
                dwell_burst: 20.0,
                dwell_lull: 60.0,
            },
        },
    ];
    let trace = multi_tenant_trace(&workload, &tenants, total, 7);
    let horizon = trace.last().map(|r| r.request.arrival).unwrap_or(0.0);

    let scale = vec![
        ScaleEvent { t: 0.50 * horizon, action: ScaleAction::Lose { replica: 1 } },
        ScaleEvent { t: 0.90 * horizon, action: ScaleAction::Recover { replica: 1 } },
        ScaleEvent { t: 0.55 * horizon, action: ScaleAction::Up { replica: 3 } },
    ];

    let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
    let specs = vec![
        ReplicaSpec::new("a40-0", engine40.clone(), plan40.config, opts.clone())
            .expect("replica spec"),
        ReplicaSpec::new("a40-1", engine40.clone(), plan40.config, opts.clone())
            .expect("replica spec"),
        ReplicaSpec::new("a100-0", engine100.clone(), plan100.config, opts.clone())
            .expect("replica spec"),
        ReplicaSpec::new("a40-standby", engine40.clone(), plan40.config, opts)
            .expect("replica spec")
            .standby(),
    ];
    let options = FleetOptions { policy: DispatchPolicy::SloAware, classes, scale };
    let report =
        Fleet::new(specs, options).expect("fleet builds").run(trace).expect("fleet run completes");

    assert_eq!(outcome.log, report.log(), "event logs must be byte-identical");
    let Report::Fleet(from_config) = outcome.report else {
        panic!("fleet scenario must yield a fleet report");
    };
    assert_eq!(from_config.completed, report.completed);
    assert_eq!(from_config.lost, 0, "no request may be lost across the replica failure");
}

/// `scenarios/serve-faults.toml` exercises the whole fault path: all four
/// events fire, the failure and the straggler are each confirmed once,
/// failover, eviction and recovery all replan, and recovery reinstalls the
/// initial plan verbatim.
#[test]
fn serve_faults_detects_replans_and_recovers_exactly() {
    let Lowered::Serve(lowered) = lower(&load("serve-faults.toml")).expect("serve-faults lowers")
    else {
        panic!("serve-faults must be a serve scenario");
    };
    let initial = lowered.schedule.config.describe();
    let r = lowered.run().expect("serve-faults runs");
    assert_eq!(r.faults_injected, 4, "every scheduled fault fires");
    assert_eq!(r.faults_detected, 1, "the failure is detected exactly once");
    assert_eq!(r.stragglers_detected, 1, "the straggler is confirmed exactly once");
    assert!(r.replans >= 3, "failover, eviction and recovery all replan ({})", r.replans);
    assert_eq!(r.final_schedule, initial, "recovery restores the initial plan");
}

/// On the same stream and replica loss, SLO-aware dispatch
/// (`fleet-loss.toml`) strictly beats round-robin (`fleet-rr.toml`) on
/// interactive violations, and the loss strands work that gets rerouted.
#[test]
fn fleet_slo_aware_beats_round_robin_and_reroutes() {
    let fleet = |name: &str| match run(&load(name)).expect("fleet scenario runs").report {
        Report::Fleet(r) => r,
        _ => panic!("{name} must be a fleet scenario"),
    };
    let interactive = |r: &FleetReport| -> usize {
        r.tenants.iter().filter(|t| t.class == "interactive").map(|t| t.slo.violations).sum()
    };
    let (slo, rr) = (fleet("fleet-loss.toml"), fleet("fleet-rr.toml"));
    let (v_slo, v_rr) = (interactive(&slo), interactive(&rr));
    assert!(v_slo < v_rr, "slo-aware must strictly beat round-robin ({v_slo} vs {v_rr})");
    assert!(slo.rerouted > 0, "the replica loss must strand work to reroute");
}

/// `GOLDENS.toml` names exactly the shipped scenario files, each with a
/// well-formed 16-hex-digit digest, and every shipped file validates.
#[test]
fn goldens_index_matches_shipped_scenarios() {
    let dir = scenarios_dir();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenarios dir exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml") && n != "GOLDENS.toml")
        .collect();
    files.sort();
    assert!(!files.is_empty(), "shipped scenarios must exist");

    for name in &files {
        let scenario = load(name);
        scenario.validate().expect("shipped scenario validates");
    }

    let goldens = std::fs::read_to_string(dir.join("GOLDENS.toml")).expect("goldens exist");
    let Value::Object(entries) = toml::parse(&goldens).expect("goldens parse") else {
        panic!("GOLDENS.toml must be a table");
    };
    let mut locked: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    locked.sort();
    assert_eq!(locked, files, "GOLDENS.toml must lock exactly the shipped scenarios");
    for (name, digest) in &entries {
        let Value::Str(d) = digest else {
            panic!("golden `{name}` must be a string digest");
        };
        assert_eq!(d.len(), 16, "golden `{name}` must be a 64-bit hex digest");
        assert!(
            d.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
            "golden `{name}` must be lowercase hex"
        );
    }
}
