//! Acceptance tests for the fleet fabric.
//!
//! * **Single-replica equivalence**: a fleet of one replays the
//!   single-replica serving loop's golden event log byte for byte — the
//!   fabric adds no behaviour to the loop body, only a clock.
//! * **Determinism**: the same trace and configuration reproduce every
//!   replica's event log and the fleet log byte-identically, at any
//!   replica count and through a replica loss.
//! * **Conservation**: every dispatched request is completed — even when a
//!   replica is lost mid-run and its queued and in-flight work reroutes
//!   onto survivors. Zero requests lost, per-tenant counts sum to the
//!   trace length.

use std::sync::{Arc, OnceLock};

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule};
use exegpt_fleet::{
    DispatchPolicy, Fleet, FleetError, FleetOptions, FleetReport, ReplicaSpec, SloClass,
};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_serve::{ServeLoop, ServeOptions};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, Task, TenantRequest, TimedRequest};

const SEED: u64 = 7;

fn profile() -> Arc<LayerProfile> {
    static PROFILE: OnceLock<Arc<LayerProfile>> = OnceLock::new();
    PROFILE
        .get_or_init(|| {
            Arc::new(
                Profiler::new(
                    ModelConfig::opt_13b(),
                    ClusterSpec::a40_cluster().subcluster(4).expect("fits"),
                )
                .run(&ProfileOptions::default())
                .expect("profiles"),
            )
        })
        .clone()
}

fn engine() -> Engine {
    let workload = Task::Translation.workload().expect("valid");
    Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
        .workload(workload)
        .profile(profile())
        .build()
        .expect("builds")
}

/// A Poisson stream wrapped as a single-tenant trace: identical
/// `TimedRequest`s to what the single-replica loop would consume.
fn trace(rate: f64, total: usize) -> Vec<TenantRequest> {
    let workload = Task::Translation.workload().expect("valid");
    PoissonStream::new(&workload, rate, SEED)
        .take(total)
        .map(|request| TenantRequest { tenant: 0, class: 0, request })
        .collect()
}

fn replica(name: &str, engine: &Engine, cfg: exegpt::ScheduleConfig) -> ReplicaSpec {
    let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
    ReplicaSpec::new(name, engine.clone(), cfg, opts).expect("valid replica")
}

/// Every event log a fleet run produced, concatenated: the fabric's own
/// log plus each replica session's JSONL rendering.
fn all_logs(report: &FleetReport) -> String {
    let mut out = report.events.to_jsonl();
    for r in &report.replicas {
        for s in &r.reports {
            out.push_str(&s.events.to_jsonl());
        }
    }
    out
}

#[test]
fn fleet_of_one_reproduces_the_single_replica_golden_log() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let rate = 0.5 * schedule.estimate.throughput;
    let total = 600;

    let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
    let arrivals: Vec<TimedRequest> = trace(rate, total).iter().map(|r| r.request).collect();
    let golden = ServeLoop::new(engine.clone(), &schedule.config, opts)
        .expect("builds")
        .run(arrivals)
        .expect("runs");

    let fleet =
        Fleet::new(vec![replica("solo", &engine, schedule.config)], FleetOptions::default())
            .expect("valid fleet");
    let report = fleet.run(trace(rate, total)).expect("runs");

    assert_eq!(report.dispatched, total);
    assert_eq!(report.completed, total);
    assert_eq!(report.replicas.len(), 1);
    assert_eq!(report.replicas[0].reports.len(), 1);
    let fleet_log = report.replicas[0].reports[0].events.to_jsonl();
    assert_eq!(
        fleet_log,
        golden.events.to_jsonl(),
        "a fleet of one must replay the single-replica event log verbatim"
    );
}

#[test]
fn fleet_runs_are_byte_deterministic_at_any_replica_count() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    for n in 1..=3usize {
        let rate = 0.5 * schedule.estimate.throughput * n as f64;
        let build = || {
            let specs =
                (0..n).map(|i| replica(&format!("r{i}"), &engine, schedule.config)).collect();
            Fleet::new(
                specs,
                FleetOptions {
                    policy: DispatchPolicy::LeastOutstanding,
                    ..FleetOptions::default()
                },
            )
            .expect("valid fleet")
        };
        let a = build().run(trace(rate, 400)).expect("runs");
        let b = build().run(trace(rate, 400)).expect("runs");
        assert_eq!(a.completed, 400);
        assert_eq!(all_logs(&a), all_logs(&b), "rerun with {n} replicas must be byte-identical");
    }
}

#[test]
fn replica_loss_reroutes_everything_and_loses_nothing() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let total = 800;
    let rate = 0.8 * schedule.estimate.throughput;
    let stream = trace(rate, total);
    let horizon = stream.last().expect("non-empty").request.arrival;
    let faults = FaultSchedule::new(vec![FaultEvent {
        t: 0.5 * horizon,
        kind: FaultKind::GpuFail { gpu: 1 },
    }])
    .expect("valid schedule");

    let build = || {
        Fleet::new(
            vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)],
            FleetOptions {
                policy: DispatchPolicy::KvHeadroom,
                faults: Some(faults.clone()),
                ..FleetOptions::default()
            },
        )
        .expect("valid fleet")
    };
    let report = build().run(stream.clone()).expect("runs");

    assert_eq!(report.dispatched, total, "every arrival is dispatched");
    assert_eq!(report.rejected, 0, "a survivor always exists");
    assert_eq!(report.lost, 0, "replica loss must not lose requests");
    assert_eq!(report.completed, total, "every request completes on the survivor");
    assert!(report.rerouted > 0, "the loss must strand in-flight work to reroute");
    let by_tenant: usize = report.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(by_tenant, total, "per-tenant accounting conserves requests");
    // The lost replica archived its partial session; the survivor ran on.
    assert_eq!(report.replicas[1].reports.len(), 1);
    assert!(matches!(report.replicas[1].state, exegpt_fleet::ReplicaState::Lost { .. }));

    // And the whole scenario — loss, reroute and all — is reproducible.
    let again = build().run(stream).expect("runs");
    assert_eq!(all_logs(&report), all_logs(&again), "loss scenario must be deterministic");
}

#[test]
fn tight_classes_route_to_fitting_replicas() {
    // Two identical pools: SLO-aware degenerates to least-outstanding and
    // must still complete everything (the policy's discriminating case is
    // the heterogeneous fleet-loss vs fleet-rr scenario test).
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let rate = 0.6 * schedule.estimate.throughput;
    let fleet = Fleet::new(
        vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)],
        FleetOptions {
            policy: DispatchPolicy::SloAware,
            classes: vec![SloClass::interactive("chat", Secs::new(120.0))],
            ..FleetOptions::default()
        },
    )
    .expect("valid fleet");
    let report = fleet.run(trace(rate, 400)).expect("runs");
    assert_eq!(report.completed, 400);
    assert!(report.tenants[0].slo.is_consistent());
    // Both replicas took a share: least-outstanding load-balances.
    assert!(report.replicas.iter().all(|r| r.dispatched > 0));
}

#[test]
fn a_repeated_request_id_is_rejected() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let build = || {
        Fleet::new(vec![replica("solo", &engine, schedule.config)], FleetOptions::default())
            .expect("valid fleet")
    };
    let mut requests = trace(0.5 * schedule.estimate.throughput, 50);
    // Another tenant sends a request under an id already in the trace:
    // its completion must not be credited to the first sender.
    let mut copy = requests[40];
    copy.tenant = 1;
    copy.request.request.id = requests[10].request.request.id;
    requests[40] = copy;
    match build().run(requests) {
        Err(FleetError::InvalidConfig { what, why }) => {
            assert_eq!(what, "trace");
            assert!(why.contains("appears more than once"), "{why}");
        }
        other => {
            panic!("expected InvalidConfig for the trace, got {:?}", other.map(|r| r.completed))
        }
    }
    // Distinct ids run, and every tenant is credited its own completions.
    let mut requests = trace(0.5 * schedule.estimate.throughput, 50);
    requests[40].tenant = 1;
    let report = build().run(requests).expect("runs");
    let completed: Vec<(u32, usize)> =
        report.tenants.iter().map(|t| (t.tenant, t.completed)).collect();
    assert_eq!(completed, vec![(0, 49), (1, 1)]);
}
